"""
Uncertain vote graphs
=====================

Crowd workers answer "are these two records the same entity?" and the
fraction of YES votes becomes an edge probability.  This walk-through
builds a small eight-record world, then scores candidate clusterings by
the probability of the one edge outcome that agrees with them exactly.
"""

from perc import Clustering, UncertainGraph, VoteTally, clustering_log_likelihood

# Eight records, four underlying entities: AB, CD, EF, GH.  Ten workers
# answered each asked pair; the YES counts are the only evidence we keep.
rows = [
    (("A", "B"), VoteTally(yes=8, total=10)),
    (("C", "D"), VoteTally(yes=8, total=10)),
    (("E", "F"), VoteTally(yes=8, total=10)),
    (("G", "H"), VoteTally(yes=8, total=10)),
    (("A", "C"), VoteTally(yes=3, total=10)),
    (("B", "D"), VoteTally(yes=6, total=10)),
    (("E", "G"), VoteTally(yes=3, total=10)),
    (("F", "H"), VoteTally(yes=7, total=10)),
]

graph = UncertainGraph("ABCDEFGH").with_edges(rows)

print("records:", " ".join(graph.records))
print("edges so far:")
for (a, b), p in graph.edge_items():
    print(f"  {a}-{b}  p(match) = {p:.1f}")

# A pair nobody asked about is different from a pair the crowd rejected:
# (A, D) is simply unknown, and the graph keeps that distinction.
print("\n(A,D) asked?", graph.has_edge("A", "D"))
print("unasked pairs:", ", ".join(f"{a}-{b}" for a, b in graph.absent_pairs()))

# A clustering is "true" exactly when every intra-block edge is a real
# match and every other asked edge is not.  That single edge outcome has a
# probability, and its log10 is the clustering's likelihood.
candidates = {
    "four pairs": Clustering([("A", "B"), ("C", "D"), ("E", "F"), ("G", "H")]),
    "two quads": Clustering([("A", "B", "C", "D"), ("E", "F", "G", "H")]),
    "all singletons": Clustering([(r,) for r in "ABCDEFGH"]),
}

print("\nlog10 likelihood of the outcome each clustering asserts:")
for name, clustering in candidates.items():
    ll = clustering_log_likelihood(graph, clustering)
    print(f"  {name:15s} {ll:8.3f}")

# The four-pair clustering wins: it only has to pay for the weak
# cross evidence (0.3, 0.6, 0.3, 0.7) being wrong, not for breaking the
# strong 0.8 edges inside the pairs.
