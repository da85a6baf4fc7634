"""
From votes to blocks
====================

Three clustering tools and when each one earns its keep: a merge
probability for two blocks, the fast agglomerative pass used inside the
question loop, and the exact brute-force optimum that is only feasible on
tiny inputs but keeps the fast pass honest.
"""

from perc import (
    UncertainGraph,
    clustering_log_likelihood,
    merge_probability,
    mlc_bruteforce,
    mlc_unchanged,
    scc_cluster,
)

graph = UncertainGraph("ABCDEFGH", {
    ("A", "B"): 0.8, ("C", "D"): 0.8, ("E", "F"): 0.8, ("G", "H"): 0.8,
    ("A", "C"): 0.3, ("B", "D"): 0.6,
    ("E", "G"): 0.3, ("F", "H"): 0.7,
})

# Should {A,B} and {C,D} merge?  Compare the evidence for "every spanning
# edge is a match" against "none is": 0.3*0.6 versus 0.7*0.4.
p_merge = merge_probability(graph, ("A", "B"), ("C", "D"))
print(f"p({{A,B}} same entity as {{C,D}}) = {p_merge:.4f}")

# Below one half, so the agglomerative pass leaves them apart.  It starts
# from singletons and keeps taking the best merge while one clears 0.5.
clustering = scc_cluster(graph)
print("agglomerative result:", clustering)

# On four records we can afford the exact optimum: score every partition.
small = UncertainGraph("ABCD", {
    ("A", "B"): 0.9, ("B", "C"): 0.8,
    ("A", "D"): 0.2, ("C", "D"): 0.6,
})
best, best_ll = mlc_bruteforce(small)
print(f"\nexact optimum on ABCD: {best}  (log10 likelihood {best_ll:.3f})")

# The greedy pass agrees here, which is the common case.
print("agglomerative on ABCD:", scc_cluster(small))

# New answers arrive constantly during a run.  Most agree with the current
# blocks, and those provably cannot move the optimum, so a cheap screen
# decides whether re-clustering is needed at all.
current = best
agreeing = (("A", "C"), 0.8)      # intra pair, crowd says match
contradicting = (("A", "C"), 0.1)  # intra pair, crowd says different
for pair, p in (agreeing, contradicting):
    safe = mlc_unchanged(current, pair, p)
    print(f"answer p={p} on intra pair {pair}: optimum can shift = {not safe}")

# Feed the contradicting answer in and the optimum really does move:
# breaking {A,B,C} beats paying for a 0.1 edge inside it.
shifted = small.with_edge("A", "C", probability=0.1)
best2, _ = mlc_bruteforce(shifted)
print("after the 0.1 answer:", best2)
print("old blocks now score:",
      f"{clustering_log_likelihood(shifted, best):.3f}",
      " new blocks:",
      f"{clustering_log_likelihood(shifted, best2):.3f}")
