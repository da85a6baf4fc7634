"""
Picking the next question
=========================

With a budget of crowd questions, ask where the answer moves the
reliability of the current clustering the most.  Questions inside a block
are scored by how much a certain YES would firm the block up; questions
across blocks by how much is still riding on the pair staying separable.
"""

from perc import (
    UncertainGraph,
    build_state,
    pair_priority,
    refresh_after_answer,
    scc_cluster,
    select_batch,
)

# The eight-record world again, including the all-NO answers for the far
# block pairs so only two block pairs are still uncertain.
probs = {
    ("A", "B"): 0.8, ("C", "D"): 0.8, ("E", "F"): 0.8, ("G", "H"): 0.8,
    ("A", "C"): 0.3, ("B", "D"): 0.6,
    ("E", "G"): 0.3, ("F", "H"): 0.7,
}
for a in "AB":
    for b in "EFGH":
        probs[(a, b)] = 0.0
for a in "CD":
    for b in "EFGH":
        probs[(a, b)] = 0.0
graph = UncertainGraph("ABCDEFGH", probs)
clustering = scc_cluster(graph)
print("current blocks:", clustering)

# Price every candidate once relative to those blocks.
state = build_state(graph, clustering)
print("\ncandidate queue:")
for entry in state.entries():
    a, b = entry.pair
    print(f"  {a}-{b}  gain {entry.gain:.4f}")

# {E,F} vs {G,H} separates with probability only 0.79, against 0.82 for
# {A,B} vs {C,D}, so its representative pair is the best single question.
print("\nnext question:", select_batch(state, 1)[0])

# Batches spread across weak spots before doubling up on any one of them;
# four questions cover both uncertain block pairs twice over.
print("batch of 4:   ", select_batch(state, 4))

# Suppose the crowd answers E-H with a clear NO, and the blocks stay as
# they are.  Folding the round in reprices only the one block pair's
# entry; everything else still holds.
answered = graph.with_edge("E", "H", probability=0.1)
refresh_after_answer(state, answered, clustering)
print("\nafter a NO on E-H:")
for entry in state.entries():
    a, b = entry.pair
    print(f"  {a}-{b}  gain {entry.gain:.4f}")

# The refreshed entry matches pricing that candidate from scratch.
check = pair_priority(answered, clustering, ("F", "G"))
print("scratch check for F-G:", f"{check.gain:.4f}")
