"""
Reliability of a clustering
===========================

Likelihood only rewards a clustering for the exact edge outcome it
asserts.  Reliability is looser and more useful for steering questions:
each block should hang together (connectivity) and each block pair should
fall apart (disconnectivity), and we sum the log10 of those probabilities.
"""

import math

from perc import (
    Clustering,
    ReliabilityParams,
    UncertainGraph,
    block_connectivity,
    disconnectivity,
)
from perc.reliability import reliability

# Four records; the candidate clustering is {A,B,C} + {D}.  Inside the big
# block two edges form a path, and two edges cross over to D.
graph = UncertainGraph("ABCD", {
    ("A", "B"): 0.9, ("B", "C"): 0.8,
    ("A", "D"): 0.2, ("C", "D"): 0.6,
})
clustering = Clustering([("A", "B", "C"), ("D",)])

# The blocks separate when at least one crossing edge says NO:
# 1 - 0.2 * 0.6 = 0.88.
dis = disconnectivity(graph, clustering, ("A", "B", "C"), ("D",))
print(f"p(blocks separate)   = {dis:.4f}")

# The block {A,B,C} holds together only when both path edges are real:
# 0.9 * 0.8 = 0.72.
con = block_connectivity(graph, ("A", "B", "C"), ReliabilityParams()).value
print(f"p(block connected)   = {con:.4f}")

# Reliability adds the two stories in log10; singleton blocks are
# connected for free.
score = reliability(graph, clustering)
print(f"reliability          = {score.value:.5f}")
print(f"check  log10(0.72) + log10(0.88) = {math.log10(0.72) + math.log10(0.88):.5f}")

# The exact partition DP grows exponentially with the intra edges, so its
# limit is capped at 25 edges.  Blocks above the configured limit fall back
# to seeded sampling.
big = [f"r{i}" for i in range(10)]
edges = {}
for i in range(len(big)):
    for j in range(i + 1, min(i + 4, len(big))):
        edges[(big[i], big[j])] = 0.6 + 0.03 * ((i + j) % 5)
dense = UncertainGraph(big, edges=edges)
print(f"\nbigger block: {len(big)} records, {len(edges)} intra edges")

# exact_edge_limit picks the method: the block's edge count forces the exact
# solver, 0 forces sampling.
exact = block_connectivity(dense, big, ReliabilityParams(exact_edge_limit=len(edges))).value
for seed in (0, 1, 2):
    mc = block_connectivity(dense, big, ReliabilityParams(mc_samples=4000, seed=seed,
                                                          exact_edge_limit=0))
    print(f"  sampled (seed {seed})  {mc.value:.4f}   exact {exact:.4f}   "
          f"off by {abs(mc.value - exact):.4f}")

# Same seed, same estimate, every time; that determinism is what makes
# whole experiment runs reproducible later.
again = block_connectivity(dense, big, ReliabilityParams(mc_samples=4000, seed=0,
                                                       exact_edge_limit=0))
print("  seed 0 again      ", f"{again.value:.4f}")
