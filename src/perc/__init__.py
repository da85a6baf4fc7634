"""Crowdsourced entity resolution on uncertain vote graphs.

The crowd's YES-vote fractions form an uncertain graph over the records.
Clusterings are scored by possible-world likelihood and by reliability
(connected inside blocks, separated across them), the next crowd question
is the absent pair whose favorable answer would raise reliability most,
and an experiment harness compares that selection policy against the TC
and DENSE baselines on simulated or replayed crowds.
"""

from .graph import (Clustering, UncertainGraph, VoteTally, clustering_log_likelihood,
                    possible_world_log_prob)
from .reliability import ReliabilityParams, block_connectivity, disconnectivity
from .clustering import merge_probability, mlc_bruteforce, mlc_unchanged, scc_cluster
from .selection import build_state, pair_priority, refresh_after_answer, select_batch
from .crowd import GoldClustering, ReplayOracle, SimulatedOracle, WorkerModel
from .harness import (ExperimentConfig, precision_recall_f1, questions_to_reach,
                      run_experiment, synth_world)

__version__ = "0.1.0"

# the names the demos, the README and the benchmark call, and the paper's
# model functions; every other name is imported from its submodule
__all__ = [
    "Clustering", "UncertainGraph", "VoteTally", "clustering_log_likelihood",
    "possible_world_log_prob",
    "ReliabilityParams", "block_connectivity", "disconnectivity",
    "merge_probability", "mlc_bruteforce", "mlc_unchanged", "scc_cluster",
    "build_state", "pair_priority", "refresh_after_answer", "select_batch",
    "GoldClustering", "ReplayOracle", "SimulatedOracle", "WorkerModel",
    "ExperimentConfig", "precision_recall_f1", "questions_to_reach", "run_experiment",
    "synth_world",
]
