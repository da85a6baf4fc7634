"""Crowdsourced entity resolution on uncertain vote graphs.

The crowd's YES-vote fractions form an uncertain graph over the records.
Clusterings are scored by possible-world likelihood and by reliability
(connected inside blocks, separated across them), the next crowd question
is the absent pair whose favorable answer would raise reliability most,
and an experiment harness compares that selection policy against the TC
and DENSE baselines on simulated or replayed crowds.
"""

from .graph import (Clustering, Pair, UncertainGraph, VoteTally,
                    clustering_log_likelihood, enumerate_partitions, ingest_votes,
                    possible_world_log_prob)
from .reliability import (ConnectivityEstimate, ReliabilityParams, ReliabilityScore,
                          block_connectivity, disconnectivity)
from .clustering import (merge_probability, mlc_bruteforce, mlc_unchanged,
                         scc_cluster)
from .selection import (CandidatePriority, PriorityState, build_state,
                        pair_priority, refresh_after_answer, select_batch,
                        select_next)
from .baselines import (DenseState, RhoInputs, TcState, build_dense_state, build_tc_state,
                        dense_batch, refresh_dense_state, refresh_tc_state, rho_inputs, tc_batch)
from .crowd import (GoldClustering, Oracle, ReplayOracle, SimulatedOracle,
                    UnrecordedPairError, WorkerModel, crowd_error_rate,
                    simulate_votes)
from .harness import (ExperimentConfig, MetricsSnapshot, RunResult,
                      precision_recall_f1, questions_to_reach, run_experiment,
                      synth_world)

__version__ = "0.1.0"

__all__ = [
    "Clustering", "Pair", "UncertainGraph", "VoteTally",
    "clustering_log_likelihood", "enumerate_partitions", "ingest_votes",
    "possible_world_log_prob",
    "ConnectivityEstimate", "ReliabilityParams", "ReliabilityScore",
    "block_connectivity", "disconnectivity",
    "merge_probability", "mlc_bruteforce", "mlc_unchanged", "scc_cluster",
    "CandidatePriority", "PriorityState", "build_state", "pair_priority",
    "refresh_after_answer", "select_batch", "select_next",
    "DenseState", "RhoInputs", "TcState", "build_dense_state", "build_tc_state", "dense_batch",
    "refresh_dense_state", "refresh_tc_state", "rho_inputs", "tc_batch",
    "GoldClustering", "Oracle", "ReplayOracle", "SimulatedOracle",
    "UnrecordedPairError", "WorkerModel", "crowd_error_rate", "simulate_votes",
    "ExperimentConfig", "MetricsSnapshot", "RunResult", "precision_recall_f1",
    "questions_to_reach", "run_experiment", "synth_world",
]
