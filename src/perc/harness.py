"""End-to-end crowdsourcing loop and evaluation.

One experiment: seed the graph with some initial questions, cluster, then
round after round pick a batch with the configured strategy, collect crowd
answers, fold them in, re-cluster when an answer disagrees with the
current clustering, and snapshot quality metrics.  The budget counts
distinct pairs ever asked, seeding included.

Each strategy is a build / refresh / batch protocol that _strategy reads
from this module's globals once per run, not at import, so a wrapper
installed here after import (the benchmark's counters) sees every call.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field

from .baselines import (build_dense_state, build_tc_state, dense_batch, refresh_dense_state,
                        refresh_tc_state, tc_batch)
from .clustering import mlc_unchanged, scc_cluster
from .crowd import (GoldClustering, ReplayOracle, SimulatedOracle,
                    UnrecordedPairError, VoteTally, WorkerModel, crowd_error_rate)
from .graph import Clustering, Pair, UncertainGraph
from .reliability import ReliabilityParams, changes_since, reliability
from .selection import build_state, refresh_after_answer, select_batch
from .util import ConfigError, canonical_pair, check_fields, check_int, derive_seed, make_rng

log = logging.getLogger(__name__)

STRATEGIES = ("perc", "tc", "dense")

# the most records synth_world makes: 5e9 pairs, already past any run's reach
MAX_SYNTH_RECORDS = 100_000

# the most records a run may hold every record pair of: TC's open pairs,
# DENSE's absent pairs and simulated seeding past a spanning path (initial
# pairs >= records) grow with their square.  A 20-question run (batch 10)
# at 500, 1,000 and 2,000 records took tc 0.07, 0.28 and 1.07 s (49, 90
# and 255 MB peak) and dense 0.37, 1.68 and 7.15 s (73, 188 and 628 MB),
# against perc 0.02 s and 36 MB, on a 2-vCPU Xeon VM.  PERC keeps no such
# table and is not bounded.
MAX_ALL_PAIRS_RECORDS = 2000

NAN = float("nan")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs beyond the records and the answer source."""

    strategy: str = "perc"
    budget: int = field(default=100, metadata={"ge": 0})
    batch_size: int = field(default=1, metadata={"ge": 1})
    initial_pairs: int = field(default=0, metadata={"ge": 0})
    # the crowd and reliability fields take their defaults from the
    # dataclasses that check them
    workers_per_pair: int = WorkerModel.workers_per_pair
    error_rate: float = WorkerModel.error_rate
    mc_samples: int = ReliabilityParams.mc_samples
    epsilon: float = ReliabilityParams.epsilon
    exact_edge_limit: int = ReliabilityParams.exact_edge_limit
    seed: int = ReliabilityParams.seed
    eval_every: int = field(default=1, metadata={"ge": 1})

    def __post_init__(self):
        check_fields(self)
        if self.strategy not in STRATEGIES:
            raise ConfigError("strategy", f"unknown strategy {self.strategy!r}, "
                                          f"pick one of {STRATEGIES}")
        if self.initial_pairs > self.budget:
            raise ConfigError("initial_pairs", f"initial_pairs={self.initial_pairs} "
                                               f"must sit in 0..budget ({self.budget})")
        if self.budget > 0 and self.batch_size > self.budget:
            raise ConfigError("batch_size",
                              f"batch_size={self.batch_size} exceeds budget={self.budget}")
        # the crowd and reliability parameters check their own fields
        self.worker_model()
        self.reliability_params()

    def worker_model(self) -> WorkerModel:
        return WorkerModel(workers_per_pair=self.workers_per_pair,
                           error_rate=self.error_rate)

    def reliability_params(self) -> ReliabilityParams:
        """The run's one set of reliability params, the ones ``perc next``
        takes as flags; every round of the run prices with them."""
        return ReliabilityParams(mc_samples=self.mc_samples, epsilon=self.epsilon,
                                 exact_edge_limit=self.exact_edge_limit, seed=self.seed)


@dataclass(frozen=True)
class MetricsSnapshot:
    """One curve row, taken after a crowdsourcing round."""

    questions_asked: int
    precision: float
    recall: float
    f1: float
    reliability: float
    blocks: int


@dataclass
class RunResult:
    """A finished run: the metric curve plus everything needed to replay it."""

    curve: list[MetricsSnapshot]
    clustering: Clustering
    vote_log: list[tuple[Pair, VoteTally]]
    stats: dict
    flags: dict


def _pairs_within(sizes: Counter) -> int:
    return sum(n * (n - 1) // 2 for n in sizes.values())


def precision_recall_f1(predicted: Clustering, gold: GoldClustering,
                        terms: dict | None = None) -> tuple[float, float, float]:
    """Pairwise precision, recall and F1 of a clustering against gold.

    Precision is 0 when the clustering reports no matching pair, recall is
    0 when gold has none, F1 is 0 when either is 0.  ``terms`` is a dict a
    run keeps across snapshots of one gold, holding gold's matching-pair
    count (key None) and the current blocks' exact (reported, correct) pair
    counts, so a call counts only the blocks it has not seen.
    """
    entity = gold.entity
    if predicted._owner.keys() != entity.keys():
        raise ValueError("clustering and gold cover different record sets")
    terms = {} if terms is None else terms
    gold_matching = terms.get(None)
    if gold_matching is None:
        gold_matching = _pairs_within(Counter(entity.values()))
    kept: dict = {None: gold_matching}
    reported = correct = 0
    for block in predicted.blocks:
        if len(block) > 1:
            # the block's pairs, and its correct ones: those inside each gold entity
            counts = kept[block] = terms.get(block) or (
                len(block) * (len(block) - 1) // 2,
                _pairs_within(Counter(entity[r] for r in block)))
            reported += counts[0]
            correct += counts[1]
    terms.clear()
    terms.update(kept)
    precision = correct / reported if reported else 0.0
    recall = correct / gold_matching if gold_matching else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def questions_to_reach(curve: list[MetricsSnapshot], target_f1: float) -> int | None:
    """Questions asked at the first snapshot with f1 >= target, else None."""
    for snap in curve:
        if snap.f1 >= target_f1:
            return snap.questions_asked
    return None


def _initial_pairs_simulated(records: tuple[str, ...], count: int, seed: int) -> list[Pair]:
    """Up to count seeding questions: a random spanning path, then uniform pairs.

    The spanning structure guarantees early rounds see every record at
    least once; the remainder is a uniform sample of the leftover pairs.
    """
    rng = make_rng(derive_seed(seed, "initial"))
    order = [records[i] for i in rng.permutation(len(records))]
    chosen: list[Pair] = []
    chosen_set: set[Pair] = set()
    for a, b in zip(order, order[1:]):
        if len(chosen) >= count:
            break
        key = canonical_pair(a, b)
        chosen.append(key)
        chosen_set.add(key)
    if len(chosen) < count:
        rest = [(a, b) for i, a in enumerate(records) for b in records[i + 1:]
                if (a, b) not in chosen_set]
        for idx in rng.permutation(len(rest)):
            if len(chosen) >= count:
                break
            chosen.append(rest[idx])
    return chosen


def _strategy(name: str) -> tuple:
    """The strategy's build, refresh and batch functions, and whether its
    state would propose pairs the replay restriction hid: PERC if any pair
    is absent, DENSE if a block pair is live, TC never (it ignores it)."""
    return {
        "perc": (build_state, refresh_after_answer, select_batch,
                 lambda state: next(state.graph.absent_pairs(), None) is not None),
        "tc": (build_tc_state, refresh_tc_state, tc_batch, lambda state: False),
        "dense": (build_dense_state, refresh_dense_state, dense_batch,
                  lambda state: bool(state.live)),
    }[name]


def run_experiment(config: ExperimentConfig, records, gold: GoldClustering | None = None,
                   replay: ReplayOracle | None = None) -> RunResult:
    """Run one crowdsourcing experiment to its budget.

    Answers come from the replay log when one is given, otherwise from a
    simulated crowd against ``gold``.  Metrics need gold; a replay run
    without it still produces the curve with NaN quality columns.  In
    replay mode the seeding phase takes the first initial_pairs rows of the
    log in order, and candidate selection is restricted to logged pairs; a
    selection the log cannot answer ends the run early with a flag.  A log
    naming a record outside ``records`` raises ValueError, as do more than
    MAX_ALL_PAIRS_RECORDS records for tc, dense or simulated seeding with
    initial_pairs >= the record count.
    """
    recs = tuple(sorted(set(records)))
    if replay is None and gold is None:
        raise ValueError("need a gold clustering or a replay log to answer questions")
    if gold is not None and gold.records != set(recs):
        raise ValueError("gold clustering does not cover exactly the given records")
    if len(recs) > MAX_ALL_PAIRS_RECORDS:
        bound = f"every record pair: {len(recs)} records exceed {MAX_ALL_PAIRS_RECORDS}"
        if config.strategy in ("tc", "dense"):
            raise ValueError(f"strategy {config.strategy} holds {bound}")
        if replay is None and config.initial_pairs >= len(recs):
            raise ValueError(f"initial_pairs={config.initial_pairs} seeds from {bound}")

    graph = UncertainGraph(recs)
    oracle: ReplayOracle | SimulatedOracle
    allowed: frozenset | None = None
    if replay is not None:
        oracle = replay
        allowed = oracle.pairs
        # a record outside recs raises ValueError
        graph._checked((pair, tally.fraction) for pair, tally in oracle.rows)
        seed_pairs = [pair for pair, _ in oracle.rows[:config.initial_pairs]]
    else:
        oracle = SimulatedOracle(gold, config.worker_model(), seed=config.seed)
        seed_pairs = _initial_pairs_simulated(recs, config.initial_pairs, config.seed)
    vote_log: list[tuple[Pair, VoteTally]] = []
    flags: dict = {}

    def ask(pair: Pair) -> VoteTally:
        # the seeding's or a round's answers go into the graph together
        tally = oracle.answer(pair)
        vote_log.append((pair, tally))
        return tally

    for pair in seed_pairs:
        ask(pair)
    graph = graph.with_edges(vote_log)

    clustering = scc_cluster(graph)
    build, refresh, select, wishes = _strategy(config.strategy)
    params = config.reliability_params()
    state = build(graph, clustering, params, allowed=allowed)

    mlc_checks = 0
    mlc_failures = 0
    reclusterings = 0
    reclusterings_changed = 0
    rounds = 0
    curve: list[MetricsSnapshot] = []
    score = None  # the last snapshot's reliability, carried into the next
    f1_terms: dict = {}  # the snapshots' per-block F1 counts

    def snapshot(changes=None):
        nonlocal score
        if curve and curve[-1].questions_asked == len(vote_log):
            return
        if gold is not None:
            precision, recall, f1 = precision_recall_f1(clustering, gold, f1_terms)
        else:
            precision = recall = f1 = NAN
        score = reliability(graph, clustering, params, previous=score, changes=changes)
        curve.append(MetricsSnapshot(questions_asked=len(vote_log),
                                     precision=precision, recall=recall, f1=f1,
                                     reliability=score.value,
                                     blocks=len(clustering.blocks)))

    snapshot()
    while "unanswered_selection" not in flags and len(vote_log) < config.budget:
        k = min(config.batch_size, config.budget - len(vote_log))
        batch = select(state, k)
        if not batch:
            flags["exhausted"] = True
            if allowed is not None and wishes(state):
                flags["replay_exhausted"] = True
            break
        answered: list[tuple[Pair, VoteTally]] = []
        for pair in batch:
            try:
                answered.append((pair, ask(pair)))
            except UnrecordedPairError:
                flags["replay_exhausted"] = True
                flags["unanswered_selection"] = pair
                break
        if not answered:
            break
        graph = graph.with_edges(answered)
        mlc_checks += len(answered)
        changed_votes = sum(not mlc_unchanged(clustering, pair, tally.fraction)
                            for pair, tally in answered)
        mlc_failures += changed_votes
        if changed_votes:
            reclusterings += 1
            fresh = scc_cluster(graph, previous=clustering)
            reclusterings_changed += fresh != clustering
            clustering = fresh
        rounds += 1
        # the round's change, found once for the state and, with eval_every 1,
        # for the snapshot, whose last score was then priced where the state
        # was and so lends the spans of the block pairs that gained edges
        changes = changes_since(state.graph, state.clustering, graph, clustering, score=score)
        refresh(state, graph, clustering, changes)
        if rounds % config.eval_every == 0:
            snapshot(changes if config.eval_every == 1 else None)
        log.debug("round %d: asked %d pairs, %d blocks, %d total questions",
                  rounds, len(answered), len(clustering.blocks), len(vote_log))

    snapshot()
    stats = {
        "questions_asked": len(vote_log),
        "rounds": rounds,
        "mlc_checks": mlc_checks,
        "mlc_failures": mlc_failures,
        "recluster_fraction": (mlc_failures / mlc_checks) if mlc_checks else 0.0,
        "reclusterings": reclusterings,
        "reclusterings_changed": reclusterings_changed,
    }
    stats["crowd_error_rate"] = None if gold is None else crowd_error_rate(vote_log, gold)
    return RunResult(curve=curve, clustering=clustering, vote_log=vote_log,
                     stats=stats, flags=flags)


def synth_world(n_records: int, n_entities: int, seed: int = 0) -> tuple[list[str], GoldClustering]:
    """Random ground-truth world: records spread over entities.

    Every entity gets at least one record; the rest are assigned uniformly,
    so entity sizes vary around n_records / n_entities.  A bool, a float
    or another non-integer count or seed raises ConfigError naming it.
    """
    for name, value in (("n_records", n_records), ("n_entities", n_entities), ("seed", seed)):
        check_int(name, value)
    if not 1 <= n_records <= MAX_SYNTH_RECORDS:
        raise ValueError(f"record count {n_records} must sit in 1..{MAX_SYNTH_RECORDS}")
    if not 1 <= n_entities <= n_records:
        raise ValueError(
            f"entity count {n_entities} must sit in 1..{n_records}")
    width = max(2, len(str(n_records - 1)))
    records = [f"r{i:0{width}d}" for i in range(n_records)]
    ewidth = max(2, len(str(n_entities - 1)))
    entities = [f"e{i:0{ewidth}d}" for i in range(n_entities)]
    rng = make_rng(derive_seed(seed, "synth"))
    order = rng.permutation(n_records)
    assignment: dict[str, str] = {}
    for i, idx in enumerate(order):
        if i < n_entities:
            assignment[records[idx]] = entities[i]
        else:
            assignment[records[idx]] = entities[int(rng.integers(n_entities))]
    return records, GoldClustering(assignment)
