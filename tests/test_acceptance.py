"""Acceptance suite: one test per shipping criterion, one PASS/FAIL line each.

Verdicts collect in VERDICTS and conftest prints them in the terminal
summary, after capture is released; the assertions carry the stated
tolerances."""

import contextlib
import math
import time

import numpy as np
import pytest

from perc import (
    Clustering,
    ExperimentConfig,
    ReliabilityParams,
    ReplayOracle,
    SimulatedOracle,
    UncertainGraph,
    block_connectivity,
    build_state,
    clustering_log_likelihood,
    disconnectivity,
    merge_probability,
    mlc_bruteforce,
    mlc_unchanged,
    pair_priority,
    questions_to_reach,
    refresh_after_answer,
    reliability,
    run_experiment,
    scc_cluster,
    select_batch,
    select_next,
    synth_world,
)
from perc.fileio import write_curve_csv
from perc.harness import _initial_pairs_simulated
from perc.reliability import MAX_EXACT_EDGE_LIMIT

from conftest import (
    RUNNING_BLOCKS,
    RUNNING_EDGES,
    TRIO_EDGES,
    random_partition,
    random_small_graph,
)


VERDICTS: list[str] = []


@contextlib.contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        VERDICTS.append(f"ACCEPTANCE {num} {name}: FAIL")
        raise
    VERDICTS.append(f"ACCEPTANCE {num} {name}: PASS")


def running_graph():
    return UncertainGraph.from_probabilities("ABCDEFGH", RUNNING_EDGES)


def trio_graph():
    return UncertainGraph.from_probabilities("ABCD", TRIO_EDGES)


def test_1_worked_example_fidelity():
    started = time.perf_counter()
    with criterion(1, "worked-example fidelity"):
        trio = trio_graph()
        trio_c = Clustering([["A", "B", "C"], ["D"]])
        assert disconnectivity(trio, trio_c, ("A", "B", "C"), ("D",)) == \
            pytest.approx(0.88, abs=1e-6)

        run = running_graph()
        run_c = Clustering(RUNNING_BLOCKS)
        c1, c2, c3, c4 = run_c.blocks
        assert disconnectivity(run, run_c, c1, c2) == pytest.approx(0.82, abs=1e-6)
        assert disconnectivity(run, run_c, c3, c4) == pytest.approx(0.79, abs=1e-6)
        assert disconnectivity(run, run_c, c1, c4) == pytest.approx(1.0, abs=1e-6)

        exact_rel = reliability(trio, trio_c).value
        assert exact_rel == pytest.approx(-0.199, abs=1e-3)
        for seed in range(20):
            sampled = reliability(trio, trio_c,
                                  ReliabilityParams(mc_samples=1000,
                                                    exact_edge_limit=0,
                                                    seed=seed))
            assert abs(sampled.value - exact_rel) <= 0.03

        assert merge_probability(run, c1, c2) == pytest.approx(0.3913, abs=1e-4)

        assert scc_cluster(run) == run_c
        state = build_state(run, run_c)
        first = select_next(state)
        assert first == ("E", "H")
        assert run_c.block_of("E") == c3 and run_c.block_of("H") == c4
        gain34 = pair_priority(run, run_c, first).gain
        gain12 = pair_priority(run, run_c, ("A", "D")).gain
        assert gain34 == pytest.approx(-math.log10(0.79), abs=1e-6)
        assert gain12 == pytest.approx(-math.log10(0.82), abs=1e-6)
        assert round(gain34, 3) == 0.102
        assert round(gain12, 3) == 0.086
        assert gain34 > gain12

        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"worked examples took {elapsed:.2f}s, limit 1s"


def test_2_sampled_connectivity_accuracy():
    started = time.perf_counter()
    with criterion(2, "sampled-connectivity accuracy"):
        rng = np.random.default_rng(20260822)
        hits = 0
        for i in range(100):
            n = int(rng.integers(2, 9))
            members = [f"m{j}" for j in range(n)]
            pairs = [(members[a], members[b])
                     for a in range(n) for b in range(a + 1, n)]
            rng.shuffle(pairs)
            count = int(rng.integers(1, min(len(pairs), 14) + 1))
            edges = {pair: float(rng.uniform(0.05, 0.95))
                     for pair in pairs[:count]}
            g = UncertainGraph(members, edges=edges)
            exact = block_connectivity(g, members, ReliabilityParams()).value
            sampled = block_connectivity(
                g, members,
                ReliabilityParams(mc_samples=1000, seed=i, exact_edge_limit=0)).value
            tolerance = 3.0 * math.sqrt(exact * (1.0 - exact) / 1000.0) + 0.005
            if abs(sampled - exact) <= tolerance:
                hits += 1
        assert hits >= 95, f"sampled connectivity inside tolerance only {hits}/100"
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"accuracy sweep took {elapsed:.1f}s, limit 30s"


def test_3_monotonicity_and_stability_screen():
    started = time.perf_counter()
    with criterion(3, "monotonicity and stability screen"):
        rng = np.random.default_rng(31415)
        params = ReliabilityParams(exact_edge_limit=25)
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]

        checked = 0
        while checked < 50:
            g = random_small_graph(rng, n_min=3, n_max=7, p_edge=0.6)
            c = random_partition(rng, g.records)
            absent = list(g.absent_pairs())
            if not absent:
                continue
            pair = absent[int(rng.integers(len(absent)))]
            base = reliability(g, c, params).value
            intra = c.same_block(*pair)
            values = []
            for q in grid:
                p = q if intra else 1.0 - q
                g2 = g.with_edge(*pair, probability=p)
                values.append(reliability(g2, c, params).value)
            assert abs(values[0] - base) <= 1e-12, \
                "reliability moved although the edge cannot agree"
            for lo, hi in zip(values, values[1:]):
                assert hi >= lo - 1e-12, "reliability dropped as agreement rose"
            assert values[-1] >= max(values) - 1e-12, \
                "certain agreement is not the maximal gain"
            checked += 1

        trials = 0
        while trials < 100:
            g = random_small_graph(rng, n_min=3, n_max=7, p_edge=0.6)
            absent = list(g.absent_pairs())
            if not absent:
                continue
            before, _ = mlc_bruteforce(g)
            pair = absent[int(rng.integers(len(absent)))]
            agree = float(rng.uniform(0.5, 1.0))
            if agree == 0.5:
                continue
            p = agree if before.same_block(*pair) else 1.0 - agree
            assert mlc_unchanged(before, pair, p)
            g2 = g.with_edge(*pair, probability=p)
            after, after_ll = mlc_bruteforce(g2)
            assert clustering_log_likelihood(g2, before) >= after_ll - 1e-9, \
                "screened-in answer moved the brute-force argmax"
            trials += 1

        elapsed = time.perf_counter() - started
        assert elapsed < 120.0, f"property sweep took {elapsed:.1f}s, limit 2min"


def test_4_evidence_ratio_factors():
    with criterion(4, "evidence-ratio factors"):
        from perc import rho_inputs
        run = running_graph()
        c1, c2, c3, c4 = Clustering(RUNNING_BLOCKS).blocks
        expected = 0.3 / 0.7
        assert abs(rho_inputs(run, c1, c2).min_factor - expected) <= 1e-9
        assert abs(rho_inputs(run, c3, c4).min_factor - expected) <= 1e-9


def test_5_cache_selection_equivalence():
    with criterion(5, "cache-selection equivalence"):
        from perc import GoldClustering, WorkerModel

        for seed in range(20):
            n = 10 + seed % 6
            records, gold = synth_world(n, 4, seed=seed)
            oracle = SimulatedOracle(gold, WorkerModel(5, 0.1), seed=seed)
            graph = UncertainGraph(records)
            for pair in _initial_pairs_simulated(tuple(sorted(records)),
                                                 n - 1, seed):
                graph = graph.with_edge(*pair, tally=oracle.answer(pair))
            clustering = scc_cluster(graph)
            # every block of these worlds is priced exactly (at most 12 edges)
            params = ReliabilityParams(seed=seed, exact_edge_limit=MAX_EXACT_EDGE_LIMIT)
            state = build_state(graph, clustering, params)
            for _ in range(12):
                incremental = select_batch(state, 3)
                scratch = select_batch(build_state(graph, clustering, params), 3)
                assert incremental == scratch, \
                    f"cached selection diverged from scratch (seed {seed})"
                if not incremental:
                    break
                answered = []
                for pair in incremental:
                    tally = oracle.answer(pair)
                    graph = graph.with_edge(*pair, tally=tally)
                    answered.append((pair, tally))
                stale = any(not mlc_unchanged(clustering, pair, tally.fraction)
                            for pair, tally in answered)
                changed = False
                if stale:
                    fresh = scc_cluster(graph)
                    changed = fresh != clustering
                    clustering = fresh
                if changed:
                    state = build_state(graph, clustering, params)
                else:
                    refresh_after_answer(state, graph, clustering)


def test_6_strategy_comparison():
    started = time.perf_counter()
    with criterion(6, "strategy comparison"):
        def crossing(strategy, master):
            records, gold = synth_world(60, 12, seed=master)
            config = ExperimentConfig(strategy=strategy, budget=1200,
                                      batch_size=10, initial_pairs=0,
                                      workers_per_pair=5, error_rate=0.1,
                                      seed=master, eval_every=1)
            result = run_experiment(config, records, gold=gold)
            q = questions_to_reach(result.curve, 0.9)
            return math.inf if q is None else q

        beats_tc = 0
        matches_dense = 0
        for master in range(10):
            q_perc = crossing("perc", master)
            q_tc = crossing("tc", master)
            q_dense = crossing("dense", master)
            if q_perc < q_tc:
                beats_tc += 1
            if q_perc < math.inf and q_perc <= q_dense:
                matches_dense += 1
        assert beats_tc >= 9, f"fewer questions than tc in only {beats_tc}/10 seeds"
        assert matches_dense >= 7, \
            f"within dense's question count in only {matches_dense}/10 seeds"
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0, f"comparison took {elapsed:.1f}s, limit 5min"


def test_7_determinism_and_replay(tmp_path):
    with criterion(7, "determinism and replay"):
        for strategy in ("perc", "tc", "dense"):
            records, gold = synth_world(20, 5, seed=99)
            config = ExperimentConfig(strategy=strategy, budget=80,
                                      batch_size=5, initial_pairs=19,
                                      workers_per_pair=5, error_rate=0.1,
                                      seed=123, eval_every=1)
            first = run_experiment(config, records, gold=gold)
            second = run_experiment(config, records, gold=gold)
            paths = []
            for tag, result in (("first", first), ("second", second)):
                path = tmp_path / f"{strategy}-{tag}.csv"
                write_curve_csv(path, result.curve)
                paths.append(path)
            assert paths[0].read_bytes() == paths[1].read_bytes(), \
                f"{strategy}: rerun changed curve bytes"

            replayed = run_experiment(config, records, gold=gold,
                                      replay=ReplayOracle(first.vote_log))
            assert replayed.curve == first.curve, \
                f"{strategy}: replayed log changed the curve"
            replay_path = tmp_path / f"{strategy}-repltruth.csv"
            write_curve_csv(replay_path, replayed.curve)
            assert replay_path.read_bytes() == paths[0].read_bytes()
