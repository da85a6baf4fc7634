"""Wall time of noisy-crowd runs, and of the three functions that dominate
them.

    python tests/noisy_timing.py

Each run is run_experiment on synth_world(60, 5, seed) with a crowd that errs
on 3 answers in 10, budget 1,200 and batch 10, for PERC and DENSE on seeds
1-5: the shape of CI's sampled run, where a crowd this noisy grows blocks
past the default exact_edge_limit and joins every record in one p > 1/2
component.  reliability._distribution's cache is cleared before each run, so
every run prices its blocks afresh.  Per run the helper prints the wall time
and the time spent inside clustering._agglomerate,
reliability._sampled_partitions and reliability._partition_dp, read by
wrapping those module globals; the wrappers' own cost, a perf_counter pair
per call, is in the wall time.

It also counts each carried scc_cluster call (one given ``previous``) by the
way scc_cluster's size rule gathered its dirty components' edges: member-pair
lookups (edges_within) or the one pass over all edges.  After the call, both
ways are timed again on its graph and components, and the helper prints, per
way the rule took, the calls, their time that way and their time the other
way.  That timing is left out of the wall time.

It gates nothing, and pytest does not collect it.  To compare two commits,
run it in each checkout in turn, alternating, since the host drifts.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from perc import clustering, harness, reliability  # noqa: E402
from perc.graph import UncertainGraph  # noqa: E402
from perc.harness import ExperimentConfig, run_experiment, synth_world  # noqa: E402

TIMED = ((clustering, "_agglomerate"), (reliability, "_sampled_partitions"),
         (reliability, "_partition_dp"))
STRATEGIES = ("perc", "dense")
SEEDS = (1, 2, 3, 4, 5)


def timed(spent: dict, name: str, function):
    """``function``, adding the seconds each call takes to spent[name]."""
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            spent[name] += time.perf_counter() - start
    return wrapper


def pass_over_edges(graph: UncertainGraph, component: dict, keys) -> dict:
    """scc_cluster's one pass over all edges, for the components ``keys``."""
    edges_in = {key: [] for key in keys}
    for (a, b), p in graph.edges.items():
        key = component[a]
        if key in edges_in and component[b] == key:
            edges_in[key].append(((a, b), p))
    return edges_in


class SizeRule:
    """Wrappers that record, per carried scc_cluster call, the way the size
    rule took and the time of each way: ways[way] = [calls, seconds that
    way, seconds the other way]."""

    def __init__(self):
        self.ways = {"lookups": [0, 0.0, 0.0], "pass": [0, 0.0, 0.0]}
        self.extra = 0.0  # seconds spent timing, to leave out of the wall
        self._inside = False
        self._looked_up = False
        self._members: list[list[str]] = []

    def edges_within(self, function):
        def wrapper(graph, members):
            self._looked_up |= self._inside
            return function(graph, members)
        return wrapper

    def agglomerate(self, function):
        def wrapper(members, edges):
            if self._inside:
                self._members.append(members)
            return function(members, edges)
        return wrapper

    def scc_cluster(self, function, edges_within):
        def wrapper(graph, previous=None):
            if previous is None:
                return function(graph)
            self._inside, self._looked_up, self._members = True, False, []
            try:
                result = function(graph, previous=previous)
            finally:
                self._inside = False
            component = result._carry[1]
            keys = [component[ms[0]] for ms in self._members]
            start = time.perf_counter()
            for ms in self._members:
                edges_within(graph, ms)
            looked_up = time.perf_counter()
            pass_over_edges(graph, component, keys)
            end = time.perf_counter()
            lookups, passed = looked_up - start, end - looked_up
            way = self.ways["lookups" if self._looked_up else "pass"]
            way[0] += 1
            way[1] += lookups if self._looked_up else passed
            way[2] += passed if self._looked_up else lookups
            self.extra += end - start
            return result
        return wrapper


def run(strategy: str, seed: int) -> tuple[float, dict, SizeRule]:
    """One noisy-crowd run: its wall seconds, the seconds inside each timed
    function, and its size-rule record."""
    records, gold = synth_world(60, 5, seed=seed)
    config = ExperimentConfig(strategy=strategy, budget=1200, batch_size=10, error_rate=0.3)
    spent = {name: 0.0 for _, name in TIMED}
    rule = SizeRule()
    patched = []
    for module, name in TIMED:
        function = getattr(module, name)
        if function is clustering._agglomerate:
            function = rule.agglomerate(function)
        patched.append((module, name, timed(spent, name, function)))
    within = UncertainGraph.edges_within
    patched += [(UncertainGraph, "edges_within", rule.edges_within(within)),
                (harness, "scc_cluster", rule.scc_cluster(harness.scc_cluster, within))]
    originals = [(module, name, getattr(module, name)) for module, name, _ in patched]
    reliability._distribution.cache_clear()
    for module, name, function in patched:
        setattr(module, name, function)
    try:
        start = time.perf_counter()
        run_experiment(config, records, gold)
        wall = time.perf_counter() - start
    finally:
        for module, name, function in originals:
            setattr(module, name, function)
    return wall - rule.extra, spent, rule


def main() -> int:
    print("seconds per noisy-crowd run (60 records, 5 entities, error 0.3, budget 1200, "
          f"batch 10), Python {sys.version_info[0]}.{sys.version_info[1]};")
    print("then carried scc_cluster calls by the way the size rule gathered their edges: "
          "calls, ms that way, ms the other way")
    print(f"{'strategy':<9}{'seed':>5}{'wall':>8}" + "".join(f"{name:>21}" for _, name in TIMED)
          + f"{'lookups':>23}{'pass':>23}")
    for strategy in STRATEGIES:
        for seed in SEEDS:
            wall, spent, rule = run(strategy, seed)
            print(f"{strategy:<9}{seed:>5}{wall:>8.3f}"
                  + "".join(f"{spent[name]:>21.3f}" for _, name in TIMED)
                  + "".join(f"{calls:>7}{1e3 * taken:>8.2f}{1e3 * other:>8.2f}"
                            for calls, taken, other in rule.ways.values()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
