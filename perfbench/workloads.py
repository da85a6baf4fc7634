"""Workload definitions for the perc benchmark.

A workload is a fixed recipe of worlds and runs.  Its inputs come only from
the seed the benchmark is given: each world's records and gold clustering
are drawn from a seed derived from it, and the program sees nothing but
those records, that gold and (for next-cold) the vote files written from
them.

Worlds are balanced (every entity gets the same number of records).  The
cost of the selection loop depends strongly on block sizes, so uneven
entity sizes make the work per seed swing by several times; balanced
worlds keep one seed's work close to another's while the seed still picks
the record-to-entity assignment, the crowd's votes and every sampling
stream.  A pass covers several worlds for the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    kind is "loop" (run_experiment once per entry of ``runs`` in every
    world) or "next" (repeated ``perc next`` calls on vote files written
    during set-up).  ``runs`` holds ExperimentConfig keyword arguments.
    dominant, predicted_flat and decisions_note document the workload and
    are printed with every run.
    """

    name: str
    why: str
    kind: str
    worlds: int
    records: int
    entities: int
    runs: tuple = ()
    # next-cold only: vote-file sizes as edges per record, calls per file,
    # the flags of every call and the error rate of the crowd that votes
    densities: tuple = ()
    calls_per_file: int = 0
    batch: int = 10
    next_flags: tuple = ()
    crowd_error_rate: float = 0.1
    dominant: str = ""
    predicted_flat: tuple = ()
    decisions_note: str = ""
    # a pass's length in seconds on a busy 2-vCPU host, worker start and
    # reference timings included; an untraced run makes round(--seconds /
    # pass_seconds) passes
    pass_seconds: float = 3.0


WORKLOADS = {w.name: w for w in (
    Workload(
        name="many-blocks",
        why=("many small blocks make block-pair work dominate: the reliability "
             "snapshot, scc_cluster and build_state; block connectivity stays "
             "under 10%"),
        kind="loop", worlds=6, records=80, entities=16,
        runs=(dict(strategy="perc", initial_pairs=79, budget=679, batch_size=20),),
        dominant="reliability.disconnectivity / graph.edges_between (snapshot), "
                 "clustering.scc_cluster, selection.build_state",
        predicted_flat=("reliability.block_connectivity.*", "baselines.*"),
        decisions_note="30 per world (one per round after seeding), 180 per pass",
        pass_seconds=6.5,
    ),
    Workload(
        name="baselines",
        why=("TC then DENSE on one world each, as in the strategy comparison: "
             "dense_batch and rho_inputs dominate and selection is never called"),
        kind="loop", worlds=4, records=40, entities=10,
        runs=(dict(strategy="tc", initial_pairs=0, budget=1200, batch_size=10),
              dict(strategy="dense", initial_pairs=0, budget=1200, batch_size=10)),
        dominant="baselines.dense_batch / baselines.rho_inputs, baselines.tc_batch",
        predicted_flat=("selection.*", "reliability.block_connectivity.*"),
        decisions_note="about 100 per world (TC and DENSE rounds), about 400 per pass",
        pass_seconds=5.2,
    ),
    Workload(
        name="next-cold",
        why=("the operator's path: perc next --batch 10 on vote files of "
             "several densities, pricing a cold build_state with no incremental "
             "refresh; the only workload that measures fileio and cli"),
        kind="next", worlds=10, records=60, entities=12,
        densities=(1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5),
        calls_per_file=2, batch=10, next_flags=("--mc-samples", "100"),
        crowd_error_rate=0.05,
        dominant="selection.build_state (cold), clustering.scc_cluster, "
                 "fileio.load_graph",
        predicted_flat=("selection.refresh_after_answer",
                        "reliability.reliability", "baselines.*"),
        decisions_note="10 distinct calls per world (one per file, each made twice), "
                       "100 per pass",
        pass_seconds=3.6,
    ),
)}


def tiny(workload: Workload) -> Workload:
    """A seconds-long version of a workload for the smoke test."""
    if workload.kind == "next":
        return replace(workload, worlds=2, records=16, entities=4,
                       densities=(1.0, 2.0), batch=3)
    n = 12
    runs = tuple(dict(cfg, initial_pairs=min(cfg["initial_pairs"], n - 1),
                      budget=min(cfg["initial_pairs"], n - 1) + 8,
                      batch_size=min(cfg["batch_size"], 2))
                 for cfg in workload.runs)
    return replace(workload, worlds=2, records=n,
                   entities=min(workload.entities, 3), runs=runs)


def world_seed(seed: int, index: int) -> int:
    """Seed of world ``index`` in a run with workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def make_world(n_records: int, n_entities: int, seed: int):
    """Records r00.. and a balanced gold assignment drawn from ``seed``.

    Returns (records, entity_of) with entity_of mapping record to entity id.
    """
    width = max(2, len(str(n_records - 1)))
    records = [f"r{i:0{width}d}" for i in range(n_records)]
    order = np.random.default_rng(seed).permutation(n_records)
    entity_of = {records[idx]: f"e{i % n_entities:02d}" for i, idx in enumerate(order)}
    return records, entity_of


def vote_file_pairs(records, entity_of, n_edges: int, seed: int):
    """Pairs for one next-cold vote file, sorted: a random spanning path, so
    every record is touched, then same-entity pairs and uniform pairs in
    turn (the mix a campaign that has found some matches holds) up to
    ``n_edges``."""
    rng = np.random.default_rng(seed)
    order = [records[i] for i in rng.permutation(len(records))]
    chosen = {tuple(sorted(p)) for p in zip(order, order[1:])}
    all_pairs = [(a, b) for i, a in enumerate(records) for b in records[i + 1:]]
    same = [p for p in all_pairs if entity_of[p[0]] == entity_of[p[1]]]
    sources = [iter([same[i] for i in rng.permutation(len(same))]),
               iter([all_pairs[i] for i in rng.permutation(len(all_pairs))])]
    turn = 0
    while len(chosen) < n_edges:
        pair = next(sources[turn % 2], None) or next(sources[1])
        chosen.add(pair)
        turn += 1
    return sorted(chosen)
