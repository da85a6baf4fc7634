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

It gates nothing, and pytest does not collect it.  To compare two commits,
run it in each checkout in turn, alternating, since the host drifts.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from perc import clustering, reliability  # noqa: E402
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


def run(strategy: str, seed: int) -> tuple[float, dict]:
    """One noisy-crowd run: its wall seconds and the seconds inside each
    timed function."""
    records, gold = synth_world(60, 5, seed=seed)
    config = ExperimentConfig(strategy=strategy, budget=1200, batch_size=10, error_rate=0.3)
    spent = {name: 0.0 for _, name in TIMED}
    originals = [(module, name, getattr(module, name)) for module, name in TIMED]
    reliability._distribution.cache_clear()
    for module, name, function in originals:
        setattr(module, name, timed(spent, name, function))
    try:
        start = time.perf_counter()
        run_experiment(config, records, gold)
        wall = time.perf_counter() - start
    finally:
        for module, name, function in originals:
            setattr(module, name, function)
    return wall, spent


def main() -> int:
    print("seconds per noisy-crowd run (60 records, 5 entities, error 0.3, budget 1200, "
          f"batch 10), Python {sys.version_info[0]}.{sys.version_info[1]}")
    print(f"{'strategy':<9}{'seed':>5}{'wall':>8}" + "".join(f"{name:>21}" for _, name in TIMED))
    for strategy in STRATEGIES:
        for seed in SEEDS:
            wall, spent = run(strategy, seed)
            print(f"{strategy:<9}{seed:>5}{wall:>8.3f}"
                  + "".join(f"{spent[name]:>21.3f}" for _, name in TIMED), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
