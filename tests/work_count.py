"""How many lines of src/perc the benchmark's seed-1 passes, and a
noisy-crowd pass, run per module: a measure of the program's work that
does not depend on the host.

    python tests/work_count.py            # print the counts against the recorded ones
    python tests/work_count.py --write    # also regenerate tests/work_counts.json

Each workload of perfbench/workloads.py is counted in a fresh Python process,
with the stdlib's sys.settrace, as the number of "line" events in code
compiled from src/perc:

- many-blocks and baselines: every run_experiment call of one seed-1 pass,
  its worlds built as perfbench/worker.py's run_loop builds them;
- next-cold: the perc.cli.main calls of one seed-1 pass, on the records and
  vote files that perfbench/worker.py's run_next writes, in a temporary
  directory;
- noisy-crowd, which no benchmark workload reaches: one PERC and one DENSE
  run_experiment call on the seed-1 world 0 of 60 records in 5 entities,
  with a crowd that errs on 3 answers in 10 (NOISY_CROWD).  Its blocks grow
  past the default exact_edge_limit, so the PERC run samples about 20.

Only those calls are traced, not the set-up around them.  A line event
counts an interpreter line, not work done in C (sorts, dict copies,
hashing, numpy), and line tables differ between Python minor versions, so
tests/work_counts.json keeps one set of counts per version.  The counts do
not depend on PYTHONHASHSEED.  A change that moves the program's work
regenerates the file and reports the change per module.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

from line_reach import PACKAGE, ROOT, SRC, in_temp_dir

COUNTS = Path(__file__).resolve().parent / "work_counts.json"
WORKLOADS = ("many-blocks", "baselines", "next-cold", "noisy-crowd")
SEED = 1
# the noisy-crowd pass as perfbench/workloads.py's Workload fields; about a
# second under sys.settrace on a 2-vCPU Xeon VM
NOISY_CROWD = dict(kind="loop", worlds=1, records=60, entities=5, runs=tuple(
    dict(strategy=strategy, initial_pairs=0, budget=450, batch_size=10, error_rate=0.3)
    for strategy in ("perc", "dense")))


class LineCounter:
    """A sys.settrace hook, active while entered, that counts the line events
    of each module of src/perc into ``counts``."""

    def __init__(self):
        self.counts = {path.stem: 0 for path in sorted(PACKAGE.glob("*.py"))}
        self._tracers: dict = {}  # code file name -> local trace function or None

    def _tracer(self, filename: str):
        path = Path(filename).resolve()
        if path.parent != PACKAGE:
            return None
        counts, module = self.counts, path.stem

        def local(frame, event, arg):
            if event == "line":
                counts[module] += 1
            return local
        return local

    def _call(self, frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            return self._tracers[filename]
        except KeyError:
            local = self._tracers[filename] = self._tracer(filename)
            return local

    def __enter__(self):
        self._outer = sys.gettrace()  # tests/line_reach.py's, in a traced child
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._outer)


def count_workload(name: str) -> dict[str, int]:
    """Line events per module of one seed-1 pass of the workload, in this
    process."""
    sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]
    import perc
    import perc.cli
    from perc.fileio import write_records_csv, write_votes_csv
    from workloads import WORKLOADS as RECIPES, Workload, make_world, vote_file_pairs, world_seed

    if Path(perc.__file__).resolve().parent != PACKAGE:
        raise SystemExit(f"perc imported from {perc.__file__}, not from {PACKAGE}")
    workload = RECIPES[name] if name in RECIPES else Workload(name, "", **NOISY_CROWD)
    counter = LineCounter()
    for index in range(workload.worlds):
        seed = world_seed(SEED, index)
        records, entity_of = make_world(workload.records, workload.entities, seed)
        gold = perc.GoldClustering(entity_of)
        if workload.kind == "loop":
            for cfg in workload.runs:
                config = perc.ExperimentConfig(seed=seed, **cfg)
                with counter:
                    perc.run_experiment(config, records, gold=gold)
            continue
        oracle = perc.SimulatedOracle(gold, perc.WorkerModel(error_rate=workload.crowd_error_rate),
                                      seed=seed)
        with in_temp_dir() as workdir:
            write_records_csv(workdir / "records.csv", records)
            files = []
            for j, density in enumerate(workload.densities):
                pairs = vote_file_pairs(records, entity_of, round(density * len(records)), seed + j)
                files.append(workdir / f"votes{j}.csv")
                write_votes_csv(files[-1], [(p, oracle.answer(p)) for p in pairs])
            for _ in range(workload.calls_per_file):
                for path in files:
                    argv = ["next", "--records", str(workdir / "records.csv"), "--graph",
                            str(path), "--batch", str(workload.batch), *workload.next_flags]
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()), counter:
                        code = perc.cli.main(argv)
                    if code != 0:
                        raise SystemExit(f"perc {' '.join(argv)} exited {code}")
    return counter.counts


def measure() -> dict[str, dict[str, int]]:
    """Each workload's counts, each from its own fresh process, so that no
    cache carries work from one count into another."""
    out = {}
    for name in WORKLOADS:
        child = subprocess.run([sys.executable, __file__, "--workload", name],
                               capture_output=True, text=True)
        if child.returncode:
            raise RuntimeError(f"counting {name} failed:\n{child.stderr}")
        out[name] = json.loads(child.stdout)
    return out


def version() -> str:
    return f"{sys.version_info.major}.{sys.version_info.minor}"


def recorded() -> dict[str, dict[str, dict[str, int]]]:
    """The counts of tests/work_counts.json, per Python minor version."""
    return json.loads(COUNTS.read_text()) if COUNTS.exists() else {}


def table(measured: dict[str, dict[str, int]], before: dict[str, dict[str, int]]) -> str:
    """Per workload and module: the count in ``before`` (recorded), the
    measured count and the measured count's change from it."""
    lines = []
    for name, per in measured.items():
        old = before.get(name, {})
        rows = [(m, old.get(m, 0), per.get(m, 0)) for m in sorted(per.keys() | old.keys())]
        rows.append(("total", sum(old.values()), sum(per.values())))
        lines.append(f"{name:<14}{'recorded':>12}{'measured':>12}{'change':>12}")
        lines.extend(f"{module:<14}{was:>12,}{now:>12,}{now - was:>+12,}"
                     for module, was, now in rows)
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="count this workload in this process and print its counts as JSON")
    parser.add_argument("--write", action="store_true",
                        help=f"store the counts for Python {version()} in {COUNTS.name}")
    args = parser.parse_args(argv)
    if args.workload:
        print(json.dumps(count_workload(args.workload)))
        return 0
    counts = measure()
    stored = recorded()
    print(f"line events per module of src/perc, seed-1 passes, Python {version()}, "
          f"against {COUNTS.name}")
    print(table(counts, stored.get(version(), {})))
    if args.write:
        stored[version()] = counts
        COUNTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
        print(f"wrote {COUNTS.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
