"""One benchmark pass, every world of it, in a fresh process.

run.py starts it; it is not meant to be run by hand:

    python3 perfbench/worker.py --workload NAME --world-seeds N,N,... --t0 T
        [--scale tiny] [--trace SPANS.npz] [--out DIR] [--replay DIR] [--quality]

Runs the given worlds one after another in this one process.  For each it
sets up the world (draws it, writes vote files), runs the workload's timed
operations and checks their outputs.  It prints one JSON object as its last
line: set-up seconds (process start, imports included, to the first timed
operation), peak RSS, and per world the operations' wall seconds, the
stretches between crowd answers, quality figures and problems found, and
output digests.  Untraced, it also times a fixed reference workload
(reference_ms) at every decision, so that run.py can give each time at a
fixed machine speed.

--out keeps the first world's output files in DIR.  --replay DIR instead
replays the vote logs kept there through ReplayOracle (next-cold, which has
no vote log to replay, simply runs again); the caller compares the digests
with those of the original run.  next-cold computes its quality figures,
which cost a clustering of every vote file, only with --quality.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_perc():
    """perc from this checkout's sources, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import perc
    if Path(perc.__file__).resolve().parent != src / "perc":
        raise SystemExit(f"perc imported from {perc.__file__}, not from {src}")
    return perc


# Iterations of the reference work; about 1.4 ms on an unloaded 2-vCPU
# Xeon VM.
REFERENCE_ITERATIONS = 10_000


def reference_ms() -> float:
    """Milliseconds taken by a fixed piece of pure-Python work (dict updates
    and float arithmetic, like perc's own inner loops).  Timed next to each
    decision, it gives the speed the machine lent this process just then."""
    start = time.perf_counter()
    acc: dict[int, float] = {}
    x = 0.5
    for i in range(REFERENCE_ITERATIONS):
        k = (i * 7919) % 1021
        acc[k] = acc.get(k, 0.0) + x
        x = x * 0.999 + 0.001
    return (time.perf_counter() - start) * 1e3


def nearest_refs(refs: list[tuple[int, float]], count: int) -> list[float | None]:
    """For ``count`` stretches, where stretch i runs from answer i - 1 to
    answer i, the mean of the reference times taken nearest before and
    after it.  ``refs`` holds (k, ms) for a reference taken right after
    answer k (k = -1: before the first stretch), in order of k."""
    out = []
    j = 0
    for i in range(count):
        while j < len(refs) and refs[j][0] < i:
            j += 1
        around = [refs[j - 1][1]] if j else []
        around += [refs[j][1]] if j < len(refs) else []
        out.append(sum(around) / len(around) if around else None)
    return out


class Crowd:
    """Answer timestamps taken at the crowd boundary, the batch size of
    every selection so answers can be split into rounds, and, unless
    tracing, a reference timing at the first answer of every round."""

    def __init__(self, perc, tracer=None):
        """Install the timed oracle and the batch counters; once per process."""
        self.ends: list[float] = []  # when each answer came back
        self.starts: list[float] = []  # when the program resumed after it
        self.refs: list[tuple[int, float]] = []
        self.batches: list[int] = []
        self.pending_ref = False
        self.with_refs = tracer is None
        harness = importlib.import_module("perc.harness")
        crowd = self
        base = perc.SimulatedOracle

        class TimedOracle(base):
            def answer(self, pair):
                tally = base.answer(self, pair)
                now = time.perf_counter()
                crowd.ends.append(now)
                if crowd.pending_ref:
                    crowd.pending_ref = False
                    crowd.refs.append((len(crowd.ends) - 1, reference_ms()))
                    now = time.perf_counter()
                crowd.starts.append(now)
                return tally

        if tracer is not None:
            TimedOracle.answer = tracer.wrap(TimedOracle.answer, "crowd.answer")
        harness.SimulatedOracle = TimedOracle
        for name in ("select_batch", "tc_batch", "dense_batch"):
            setattr(harness, name, self._count_batches(getattr(harness, name)))

    def _count_batches(self, fn):
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.batches.append(len(out))
            self.pending_ref = self.with_refs
            return out
        return counted

    def begin(self) -> float:
        """Clear the last run's records, take the reference for the stretches
        before the first selection, and return the start time."""
        self.ends.clear()
        self.starts.clear()
        self.refs.clear()
        self.batches.clear()
        self.pending_ref = False
        if self.with_refs:
            self.refs.append((-1, reference_ms()))
        return time.perf_counter()

    def timeline(self, start: float, end: float, seeded: int):
        """The run's wall time cut at every answer, in ms, without the time
        spent on references; each stretch's nearest reference times (None
        when tracing); and the indices of the cuts that are decisions: the
        gap from the last answer of one round (seeding counts as one) to
        the first answer of the next."""
        intervals = [(b - a) * 1e3 for a, b in zip([start, *self.starts],
                                                    [*self.ends, end])]
        decisions = []
        first = seeded
        for size in self.batches:
            if size and 1 <= first < len(self.ends):
                decisions.append(first)
            first += size
        return intervals, nearest_refs(self.refs, len(intervals)), decisions


def f1_area(curve) -> float:
    """Area under F1 against questions asked, over the questions span, for
    (questions, f1) points."""
    xs = [x for x, _ in curve]
    ys = [y for _, y in curve]
    span = xs[-1] - xs[0]
    if span <= 0:
        return ys[-1]
    area = sum((x1 - x0) * (y0 + y1) / 2 for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]))
    return area / span


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def loop_problems(result, records, budget) -> list[str]:
    """Invariants every loop run must keep."""
    problems = []
    pairs = [pair for pair, _ in result.vote_log]
    if len(pairs) > budget:
        problems.append(f"asked {len(pairs)} questions, budget {budget}")
    if len(set(pairs)) != len(pairs):
        problems.append("a pair was asked twice")
    if result.clustering.records != frozenset(records):
        problems.append("final clustering does not cover every record")
    for snap in result.curve:
        if not all(0.0 <= v <= 1.0 for v in (snap.precision, snap.recall, snap.f1)):
            problems.append(f"quality outside [0, 1] at {snap.questions_asked} questions")
            break
    return problems


def run_loop(perc, workload, world_seed, workdir, tracer, crowd, replay=None, quality=True):
    from perc.fileio import read_votes_csv, write_curve_csv, write_votes_csv
    from workloads import make_world

    records, entity_of = make_world(workload.records, workload.entities, world_seed)
    gold = perc.GoldClustering(entity_of)
    configs = [perc.ExperimentConfig(seed=world_seed, **cfg) for cfg in workload.runs]
    out = {"ready": time.monotonic(), "ops": []}
    curve_digest = hashlib.sha256()
    votes_digest = hashlib.sha256()
    for i, config in enumerate(configs):
        op = {"kind": config.strategy}
        log = None if replay is None else perc.ReplayOracle(
            read_votes_csv(Path(replay) / f"votes{i}.csv"))
        try:
            if tracer is not None:
                tracer.new_run()
                span = tracer.open("harness.run_experiment")
            start = crowd.begin()
            result = perc.run_experiment(config, records, gold=gold, replay=log)
            end = time.perf_counter()
            op["wall_s"] = end - start
            if tracer is not None:
                tracer.close(span)
        except Exception as exc:  # a failing operation is counted, not fatal
            op["problems"] = [f"{type(exc).__name__}: {exc}"]
            out["ops"].append(op)
            continue
        op["questions"] = len(result.vote_log)
        op["intervals_ms"], op["ref_ms"], op["decision_index"] = crowd.timeline(
            start, end, min(config.initial_pairs, config.budget))
        op["quality"] = {"f1_auc": f1_area([(c.questions_asked, c.f1) for c in result.curve]),
                         "final_f1": result.curve[-1].f1}
        op["problems"] = loop_problems(result, records, config.budget)
        write_curve_csv(workdir / f"curve{i}.csv", result.curve)
        write_votes_csv(workdir / f"votes{i}.csv", result.vote_log)
        curve_digest.update(bytes.fromhex(sha256(workdir / f"curve{i}.csv")))
        votes_digest.update(bytes.fromhex(sha256(workdir / f"votes{i}.csv")))
        out["ops"].append(op)
    out["curve_sha256"] = curve_digest.hexdigest()
    out["votes_sha256"] = votes_digest.hexdigest()
    return out


def absent_pair_problems(text, batch, records, asked) -> list[str]:
    """A next call must print ``batch`` distinct well-formed pairs that are
    absent from its vote file."""
    lines = text.splitlines()
    if len(lines) != batch:
        return [f"printed {len(lines)} pairs, asked for {batch}"]
    pairs = []
    for line in lines:
        fields = line.split(",")
        try:
            well_formed = (len(fields) == 3 and fields[0] < fields[1]
                           and {fields[0], fields[1]} <= records
                           and math.isfinite(float(fields[2])))
        except ValueError:
            well_formed = False
        if not well_formed:
            return [f"malformed line {line!r}"]
        pairs.append((fields[0], fields[1]))
    if len(set(pairs)) != len(pairs):
        return ["a pair was printed twice"]
    if any(p in asked for p in pairs):
        return ["printed a pair that the vote file already holds"]
    return []


def run_next(perc, workload, world_seed, workdir, tracer, crowd, replay=None, quality=True):
    from perc.fileio import load_graph, write_records_csv, write_votes_csv
    from workloads import make_world, vote_file_pairs

    cli = importlib.import_module("perc.cli")
    records, entity_of = make_world(workload.records, workload.entities, world_seed)
    oracle = perc.SimulatedOracle(perc.GoldClustering(entity_of),
                                  perc.WorkerModel(error_rate=workload.crowd_error_rate),
                                  seed=world_seed)
    write_records_csv(workdir / "records.csv", records)
    files = []
    votes_digest = hashlib.sha256()
    for j, density in enumerate(workload.densities):
        pairs = vote_file_pairs(records, entity_of, round(density * len(records)),
                                world_seed + j)
        path = workdir / f"votes{j}.csv"
        write_votes_csv(path, [(p, oracle.answer(p)) for p in pairs])
        votes_digest.update(bytes.fromhex(sha256(path)))
        files.append((path, set(pairs)))
    out = {"ready": time.monotonic(), "ops": []}
    record_set = set(records)
    printed: dict[int, str] = {}
    order = [j for _ in range(workload.calls_per_file) for j in range(len(files))]
    # each call's reference is the mean of those taken right before and after it
    before = reference_ms() if tracer is None else None
    for j in order:
        path, asked = files[j]
        argv = ["next", "--records", str(workdir / "records.csv"), "--graph", str(path),
                "--batch", str(workload.batch), *workload.next_flags]
        stdout, stderr = io.StringIO(), io.StringIO()
        op = {"kind": "next", "call": j}
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                if tracer is not None:
                    tracer.new_run()
                    span = tracer.open("cli.main")
                start = time.perf_counter()
                code = cli.main(argv)
                op["wall_s"] = time.perf_counter() - start
                if tracer is not None:
                    tracer.close(span)
        except Exception as exc:  # a failing operation is counted, not fatal
            op["problems"] = [f"{type(exc).__name__}: {exc}"]
            out["ops"].append(op)
            continue
        after = reference_ms() if tracer is None else None
        text = stdout.getvalue()
        op["questions"] = len(text.splitlines())
        op["intervals_ms"], op["decision_index"] = [op["wall_s"] * 1e3], [0]
        op["ref_ms"] = [None if after is None else (before + after) / 2]
        before = after
        if code != 0:
            op["problems"] = [f"exit {code}: {stderr.getvalue().strip()}"]
        else:
            op["problems"] = absent_pair_problems(text, workload.batch, record_set, asked)
        if printed.setdefault(j, text) != text:
            op["problems"].append(f"{path.name}: output differs between calls")
        out["ops"].append(op)
    if quality:
        # quality of a cold campaign: scc_cluster's F1 on each file, by size
        gold = perc.GoldClustering(entity_of)
        curve = [(len(asked), perc.precision_recall_f1(
                      perc.scc_cluster(load_graph(workdir / "records.csv", path)), gold)[2])
                 for path, asked in files]
        out["quality"] = {"f1_auc": f1_area(curve), "final_f1": curve[-1][1]}
    out["curve_sha256"] = hashlib.sha256(
        "".join(printed[j] for j in sorted(printed)).encode()).hexdigest()
    out["votes_sha256"] = votes_digest.hexdigest()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--world-seeds", required=True,
                        help="comma-separated seeds of the worlds to run, in order")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--trace", help="write spans to this .npz file")
    parser.add_argument("--out", help="keep the first world's output files in this directory")
    parser.add_argument("--replay", help="replay the vote logs kept in this directory")
    parser.add_argument("--quality", action="store_true",
                        help="compute next-cold's quality figures")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, tiny
    perc = import_perc()
    workload = WORKLOADS[args.workload]
    if args.scale == "tiny":
        workload = tiny(workload)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    if workload.kind == "loop":
        run, crowd = run_loop, Crowd(perc, tracer)
    else:
        run, crowd = run_next, None

    (ROOT / ".perfbench").mkdir(exist_ok=True)
    worlds = []
    for i, seed in enumerate(int(s) for s in args.world_seeds.split(",")):
        keep = bool(args.out) and i == 0
        if keep:
            workdir = Path(args.out)
            workdir.mkdir(parents=True, exist_ok=True)
        else:
            workdir = Path(tempfile.mkdtemp(prefix="world-", dir=ROOT / ".perfbench"))
        try:
            worlds.append(run(perc, workload, seed, workdir, tracer, crowd, args.replay,
                              args.quality))
        finally:
            if not keep:
                shutil.rmtree(workdir, ignore_errors=True)
    out = {"setup_s": worlds[0].pop("ready") - args.t0,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "worlds": worlds}
    for world in worlds:
        world.pop("ready", None)
    if tracer is not None:
        tracer.save(args.trace)
        out["counters"] = tracer.counters
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
