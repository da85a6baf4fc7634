"""The perc benchmark: one workload, one seed, one line of results.

    python3 perfbench/run.py --workload many-blocks --seed 1 --seconds 34 --trace 0

Run it from the root of a checkout; perc is imported from that checkout's
src/.  A pass runs every world of the workload once, one after another,
single-threaded, in a fresh worker process (worker.py).  An untraced run
makes round(--seconds / pass_seconds) passes, pass_seconds being the
workload's.  Its timings are given at a fixed machine speed: every stretch
between crowd answers (for next-cold, every distinct call) is scaled by the
reference timed next to it (see REFERENCE_MS), and the median over passes
is taken.  A "measured" line gives the same times unscaled, each stretch at
its fastest repeat, with the median reference.  Afterwards a check process
replays world 0's vote logs through ReplayOracle; its curve and
vote digests must equal the pass's (next-cold, which has no vote log, runs
world 0 again instead).

With --trace 0 the end-to-end metrics are measured with nothing but the
crowd-boundary timestamps installed.  With --trace 1 one pass runs
untraced and one traced (tracer.py), the digests of both must match, and
the per-layer metrics come from the traced pass; trace.overhead_s is
traced minus untraced wall time.

Output: a context line, a digests line, one ``name value unit`` line per
metric, and last a JSON object with keys correct, attempted, failed and
metrics.  The exit code is 0 when a result was printed, even with failed
checks (correct is then false); it is 2 when perc's sources are missing
and 1 when a worker process dies.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, tiny, world_seed  # noqa: E402

# A seed that was never run while the workloads were sized, for checking a
# claimed gain on inputs nobody tuned against.
HOLDOUT_SEED = 104729

WORKER_TIMEOUT_S = 150

# The time of worker.reference_ms() at full speed: the fastest of 2000
# timings on an unloaded 2-vCPU Xeon VM.  Untraced runs report every time
# at that speed: each measured time is multiplied by REFERENCE_MS over the
# reference timed next to it.  The VM this was built on lent a process
# anything from full speed to 1.8 times slower, in phases of a second to
# minutes, so that wall times of one seed moved by 20 to 40% between runs
# while the ratio of program time to reference time held within a few %.
REFERENCE_MS = 1.40

# perc's modules; util holds only helpers, so its cost shows in its callers
LAYERS = ("graph", "reliability", "clustering", "selection", "baselines",
          "crowd", "harness", "fileio", "cli")

END_TO_END = {
    "setup_s": "s",
    "questions_per_s": "1/s",
    "decision_ms_p50": "ms",
    "decision_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "f1_auc": "1",
    "final_f1": "1",
}

_TIMED = ("reliability.block_connectivity.exact", "reliability.block_connectivity.mc",
          "reliability.disconnectivity", "graph.edges_between", "reliability.reliability",
          "clustering.scc_cluster", "selection.build_state",
          "selection.refresh_after_answer", "selection.select_batch",
          "selection.pair_priority", "baselines.tc_batch", "baselines.dense_batch",
          "baselines.rho_inputs", "graph.with_edge", "fileio.load_graph", "cli.main",
          "harness.run_experiment", "harness.precision_recall_f1", "crowd.answer")
PER_LAYER = {
    **{f"{name}.{part}": unit for name in _TIMED
       for part, unit in (("calls", "count"), ("s", "s"))},
    "reliability.block_connectivity.extra_pair.calls": "count",
    "clustering.mlc_unchanged.calls": "count",
    "clustering.mlc_unchanged.pass_ratio": "1",
    "clustering.recluster_changed_ratio": "1",
    "selection.candidates": "count",
    "selection.top_ties": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class WorkerFailed(RuntimeError):
    pass


def spawn(workload: str, seeds: list[int], scale: str, **options: Path) -> dict:
    """Run the worlds of ``seeds`` in one fresh process and return its JSON
    report; ``options`` are worker.py's --trace, --out, --replay and
    --quality (given as True)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--world-seeds", ",".join(map(str, seeds)), "--scale", scale]
    for flag, value in options.items():
        cmd += [f"--{flag}"] if value is True else [f"--{flag}", str(value)]
    cmd += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worlds {seeds} took over {WORKER_TIMEOUT_S}s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"worlds {seeds} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles(n=100) gives it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def pass_metrics(reports: list[dict]) -> dict[str, float]:
    ops = [op for r in reports for op in r["ops"] if "wall_s" in op]
    decisions = [op["intervals_ms"][i] for op in ops for i in op["decision_index"]]
    wall_s = sum(sum(op["intervals_ms"]) for op in ops) / 1e3
    return {
        "questions_per_s": sum(op["questions"] for op in ops) / wall_s,
        "decision_ms_p50": statistics.median(decisions),
        "decision_ms_p90": percentile(decisions, 90),
        "decisions": len(decisions),
        "wall_s": wall_s,
    }


def stretches(passes: list[dict], scaled: bool) -> list[dict]:
    """Per world and operation, every stretch between two crowd answers
    (for next-cold, every distinct call) over its repeats in all passes.
    Scaled, each repeat's time is brought to the reference speed and the
    stretch gets the median of them; raw, it gets its fastest repeat.

    The program is deterministic (the digests check it), so every pass
    repeats identical work, cut at the same answers."""
    out = []
    for reports in zip(*(p["worlds"] for p in passes)):
        repeats: dict[int, list[dict]] = {}
        for r in reports:
            for position, op in enumerate(r["ops"]):
                if "wall_s" in op:
                    repeats.setdefault(op.get("call", position), []).append(op)
        ops = []
        for timed in repeats.values():
            op = timed[0]
            if len({len(t["intervals_ms"]) for t in timed}) == 1:
                if scaled:
                    cuts = zip(*([ms * REFERENCE_MS / ref
                                  for ms, ref in zip(t["intervals_ms"], t["ref_ms"])]
                                 for t in timed))
                    op = dict(op, intervals_ms=[statistics.median(c) for c in cuts])
                else:
                    cuts = zip(*(t["intervals_ms"] for t in timed))
                    op = dict(op, intervals_ms=[min(c) for c in cuts])
            ops.append(op)
        out.append({"ops": ops})
    return out


def digests(reports: list[dict]) -> dict[str, list[str]]:
    return {key: [r[key] for r in reports] for key in ("curve_sha256", "votes_sha256")}


def combine(hexes: list[str]) -> str:
    return hashlib.sha256(bytes.fromhex("".join(hexes))).hexdigest()


def end_to_end(passes: list[dict], check: dict) -> tuple[dict[str, float], dict[str, float]]:
    """The end-to-end metrics, with the program's times at the reference
    speed, and, for the record, the same times as measured (each stretch at
    its fastest repeat) with the run's median reference time."""
    scaled = pass_metrics(stretches(passes, scaled=True))
    raw = pass_metrics(stretches(passes, scaled=False))
    processes = [*passes, check]
    worlds = passes[0]["worlds"]
    quality = [op["quality"] for r in worlds for op in r["ops"] if "quality" in op]
    quality += [r["quality"] for r in worlds if "quality" in r]
    timings = ("questions_per_s", "decision_ms_p50", "decision_ms_p90")
    out = {name: scaled[name] for name in timings}
    # unscaled: imports and file writes slow down far less than the
    # reference does when the host is busy, so scaling would over-correct
    out["setup_s"] = statistics.median(p["setup_s"] for p in processes)
    out["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in passes)
    out["f1_auc"] = statistics.fmean(q["f1_auc"] for q in quality)
    out["final_f1"] = statistics.fmean(q["final_f1"] for q in quality)
    measured = {name: raw[name] for name in timings}
    measured["reference_ms"] = statistics.median(
        ref for p in passes for r in p["worlds"] for op in r["ops"]
        for ref in op.get("ref_ms", ()))
    return out, measured


def per_layer(traced: dict, spans: Path, untraced_wall: float) -> dict[str, float]:
    from tracer import layer_metrics

    totals = layer_metrics(spans)
    counters = traced["counters"]
    out = {name: totals.get(name, 0.0) for name in PER_LAYER}
    out["reliability.block_connectivity.extra_pair.calls"] = float(counters["extra_pair_calls"])
    screens = out["clustering.mlc_unchanged.calls"]
    out["clustering.mlc_unchanged.pass_ratio"] = counters["mlc_pass"] / screens if screens else 0.0
    reclusters = counters["reclusterings"]
    out["clustering.recluster_changed_ratio"] = (
        counters["recluster_changed"] / reclusters if reclusters else 0.0)
    selects = counters["selects"]
    out["selection.candidates"] = counters["candidates"] / selects if selects else 0.0
    out["selection.top_ties"] = counters["top_ties"] / selects if selects else 0.0
    out["trace.overhead_s"] = pass_metrics(traced["worlds"])["wall_s"] - untraced_wall
    return out


def purpose(workload: str, layer: dict[str, float]) -> dict:
    """The trace's reading of what the workload was chosen to stress: the
    largest inclusive layer below the root span (both block_connectivity
    methods counted together), block connectivity's share of the root, and
    how often selection was called."""
    root = layer["harness.run_experiment.s"] + layer["cli.main.s"]
    connectivity = (layer["reliability.block_connectivity.exact.s"]
                    + layer["reliability.block_connectivity.mc.s"])
    inclusive = {name[:-2]: value for name, value in layer.items()
                 if name.endswith(".s") and "block_connectivity" not in name
                 and name not in ("harness.run_experiment.s", "cli.main.s")}
    inclusive["reliability.block_connectivity"] = connectivity
    return {"workload": workload, "largest_inclusive": max(inclusive, key=inclusive.get),
            "block_connectivity_share": connectivity / root if root else 0.0,
            "selection_calls": sum(value for name, value in layer.items()
                                   if name.startswith("selection.") and name.endswith(".calls"))}


def count_problems(reports: list[dict],
                   comparisons: dict[str, bool]) -> tuple[int, int, list[str]]:
    """Operations and digest comparisons attempted and failed, with the
    problems found."""
    ops = [op for r in reports for op in r["ops"]]
    problems = [p for op in ops for p in op["problems"]]
    problems += [name for name, ok in comparisons.items() if not ok]
    attempted = len(ops) + len(comparisons)
    failed = sum(1 for op in ops if op["problems"]) + sum(not ok for ok in comparisons.values())
    return attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny runs a seconds-long version for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "perc" / "__init__.py").is_file():
        sys.stderr.write(f"error: perc sources not found under {ROOT / 'src'}\n")
        return 2
    import numpy

    workload = WORKLOADS[args.workload]
    if args.scale == "tiny":
        workload = tiny(workload)
    seeds = [world_seed(args.seed, i) for i in range(workload.worlds)]
    print(json.dumps({"context": {
        "workload": workload.name, "seed": args.seed, "holdout_seed": HOLDOUT_SEED,
        "world_seeds": seeds, "scale": args.scale, "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "loadavg_1m": os.getloadavg()[0],
        "dominant": workload.dominant, "predicted_flat": list(workload.predicted_flat),
        "decisions": workload.decisions_note,
    }}), flush=True)

    kept = ROOT / ".perfbench" / f"{workload.name}-world0"
    shutil.rmtree(kept, ignore_errors=True)
    kept.mkdir(parents=True)
    count = 1 if args.trace else max(1, round(args.seconds / workload.pass_seconds))
    try:
        passes = []
        start = time.monotonic()
        while len(passes) < count:
            began = time.monotonic()
            passes.append(spawn(workload.name, seeds, args.scale,
                                **({} if passes else {"out": kept, "quality": True})))
            # on a host slowed below the sizing, start no pass that would
            # end after --seconds, once three are done
            now = time.monotonic()
            if len(passes) >= 3 and now + (now - began) - start > args.seconds:
                break
        if args.trace:
            spans = ROOT / ".perfbench" / f"spans-{workload.name}.npz"
            traced = spawn(workload.name, seeds, args.scale, trace=spans)
        check = spawn(workload.name, seeds[:1], args.scale, replay=kept)
    except WorkerFailed as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    if not any("wall_s" in op for r in passes[0]["worlds"] for op in r["ops"]):
        sys.stderr.write("error: every timed operation failed, nothing to report\n")
        return 1
    reference = digests(passes[0]["worlds"])
    comparisons = {f"pass {i + 1} digests equal pass 1": digests(p["worlds"]) == reference
                   for i, p in enumerate(passes[1:], 1)}
    comparisons["replayed (next-cold: repeated) world 0 equals the pass"] = (
        [check["worlds"][0][k] for k in reference] == [v[0] for v in reference.values()])
    processes = [*passes, check, *([traced] if args.trace else [])]
    if args.trace:
        comparisons["traced digests equal untraced"] = digests(traced["worlds"]) == reference
    reports = [r for p in processes for r in p["worlds"]]
    attempted, failed, problems = count_problems(reports, comparisons)
    for problem in problems:
        sys.stderr.write(f"check failed: {problem}\n")

    # one digest per workload: sha256 over the per-world digests in order
    combined = {key: combine(values) for key, values in reference.items()}
    if args.trace:
        combined.update({f"traced_{key}": combine(values)
                         for key, values in digests(traced["worlds"]).items()})
    combined["passes"] = len(passes)
    combined["decision_samples"] = pass_metrics(stretches(passes, scaled=False))["decisions"]
    print(json.dumps({"digests": combined}), flush=True)

    if args.trace:
        metrics = per_layer(traced, spans, pass_metrics(passes[0]["worlds"])["wall_s"])
        units = PER_LAYER
        print(json.dumps({"purpose": purpose(workload.name, metrics)}))
    else:
        metrics, measured = end_to_end(passes, check)
        units = END_TO_END
        print(json.dumps({"measured": measured}))
    print(f"failed_share\t{failed / attempted!r}\t1")
    for name, value in metrics.items():
        print(f"{name}\t{value!r}\t{units[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
