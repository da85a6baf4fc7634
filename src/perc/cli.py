"""Command line front end.

Subcommands: run (full crowdsourcing experiment), cluster (one-shot
clustering of a vote file), next (one selection step), eval (score a
clustering against gold), synth (generate a synthetic world).  The run
flags, besides the I/O paths, are the ExperimentConfig fields and next's
reliability flags are the ReliabilityParams fields, with types and defaults
taken from the dataclasses.  Run options can also come from a key-value
config file; explicit flags win.  The argument parser is built once, when
this module is imported, and every ``main`` call in the process reuses it.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from .clustering import scc_cluster
from .crowd import ReplayOracle
from .fileio import (load_graph, read_clusters_csv, read_gold_csv, read_text,
                     read_records_csv, read_votes_csv, write_clusters_csv,
                     write_curve_csv, write_gold_csv, write_records_csv,
                     write_votes_csv)
from .harness import (STRATEGIES, ExperimentConfig, RunResult,
                      precision_recall_f1, run_experiment, synth_world)
from .reliability import ReliabilityParams
# pair_priority has no caller here; the benchmark's tracer patches this name
from .selection import build_state, pair_priority, select_batch  # noqa: F401
from .util import ConfigError

_IO_KEYS = ("records", "gold", "replay", "out")

# run flags shorter than the ExperimentConfig field they set
_SHORT_FLAGS = {"batch_size": "batch", "initial_pairs": "initial",
                "workers_per_pair": "workers"}

# run flag, which is also its config key -> the ExperimentConfig field it sets
_FIELD_FLAGS = {_SHORT_FLAGS.get(f.name, f.name.replace("_", "-")): f
                for f in dataclasses.fields(ExperimentConfig)}


def read_config_file(path) -> dict:
    """key = value lines, each key set at most once and named like a run
    flag ('_' may stand for '-'); # starts a comment.  Returns (typed value,
    line number) keyed by the ExperimentConfig field or I/O key it sets."""
    entries: dict = {}
    # lines end at \n alone, as read_text's line numbers count them;
    # splitlines would also end one at \x0c, \x85, U+2028 or a lone \r
    for lineno, raw in enumerate(read_text(path).split("\n"), 1):
        raw = raw.removesuffix("\r")
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        flag = key.replace("_", "-")
        if flag in _IO_KEYS:
            name, kind = flag, str
        elif flag in _FIELD_FLAGS:
            field = _FIELD_FLAGS[flag]
            name, kind = field.name, type(field.default)
        else:
            raise ValueError(f"{path}:{lineno}: unknown option {key!r}")
        if name in entries:
            raise ValueError(f"{path}:{lineno}: {key} already set on line {entries[name][1]}")
        try:
            entries[name] = (kind(value), lineno)
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: {key} expects {kind.__name__}, got {value!r}") from None
    return entries


def report(result: RunResult, out_dir) -> str:
    """Write curve.csv, clusters.csv and votes.csv under out_dir, print the
    final snapshot, and return the curve.csv path."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create output directory {out}: {exc}") from exc
    curve_path = out / "curve.csv"
    write_curve_csv(curve_path, result.curve)
    write_clusters_csv(out / "clusters.csv", result.clustering)
    write_votes_csv(out / "votes.csv", result.vote_log)
    final = result.curve[-1]
    err = result.stats.get("crowd_error_rate")
    print(f"questions={final.questions_asked} precision={final.precision:.4f} "
          f"recall={final.recall:.4f} f1={final.f1:.4f} "
          f"reliability={final.reliability:.4f} blocks={final.blocks}")
    print(f"recluster_fraction={result.stats['recluster_fraction']:.4f} "
          f"crowd_error_rate={'n/a' if err is None else format(err, '.2f')}")
    return str(curve_path)


def cmd_run(args) -> int:
    from_file = read_config_file(args.config) if args.config else {}
    flags = {key: value for key, value in vars(args).items() if value is not None}
    options = {key: value for key, (value, _) in from_file.items()} | flags
    if "records" not in options:
        raise ValueError("run needs --records (or a records entry in the config file)")
    if "gold" not in options and "replay" not in options:
        raise ValueError("run needs --gold or --replay to answer questions")
    try:
        config = ExperimentConfig(**{f.name: options[f.name] for f in _FIELD_FLAGS.values()
                                     if f.name in options})
    except ConfigError as exc:
        if exc.field in from_file and exc.field not in flags:
            raise ValueError(f"{args.config}:{from_file[exc.field][1]}: {exc}") from None
        raise

    records = read_records_csv(options["records"])
    gold = (read_gold_csv(options["gold"], records, options["records"])
            if "gold" in options else None)
    replay = (ReplayOracle(read_votes_csv(options["replay"], records, options["records"]))
              if "replay" in options else None)
    result = run_experiment(config, records, gold=gold, replay=replay)
    report(result, options.get("out", "out"))
    return 0


def cmd_cluster(args) -> int:
    graph = load_graph(args.records, args.graph)
    clustering = scc_cluster(graph)
    write_clusters_csv(args.out or sys.stdout, clustering)
    return 0


def cmd_next(args) -> int:
    graph = load_graph(args.records, args.graph)
    clustering = scc_cluster(graph)
    params = ReliabilityParams(**{f.name: getattr(args, f.name)
                                  for f in dataclasses.fields(ReliabilityParams)})
    state = build_state(graph, clustering, params)
    batch = select_batch(state, args.batch)
    if not batch:
        sys.stderr.write("no candidate pairs remain\n")
        return 1
    for pair in batch:
        # + 0.0 folds negative zero so resolved pairs print as 0.0
        gain = state.gain(pair) + 0.0
        sys.stdout.write(f"{pair[0]},{pair[1]},{gain!r}\n")
    return 0


def cmd_eval(args) -> int:
    clustering = read_clusters_csv(args.clusters)
    gold = read_gold_csv(args.gold, sorted(clustering.records), args.clusters)
    precision, recall, f1 = precision_recall_f1(clustering, gold)
    sys.stdout.write(f"precision={precision!r}\nrecall={recall!r}\nf1={f1!r}\n")
    return 0


def cmd_synth(args) -> int:
    records, gold = synth_world(args.records, args.entities, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_records_csv(out / "records.csv", records)
    write_gold_csv(out / "gold.csv", gold)
    sys.stdout.write(f"wrote {len(records)} records over {args.entities} entities to {out}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perc",
                                     description="crowdsourced entity resolution on uncertain vote graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a crowdsourcing experiment")
    run.add_argument("--records", help="records.csv path")
    run.add_argument("--gold", help="gold.csv path (enables the simulated crowd and metrics)")
    run.add_argument("--replay", help="votes.csv log to replay instead of simulating")
    run.add_argument("--out", help="output directory (default: out)")
    for flag, field in _FIELD_FLAGS.items():
        run.add_argument(f"--{flag}", dest=field.name, type=type(field.default),
                         choices=STRATEGIES if field.name == "strategy" else None,
                         help=f"default: {field.default}")
    run.add_argument("--config", help="key = value file mirroring the run flags")
    run.set_defaults(func=cmd_run)

    cluster = sub.add_parser("cluster", help="cluster a vote file once")
    cluster.add_argument("--graph", required=True, help="votes.csv path")
    cluster.add_argument("--records", required=True, help="records.csv path")
    cluster.add_argument("--out", help="clusters.csv path (default: stdout)")
    cluster.set_defaults(func=cmd_cluster)

    nxt = sub.add_parser("next", help="print the next question(s) to ask")
    nxt.add_argument("--graph", required=True, help="votes.csv path")
    nxt.add_argument("--records", required=True, help="records.csv path")
    nxt.add_argument("--batch", type=int, default=ExperimentConfig.batch_size,
                     help="questions to print")
    for field in dataclasses.fields(ReliabilityParams):
        nxt.add_argument("--" + field.name.replace("_", "-"), type=type(field.default),
                         default=field.default)
    nxt.set_defaults(func=cmd_next)

    ev = sub.add_parser("eval", help="score a clustering against gold")
    ev.add_argument("--clusters", required=True, help="clusters.csv path")
    ev.add_argument("--gold", required=True, help="gold.csv path")
    ev.set_defaults(func=cmd_eval)

    synth = sub.add_parser("synth", help="generate a synthetic world")
    synth.add_argument("--entities", type=int, required=True)
    synth.add_argument("--records", type=int, required=True)
    synth.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    synth.add_argument("--out", default="synth-out")
    synth.set_defaults(func=cmd_synth)

    return parser


# built once per process; parsing leaves it unchanged, so every call shares it
_PARSER = build_parser()


def _drop_stdout() -> None:
    """Point stdout at devnull, so what is still buffered goes nowhere and
    the interpreter's final flush stays quiet."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        code = args.func(args)
        try:
            sys.stdout.flush()  # a reader that stopped early fails the write here, not at exit
        except OSError as exc:
            _drop_stdout()
            # named as open() names a file; a closed pipe stays a BrokenPipeError
            raise OSError(exc.errno, exc.strerror, "<stdout>") from None
        return code
    except BrokenPipeError:
        _drop_stdout()
        return 1
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
