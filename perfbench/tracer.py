"""Spans recorded around perc's public functions, from outside the package.

Each wrapper is installed at the name its caller looks up: perc.harness,
perc.cli and perc.selection bind their helpers with ``from ... import``, so
patching the defining module alone would miss those calls.  Modules are
fetched with importlib because ``perc.reliability`` as an attribute is the
function re-exported by the package, not the module.

Spans live in flat arrays (name id, start, end, parent index, run id) until
the worker writes them out; ``layer_metrics`` turns a written file into
per-function counts and inclusive seconds plus per-module self seconds.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter

import numpy as np

# span name -> the modules whose global of that name the callers use
PATCHES = {
    "harness.precision_recall_f1": ("perc.harness",),
    "selection.build_state": ("perc.harness", "perc.selection", "perc.cli"),
    "selection.refresh_after_answer": ("perc.harness",),
    "selection.select_batch": ("perc.harness", "perc.cli"),
    "selection.pair_priority": ("perc.cli",),
    "clustering.scc_cluster": ("perc.harness", "perc.cli"),
    "clustering.mlc_unchanged": ("perc.harness",),
    "reliability.reliability": ("perc.harness",),
    "reliability.block_connectivity": ("perc.selection", "perc.reliability"),
    "reliability.disconnectivity": ("perc.selection", "perc.reliability"),
    "baselines.tc_batch": ("perc.harness",),
    "baselines.dense_batch": ("perc.harness",),
    "baselines.rho_inputs": ("perc.baselines",),
    "fileio.load_graph": ("perc.cli",),
}
METHODS = {"graph.edges_between": "edges_between", "graph.with_edge": "with_edge"}


class Tracer:
    """In-memory span store plus the counters measured at the same
    boundaries (screen passes, reclusterings that changed the result, queue
    length and top-gain ties at each selection)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.stack = [-1]
        self.run_id = 0
        self.counters = {"mlc_pass": 0, "reclusterings": 0, "recluster_changed": 0,
                         "selects": 0, "candidates": 0, "top_ties": 0,
                         "extra_pair_calls": 0}
        self._last_clustering = None

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self.stack[-1])
        self.run.append(self.run_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def wrap(self, fn, name: str, after=None):
        """``fn`` with a span around every call; ``after(idx, args, kwargs,
        result)`` runs once the span is closed, under a trace.probe span of
        its own so its cost is not charged to the caller's layer."""
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                probe = self.open("trace.probe")
                after(idx, args, kwargs, result)
                self.close(probe)
            return result
        return traced

    def install(self) -> None:
        """Patch every traced name at its callers' modules."""
        originals: dict[int, object] = {}
        afters = {
            "reliability.block_connectivity": self._after_connectivity,
            "clustering.mlc_unchanged": self._after_screen,
            "clustering.scc_cluster": self._after_cluster,
            "selection.select_batch": self._after_select,
        }
        for span, modules in PATCHES.items():
            attr = span.split(".", 1)[1]
            for mod_name in modules:
                module = importlib.import_module(mod_name)
                fn = getattr(module, attr)
                if id(fn) not in originals:
                    originals[id(fn)] = self.wrap(fn, span, afters.get(span))
                setattr(module, attr, originals[id(fn)])
        graph_cls = importlib.import_module("perc.graph").UncertainGraph
        for span, attr in METHODS.items():
            setattr(graph_cls, attr, self.wrap(getattr(graph_cls, attr), span))

    def _after_connectivity(self, idx, args, kwargs, result):
        # the method is only known from the result, so rename the span
        method = "exact" if result.method == "exact" else "mc"
        self.name[idx] = self._id(f"reliability.block_connectivity.{method}")
        extra = kwargs.get("extra_pair", args[3] if len(args) > 3 else None)
        if extra is not None:
            self.counters["extra_pair_calls"] += 1

    def _after_screen(self, idx, args, kwargs, result):
        self.counters["mlc_pass"] += bool(result)

    def _after_cluster(self, idx, args, kwargs, result):
        # within one run_experiment, every call after the first re-clusters
        if self._last_clustering is not None:
            self.counters["reclusterings"] += 1
            self.counters["recluster_changed"] += result != self._last_clustering
        self._last_clustering = result

    def _after_select(self, idx, args, kwargs, result):
        state = args[0]
        gains = list(state.intra.values()) + [g for _, g in state.inter.values()]
        self.counters["selects"] += 1
        self.counters["candidates"] += len(gains)
        if gains:
            top = max(gains)
            self.counters["top_ties"] += sum(1 for g in gains if g == top)

    def new_run(self) -> None:
        """Start a new operation: spans get a new run id and the
        recluster comparison starts over."""
        self.run_id += 1
        self._last_clustering = None

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names, dtype=np.str_),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 run=np.frombuffer(self.run, dtype=np.int32))


def layer_metrics(path) -> dict[str, float]:
    """Per-name call counts and inclusive seconds, and per-module self
    seconds (span time minus the time its direct children cover), from a
    span file written by Tracer.save."""
    with np.load(path) as data:
        names = [str(n) for n in data["names"]]
        name, start, end, parent = (data["name"], data["start"], data["end"],
                                    data["parent"])
    dur = end - start
    covered = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    self_time = dur - covered
    out: dict[str, float] = {"trace.spans": float(len(dur))}
    counts = np.bincount(name, minlength=len(names))
    inclusive = np.bincount(name, weights=dur, minlength=len(names))
    own = np.bincount(name, weights=self_time, minlength=len(names))
    for i, n in enumerate(names):
        if not counts[i]:
            continue
        out[f"{n}.calls"] = float(counts[i])
        out[f"{n}.s"] = float(inclusive[i])
        module = n.split(".", 1)[0]
        out[f"{module}.self_s"] = out.get(f"{module}.self_s", 0.0) + float(own[i])
    return out
