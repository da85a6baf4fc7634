"""The package's public surface, and the names the benchmark patches."""

import ast
import importlib
import pkgutil
import re
import runpy
from collections import Counter
from pathlib import Path

import perc

ROOT = Path(__file__).resolve().parents[1]

# run_path executes the file without importing it as a module, so nothing
# is cached or written under perfbench/
TRACER = runpy.run_path(str(ROOT / "perfbench" / "tracer.py"))


def test_every_exported_name_resolves():
    missing = [name for name in perc.__all__ if not hasattr(perc, name)]
    assert missing == []


# the paper's model functions, which the package root keeps for the demos
# to show the paper's definitions
PAPER_MODEL = {"possible_world_log_prob", "clustering_log_likelihood", "mlc_bruteforce",
               "merge_probability", "disconnectivity"}


def test_every_exported_name_has_a_caller():
    """Each root name is imported by ``from perc import`` or read as
    ``perc.<name>`` in the demos, the README or the benchmark, or is one of
    the paper's model functions; every other name lives in its submodule."""
    used = set()
    for path in [*ROOT.glob("demos/*.py"), ROOT / "README.md", *ROOT.glob("perfbench/*.py")]:
        text = path.read_text(encoding="utf-8")
        for names in re.findall(r"from perc import (\([^)]*\)|[^\n]*)", text):
            used.update(re.findall(r"\w+", names))
        used.update(re.findall(r"\bperc\.(\w+)", text))
    assert sorted(set(perc.__all__) - used - PAPER_MODEL) == []


def test_no_name_exported_twice():
    assert len(perc.__all__) == len(set(perc.__all__))


def test_no_attribute_shadows_a_submodule():
    # import perc.reliability as R must give the module, not a function
    # the package re-exports under the same name
    shadowed = []
    for info in pkgutil.iter_modules(perc.__path__):
        module = importlib.import_module(f"perc.{info.name}")
        if getattr(perc, info.name) is not module:
            shadowed.append(info.name)
    assert shadowed == []


def unused_imports(path):
    """The names a file imports and never reads, as (line, name).  A name
    counts as read when the file loads it anywhere, lists it in
    ``__all__`` or names it in a string annotation; an import marked
    ``# noqa: F401`` is kept on purpose."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(elt.value for elt in node.value.elts)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations += [node.returns] + [arg.annotation for arg in (
                *args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg) if arg]
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.update(sub.id for sub in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(sub, ast.Name))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                isinstance(node, ast.ImportFrom) and node.module == "__future__" or \
                "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append((node.lineno, name))
    return unused


def test_no_unused_imports():
    """The package, the tests, the demos and the benchmark import only
    names they use."""
    found = {}
    for path in [*ROOT.glob("src/perc/*.py"), *ROOT.glob("tests/*.py"), *ROOT.glob("demos/*.py"),
                 *ROOT.glob("perfbench/*.py")]:
        if unused := unused_imports(path):
            found[str(path.relative_to(ROOT))] = unused
    assert found == {}


def test_benchmark_patch_points_exist():
    missing = []
    for span, modules in TRACER["PATCHES"].items():
        attr = span.split(".", 1)[1]
        missing += [f"{mod}.{attr}" for mod in modules
                    if not hasattr(importlib.import_module(mod), attr)]
    missing += [f"UncertainGraph.{attr}" for attr in TRACER["METHODS"].values()
                if not hasattr(perc.UncertainGraph, attr)]
    # perfbench/worker.py swaps these perc.harness globals for counting wrappers
    harness = importlib.import_module("perc.harness")
    missing += [f"perc.harness.{name}" for name in
                ("select_batch", "tc_batch", "dense_batch", "SimulatedOracle")
                if not hasattr(harness, name)]
    assert missing == []


def test_benchmark_hooks_see_every_round(monkeypatch):
    """Wrappers swapped into perc.harness after import, as perfbench/worker.py
    and the tracer install theirs, see each run's build, every batch and
    every refresh: run_experiment looks its strategy up per run."""
    harness = importlib.import_module("perc.harness")
    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in ("select_batch", "tc_batch", "dense_batch", "build_state",
                 "refresh_after_answer"):
        monkeypatch.setattr(harness, name, counting(name, getattr(harness, name)))
    records, gold = perc.synth_world(20, 4, seed=1)
    for strategy, expected in (("perc", ("build_state", "select_batch", "refresh_after_answer")),
                               ("tc", ("tc_batch",)), ("dense", ("dense_batch",))):
        calls.clear()
        result = perc.run_experiment(perc.ExperimentConfig(strategy=strategy, budget=30,
                                                           batch_size=3), records, gold=gold)
        rounds = result.stats["rounds"]
        assert rounds == 10 and not result.flags
        assert calls == {name: 1 if name == "build_state" else rounds for name in expected}


def test_readme_quick_taste_runs_as_shown(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick taste", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    blocks = namespace["blocks"]
    assert blocks == perc.Clustering([["A", "B", "C"], ["D"]])
    # the comment the README prints next to the call is the clustering's repr
    shown = re.search(r"blocks = scc_cluster\(graph\)\s+# (.*)", code).group(1)
    assert shown == repr(blocks)
    assert capsys.readouterr().out.strip()
