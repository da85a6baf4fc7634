"""Which lines of src/perc the program's own callers reach, and which only
the tests reach.

    python tests/line_reach.py

Executable lines are counted from the line tables of the code objects
compiled from each module of src/perc.  Two sets of runs are traced with
the stdlib's sys.settrace:

- the callers: the five demos, in this process, and two shell snippets,
  the fenced block under "## Command line" in README.md and the "Sampled
  perc run" step of .github/workflows/tests.yml (its replay and its four
  perc next calls), each run by ``bash -e`` in a temporary directory with
  a ``perc`` first on PATH that runs ``python -m perc.cli`` traced;
- the tests: tier-1 and the benchmark smoke test, in one pytest session.

Child Python processes that keep PYTHONPATH (the shell snippets' perc
commands, the demo tests and the benchmark's workers) are traced through a
sitecustomize module in a temporary directory; a child that replaces
PYTHONPATH is not.

The report gives, per module, the executable lines, the lines the callers
reach, the lines only the tests reach and the lines nothing reaches, then
the line numbers of the last two kinds.  It gates nothing: a failing test
or snippet is reported (a snippet stops at its first failing command), and
the table is printed all the same.  Every run works in a temporary
directory, and the pytest and hypothesis caches are kept out of the
checkout, but the benchmark smoke test keeps its worlds in the ignored
.perfbench/ as it always does.  The test half takes about two and a half
minutes under tracing on a 2-vCPU Xeon VM.
"""

from __future__ import annotations

import atexit
import contextlib
import dis
import io
import json
import os
import runpy
import shlex
import subprocess
import sys
import tempfile
import textwrap
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "perc"
# the environment variable that names the directory traced child processes
# write their lines to
OUT_VARIABLE = "PERC_LINE_REACH_OUT"


def _resume_end(code) -> int:
    """The offset after the prologue a function starts with (up to and
    including RESUME on 3.11), whose line, the def line, no line event
    reports."""
    for ins in dis.get_instructions(code):
        if ins.opname == "RESUME":
            return ins.offset + 2
    return 0


class Tracer:
    """A sys.settrace hook that collects the lines run in files under a
    directory, as {code object: set of line numbers}.  Once every line of
    a code object has run, its later calls are not traced."""

    def __init__(self, directory: Path):
        self.prefix = str(directory) + os.sep
        self.hits: dict = {}
        self.want: dict = {}
        self.ours: dict = {}  # code object -> whether it lies under prefix
        self.done: set = set()

    def __call__(self, frame, event, arg):
        code = frame.f_code
        if code in self.done:
            return None
        ours = self.ours.get(code)
        if ours is None:
            ours = self.ours[code] = code.co_filename.startswith(self.prefix)
            if ours:
                start = _resume_end(code)
                self.want[code] = {line for begin, end, line in code.co_lines()
                                   if line and end > start}
                self.hits[code] = set()
        if not ours:
            return None
        hit = self.hits[code]
        want = self.want[code]
        if len(hit) >= len(want) and want <= hit:
            self.done.add(code)
            return None
        add = hit.add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local
        return local

    def start(self) -> None:
        threading.settrace(self)
        sys.settrace(self)

    @staticmethod
    def stop() -> None:
        sys.settrace(None)
        threading.settrace(None)

    def lines(self) -> dict[str, set[int]]:
        """The lines run, per file name."""
        out: dict[str, set[int]] = {}
        for code, hit in self.hits.items():
            out.setdefault(code.co_filename, set()).update(hit)
        return out


def trace_child(out_dir: str) -> None:
    """Trace this process and write its lines to a file in out_dir when it
    exits; the sitecustomize module of child_environment calls this."""
    tracer = Tracer(PACKAGE)

    def dump():
        Tracer.stop()
        name = Path(out_dir) / f"{os.getpid()}-{time.monotonic_ns()}.json"
        name.write_text(json.dumps({f: sorted(lines) for f, lines in tracer.lines().items()}))

    atexit.register(dump)
    tracer.start()


SITECUSTOMIZE = """\
import importlib.util, os
if os.environ.get({variable!r}):
    spec = importlib.util.spec_from_file_location("_line_reach", {path!r})
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.trace_child(os.environ[{variable!r}])
"""


def executable_lines() -> dict[str, set[int]]:
    """Each module's lines that some code object's line table lists."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines: set[int] = set()
        todo = [compile(path.read_text(), str(path), "exec")]
        while todo:
            code = todo.pop()
            lines.update(line for _, _, line in code.co_lines() if line)
            todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
        out[str(path)] = lines
    return out


def readme_block() -> str:
    """The fenced block under "## Command line" in README.md, the lines CI's
    README step cuts out with awk."""
    text = (ROOT / "README.md").read_text()
    lines = text[text.index("## Command line"):].splitlines(keepends=True)
    start, end = [i for i, line in enumerate(lines) if line.startswith("```")][:2]
    return "".join(lines[start + 1:end])


def ci_step(name: str) -> str:
    """The ``run: |`` script of the step of .github/workflows/tests.yml with
    this name."""
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    step = text[text.index(f"- name: {name}"):]
    return textwrap.dedent(step[step.index("run: |") + len("run: |"):step.index("- name:", 1)])


@contextlib.contextmanager
def in_temp_dir():
    """Work in a new temporary directory, and return to the current one
    before it is removed."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            yield Path(tmp)
        finally:
            os.chdir(here)


def child_environment(tmp: Path) -> dict[str, str]:
    """os.environ plus what makes a child Python process trace itself and
    write its lines under tmp/out when it exits: a sitecustomize module in
    tmp/site, first on PYTHONPATH, then src."""
    (tmp / "site").mkdir()
    (tmp / "out").mkdir()
    (tmp / "site" / "sitecustomize.py").write_text(SITECUSTOMIZE.format(
        variable=OUT_VARIABLE, path=str(Path(__file__).resolve())))
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(tmp / "site"), str(SRC), env.get("PYTHONPATH")]))
    env[OUT_VARIABLE] = str(tmp / "out")
    return env


def add_child_lines(tmp: Path, lines: dict[str, set[int]]) -> dict[str, set[int]]:
    """lines, with the lines added that the children traced under
    child_environment(tmp) wrote."""
    for dump in (tmp / "out").glob("*.json"):
        for name, hit in json.loads(dump.read_text()).items():
            lines.setdefault(name, set()).update(hit)
    return lines


def trace_shell(snippets: dict[str, str], lines: dict[str, set[int]],
                problems: list[str]) -> dict[str, set[int]]:
    """Run each named shell snippet with ``bash -e`` in a temporary directory
    of its own, with a ``perc`` first on PATH that runs ``python -m
    perc.cli`` traced, and add the lines its perc commands reach to lines.
    A failing command stops its snippet, which is named in problems with
    its exit status and the end of its stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        env = child_environment(tmp)
        shim = tmp / "bin" / "perc"
        shim.parent.mkdir()
        shim.write_text(f'#!/bin/sh\nexec {shlex.quote(sys.executable)} -m perc.cli "$@"\n')
        shim.chmod(0o755)
        env["PATH"] = os.pathsep.join(filter(None, [str(shim.parent), env.get("PATH")]))
        for name, text in snippets.items():
            with tempfile.TemporaryDirectory() as work:
                done = subprocess.run(["bash", "-e", "-c", text], cwd=work, env=env,
                                      stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                      text=True)
            if done.returncode:
                tail = " | ".join(done.stderr.strip().splitlines()[-3:])
                problems.append(f"{name} exited {done.returncode}: {tail}")
        return add_child_lines(tmp, lines)


def trace_callers() -> tuple[dict[str, set[int]], list[str]]:
    problems: list[str] = []
    tracer = Tracer(PACKAGE)
    tracer.start()
    try:
        for demo in sorted((ROOT / "demos").glob("*.py")):
            with in_temp_dir(), contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(demo), run_name="__main__")
    finally:
        Tracer.stop()
    snippets = {"README Command line": readme_block(),
                "CI Sampled perc run": ci_step("Sampled perc run")}
    return trace_shell(snippets, tracer.lines(), problems), problems


class HypothesisSetup:
    """A pytest plugin that keeps hypothesis's database in ``home`` and lifts
    its deadline, which tracing would make every slow example miss.
    hypothesis is imported only once pytest runs, since pytest warns (and
    the warning filter fails the run) when a plugin was imported first."""

    def __init__(self, home: Path):
        self.home = home

    def pytest_configure(self, config):
        from hypothesis import settings
        from hypothesis.configuration import set_hypothesis_home_dir
        settings.register_profile("line-reach", deadline=None)
        settings.load_profile("line-reach")
        set_hypothesis_home_dir(self.home)


def trace_tests() -> tuple[dict[str, set[int]], int]:
    import pytest

    saved = os.environ.copy()
    tracer = Tracer(PACKAGE)
    with in_temp_dir() as tmp:
        os.environ.update(child_environment(tmp))
        tracer.start()
        try:
            # pytest's own report goes to stderr, so stdout holds the table only
            with contextlib.redirect_stdout(sys.stderr):
                status = pytest.main(["-q", "-p", "no:cacheprovider",
                                      "--continue-on-collection-errors",
                                      str(ROOT / "tests"), str(ROOT / "perfbench")],
                                     plugins=[HypothesisSetup(tmp / "hypothesis")])
        finally:
            Tracer.stop()
            os.environ.clear()
            os.environ.update(saved)
        lines = add_child_lines(tmp, tracer.lines())
    return lines, int(status)


def spans(lines) -> str:
    """Sorted line numbers as ranges: 3-5, 9."""
    out: list[list[int]] = []
    for line in sorted(lines):
        if out and line == out[-1][1] + 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def report(executable, callers, tests) -> None:
    rows = []
    only_tests, unreached = {}, {}
    for name, lines in executable.items():
        reached = lines & callers.get(name, set())
        only_tests[name] = (lines & tests.get(name, set())) - reached
        unreached[name] = lines - reached - only_tests[name]
        rows.append((Path(name).name, len(lines), len(reached), len(only_tests[name]),
                     len(unreached[name])))
    rows.append(("total", *(sum(row[i] for row in rows) for i in range(1, 5))))
    print(f"{'module':<16}{'executable':>11}{'callers':>9}{'only tests':>12}{'nothing':>9}")
    for row in rows:
        print(f"{row[0]:<16}{row[1]:>11,}{row[2]:>9,}{row[3]:>12,}{row[4]:>9,}")
    for title, table in (("lines only the tests reach", only_tests),
                         ("lines nothing reaches", unreached)):
        print(f"\n{title}:")
        for name, lines in table.items():
            if lines:
                print(f"  {Path(name).name}: {spans(lines)}")


def main() -> int:
    sys.path.insert(0, str(SRC))
    executable = executable_lines()
    start = time.perf_counter()
    callers, problems = trace_callers()
    print(f"callers traced in {time.perf_counter() - start:.0f} s", file=sys.stderr)
    for problem in problems:
        print(f"caller run failed: {problem}", file=sys.stderr)
    start = time.perf_counter()
    tests, status = trace_tests()
    print(f"tests traced in {time.perf_counter() - start:.0f} s, pytest exit status {status}",
          file=sys.stderr)
    report(executable, callers, tests)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
