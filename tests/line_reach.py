"""Which lines of src/perc the program's own callers reach, and which only
the tests reach.

    python tests/line_reach.py

Executable lines are counted from the line tables of the code objects
compiled from each module of src/perc.  Two sets of runs are traced with
the stdlib's sys.settrace:

- the callers: the five demos, the fenced block under "## Command line" in
  README.md through perc.cli.main, and the "Sampled perc run" step of
  .github/workflows/tests.yml with its replay, each in a temporary
  directory;
- the tests: tier-1 and the benchmark smoke test, in one pytest session.
  Child Python processes that keep PYTHONPATH (the demo tests and the
  benchmark's workers) are traced too, through a sitecustomize module in a
  temporary directory; a child that replaces PYTHONPATH is not.

The report gives, per module, the executable lines, the lines the callers
reach, the lines only the tests reach and the lines nothing reaches, then
the line numbers of the last two kinds.  It gates nothing: a failing test
or command is reported, and the table is printed all the same.  Every run
works in a temporary directory, and the pytest and hypothesis caches are
kept out of the checkout, but the benchmark smoke test keeps its worlds in
the ignored .perfbench/ as it always does.  The test half takes about two
and a half minutes under tracing on a 2-vCPU Xeon VM.
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
import sys
import tempfile
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
    exits; the sitecustomize module of the test half calls this."""
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


def shell_lines(text: str) -> list[list[str]]:
    """The commands of a shell snippet, continuation lines joined and a
    leading ``time`` dropped, each split as the shell would."""
    commands = []
    for line in text.replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        if argv[:1] == ["time"]:
            argv = argv[1:]
        if argv:
            commands.append(argv)
    return commands


def readme_commands() -> list[list[str]]:
    text = (ROOT / "README.md").read_text()
    block = text[text.index("## Command line"):].split("```")[1]
    return shell_lines(block)


def sampled_run_commands() -> list[list[str]]:
    """The commands of CI's "Sampled perc run" step."""
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    step = text[text.index("- name: Sampled perc run"):]
    return shell_lines(step[step.index("run: |") + len("run: |"):step.index("- name:", 1)])


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


def run_commands(commands: list[list[str]], problems: list[str]) -> None:
    """Run each perc command through perc.cli.main and each cmp in this
    process, in the current directory; any other command is skipped."""
    from perc.cli import main
    for argv in commands:
        if argv[0] == "perc":
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(argv[1:])
            if code != 0:
                problems.append(f"{shlex.join(argv)} exited {code}: {err.getvalue().strip()}")
        elif argv[0] == "cmp":
            if Path(argv[1]).read_bytes() != Path(argv[2]).read_bytes():
                problems.append(f"{shlex.join(argv)}: the files differ")


def trace_callers() -> tuple[dict[str, set[int]], list[str]]:
    problems: list[str] = []
    tracer = Tracer(PACKAGE)
    tracer.start()
    try:
        for demo in sorted((ROOT / "demos").glob("*.py")):
            with in_temp_dir(), contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(demo), run_name="__main__")
        for commands in (readme_commands(), sampled_run_commands()):
            with in_temp_dir():
                run_commands(commands, problems)
    finally:
        Tracer.stop()
    return tracer.lines(), problems


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
        (tmp / "site").mkdir()
        (tmp / "out").mkdir()
        (tmp / "site" / "sitecustomize.py").write_text(SITECUSTOMIZE.format(
            variable=OUT_VARIABLE, path=str(Path(__file__).resolve())))
        os.environ["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(tmp / "site"), str(SRC), saved.get("PYTHONPATH")]))
        os.environ[OUT_VARIABLE] = str(tmp / "out")
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
        lines = tracer.lines()
        for dump in (tmp / "out").glob("*.json"):
            for name, hit in json.loads(dump.read_text()).items():
                lines.setdefault(name, set()).update(hit)
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
