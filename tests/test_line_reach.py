"""tests/line_reach.py runs shell snippets through a traced perc, so a
broken shim fails here and not only in the report that gates nothing."""

import perc.cli

import line_reach


def test_shell_snippet_reaches_cli_lines():
    problems = []
    snippet = ("perc synth --records 6 --entities 2 --out world\n"
               "printf 'record_a,record_b,yes,total\\n' > votes.csv\n"
               "perc next --records world/records.csv --graph votes.csv --batch 2 > next.csv\n"
               "test \"$(wc -l < next.csv)\" -eq 2\n")
    lines = line_reach.trace_shell({"synth then next": snippet}, {}, problems)
    assert problems == []
    reached = lines[str(line_reach.PACKAGE / "cli.py")]
    for command in (perc.cli.cmd_synth, perc.cli.cmd_next):
        # its first line and its last, which returns 0
        code = command.__code__
        assert max(line for _, _, line in code.co_lines() if line) in reached
        assert code.co_firstlineno + 1 in reached


def test_failing_snippet_is_reported_and_stops():
    problems = []
    snippet = ("perc synth --records 4 --entities 2 --no-such-flag\n"
               "perc synth --records 4 --entities 2 --out world\n")
    lines = line_reach.trace_shell({"bad flag": snippet}, {}, problems)
    assert len(problems) == 1
    assert problems[0].startswith("bad flag exited 2: ")
    assert "unrecognized arguments: --no-such-flag" in problems[0]
    # the first synth stops in its parser, and bash -e runs no second
    assert perc.cli.cmd_synth.__code__.co_firstlineno + 1 not in \
        lines.get(str(line_reach.PACKAGE / "cli.py"), set())
