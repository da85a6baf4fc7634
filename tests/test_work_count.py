"""The program's work on the benchmark's seed-1 passes and the noisy-crowd
pass, counted as opcode events by tests/work_count.py, equals the counts
recorded for this Python version in tests/work_counts.json."""

import pytest

import work_count


def test_line_events_equal_the_recorded_counts():
    recorded = work_count.recorded()
    if work_count.version() not in recorded:
        pytest.skip(f"line tables differ between Python versions, and counts are recorded "
                    f"for {', '.join(sorted(recorded))} only")
    measured = work_count.measure()
    assert measured == recorded[work_count.version()], (
        "the work moved; if that is meant, regenerate the counts with "
        "`python tests/work_count.py --write` and report the change per module\n"
        + work_count.table(measured, recorded[work_count.version()]))
