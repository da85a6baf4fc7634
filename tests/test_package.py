"""The package's public surface."""

import perc


def test_every_exported_name_resolves():
    missing = [name for name in perc.__all__ if not hasattr(perc, name)]
    assert missing == []


def test_no_name_exported_twice():
    assert len(perc.__all__) == len(set(perc.__all__))
