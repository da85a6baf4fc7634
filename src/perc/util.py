"""Small shared helpers: the parameter error, canonical pair keys, base-10
logs, seed derivation, a union-find.

Every probability-like quantity in this package is kept in log space with
base 10, so the worked numbers in docstrings and tests read directly as
decimal exponents.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import numbers
import operator
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


class ConfigError(ValueError):
    """A parameter value that fails its check; ``field`` names the
    dataclass field that carries it, a field of ExperimentConfig,
    WorkerModel, ReliabilityParams or VoteTally."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def check_int(field: str, value) -> int:
    """``value`` as a Python int; a bool, or anything ``operator.index``
    refuses (such as 2.0), raises ConfigError naming ``field``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigError(field, f"{field} must be an integer, got {value!r}")


# limit key in a field's metadata -> the test the value must pass, and its sign
_LIMITS = {"ge": (operator.ge, ">="), "gt": (operator.gt, ">"),
           "le": (operator.le, "<="), "lt": (operator.lt, "<")}


def check_fields(config) -> None:
    """ConfigError naming the first field of dataclass ``config`` that is an
    ``int`` check_int refuses, a ``float`` that is a bool or not a real
    number, or breaks a limit its metadata declares (ge, gt, le, lt)."""
    for field in dataclasses.fields(config):
        name, value = field.name, getattr(config, field.name)
        if field.type in ("int", int):
            check_int(name, value)
        elif field.type in ("float", float) and (
                isinstance(value, bool) or not isinstance(value, numbers.Real)):
            raise ConfigError(name, f"{name} must be a real number, got {value!r}")
        for key, limit in field.metadata.items():
            test, sign = _LIMITS[key]
            if not test(value, limit):
                raise ConfigError(name, f"{name} must be {sign} {limit}, got {value}")


def canonical_pair(a: str, b: str) -> tuple[str, str]:
    """Order an unordered record pair as (min id, max id)."""
    if a == b:
        raise ValueError(f"pair ({a!r}, {b!r}) is a self-loop, records must differ")
    return (a, b) if a < b else (b, a)


class UnionFind:
    """Disjoint sets over the integers 0..n-1; groups counts the sets."""

    __slots__ = ("parent", "groups")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.groups = n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra
            self.groups -= 1


def log10_clamped(x: float, floor: float) -> float:
    """log10 with values below ``floor`` clamped up to it first.

    Used wherever a zero-probability component would otherwise drive a
    log-space score to -inf and drown every other term.
    """
    return math.log10(max(x, floor))


def derive_seed(seed: int, *parts) -> int:
    """Fold extra context (round index, block members, tags) into a seed:
    a non-negative 63-bit hash of them that, unlike built-in ``hash``, does
    not vary across processes, so derived seeds reproduce run to run."""
    digest = hashlib.sha256(repr((int(seed), *parts)).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def make_rng(seed: int) -> np.random.Generator:
    """Generator for a derived seed; one construction point for the package.
    numpy is imported here, on the first stream drawn, so a run that draws
    none, such as a ``perc next`` that samples no block, never loads it."""
    import numpy as np
    return np.random.Generator(np.random.PCG64(int(seed) & (2**64 - 1)))
