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
import operator
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

NEG_INF = float("-inf")


class ConfigError(ValueError):
    """A parameter value that fails its check; ``field`` names the
    ExperimentConfig field that carries it."""

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


def check_int_fields(config) -> None:
    """check_int on each field of dataclass ``config`` annotated ``int``."""
    for field in dataclasses.fields(config):
        if field.type in ("int", int):
            check_int(field.name, getattr(config, field.name))


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


def log10_or_neg_inf(x: float) -> float:
    """log10 that maps 0 to -inf instead of raising."""
    if x < 0.0:
        raise ValueError(f"expected a probability in [0, 1], got {x}")
    if x == 0.0:
        return NEG_INF
    return math.log10(x)


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
