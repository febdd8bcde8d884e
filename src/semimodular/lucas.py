"""Exact values of two-parameter integer recursions on all integer indices.

A sequence spec fixes the recursion L(n) = a*L(n-1) - b*L(n-2) together with
its seed values: (0, 1) for the first kind, (2, a) for the second.  The
Fibonacci numbers are the first-kind instance of (a, b) = (1, -1) and the
classical Lucas numbers the second-kind instance.

Nonnegative indices are filled by running the recursion forward (memoized
per spec).  Negative indices use the closed-form sign rule

    L(-n) = (-1)**l * L(n) / b**n,      l = 1 (first kind), l = 2 (second),

which keeps the sign conventions single-sourced; backward recursion is only
used as a cross-check in the test suite.  `seq_value` returns each value in
its own exact type: an `int` for every n >= 0, and for every n when
b = +-1; a `Fraction` only for n < 0 when |b| > 1.  Code that wants a ratio
builds it as `Fraction(p, q)`.

`is_geometric_spec` decides, once and exactly, for which recursions both
halves of the series decay geometrically; `growth_info` supplies the
dominant root and minus its reciprocal, the two accumulation points of the
pole ratios, for the recursions `is_certified_spec` names (b = -1, a != 0)
and no others.
"""

from __future__ import annotations

import enum
import functools
import math
from collections import namedtuple
from fractions import Fraction

from .errors import IndexCapExceeded, UncertifiedOnly

# Values near the cap have tens of thousands of digits but stay exact.
INDEX_CAP = 100_000


class Kind(enum.Enum):
    """Seed family: FIRST starts (0, 1), SECOND starts (2, a)."""

    FIRST = "first"
    SECOND = "second"

    # Members are singletons, so identity hashing is sound, and it skips the
    # Python-level `Enum.__hash__` in every cache keyed by a spec.
    __hash__ = object.__hash__


class SequenceSpec(namedtuple("SequenceSpec", "a b kind")):
    """Recursion L(n) = a*L(n-1) - b*L(n-2) with the kind's seed values."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, kind: Kind = Kind.FIRST) -> SequenceSpec:
        if not isinstance(a, int) or not isinstance(b, int):
            raise TypeError("sequence parameters must be plain integers")
        if not isinstance(kind, Kind):
            raise TypeError("kind must be a Kind member")
        if b == 0:
            raise ValueError("b = 0 is rejected: the bilateral series built on it diverges")
        return tuple.__new__(cls, (a, b, kind))

    # `_replace` builds through `_make`, so it validates too.
    _make = classmethod(lambda cls, fields: cls(*fields))


FIBONACCI = SequenceSpec(1, -1, Kind.FIRST)
LUCAS_NUMBERS = SequenceSpec(1, -1, Kind.SECOND)


_TABLES: dict[SequenceSpec, list[int]] = {}


def _table(spec: SequenceSpec, upto: int) -> list[int]:
    """Forward-recursion table through index `upto`, memoized per spec."""
    tab = _TABLES.get(spec)
    if tab is None:
        tab = _TABLES[spec] = [0, 1] if spec.kind is Kind.FIRST else [2, spec.a]
    while len(tab) <= upto:
        tab.append(spec.a * tab[-1] - spec.b * tab[-2])
    return tab


def seq_value(spec: SequenceSpec, n: int) -> int | Fraction:
    """Exact L(n), |n| <= INDEX_CAP: an int, or a Fraction for n < 0 when |b| > 1."""
    if abs(n) > INDEX_CAP:
        raise IndexCapExceeded(f"|{n}| exceeds the index cap {INDEX_CAP}")
    if n >= 0:
        return _table(spec, n)[n]
    m = -n
    value = -_table(spec, m)[m] if spec.kind is Kind.FIRST else _table(spec, m)[m]
    return value * spec.b**m if abs(spec.b) == 1 else Fraction(value, spec.b**m)


def forward(spec: SequenceSpec):
    """L(0), L(1), L(2), ... by the recursion, kept out of the memo table:
    for long runs read once, in order."""
    x, y = (0, 1) if spec.kind is Kind.FIRST else (2, spec.a)
    while True:
        yield x
        x, y = y, spec.a * y - spec.b * x


class GrowthInfo(namedtuple("GrowthInfo", "dominant_root limit_ratio_neg")):
    """The roots of x**2 = a*x + 1 of a certified recursion, as floats: the
    dominant one and minus its reciprocal."""

    __slots__ = ()


def is_certified_spec(spec: SequenceSpec) -> bool:
    """True when certified series tails are available."""
    return spec.b == -1 and spec.a != 0


def is_geometric_spec(spec: SequenceSpec) -> bool:
    """True when x**2 = a*x - b has real roots with |r2| < 1 < |r1|, that is
    when (1 + b - a)(1 + b + a) < 0.

    The product is p(1) p(-1) for p(x) = x**2 - a*x + b.  It is negative
    exactly when p changes sign between -1 and 1, so that one root lies in
    (-1, 1) and the other, p being a monic quadratic, outside [-1, 1].  Then
    |L(n)| grows like |r1|**n and |L(-n)| = |L(n)| / |b|**n like
    |r2|**(-n), so both halves of the series decay geometrically.  Every
    certified recursion is one (the product is -a**2 < 0 for b = -1,
    a != 0).  The double root a = +-2, b = 1 is not: its first kind
    converges, but only polynomially.
    """
    return (1 + spec.b - spec.a) * (1 + spec.b + spec.a) < 0


@functools.lru_cache(maxsize=None)
def growth_info(spec: SequenceSpec) -> GrowthInfo:
    """The dominant root and minus its reciprocal.

    Raises UncertifiedOnly unless `is_certified_spec(spec)` holds; there
    x**2 = a*x + 1 has the real roots (a +- sqrt(a**2 + 4))/2, and the one
    with the sign of a is dominant, of modulus above 1.  Results are cached
    (pure function).
    """
    if not is_certified_spec(spec):
        raise UncertifiedOnly("growth data are certified in the b = -1, a != 0 regime only")
    s = math.sqrt(spec.a * spec.a - 4 * spec.b)
    root = (spec.a + s) / 2.0 if spec.a > 0 else (spec.a - s) / 2.0
    return GrowthInfo(dominant_root=root, limit_ratio_neg=-1.0 / root)
