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

`growth_info` supplies the ratio data behind the series-tail certificates,
for the recursions `is_certified_spec` names (b = -1, a != 0) and no others:
there the consecutive ratios r(j) = L(j-1)/L(j) are iterates of the Moebius
map x -> 1/(a + x), a decreasing contraction, so they alternate around the
limit 1/root and each consecutive pair brackets every later ratio.  The
exact interval spanned by the pair r(J), r(J+1) therefore provably contains
all ratios from index J on.  (For a <= -1 the sequence is the a >= 1 one
with alternating signs attached, so the mirrored pair has the same
bracketing property.)
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


class GrowthInfo(namedtuple("GrowthInfo", "dominant_root limit_ratio_neg ratio_lo ratio_hi")):
    """Dominant-root data plus the exact interval spanned by the ratio pair
    r(J) = L(J-1)/L(J), r(J+1) = L(J)/L(J+1) of a certified recursion.

    By the bracketing argument in the module docstring the interval contains
    every ratio r(j) with j >= J; both ends are nonzero with the sign of a.
    Fields: dominant_root and limit_ratio_neg (floats), ratio_lo and
    ratio_hi (Fractions).
    """

    __slots__ = ()


def is_certified_spec(spec: SequenceSpec) -> bool:
    """True when certified ratio intervals (and series tails) are available."""
    return spec.b == -1 and spec.a != 0


@functools.lru_cache(maxsize=None)
def growth_info(spec: SequenceSpec, J: int) -> GrowthInfo:
    """Dominant root and the ratio interval spanned by r(J), r(J+1), J >= 3.

    Raises UncertifiedOnly unless `is_certified_spec(spec)` holds; there
    x**2 = a*x + 1 has the real roots (a +- sqrt(a**2 + 4))/2, and the one
    with the sign of a is dominant, of modulus above 1.  Results are cached
    (pure function).
    """
    if J < 3:
        raise ValueError("ratio intervals start at J >= 3")
    if not is_certified_spec(spec):
        raise UncertifiedOnly("ratio intervals are certified in the b = -1, a != 0 regime only")
    s = math.sqrt(spec.a * spec.a - 4 * spec.b)
    root = (spec.a + s) / 2.0 if spec.a > 0 else (spec.a - s) / 2.0
    # No L(j), j >= 1, vanishes for these recursions.
    pair = [Fraction(seq_value(spec, j - 1), seq_value(spec, j)) for j in (J, J + 1)]
    return GrowthInfo(
        dominant_root=root,
        limit_ratio_neg=-1.0 / root,
        ratio_lo=min(pair),
        ratio_hi=max(pair),
    )
