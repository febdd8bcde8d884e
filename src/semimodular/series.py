"""Bilateral series over Lucas-sequence denominators, with sound tails.

The standard series of weight m built on a sequence L is

    sum over all integers j of  (L(j)*z + L(j-1)) ** (-m),

split for bookkeeping into the half over j <= 0 and the half over j >= 1.
A swapped variant, sum of (F(j) - F(j-1)*z) ** (-m), is wired up for the
Fibonacci numbers only; as a full bilateral sum it contains exactly the
same terms re-indexed (j -> 1 - j), but its windows truncate differently.

Poles.  Write r(n) = L(n)/L(n-1).  The term at index j vanishes at
z = -L(j-1)/L(j): by the negative-index sign rule that is -r(n)/b with
n = 1 - j for j <= 0, and -1/r(j) for j >= 1.  (`pole_map` lists the
ratios r(n) themselves, which for b = -1 are the poles.)  As r(n) tends to
the dominant root r1, the poles accumulate at -r1/b and -1/r1; for b = -1
these are essential singularities, and the proximity guard treats them
like poles.

Truncation tails.  Only a recursion whose roots split the unit circle,
|r2| < 1 < |r1| (`lucas.is_geometric_spec`), gets a kernel; any other spec
is refused with ToleranceUnreachable.  Each denominator is
|c1*z + c0| = |c1| |z - p|, p its pole.  Past a reference edge E a hull of
the next ratios holds every later r(k) (`_tail_params`), so each side has
a cluster holding all its later poles, |z - p| >= d = dist(z, cluster),
and a growth ratio g > 1 of its scale |c1|: |L(n)| for j >= 1 and
|L(-n)| = |L(n)| / |b|**n for j <= 0.  Whence

    side tail of window J <= d**(-m) * scale(J + shift)**(-m) / (1 - g**(-m)).

The window is the smallest these envelopes certify, read off the tables
of both scales in closed form (`_plan_window`).  Only the distance, the
doubles of the scales and a few products and powers round; outward-rounded
cluster ends and a relative 1e-12 off the distance cover them.  The tails
are sound for every such spec; `certified` marks b = -1, a != 0 only
(`is_certified_spec`), the recursions the identity checks accept.
"""

from __future__ import annotations

import bisect
import cmath
import enum
import functools
import itertools
import math
import sys
from collections import defaultdict, namedtuple
from fractions import Fraction

from .errors import PoleProximity, ToleranceUnreachable
from .lucas import (
    FIBONACCI,
    Kind,
    SequenceSpec,
    forward,
    growth_info,
    is_certified_spec,
    is_geometric_spec,
    seq_value,
)

GUARD_EPS = 1e-6
# Poles with |n| beyond this sit within ~1e-26 of an accumulation point, so
# the accumulation-point check subsumes them.
GUARD_DEPTH = 64
MIN_WINDOW = 4
MAX_WINDOW = 10_000
# Windows up to this J keep their rows in summing order (`_Kernel.window`).
STORED_WINDOW = 64
MIN_TOL = 1e-13

_OVERFLOW = "terms overflow double range"
_NOT_GEOMETRIC = (
    "no tail bound for this sequence: the roots of x**2 = a*x - b must satisfy"
    " |r2| < 1 < |r1|, that is (1 + b - a)(1 + b + a) < 0"
)
_TINY = sys.float_info.min

# Coefficients wider than this cannot influence any supported tolerance;
# they are also unsafe to push through float().
_HUGE_BITS = 512


class Variant(enum.Enum):
    STANDARD = "standard"
    FOOTNOTE = "footnote"

    # Identity hash, as for `Kind`.
    __hash__ = object.__hash__


class SeriesSpec(namedtuple("SeriesSpec", "seq weight variant")):
    """Weight-m bilateral series over the given sequence."""

    __slots__ = ()

    def __new__(cls, seq: SequenceSpec, weight: int, variant: Variant = Variant.STANDARD) -> SeriesSpec:
        if not isinstance(weight, int) or weight < 2:
            raise ValueError("weight must be an integer >= 2")
        if variant is Variant.FOOTNOTE and seq != FIBONACCI:
            raise ValueError("the swapped-coefficient variant is defined for the Fibonacci numbers only")
        # A plain tuple equals the spec with its fields, but is not one.
        if not isinstance(seq, SequenceSpec):
            raise TypeError("seq must be a SequenceSpec")
        return tuple.__new__(cls, (seq, weight, variant))

    # `_replace` builds through `_make`, so it validates too.
    _make = classmethod(lambda cls, fields: cls(*fields))


class SeriesResult(namedtuple("SeriesResult", "value tail_bound j_min j_max certified")):
    """Windowed value plus a bound on the total modulus of omitted terms."""

    __slots__ = ()


# Exact pole ratios (Fractions) and the accumulation points (floats).
PoleMap = namedtuple("PoleMap", "poles accumulation_points")


def _coeffs_float(c1: int, d1: int, c0: int, d0: int) -> tuple[complex, complex] | None:
    """The doubles of c1/d1 and c0/d0 (ints, each rounded once), the
    coefficients of a term denominator c1*z + c0, as complex numbers with
    zero imaginary parts, or None once either value outgrows doubles.

    A coefficient of magnitude beyond 2**_HUGE_BITS forces the term
    denominator past 2**_HUGE_BITS times the guard radius, so the term
    underflows double precision anyway.  (The gate is on value magnitude,
    not numerator width: |b| > 1 sequences have negative-index values like
    -(2**n - 1)/2**n whose numerators grow while the value stays O(1).)
    """
    if c1.bit_length() - d1.bit_length() > _HUGE_BITS or c0.bit_length() - d0.bit_length() > _HUGE_BITS:
        return None
    return complex(c1 / d1), complex(c0 / d0)


def _scan(seq: SequenceSpec, variant: Variant):
    """Per index k = 0, 1, ...: the `_Kernel` entries `mags[k]`, `nmags[k]`,
    `neg[k]` and `pos[k]`, all from one forward run of the recursion.

    The run is not the memo table, which a slowly growing |L(-n)| would
    fill far.  A negative index is L(-n) = sign L(n) / b**n: `int / int`
    rounds it once, to the double of its `Fraction`, without a gcd per
    index.
    """
    b = abs(seq.b)
    # b**n = flip**n |b|**n: over the power of |b| the sign of L(-n) flips per index for b < 0.
    sign, flip = (-1 if seq.kind is Kind.FIRST else 1), (1 if seq.b > 0 else -1)

    def row(c1: int, d1: int, c0: int, d0: int) -> tuple[complex, complex] | None:
        """The row of the standard (c1/d1, c0/d0) = (L(j), L(j-1)) in `variant`."""
        if variant is Variant.FOOTNOTE:
            c1, d1, c0, d0 = -c0, d0, c1, d1
        return _coeffs_float(c1, d1, c0, d0)

    values = forward(seq)
    prev, cur, nxt, power = None, next(values), next(values), 1
    while True:
        # L(k-1), L(k), L(k+1) and |b|**k; index 0 is in both halves.
        mag = abs(cur)
        fmag = float(mag) if mag.bit_length() < 1024 else 2.0**1023
        below = row(sign * cur, power, sign * flip * nxt, power * b)
        yield (fmag, fmag if b == 1 else 2.0**1023 if mag >= power << 1023 else mag / power,
               below, below if prev is None else row(cur, 1, prev, 1))
        prev, cur, nxt, power, sign = cur, nxt, next(values), power * b, sign * flip


class _Kernel:
    """Evaluation state of one (sequence, variant), shared by its weights.
    Only a sequence with `is_geometric_spec` has one; any other is refused
    here, with ToleranceUnreachable.

    - `mags[n]` and `nmags[n]`: the doubles of |L(n)| and of
      |L(-n)| = |L(n)| / |b|**n (the list `mags` itself when |b| = 1), or
      the lower bound 2**1023 from 2**1023 (|b| > 1) or 2**1024 (|b| = 1)
      on; both nondecreasing from n = 2.
    - `neg[k]` and `pos[k]`: the `_coeffs_float` rows of indices -k and k.
      The rows are complex because CPython (3.10-3.13) turns a float
      operand of complex `*` and `+` into complex(x, 0.0) first: storing
      that conversion gives `c1*z + c0` the same bits, once per row instead
      of twice per term.
    - `scan`: the `_scan` run that `grow` extends all four lists from, so
      they always have equal lengths.
    - `windows[J]`: `window(J)`, kept for J <= STORED_WINDOW only (a few
      thousand references), however many windows are planned; rows only
      ever grow, so a kept window never goes stale.
    - `edges[m][E]`: weight m's `_tail_params` at reference edge E, for the
      reference edges the planner has used.
    - `guard`: the sequence's `_guard_points`.
    """

    __slots__ = ("seq", "variant", "certified", "mags", "nmags", "neg", "pos", "scan", "windows", "edges", "guard")

    def __init__(self, seq: SequenceSpec, variant: Variant) -> None:
        if not is_geometric_spec(seq):
            raise ToleranceUnreachable(_NOT_GEOMETRIC)
        self.seq = seq
        self.variant = variant
        self.certified = is_certified_spec(seq)
        self.mags: list[float] = []
        self.nmags = self.mags if abs(seq.b) == 1 else []
        self.neg: list[tuple[complex, complex] | None] = []
        self.pos: list[tuple[complex, complex] | None] = []
        self.scan = _scan(seq, variant)
        self.windows: dict[int, tuple[list, list]] = {}
        self.edges: defaultdict[int, dict[int, tuple]] = defaultdict(dict)
        self.guard = _guard_points(seq)

    def window(self, J: int) -> tuple[list, list]:
        """The rows of indices -J..0 and J..1, each from its far end inward."""
        rows = self.windows.get(J)
        if rows is None:
            self.grow(J + 1)
            rows = self.neg[J::-1], self.pos[J:0:-1]
            if J <= STORED_WINDOW:
                self.windows[J] = rows
        return rows

    def grow(self, least: int, most: int = 0, neg_c: float = 0.0, pos_c: float = 0.0) -> None:
        """Grow the tables to `least` entries, and on, to `most` at most,
        while `nmags` or `mags` three from the end (the footnote sides'
        indices differ by 2) is below neg_c or pos_c."""
        mags, nmags, neg, pos = self.mags, self.nmags, self.neg, self.pos
        while len(mags) < least or (len(mags) < most and (nmags[-3] < neg_c or mags[-3] < pos_c)):
            mag, nmag, below, above = next(self.scan)
            mags.append(mag)
            if nmags is not mags:
                nmags.append(nmag)
            neg.append(below)
            pos.append(above)


_kernel = functools.lru_cache(maxsize=None)(_Kernel)


def _power_error(kern: _Kernel, pairs, z: complex, j0: int, step: int) -> Exception:
    """The package error for a failed `(c1*z + c0) ** -m` over `pairs`, rows
    of `kern`, where pairs[k] belongs to index j0 + step*k.

    A computed zero denominator is a pole only where the exact one vanishes:
    z is real and c1 Re z + c0 = 0 in exact arithmetic on the sequence
    values.  Off the real axis it never does (c1 Im z != 0 unless c1 = 0,
    and with b != 0 no two consecutive values are 0).  Any other failure is
    a term beyond double range (overflow, an underflowing power that the
    reciprocal then divides by, or a coefficient that underflowed to 0).
    """
    real = not z.imag
    for k, pair in enumerate(pairs):
        if real and pair is not None and pair[0] * z + pair[1] == 0:
            j, x = j0 + step * k, Fraction(z.real)
            # The exact (c1, c0) are (L(j), L(j-1)), or (-L(j-1), L(j)) swapped.
            p, q = seq_value(kern.seq, j), seq_value(kern.seq, j - 1)
            if (p * x + q if kern.variant is Variant.STANDARD else p - q * x) == 0:
                return PoleProximity(f"term {j} denominator vanishes exactly at z = {z}")
    return ToleranceUnreachable(_OVERFLOW)


def _half_sum(kern: _Kernel, pairs, z: complex, e: int, j0: int, step: int) -> complex:
    """Plain sum of (c1*z + c0) ** e over the complex rows `pairs` of `kern`, in
    order, where pairs[k] belongs to index j0 + step*k; a None pair is an
    exact zero term and is skipped.

    The term order and each operation of the loop are part of the contract;
    the terms mostly ascend, where Kahan compensation bought little.  A power
    can overflow without raising (giving nan), so a non-finite total fails
    like a raised overflow; a failed sum goes on to `_resum_inverted`.
    """
    total = 0j
    try:
        for pair in pairs:
            if pair is not None:
                total += (pair[0] * z + pair[1]) ** e
        if cmath.isfinite(total):
            return total
    except (ZeroDivisionError, OverflowError):
        pass
    return _resum_inverted(kern, pairs, z, e, j0, step)


def _resum_inverted(kern: _Kernel, pairs, z: complex, e: int, j0: int, step: int) -> complex:
    """A failed half sum of den ** -m, summed again as (1/den) ** m.

    CPython powers den ** -m as the reciprocal of den ** m, which overflows
    at a huge z although the term underflows.  Only a failed sum comes here,
    so a sum that succeeds the first way keeps its bits.  A non-finite den
    is a zero term (|c0| <= 2**_HUGE_BITS, so |den| > 1e308 and the term is
    below 1e-616).  A denominator that computes to 0 ends it: an exact pole
    raises PoleProximity, any other such 0 is a term past double range.  A
    failure of the resummed half (e > 0) is final.
    """
    if e > 0:
        raise ToleranceUnreachable(_OVERFLOW)
    error = _power_error(kern, pairs, z, j0, step)
    dens = [None if p is None else p[0] * z + p[1] for p in pairs]
    # A computed 0 that is no pole (`_power_error`) has no reciprocal either.
    if isinstance(error, PoleProximity) or 0 in dens:
        raise error
    # The row (0, 1/den) at z = 0 gives the base 1/den itself (a zero part
    # may change sign).
    inverted = [(0j, 1 / d) if d is not None and cmath.isfinite(d) else None for d in dens]
    return _half_sum(kern, inverted, 0j, -e, j0, step)


# ---------------------------------------------------------------------------
# Pole map and proximity guard
# ---------------------------------------------------------------------------


def _pole_pairs(seq: SequenceSpec, n_min: int, n_max: int):
    """The pole ratios L(n)/L(n-1), n_min <= n <= n_max, L(n-1) != 0, as
    reduced (numerator, denominator) ints with denominator > 0, ascending
    by value and each once.

    Other recursions sort their `Fraction`s.  For b = -1, a != 0 the order
    and the reduction are known in closed form.  Take a > 0 first.  By the
    sign rule the pole at n = 1 - k (k >= 1) is -L(k-1)/L(k) = -1/p(k),
    where p(k) = L(k)/L(k-1) is the pole at n = k, and p(1) = +inf for the
    first kind (L(0) = 0: index 1 has no pole, index 0 has the pole 0).
    The p(k), k >= 1, are positive and follow p(k+1) = f(p(k)) with
    f(x) = a + 1/x, decreasing on (0, +inf], whose fixed point is the
    irrational dominant root phi.  For 0 < x < phi, f(x) > phi and
    x < f(f(x)) < phi, since f(f(x)) - x = a (1 + a x - x**2)/(1 + a x) > 0
    and f o f increases; above phi the same holds reversed.  So the p(k) of
    one parity (even k for the first kind, from p(2) = a; odd k for the
    second, from p(1) = a/2) increase strictly towards phi, and the others
    decrease strictly towards it.  x -> -1/x increases, so the poles
    -1/p(k) <= 0 of the indices n <= 0 keep that order, below every pole of
    the indices n >= 1.  The ascending map is thus four runs of distinct
    values: n <= 0 by k over the low parity upwards, then the high parity
    downwards, then n >= 1 the same way.  For a < 0 the sequence is the
    |a| one with signs (-1)**n or -(-1)**n attached, so every pole is
    minus the |a| pole at the same index and the runs go in reverse.
    So each pole of a side past an index lies between the side's next two.
    Reduction: L(n) = a L(n-1) + L(n-2) gives gcd(L(n), L(n-1)) =
    gcd(L(n-1), L(n-2)), so every pair shares g = gcd(L(1), L(0)).
    """
    if n_min <= n_max:
        # The end indices first: one past the index cap fails before any pole.
        seq_value(seq, n_min - 1), seq_value(seq, n_max)
    if not is_certified_spec(seq):
        pairs = ((seq_value(seq, n), seq_value(seq, n - 1)) for n in range(n_min, n_max + 1))
        for p in sorted({Fraction(num, den) for num, den in pairs if den != 0}):
            yield p.numerator, p.denominator
        return
    g = math.gcd(seq_value(seq, 1), seq_value(seq, 0))
    low = 0 if seq.kind is Kind.FIRST else 1

    def runs(k_min: int, k_max: int) -> tuple[range, range]:
        """The k in [k_min, k_max] of the low parity upwards, then of the high parity downwards."""
        up = range(k_min + (k_min - low) % 2, k_max + 1, 2)
        down = range(k_max - (k_max - low + 1) % 2, k_min - 1, -2)
        return up, down

    # (index side, k range): for a > 0 the pole at n <= 0 is -|L(k-1)|/|L(k)|
    # with k = 1 - n, and at n >= 1 it is |L(k)|/|L(k-1)| with k = n.
    order = [(True, ks) for ks in runs(1 - min(n_max, 0), 1 - n_min)]
    order += [(False, ks) for ks in runs(max(n_min, 2 - low), n_max)]
    sign = 1
    if seq.a < 0:
        sign = -1
        order = [(nonpositive, ks[::-1]) for nonpositive, ks in reversed(order)]
    for nonpositive, ks in order:
        for k in ks:
            lo, hi = abs(seq_value(seq, k - 1)) // g, abs(seq_value(seq, k)) // g
            yield (-sign * lo, hi) if nonpositive else (sign * hi, lo)


def pole_map(seq: SequenceSpec, n_min: int, n_max: int) -> PoleMap:
    """Exact pole ratios L(n)/L(n-1) for n in [n_min, n_max], deduplicated.

    Indices where L(n-1) = 0 contribute no pole and are skipped.
    Accumulation points are reported for the b = -1 family (they are the
    dominant root and minus its reciprocal); other recursions report none.
    """
    return PoleMap(tuple(Fraction(*p) for p in _pole_pairs(seq, n_min, n_max)), _accumulation_points(seq))


def _accumulation_points(seq: SequenceSpec) -> tuple[float, ...]:
    return tuple(sorted(growth_info(seq))) if is_certified_spec(seq) else ()


@functools.lru_cache(maxsize=None)
def _guard_points(seq: SequenceSpec) -> tuple[float, ...]:
    """Sorted doubles (repeats kept) of the guarded poles -c0/c1 of the terms
    j with |j - 1| <= GUARD_DEPTH and c1 != 0 (for b = -1 the ratios of
    `pole_map` over |n| <= GUARD_DEPTH, n = 1 - j) and of the accumulation
    points."""
    rows = ((seq_value(seq, j), seq_value(seq, j - 1)) for j in range(1 - GUARD_DEPTH, 2 + GUARD_DEPTH))
    poles = [float(Fraction(-c0, c1)) for c1, c0 in rows if c1 != 0]
    return tuple(sorted(poles + list(_accumulation_points(seq))))


def pole_distance(seq: SequenceSpec, z: complex) -> float:
    """Distance from z to the guarded pole set plus accumulation points."""
    return _distance(_guard_points(seq), z)


def _distance(points: tuple[float, ...], z: complex) -> float:
    """Distance from z to the nearest of the sorted real `points`.

    The nearest one neighbours Re(z) in sort order.  A finite z whose
    distance passes double range is infinitely far.
    """
    i = bisect.bisect_left(points, z.real)
    try:
        if 0 < i < len(points):
            below, above = abs(z - points[i - 1]), abs(z - points[i])
            return below if below <= above else above
        return abs(z - points[i - 1 if i else 0])
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# Tail bounds
# ---------------------------------------------------------------------------


def _tail_params(seq: SequenceSpec, variant: Variant, m: int, E: int) -> tuple[tuple, tuple]:
    """z-independent pieces of the (neg, pos) side tails of every window
    J >= E: the side's cluster, a hull of all its poles past E with both
    ends rounded outward, gamma = (1 - g**-m) ** (-1/m) for the side's
    growth ratio g, and the shift to the index J + shift of its scale.

    With r(k) = L(k)/L(k-1), the half j <= 0 has the poles -r(n)/b,
    n = 1 - j, and its scale |L(-n)| grows by |r(n)/b|; the half j >= 1 has
    the poles -1/r(j), and its scale |L(j)| grows by |r(j+1)|.  A hull H of
    every r(k), k >= E + 1, thus gives the standard minus side the cluster
    -H/b and g = min |H/b|, and the plus side g = min |H|; its cluster is
    -1/H' for a hull H' of every r(k), k >= E.  The hulls:
    - b < 0: r(k+1) = a - b/r(k) falls as r(k) rises, so the ratios
      alternate around the dominant root as they close in on it (proved
      for b = -1 in `_pole_pairs`): r(k), r(k+1) hold every later one.
    - b > 0: r(k+1) rises with r(k), so the first kind's ratios (from
      r(2) = a) fall to the root and the second kind's (from r(1) = a/2)
      rise to it: r(k) of the two kinds hold every later one of either.
    The swapped variant (pole n = j) exchanges the two clusters.  Each
    pole is a correctly rounded `int / int`.  With E >= 4 no ratio is 0
    and g > 1 exactly; a g that rounds to 1 gives gamma = inf, no bound.
    """
    b = seq.b
    # L(E-1), ..., L(E+2) from a forward run of their own, not the memo table.
    v = list(itertools.islice(forward(seq), E - 1, E + 3))
    # The second ratio of each hull: for b < 0 the next one, w(k) = L(k+1);
    # for b > 0 the other kind's, w(k) = 2 L(k+1) - a L(k), which is V(k)
    # from U and (a*a - 4b) U(k) from V.
    w = v[1:] if b < 0 else [2 * y - seq.a * x for x, y in zip(v, v[1:])]
    ahead, at = [(v[2], v[1]), (w[2], w[1])], [(v[1], v[0]), (w[1], w[0])]
    minus = sorted(-p / (b * q) for p, q in ahead)
    plus = sorted(-q / p for p, q in at)
    neg_gamma, pos_gamma = (math.exp(-math.log1p(-(g**-m)) / m) if g > 1.0 else math.inf
                            for g in (min(abs(minus[0]), abs(minus[1])), min(abs(p / q) for p, q in ahead)))
    if variant is Variant.STANDARD:
        sides = ((minus, neg_gamma, 1), (plus, pos_gamma, 1))
    else:
        sides = ((plus, pos_gamma, 2), (sorted(-p / (b * q) for p, q in at), neg_gamma, 0))
    return tuple((math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf), gamma, shift)
                 for (lo, hi), gamma, shift in sides)


def _up(x: float) -> float:
    """x, or below the normal range (too few bits for the 1e-12) the next double up."""
    return math.nextafter(x, math.inf) if x < _TINY else x


def _no_window(tol: float) -> ToleranceUnreachable:
    return ToleranceUnreachable(f"no window up to J = {8 * MAX_WINDOW} has side tails <= {tol:.1e}/2")


def _out_of_reach(scale: float, lo: float, hi: float, z: complex, s: float, E: int) -> bool:
    """Whether no reference edge from E on plans the minus side of a
    |b| > 1 sequence, whose cluster at E is [lo, hi] and whose scale at
    index E is `scale`, the double of |L(-E)|.

    Every later growth ratio |r(n)/b|, n > E, is |p| for a pole p in the
    cluster, so at most G = max(|lo|, |hi|).  A G of at most 1 + 2**-52 is
    the outward rounding of a largest ratio that rounds to 1: every later
    g rounds to 1 too, and gamma is inf.  Otherwise every later edge's
    c = s gamma / d is at least s / far, far the distance from z to the
    cluster's farther end (gamma >= 1, and a later cluster shares its far
    poles with this one), and the scale at J + 1 is at most
    scale * G**(J + 1 - E); the windows stop at J = 8 MAX_WINDOW.  A
    relative 1e-9 covers the rounding of the logarithms, and `_up` a
    subnormal or zero `scale`.
    """
    G = max(abs(lo), abs(hi))
    reach = s / math.hypot(max(z.real - lo, hi - z.real), z.imag) / _up(scale)
    return G <= 1.0 + 2.0**-52 or (
        reach > 1.0 and (8 * MAX_WINDOW + 1 - E) * math.log(G) * (1.0 + 1e-9) < math.log(reach))


def _plan_window(kern: _Kernel, z: complex, m: int, tol: float) -> tuple[int, float, float]:
    """The smallest window J >= E whose side envelopes, with the
    `_tail_params` of the reference edge E, both meet half = tol / 2, as
    (J, neg tail, pos tail).

    An envelope d**-m scale(J + shift)**-m / (1 - g**-m) does so exactly
    when scale(J + shift) >= c = s gamma / d, s = half**(-1/m), so J is a
    bisection in `nmags` (minus side) or `mags` (plus side), and the tail
    reported, half (c / scale)**m, is the envelope.  Rounding in s, gamma, c
    and the power stays far below the relative 1e-12 taken off d, save
    below the normal range, where `_up` rounds the power and the tail up.
    E starts at MIN_WINDOW and doubles while z is in a cluster of E
    (d <= 0, or c >= 2**1023) or J > 8E (z hugging a cluster, or a scale
    growing slowly), up to MAX_WINDOW.  There, for |b| = 1, every scale is
    past 1e2000.  For |b| > 1 the plan there is made as at any other E, up
    to J = 8 MAX_WINDOW, and the minus scale may grow slowly: before the
    tables grow, `_out_of_reach` refuses a plan that no later edge makes.
    """
    half = tol / 2
    s = half ** (-1 / m)
    x, y = z.real, z.imag
    edges, mags, nmags = kern.edges[m], kern.mags, kern.nmags
    E = MIN_WINDOW
    while True:
        sides = edges.get(E) or edges.setdefault(E, _tail_params(kern.seq, kern.variant, m, E))
        (neg_lo, neg_hi, neg_gamma, neg_shift), (pos_lo, pos_hi, pos_gamma, pos_shift) = sides
        neg_d = math.hypot(neg_lo - x if x < neg_lo else x - neg_hi if x > neg_hi else 0.0, y) * (1.0 - 1e-12)
        pos_d = math.hypot(pos_lo - x if x < pos_lo else x - pos_hi if x > pos_hi else 0.0, y) * (1.0 - 1e-12)
        if E >= MAX_WINDOW and nmags is mags:
            # |L(E + shift)| > 1e2000: an envelope with d > 0 is below the least double, so rounds up to it.
            neg, pos = _up(0.0) if neg_d > 0.0 else math.inf, _up(0.0) if pos_d > 0.0 else math.inf
            if neg <= half and pos <= half:
                return E, neg, pos
            raise ToleranceUnreachable(
                f"window cap {MAX_WINDOW} hit with side tails ({neg:.3e}, {pos:.3e}) > {tol:.1e}/2")
        neg_c, pos_c = (s * neg_gamma / neg_d if neg_d > 0.0 else math.inf,
                        s * pos_gamma / pos_d if pos_d > 0.0 else math.inf)
        ready = len(mags) >= E + 3 and nmags[-3] >= neg_c and mags[-3] >= pos_c
        if not ready:
            if nmags is not mags:
                kern.grow(E + 1)
                if _out_of_reach(nmags[E], neg_lo, neg_hi, z, s, E):
                    raise _no_window(tol)
            ready = neg_c < 2.0**1023 and pos_c < 2.0**1023
            if ready:
                kern.grow(E + 3, 8 * E + 3, neg_c, pos_c)
        if ready:
            J = bisect.bisect_left(nmags, neg_c, E + neg_shift) - neg_shift
            K = bisect.bisect_left(mags, pos_c, E + pos_shift) - pos_shift
            if K > J:
                J = K
            if J <= 8 * E:
                neg_p, pos_p = (neg_c / nmags[J + neg_shift]) ** m, (pos_c / mags[J + pos_shift]) ** m
                neg, pos = half * neg_p, half * pos_p
                if neg_p < _TINY or pos_p < _TINY or neg < _TINY or pos < _TINY:
                    neg, pos = _up(half * _up(neg_p)), _up(half * _up(pos_p))
                return J, neg, pos
        if E >= MAX_WINDOW:
            raise _no_window(tol)
        E = min(2 * E, MAX_WINDOW)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _evaluate(spec: SeriesSpec, z: complex, tol: float, guard_eps: float) -> tuple:
    """The one evaluation core: validate, guard, plan the window and sum
    both halves.  Returns (J, minus, plus, neg_tail, pos_tail, certified).

    Each half is summed plainly from its far end inward (ascending term
    magnitude).
    """
    if not (MIN_TOL <= tol < math.inf):
        raise ValueError(f"tol must be finite and >= {MIN_TOL}")
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"z must be finite, got {z}")
    if not (guard_eps >= 0):
        raise ValueError(f"guard_eps must be >= 0, got {guard_eps}")
    kern = _kernel(spec.seq, spec.variant)
    # Every guarded point is real, so |Im z| bounds the distance from below.
    if abs(z.imag) < guard_eps:
        d = _distance(kern.guard, z)
        if d < guard_eps:
            raise PoleProximity(f"z = {z} is within {d:.3e} of a pole or accumulation point (guard {guard_eps:.1e})")
    J, neg_tail, pos_tail = _plan_window(kern, z, spec.weight, tol)
    neg, pos = kern.window(J)
    minus = _half_sum(kern, neg, z, -spec.weight, -J, 1)
    plus = _half_sum(kern, pos, z, -spec.weight, J, -1)
    return J, minus, plus, neg_tail, pos_tail, kern.certified


def evaluate_halves(
    spec: SeriesSpec,
    z: complex,
    tol: float = 1e-10,
    *,
    guard_eps: float = GUARD_EPS,
) -> tuple[SeriesResult, SeriesResult]:
    """Windowed half sums over j <= 0 and j >= 1, each with its own tail bound.

    Both halves come from the same core as `evaluate`, whose value is their
    sum, so the decomposition identity holds bit-exactly.  z must be finite
    and guard_eps >= 0 (0 turns the guard off); anything else is a ValueError.
    """
    J, minus, plus, neg_tail, pos_tail, certified = _evaluate(spec, z, tol, guard_eps)
    # tuple.__new__ skips the namedtuple's Python-level __new__.
    return (
        tuple.__new__(SeriesResult, (minus, neg_tail, -J, 0, certified)),
        tuple.__new__(SeriesResult, (plus, pos_tail, 1, J, certified)),
    )


def evaluate(
    spec: SeriesSpec,
    z: complex,
    tol: float = 1e-10,
    *,
    guard_eps: float = GUARD_EPS,
) -> SeriesResult:
    """Windowed bilateral sum with |omitted mass| <= tail_bound.

    One result from the core behind `evaluate_halves`: the value is exactly
    the sum of the two half values at the same window, and the tail bound
    the sum of the two half bounds.
    """
    J, minus, plus, neg_tail, pos_tail, certified = _evaluate(spec, z, tol, guard_eps)
    return tuple.__new__(SeriesResult, (minus + plus, neg_tail + pos_tail, -J, J, certified))
