"""Bilateral series over Lucas-sequence denominators, with certified tails.

The standard series of weight m built on a sequence L is

    sum over all integers j of  (L(j)*z + L(j-1)) ** (-m),

split for bookkeeping into the half over j <= 0 and the half over j >= 1.
A swapped variant, sum of (F(j) - F(j-1)*z) ** (-m), is wired up for the
Fibonacci numbers only; as a full bilateral sum it contains exactly the
same terms re-indexed (j -> 1 - j), but its windows truncate differently.

Poles.  The term at index j vanishes at z = -L(j-1)/L(j), which by the
negative-index sign rule equals L(n)/L(n-1) with n = 1 - j.  For b = -1
these pole ratios accumulate at the dominant root and at minus its
reciprocal; both accumulation points are essential singularities and the
proximity guard treats them like poles.

Truncation certificates.  For b = -1, a != 0 the omitted terms on either
side of a window admit a clean geometric envelope.  Each denominator is
|c1*z + c0| = |c1| |z - p|, p its pole, and the poles of one side
alternate around the side's accumulation point as they close in on it
(`_pole_pairs`).  So past a reference edge E the hull of the side's next
two poles, its cluster, holds every later pole of the side, and
|z - p| >= d = dist(z, cluster).  Magnitudes grow at least geometrically,
|L(j+1)/L(j)| >= g > 1 with g the smaller modulus of the poles E + 1 and
E + 2 (pole n is L(n)/L(n-1), a correctly rounded `int / int`), whence

    side tail of window J <= d**(-m) * |L(J + shift)|**(-m) / (1 - g**(-m)).

The half over j <= 0 has the poles n = 1 - j >= E + 1, and the half over
j >= 1 those n <= -E; the swapped variant (pole n = j) exchanges the two
clusters.  The window is the smallest these envelopes certify, read off a
table of |L| in closed form (`_plan_window`).  Only the distance, the
doubles of |L| and a few products and powers round; outward-rounded
cluster ends and a relative 1e-12 off the distance cover them.
Other recursions get heuristic tails and results flagged uncertified.
"""

from __future__ import annotations

import bisect
import cmath
import enum
import functools
import math
import sys
from collections import defaultdict, namedtuple
from fractions import Fraction

from .errors import PoleProximity, ToleranceUnreachable
from .lucas import (
    FIBONACCI,
    Kind,
    SequenceSpec,
    growth_info,
    is_certified_spec,
    seq_value,
)

GUARD_EPS = 1e-6
# Poles with |n| beyond this sit within ~1e-26 of an accumulation point, so
# the accumulation-point check subsumes them.
GUARD_DEPTH = 64
START_WINDOW = 8
MIN_WINDOW = 4
MAX_WINDOW = 10_000
# Windows up to this J keep their rows in summing order (`_Kernel.window`).
STORED_WINDOW = 64
MIN_TOL = 1e-13

_OVERFLOW = "terms overflow double range"
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


def _exact_row(seq: SequenceSpec, variant: Variant, j: int) -> tuple:
    """The exact (c1, c0) of the index-j term denominator c1*z + c0."""
    if variant is Variant.STANDARD:
        return seq_value(seq, j), seq_value(seq, j - 1)
    return -seq_value(seq, j - 1), seq_value(seq, j)


def _coeffs_float(seq: SequenceSpec, variant: Variant, j: int) -> tuple[complex, complex] | None:
    """Double-rounded (c1, c0) of the index-j term denominator c1*z + c0, as
    complex numbers with zero imaginary parts, or None once either value
    outgrows doubles.

    A coefficient of magnitude beyond 2**_HUGE_BITS forces the term
    denominator past 2**_HUGE_BITS times the guard radius, so the term
    underflows double precision anyway.  (The gate is on value magnitude,
    not numerator width: b != -1 sequences have negative-index values like
    -(2**n - 1)/2**n whose numerators grow while the value stays O(1).)
    """
    c1, c0 = _exact_row(seq, variant, j)
    if (c1.numerator.bit_length() - c1.denominator.bit_length() > _HUGE_BITS
            or c0.numerator.bit_length() - c0.denominator.bit_length() > _HUGE_BITS):
        return None
    return complex(c1), complex(c0)


class _Kernel:
    """Evaluation state of one (sequence, variant), shared by its weights.

    - `neg[k]` and `pos[k]`: the `_coeffs_float` rows of indices -k and k
      (equal lengths, only ever grown).
      The rows are complex because CPython (3.10-3.13) turns a float
      operand of complex `*` and `+` into complex(x, 0.0) first: storing
      that conversion gives `c1*z + c0` the same bits, once per row instead
      of twice per term.
    - `windows[J]`: `window(J)`, kept for J <= STORED_WINDOW only (a few
      thousand references), however many windows are planned; rows only
      ever grow, so a kept window never goes stale.
    - `mags[n]`: the double of |L(n)|, or the lower bound 2**1023 from
      |L(n)| >= 2**1024 on; nondecreasing from n = 1, grown by `grow`.
    - `edges[m][E]`: weight m's certified `_tail_params` at reference
      edge E, for the reference edges the planner has used.
    - `guard`: the sequence's `_guard_points`.
    """

    __slots__ = ("seq", "variant", "certified", "neg", "pos", "windows", "mags", "edges", "guard")

    def __init__(self, seq: SequenceSpec, variant: Variant) -> None:
        self.seq = seq
        self.variant = variant
        self.certified = is_certified_spec(seq)
        self.neg: list[tuple[complex, complex] | None] = []
        self.pos: list[tuple[complex, complex] | None] = []
        self.windows: dict[int, tuple[list, list]] = {}
        self.mags: list[float] = []
        self.edges: defaultdict[int, dict[int, tuple]] = defaultdict(dict)
        self.guard = _guard_points(seq)

    def rows_upto(self, n: int) -> tuple[list, list]:
        """Coefficient rows covering every |j| < n."""
        seq, variant, neg, pos = self.seq, self.variant, self.neg, self.pos
        while len(neg) < n:
            k = len(neg)
            # Both entries first, so a raise cannot leave the rows uneven.
            below, above = _coeffs_float(seq, variant, -k), _coeffs_float(seq, variant, k)
            neg.append(below)
            pos.append(above)
        return neg, pos

    def window(self, J: int) -> tuple[list, list]:
        """The rows of indices -J..0 and J..1, each from its far end inward."""
        rows = self.windows.get(J)
        if rows is None:
            neg, pos = self.rows_upto(J + 1)
            rows = neg[J::-1], pos[J:0:-1]
            if J <= STORED_WINDOW:
                self.windows[J] = rows
        return rows

    def grow(self, neg_c: float, pos_c: float, n: int) -> bool:
        """Grow `mags` to n entries or more and the larger c to three from its
        end (the footnote sides' indices differ by 2); False for a c >= 2**1023."""
        c = max(neg_c, pos_c)
        mags = self.mags
        while c < 2.0**1023 and (len(mags) < n or mags[-3] < c):
            value = abs(seq_value(self.seq, len(mags)))
            mags.append(float(value) if value.bit_length() < 1024 else 2.0**1023)
        return c < 2.0**1023


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
            j = j0 + step * k
            c1, c0 = _exact_row(kern.seq, kern.variant, j)
            if c1 * Fraction(z.real) + c0 == 0:
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
    below 1e-616).  A failure of the resummed half (e > 0) is final.
    """
    if e > 0:
        raise ToleranceUnreachable(_OVERFLOW)
    error = _power_error(kern, pairs, z, j0, step)
    if isinstance(error, PoleProximity):
        raise error
    # The row (0, 1/den) at z = 0 gives the base 1/den itself (a zero part
    # may change sign).
    dens = (None if p is None else p[0] * z + p[1] for p in pairs)
    inverted = [(0j, 1 / d) if d is not None and cmath.isfinite(d) else None for d in dens]
    return _half_sum(kern, inverted, 0j, -e, j0, step)


# ---------------------------------------------------------------------------
# Pole map and proximity guard
# ---------------------------------------------------------------------------


def _pole_ratios(seq: SequenceSpec, n_min: int, n_max: int):
    """The exact ratios L(n)/L(n-1), n_min <= n <= n_max, with L(n-1) != 0."""
    for n in range(n_min, n_max + 1):
        denom = seq_value(seq, n - 1)
        if denom != 0:
            yield Fraction(seq_value(seq, n), denom)


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
        for p in sorted(set(_pole_ratios(seq, n_min, n_max))):
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
    if not is_certified_spec(seq):
        return ()
    return tuple(sorted(growth_info(seq)))


@functools.lru_cache(maxsize=None)
def _guard_points(seq: SequenceSpec) -> tuple[float, ...]:
    """Sorted doubles (repeats kept) of the guarded poles and accumulation points."""
    poles = [float(p) for p in _pole_ratios(seq, -GUARD_DEPTH, GUARD_DEPTH)]
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
    """z-independent pieces of the certified (neg, pos) side tails of every
    window J >= E: the side's cluster, the hull of its next two poles past E
    with both ends rounded outward, gamma = (1 - g**-m) ** (-1/m) for the
    growth ratio g, and the shift to the index J + shift of the scale |L|.

    The standard minus side has the poles E + 1, E + 2 and its plus side
    -E, 1 - E; the swapped variant's minus side has -E, 1 - E and its plus
    side E, E + 1.  g is the smaller modulus of the poles E + 1 and E + 2.
    Only certified sequences (b = -1, a != 0) come here, with E >= 4, so
    no pole is 0 and g > 1.  Pole n is `L(n) / L(n-1)`, a correctly
    rounded `int / int`; the parity runs of `_pole_pairs` make hulls sound.
    """

    def hull(n: int) -> list[float]:
        return sorted(seq_value(seq, i) / seq_value(seq, i - 1) for i in (n, n + 1))

    ahead = hull(E + 1)
    g = min(abs(ahead[0]), abs(ahead[1]))
    gamma = math.exp(-math.log1p(-(g**-m)) / m)
    if variant is Variant.STANDARD:
        sides = ((ahead, 1), (hull(-E), 1))
    else:
        sides = ((hull(-E), 2), (hull(E), 0))
    return tuple((math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf), gamma, shift) for (lo, hi), shift in sides)


def _heuristic_side_tail(kern: _Kernel, row: tuple, z: complex, m: int, edge: int, sign: int) -> float:
    """Geometric extrapolation of the first omitted terms (indices
    sign*edge, sign*(edge+1), sign*(edge+2) of `row`, rows of `kern`); no
    soundness claim."""
    pairs = row[edge:edge + 3]
    try:
        mags = [0.0 if p is None else abs((p[0] * z + p[1]) ** -m) for p in pairs]
    except (ZeroDivisionError, OverflowError):
        raise _power_error(kern, pairs, z, sign * edge, sign) from None
    if mags[0] == 0.0:
        return 0.0 if max(mags) == 0.0 else math.inf
    q = mags[1] / mags[0]
    if mags[1] > 0.0:
        q = max(q, mags[2] / mags[1])
    if q >= 0.75:
        return math.inf
    return mags[0] / (1.0 - q)


def _up(x: float) -> float:
    """x, or below the normal range (too few bits for the 1e-12) the next double up."""
    return math.nextafter(x, math.inf) if x < _TINY else x


def _window_cap(neg: float, pos: float, tol: float) -> ToleranceUnreachable:
    return ToleranceUnreachable(f"window cap {MAX_WINDOW} hit with side tails ({neg:.3e}, {pos:.3e}) > {tol:.1e}/2")


def _plan_window(kern: _Kernel, z: complex, m: int, tol: float) -> tuple[int, float, float]:
    """The window J whose side tails both meet half = tol / 2, as
    (J, neg tail, pos tail).

    Certified: the smallest J >= E whose side envelopes, with the
    `_tail_params` of the reference edge E, meet half.  An envelope
    d**-m |L(J + shift)|**-m / (1 - g**-m) does so exactly when
    |L(J + shift)| >= c = s gamma / d, s = half**(-1/m), so J is a
    bisection in `mags`, and the tail reported, half (c / |L|)**m, is the
    envelope.  Rounding in s, gamma, c and the power stays far below the
    relative 1e-12 taken off d, save below the normal range, where `_up`
    rounds the power and the tail up.  E starts at MIN_WINDOW and doubles
    while z is in a cluster of E (d <= 0, or c >= 2**1023) or J > 8E (z
    hugging a cluster).  Exploration: the first window of the ladder
    J = START_WINDOW, 2*START_WINDOW, ... with heuristic tails.
    """
    half = tol / 2
    if kern.certified:
        s = half ** (-1 / m)
        x, y = z.real, z.imag
        edges, mags = kern.edges[m], kern.mags
        E = MIN_WINDOW
        while True:
            sides = edges.get(E) or edges.setdefault(E, _tail_params(kern.seq, kern.variant, m, E))
            (neg_lo, neg_hi, neg_gamma, neg_shift), (pos_lo, pos_hi, pos_gamma, pos_shift) = sides
            neg_d = math.hypot(neg_lo - x if x < neg_lo else x - neg_hi if x > neg_hi else 0.0, y) * (1.0 - 1e-12)
            pos_d = math.hypot(pos_lo - x if x < pos_lo else x - pos_hi if x > pos_hi else 0.0, y) * (1.0 - 1e-12)
            if E >= MAX_WINDOW:
                # |L(E + shift)| > 1e2000: an envelope with d > 0 is below the least double, so rounds up to it.
                neg, pos = _up(0.0) if neg_d > 0.0 else math.inf, _up(0.0) if pos_d > 0.0 else math.inf
                if neg <= half and pos <= half:
                    return E, neg, pos
                raise _window_cap(neg, pos, tol)
            J = E
            if neg_d > 0.0 and pos_d > 0.0:
                neg_c, pos_c = s * neg_gamma / neg_d, s * pos_gamma / pos_d
                if (len(mags) >= E + 3 and mags[-3] >= neg_c and mags[-3] >= pos_c) or kern.grow(neg_c, pos_c, E + 3):
                    J = bisect.bisect_left(mags, neg_c, E + neg_shift) - neg_shift
                    K = bisect.bisect_left(mags, pos_c, E + pos_shift) - pos_shift
                    if K > J:
                        J = K
                    if J <= 8 * E:
                        neg_p, pos_p = (neg_c / mags[J + neg_shift]) ** m, (pos_c / mags[J + pos_shift]) ** m
                        neg, pos = half * neg_p, half * pos_p
                        if neg_p < _TINY or pos_p < _TINY or neg < _TINY or pos < _TINY:
                            neg, pos = _up(half * _up(neg_p)), _up(half * _up(pos_p))
                        return J, neg, pos
            E = min(2 * E, MAX_WINDOW)
    J = START_WINDOW
    while True:
        neg_row, pos_row = kern.rows_upto(J + 4)
        neg = _heuristic_side_tail(kern, neg_row, z, m, J + 1, -1)
        pos = _heuristic_side_tail(kern, pos_row, z, m, J + 1, 1)
        if neg <= half and pos <= half:
            return J, neg, pos
        if J >= MAX_WINDOW:
            raise _window_cap(neg, pos, tol)
        if J >= 256 and math.isinf(neg + pos):
            # Divergent exploration series: terms are not shrinking.
            raise ToleranceUnreachable("omitted terms are not decaying; series looks divergent here")
        J = min(J * 2, MAX_WINDOW)


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
