"""Reference computations the benchmark checks the program against.

Nothing here imports the program.  Sequence values come from this module's
own exact recursion (forward, and backward for negative indices), series
values from mpmath sums whose window runs past the program's window and
whose precision follows the dynamic range of the terms, poles from the
exact term coefficients, and pixel colours from the encoding the README
documents.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction

import mpmath

# Unit roundoff of IEEE double.
U = 2.0**-53
# Terms past this index are never needed: |L(j)| has outgrown any window.
MAX_INDEX = 4000


class RefSeq:
    """L(n) = a*L(n-1) - b*L(n-2); seeds (0, 1) first kind, (2, a) second."""

    def __init__(self, a: int, b: int, second: bool):
        self.a, self.b, self.second = a, b, second
        self._pos = [2, a] if second else [0, 1]
        # _neg[k] = L(-k), filled by the backward step L(n-2) = (a*L(n-1) - L(n))/b.
        self._neg = [Fraction(self._pos[0]), Fraction(a * self._pos[0] - self._pos[1], b)]

    def __call__(self, n: int) -> Fraction:
        if n >= 0:
            while len(self._pos) <= n:
                self._pos.append(self.a * self._pos[-1] - self.b * self._pos[-2])
            return Fraction(self._pos[n])
        k = -n
        while len(self._neg) <= k:
            self._neg.append((self.a * self._neg[-1] - self._neg[-2]) / self.b)
        return self._neg[k]

    def roots(self) -> tuple[float, float]:
        """Both roots of x**2 = a*x - b, ascending (real for every sequence used here)."""
        disc = mpmath.sqrt(self.a * self.a - 4 * self.b)
        lo, hi = (self.a - disc) / 2, (self.a + disc) / 2
        return float(lo), float(hi)


_SEQS: dict[tuple[int, int, bool], RefSeq] = {}


def ref_seq(a: int, b: int, second: bool) -> RefSeq:
    key = (a, b, second)
    if key not in _SEQS:
        _SEQS[key] = RefSeq(a, b, second)
    return _SEQS[key]


def parse_selector(text: str) -> RefSeq:
    """The CLI's sequence selectors, read by the README's grammar."""
    if text == "fib":
        return ref_seq(1, -1, False)
    if text == "lucas":
        return ref_seq(1, -1, True)
    kind, a, b = text.split(":")
    return ref_seq(int(a), int(b), kind == "lucas-second")


class RefSeries:
    """Weight-m series; the footnote variant sums (F(j) - F(j-1)*z)**(-m)."""

    def __init__(self, seq: RefSeq, weight: int, footnote: bool = False):
        self.seq, self.weight, self.footnote = seq, weight, footnote

    def coeffs(self, j: int) -> tuple[Fraction, Fraction]:
        """Exact (C1, C0) of the index-j denominator C1*z + C0."""
        if self.footnote:
            return -self.seq(j - 1), self.seq(j)
        return self.seq(j), self.seq(j - 1)

    def poles(self, depth: int) -> list[Fraction]:
        """Exact poles -C0/C1 of the terms with |j| <= depth, sorted.

        They do not depend on the weight, so they are computed once per sequence.
        """
        key = (self.seq.a, self.seq.b, self.seq.second, self.footnote, depth)
        if key not in _POLES:
            out = set()
            for j in range(-depth, depth + 1):
                c1, c0 = self.coeffs(j)
                if c1 != 0:
                    out.add(-c0 / c1)
            _POLES[key] = sorted(out, key=float)
        return _POLES[key]

    def singular_points(self) -> list[float]:
        """Poles (as floats) plus the two accumulation points of the pole ratios, sorted.

        Poles past |j| = 80 sit within 1e-30 of an accumulation point.
        """
        return sorted({float(p) for p in self.poles(80)} | set(self.seq.roots()))


_POLES: dict[tuple, list[Fraction]] = {}


def distance_to(points: list[float], z: complex) -> float:
    """Distance from z to the nearest of a sorted list of real points."""
    k = bisect.bisect_left(points, z.real)
    return min(math.hypot(z.real - points[i], z.imag) for i in (k - 1, k) if 0 <= i < len(points))


def _mpf(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


def half_reference(series: RefSeries, z: complex, side: str, window: int, accuracy: float):
    """The infinite half sum over j <= 0 ("minus") or j >= 1 ("plus") at z.

    Returns (value, allowance).  `value` is an mpmath complex accurate far
    below `accuracy`; the sum runs past the program's window until the
    terms have decayed geometrically below accuracy * 1e-12.  `allowance`
    is a first-order bound on the rounding error of a double-precision sum
    of the terms inside the window (|j| <= window): each term contributes
    |t| * u * (m * (kappa + 6) + 4), where kappa = (2|C1||z| + |C0|)/|den|
    is the conditioning of its denominator, which covers rounding the
    coefficients, forming the denominator and powering it; the compensated
    sum and the final addition add 3u|sum|.  A factor 4 covers second-order
    terms.
    """
    m = series.weight
    indices = range(0, -MAX_INDEX - 1, -1) if side == "minus" else range(1, MAX_INDEX + 1)
    dps = 40
    while True:
        with mpmath.workdps(dps):
            zz = mpmath.mpc(z.real, z.imag)
            total = mpmath.mpc(0)
            allowance = 0.0
            mass = 0.0
            small_run = 0
            prev_den = None
            for j in indices:
                c1, c0 = series.coeffs(j)
                den = _mpf(c1) * zz + _mpf(c0)
                t = den ** (-m)
                total += t
                mag = float(abs(t))
                if abs(j) <= window:
                    kappa = (2.0 * float(abs(c1)) * abs(z) + float(abs(c0))) / float(abs(den))
                    allowance += mag * U * (m * (kappa + 6.0) + 4.0)
                    mass += mag
                    continue
                growing = prev_den is not None and abs(den) >= 1.2 * prev_den
                prev_den = abs(den)
                small_run = small_run + 1 if (growing and mag < accuracy * 1e-12) else 0
                if small_run >= 4:
                    break
            else:
                raise RuntimeError(f"reference sum did not converge by index {MAX_INDEX}")
            allowance = 4.0 * (allowance + 3.0 * U * float(abs(total)))
            # The digits carried must resolve the accuracy under the largest terms.
            needed = math.ceil(math.log10(max(mass, 1e-300) / accuracy)) + 15 if mass > 0 else 0
            if needed <= dps:
                return total, allowance
            dps = needed


def full_reference(series: RefSeries, z: complex, accuracy: float):
    """The bilateral sum at z, as a Python complex (for colour checks)."""
    minus, _ = half_reference(series, z, "minus", 0, accuracy)
    plus, _ = half_reference(series, z, "plus", 0, accuracy)
    return complex(minus + plus)


def hsv_rgb(h: float, v: float) -> tuple[float, float, float]:
    """Fully saturated HSV to RGB, each channel in [0, 1]."""
    h6 = (h % 1.0) * 6.0
    sector = int(h6) % 6
    f = h6 - int(h6)
    p, q, t = 0.0, v * (1.0 - f), v * f
    return [(v, t, p), (q, v, p), (p, v, t), (p, q, v), (t, p, v), (v, p, q)][sector]


def documented_colour(value: complex) -> tuple[int, int, int]:
    """README encoding: hue = (arg f + pi)/(2 pi), brightness 1 - 1/(1 + log(1 + |f|))."""
    hue = (math.atan2(value.imag, value.real) + math.pi) / (2.0 * math.pi)
    brightness = 1.0 - 1.0 / (1.0 + math.log1p(abs(value)))
    return tuple(int(c * 255 + 0.5) for c in hsv_rgb(hue, brightness))


def pixel_point(window, width: int, height: int, i: int, j: int) -> complex:
    """Documented pixel centre: x0 + (i+0.5)(x1-x0)/W + i*(y1 - (j+0.5)(y1-y0)/H)."""
    x0, x1, y0, y1 = window
    return complex(x0 + (i + 0.5) * (x1 - x0) / width, y1 - (j + 0.5) * (y1 - y0) / height)


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a
