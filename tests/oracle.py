"""Brute-force mpmath sums of the series terms, the reference the tests compare against.

This is the only module that imports mpmath; the package itself uses the
standard library only.  The exact term coefficients (`coeffs`) come from
this module's own recursion, not from the package's sequence values, so a
sign or variant slip in the package cannot also be in its reference.
Precision follows the term mass: a sum is redone with more digits until
they resolve ACCURACY under the sum of the term moduli, so a small tail
under a large value is not lost to cancellation.  `omitted_mass` needs no
precision: it sums term moduli from exact integers, each correctly rounded
(or rounded up, for odd weights), many times faster than mpmath.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

from semimodular import Kind, PoleProximity, SequenceSpec, SeriesSpec, Variant

ORACLE_CAP = 500
# Absolute accuracy every sum resolves, with 15 digits to spare.
ACCURACY = 1e-20


# seq -> (L(0), L(1), ...), (L(0), L(-1), L(-2), ...)
_VALUES: dict[SequenceSpec, tuple[list[Fraction], list[Fraction]]] = {}


def _value(seq: SequenceSpec, n: int) -> Fraction:
    """Exact L(n) by the recursion alone: forward for n >= 0, and backward
    for n < 0 through L(n-2) = (a*L(n-1) - L(n))/b."""
    if seq not in _VALUES:
        first = [Fraction(0), Fraction(1)] if seq.kind is Kind.FIRST else [Fraction(2), Fraction(seq.a)]
        _VALUES[seq] = (first, [first[0], (seq.a * first[0] - first[1]) / seq.b])
    up, down = _VALUES[seq]
    while len(up) <= n:
        up.append(seq.a * up[-1] - seq.b * up[-2])
    while len(down) <= -n:
        down.append((seq.a * down[-1] - down[-2]) / seq.b)
    return up[n] if n >= 0 else down[-n]


def coeffs(spec: SeriesSpec, j: int) -> tuple[Fraction, Fraction]:
    """Exact (c1, c0) with the index-j term denominator c1*z + c0."""
    if spec.variant is Variant.FOOTNOTE:
        return -_value(spec.seq, j - 1), _value(spec.seq, j)
    return _value(spec.seq, j), _value(spec.seq, j - 1)


def _mpf(x):
    return mpmath.mpf(x.numerator) / x.denominator


def _oracle_mp(spec: SeriesSpec, z: complex, indices) -> mpmath.mpc:
    """Sum of the terms at `indices` in plain order, at the digits the term mass needs."""
    dps = 40
    while True:
        with mpmath.workdps(dps):
            zz = mpmath.mpc(z)
            total = mpmath.mpc(0)
            mass = 0.0
            for j in indices:
                c1, c0 = coeffs(spec, j)
                den = _mpf(c1) * zz + _mpf(c0)
                if den == 0:
                    raise PoleProximity(f"term {j} denominator vanishes exactly at z = {z}")
                t = den ** (-spec.weight)
                total += t
                mass += float(abs(t))
            needed = math.ceil(math.log10(mass / ACCURACY)) + 15 if mass > 0 else 0
            if needed <= dps:
                return total
            dps = needed


def brute_force_oracle(spec: SeriesSpec, z: complex, J: int) -> complex:
    """Symmetric partial sum over |j| <= J, rounded to a complex double."""
    if J > ORACLE_CAP:
        raise ValueError(f"oracle window capped at {ORACLE_CAP}")
    return complex(_oracle_mp(spec, z, range(-J, J + 1)))


def omitted(spec: SeriesSpec, z: complex, J: int, extra: int, sides=(-1, 1)) -> float:
    """|sum of the terms with J < |j| <= J + extra|, summed directly.

    `sides` picks the half: (-1,) sums the terms j < -J only, (1,) the
    terms j > J only.
    """
    if J + extra > ORACLE_CAP:
        raise ValueError(f"oracle window capped at {ORACLE_CAP}")
    indices = [s * k for k in range(J + 1, J + extra + 1) for s in sides]
    return float(abs(_oracle_mp(spec, z, indices)))


def omitted_mass(spec: SeriesSpec, z: complex, J: int, extra: int, side: int) -> float:
    """The total modulus of the terms side*k, J < k <= J + extra, summed in
    exact integers.

    With z = (X + iY)/q, q a power of two, and the coefficients written
    over one denominator D (1 for b = +-1), a term's modulus is
    (q**2 D**2 / N) ** (m/2), N = (c1 X + c0 q)**2 + (c1 Y)**2 an integer
    for the numerators c1, c0.  Each modulus is correctly rounded (an odd m
    takes sqrt(N) from below, to 80 bits, so the modulus is rounded up at
    most 2**-80 relative), and the doubles are summed exactly by
    `math.fsum`.
    """
    m = spec.weight
    (px, qx), (py, qy) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    q = max(qx, qy)
    X, Y = px * (q // qx), py * (q // qy)
    moduli = []
    for k in range(J + 1, J + extra + 1):
        c1, c0 = coeffs(spec, side * k)
        D = math.lcm(c1.denominator, c0.denominator)
        c1, c0 = c1.numerator * (D // c1.denominator), c0.numerator * (D // c0.denominator)
        N = (c1 * X + c0 * q) ** 2 + (c1 * Y) ** 2
        if N == 0:
            raise PoleProximity(f"term {side * k} denominator vanishes exactly at z = {z}")
        if m % 2 == 0:
            moduli.append((q * D) ** m / N ** (m // 2))
        else:
            moduli.append(((q * D) ** m << 80) / (N ** (m // 2) * math.isqrt(N << 160)))
    return math.fsum(moduli)
