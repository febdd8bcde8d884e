"""Moebius action, slash operator, and numerical verification of the
semi-modular invariance laws.

Two identity kinds are checked, both with the weight-2k automorphy
convention (f|M)(z) = (r*z + s)**(-2k) * f((p*z + q)/(r*z + s)):

  * InversionS:  f(-1/z) = z**(2k) * f(z), i.e. f|S = f;
  * MirrorPa(a): f(a - z) = f(z), i.e. f|P_a = f, the mirror around
    Re(z) = a/2 that pairs with the sequence's recursion coefficient a.

`check_identity` samples a reproducible annulus, rejects points too close
to the pole lattice (for the point and its image), and reports per-sample
residuals.  The module also exposes the half-sum manipulation steps that
make the identities work for every certified sequence (shift by the
recursion coefficient, negation, their unilateral versions, whose boundary
terms and half swaps are the whole story).  Both allow the same residual
between the two sides (`_allowance`): both evaluations' certified tail
bounds, a rounding floor in |z| and a first-order rounding term that scales
with both values and the automorphy factor.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple

from .errors import InvalidPairing, MobiusPole, OddWeight, ToleranceUnreachable, UncertifiedOnly
from .gl2 import S as MAT_S
from .gl2 import IntMat2, mirror_matrix
from .lucas import FIBONACCI, SequenceSpec, is_certified_spec, seq_value
from .series import (
    SeriesResult,
    SeriesSpec,
    _distance,
    _guard_points,
    evaluate,
    evaluate_halves,
    pole_distance,
)

SAMPLE_RADIUS_MIN = 0.2
SAMPLE_RADIUS_MAX = 5.0
REJECT_RADIUS = 0.05
# Rounding floor per sample: FLOOR_COEFF * (1 + |z|)**weight.
FLOOR_COEFF = 1e-9
# Unit roundoff of a double.
UNIT_ROUNDOFF = 2.0**-53
# `rng.uniform(a, b)` is `a + (b - a) * rng.random()` (CPython 3.10-3.13);
# with a = 0 that is `b * rng.random()` bit for bit.
_SQUARED_MIN = SAMPLE_RADIUS_MIN**2
_SQUARED_SPAN = SAMPLE_RADIUS_MAX**2 - _SQUARED_MIN
_TURN = 2.0 * math.pi


class InversionS(namedtuple("InversionS", "")):
    """f(-1/z) = z**(2k) f(z)."""

    __slots__ = ()


class MirrorPa(namedtuple("MirrorPa", "a")):
    """f(a - z) = f(z), mirror around Re(z) = a/2."""

    __slots__ = ()


class ResidualReport(namedtuple("ResidualReport", "sample_points residuals tolerances passed seed")):
    __slots__ = ()

    @property
    def max_residual(self) -> float:
        return max(self.residuals) if self.residuals else 0.0

    @property
    def failure_fraction(self) -> float:
        if not self.residuals:
            return 0.0
        bad = sum(1 for r, t in zip(self.residuals, self.tolerances) if r > t)
        return bad / len(self.residuals)


def mobius_apply(mat: IntMat2, z: complex) -> complex:
    """(p*z + q)/(r*z + s); MobiusPole when the denominator vanishes."""
    den = mat.r * z + mat.s
    if den == 0:
        raise MobiusPole(f"denominator {mat.r}*z + {mat.s} vanishes at z = {z}")
    return (mat.p * z + mat.q) / den


def _factor(den: complex, weight: int) -> complex:
    """The automorphy factor den**(-weight): MobiusPole where den vanishes,
    ToleranceUnreachable where the power leaves double range."""
    if den == 0:
        raise MobiusPole(f"automorphy factor base {den} vanishes")
    try:
        factor = den ** (-weight)
        if math.isfinite(factor.real) and math.isfinite(factor.imag):
            return factor
    except (ZeroDivisionError, OverflowError):
        pass
    raise ToleranceUnreachable(f"automorphy factor ({den})**(-{weight}) leaves double range")


def slash(spec: SeriesSpec, mat: IntMat2, z: complex, tol: float = 1e-10) -> complex:
    """(f|mat)(z) = (r*z + s)**(-m) * f of the transformed point, m = spec.weight."""
    w = mobius_apply(mat, z)
    factor = _factor(mat.r * z + mat.s, spec.weight)
    return factor * evaluate(spec, w, tol).value


def matrix_for(kind: InversionS | MirrorPa) -> IntMat2:
    if isinstance(kind, InversionS):
        return MAT_S
    return mirror_matrix(kind.a)


def _sample_annulus(rng: random.Random) -> complex:
    # Area-uniform over the annulus; fully determined by the rng state.
    r = math.sqrt(_SQUARED_MIN + _SQUARED_SPAN * rng.random())
    theta = _TURN * rng.random()
    return complex(r * math.cos(theta), r * math.sin(theta))


def check_identity(
    spec: SeriesSpec,
    kind: InversionS | MirrorPa,
    *,
    n_samples: int = 100,
    seed: int = 0,
    eval_tol: float = 1e-10,
    force_pairing: bool = False,
) -> ResidualReport:
    """Residual scan of one invariance law over a seeded annulus sample.

    The weight must be even (2k); mirror checks require the mirror
    parameter to equal the sequence's coefficient a unless `force_pairing`
    is set (the deliberate-mismatch mode used by the negative control).
    Only sequences with certified bounds (`is_certified_spec`) are accepted,
    and an empty scan (n_samples < 1), which would pass vacuously, is not.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if spec.weight % 2 != 0:
        raise OddWeight(f"identity checks need even weight, got {spec.weight}")
    if not is_certified_spec(spec.seq):
        raise UncertifiedOnly("identity checks are only offered in the certified b = -1, a != 0 regime")
    if isinstance(kind, MirrorPa) and kind.a != spec.seq.a and not force_pairing:
        raise InvalidPairing(
            f"mirror parameter {kind.a} does not match the sequence coefficient a = {spec.seq.a}"
        )

    p, q, r, s = matrix_for(kind)
    weight = spec.weight
    guard = _guard_points(spec.seq)
    # Looked up per call, so that a wrapped `evaluate` is the one called.
    ev = evaluate
    rng = random.Random(seed)
    points: list[complex] = []
    residuals: list[float] = []
    tolerances: list[float] = []
    attempts = 0
    while len(points) < n_samples:
        attempts += 1
        if attempts > 1000 * n_samples:
            raise RuntimeError("sampling stalled; rejection region too large")
        z = _sample_annulus(rng)
        z_distance = _distance(guard, z)
        if z_distance < REJECT_RADIUS:
            continue
        # No pole: S has denominator z, |z| >= 0.2; mirror matrices have 1.
        den = r * z + s
        image = (p * z + q) / den
        image_distance = _distance(guard, image)
        if image_distance < REJECT_RADIUS:
            continue
        factor = _factor(den, weight)
        # The image first, so a scan reports its error.
        other = ev(spec, image, eval_tol)
        plain = ev(spec, z, eval_tol)
        value, scaled = plain.value, factor * other.value
        points.append(z)
        residuals.append(abs(scaled - value))
        tolerances.append(_allowance(z, weight, factor, scaled, z, z_distance, value, plain.tail_bound,
                                     image, image_distance, other.value, other.tail_bound))

    passed = all(r <= t for r, t in zip(residuals, tolerances))
    return ResidualReport(tuple(points), tuple(residuals), tuple(tolerances), passed, seed)


# ---------------------------------------------------------------------------
# Half-sum manipulation steps
# ---------------------------------------------------------------------------


class StepCheck(namedtuple("StepCheck", "name z lhs rhs tolerance")):
    __slots__ = ()

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)

    @property
    def ok(self) -> bool:
        return self.residual <= self.tolerance


def _side(spec: SeriesSpec, point: complex, part: str, tol: float) -> SeriesResult:
    """The "full" sum at point, or its "minus" (j <= 0) or "plus" (j >= 1) half."""
    if part == "full":
        return evaluate(spec, point, tol)
    minus, plus = evaluate_halves(spec, point, tol)
    return minus if part == "minus" else plus


def _allowance(z: complex, weight: int, factor: complex, scaled: complex, p: complex, p_distance: float,
               p_value: complex, p_tail: float, q: complex, q_distance: float, q_value: complex, q_tail: float) -> float:
    """The one allowed residual between f(p) and scaled = factor * f(q).

    `p_value` and `q_value` are the computed f(p) and f(q), `p_tail` and
    `q_tail` their certified tail bounds, and the distances `pole_distance`
    at p and q.  The allowance is both tails, the rounding floor
    FLOOR_COEFF (1 + |z|)**weight, and four times the first-order rounding
    of f(p), of f(q) scaled by |factor| and of the product.

    A computed f(point) of weight m is off by at most u (m (kappa + 6) + 4)
    per unit of term mass, with u the unit roundoff and kappa the
    conditioning of a term's denominator; the plain sum adds 3u (measured
    at most 2.73u sum|t| on the benchmark, 4u next to an accumulation
    point).  Each denominator is c1 (point + r) with -r a guarded pole, and
    |r| <= |point| + |point + r|, so kappa = (2|point| + |r|)/|point + r|
    <= 1 + 3|point|/distance.  The term takes |value| as the term mass, so
    cancellation between terms is not covered; ROADMAP item 4 certifies it
    later.  A floor or rounding term past double range would pass any
    residual, so it is ToleranceUnreachable.
    """
    size = abs(factor)
    try:
        floor = FLOOR_COEFF * (1.0 + abs(z)) ** weight
    except OverflowError:
        raise ToleranceUnreachable(f"rounding floor (1 + |z|)**{weight} overflows double range at z = {z}") from None
    u, p_mass, q_mass = UNIT_ROUNDOFF, abs(p_value), abs(q_value)
    rounding = 4.0 * (
        u * (weight * (1.0 + 3.0 * abs(p) / p_distance + 6.0) + 4.0) * p_mass + 3.0 * u * p_mass
        + size * (u * (weight * (1.0 + 3.0 * abs(q) / q_distance + 6.0) + 4.0) * q_mass + 3.0 * u * q_mass)
        + 2.0 * u * abs(scaled)
    )
    if not math.isfinite(rounding):
        raise ToleranceUnreachable(f"rounding allowance leaves double range at z = {z}")
    return p_tail + size * q_tail + floor + rounding


# name -> (left point z + a or -z, left part, right part at 1/z, sign of
# the boundary term B added to the right side).
_STEPS = {
    "half-plus-shift": ("shift", "plus", "plus", -1),
    "half-minus-shift": ("shift", "minus", "minus", 1),
    "full-shift": ("shift", "full", "full", 0),
    "half-minus-negate": ("negate", "minus", "plus", 0),
    "half-plus-negate": ("negate", "plus", "minus", 0),
    "full-negate": ("negate", "full", "full", 0),
}
PROOF_STEPS = tuple(_STEPS)


def proof_step(
    name: str,
    k: int,
    z: complex,
    seq: SequenceSpec = FIBONACCI,
    eval_tol: float = 1e-10,
) -> StepCheck:
    """Evaluate both sides of one half-sum manipulation step at z.

    For any certified sequence L (`is_certified_spec`) with coefficient a,
    and f of weight 2k built on it, the steps check:

      half-plus-shift    f+(z+a) = z**(-2k) f+(1/z) - B
      half-minus-shift   f-(z+a) = z**(-2k) f-(1/z) + B
      full-shift         f(z+a)  = z**(-2k) f(1/z)
      half-minus-negate  f-(-z)  = z**(-2k) f+(1/z)
      half-plus-negate   f+(-z)  = z**(-2k) f-(1/z)
      full-negate        f(-z)   = z**(-2k) f(1/z)

    B = (L(1) + L(0)*z)**(-2k) is the j = 1 term of z**(-2k) f(1/z), the
    one the shift moves across the split: 1 for every first-kind sequence,
    (a + 2z)**(-2k) for the second kind.  Both sides are compared as in
    `check_identity` (`_allowance`), with the floor at z; B's own rounding
    is not covered.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if name not in _STEPS:
        raise ValueError(f"unknown step {name!r}")
    if not is_certified_spec(seq):
        raise UncertifiedOnly("proof steps hold in the certified b = -1, a != 0 regime only")

    move, left, right, sign = _STEPS[name]
    weight = 2 * k
    factor = _factor(z, weight)
    p, q = z + seq.a if move == "shift" else -z, 1 / z
    spec, p_distance, q_distance = SeriesSpec(seq, weight), pole_distance(seq, p), pole_distance(seq, q)
    other = _side(spec, q, right, eval_tol)
    plain = _side(spec, p, left, eval_tol)
    rhs = factor * other.value
    tolerance = _allowance(
        z, weight, factor, rhs, p, p_distance, plain.value, plain.tail_bound, q, q_distance, other.value, other.tail_bound
    )
    boundary = sign * _factor(seq_value(seq, 1) + seq_value(seq, 0) * z, weight) if sign else 0
    return StepCheck(name, z, plain.value, rhs + boundary, tolerance)
