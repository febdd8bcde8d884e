"""Moebius action, slash operator, identity checker, and half-sum steps."""

import cmath
import math
import random

import pytest

from semimodular import symmetry
from semimodular import (
    FIBONACCI,
    IDENTITY,
    InvalidPairing,
    InversionS,
    Kind,
    LUCAS_NUMBERS,
    MirrorPa,
    MobiusPole,
    OddWeight,
    P,
    PROOF_STEPS,
    S,
    T,
    SequenceSpec,
    SeriesSpec,
    ToleranceUnreachable,
    UncertifiedOnly,
    Variant,
    check_identity,
    evaluate,
    mirror_matrix,
    mobius_apply,
    pole_distance,
    pole_map,
    proof_step,
    seq_value,
    slash,
)

F4 = SeriesSpec(FIBONACCI, 4)
SAFE_POINTS = [0.3 + 0.7j, -1.3 + 0.45j, 0.8 - 1.6j, 2.4 + 2.2j, -0.7 - 0.9j]


def test_mobius_examples():
    assert mobius_apply(S, 1j) == 1j
    z = 0.25 + 0.5j
    assert mobius_apply(P, z) == 1 - z
    assert mobius_apply(mirror_matrix(3), 1 + 1j) == 2 - 1j
    assert mobius_apply(T, z) == z + 1


def test_mobius_pole():
    with pytest.raises(MobiusPole):
        mobius_apply(S, 0j)
    # The automorphy factor: a vanishing base is a pole, and a power that
    # leaves double range is a tolerance no evaluation can reach.
    with pytest.raises(MobiusPole):
        proof_step("half-plus-shift", 1, 0j)
    with pytest.raises(ToleranceUnreachable):
        proof_step("half-plus-shift", 1, 1e-200 + 1e-200j)
    with pytest.raises(ToleranceUnreachable):
        slash(F4, S, 1e-320 + 0j)


def test_mobius_composition():
    rng = random.Random(5)
    mats = [S, T, P, mirror_matrix(-2), S * T, P * S]
    for _ in range(100):
        a = mats[rng.randrange(len(mats))]
        b = mats[rng.randrange(len(mats))]
        z = complex(rng.uniform(-3, 3), rng.uniform(0.5, 3))
        try:
            lhs = mobius_apply(a * b, z)
            rhs = mobius_apply(a, mobius_apply(b, z))
        except MobiusPole:
            continue
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


def test_slash_identity_matrix_is_evaluate():
    for z in SAFE_POINTS:
        assert slash(F4, IDENTITY, z, 1e-11) == evaluate(F4, z, 1e-11).value


def test_slash_invariance_spotchecks():
    for z in SAFE_POINTS:
        f = evaluate(F4, z, 1e-11).value
        assert abs(slash(F4, S, z, 1e-11) - f) < 1e-8
        assert abs(slash(F4, P, z, 1e-11) - f) < 1e-8


def test_slash_cocycle():
    # (f|A)|B = f|(A*B) with this module's left action, checked on all
    # words of length <= 3 over {S, T, P} at pole-safe points.
    gens = {"S": S, "T": T, "P": P}
    words = [(x,) for x in gens]
    words += [(x, y) for x in gens for y in gens]
    words += [(x, y, w) for x in gens for y in gens for w in gens]
    checked = 0
    for word in words:
        mats = [gens[w] for w in word]
        prod = mats[0]
        for mat in mats[1:]:
            prod = prod * mat
        for z in SAFE_POINTS:
            try:
                # Iterated slash: innermost matrix acts first, each step
                # contributing its own automorphy factor at the current point.
                point = z
                factor = 1.0 + 0j
                for mat in reversed(mats):
                    factor *= (mat.r * point + mat.s) ** (-4)
                    point = mobius_apply(mat, point)
                if pole_distance(FIBONACCI, point) < 0.05 or pole_distance(FIBONACCI, z) < 0.05:
                    continue
                lhs = factor * evaluate(F4, point, 1e-11).value
                rhs = slash(F4, prod, z, 1e-11)
            except MobiusPole:
                continue
            scale = 1 + abs(lhs) + abs(rhs)
            assert abs(lhs - rhs) <= 1e-6 * scale, (word, z)
            checked += 1
    assert checked > 50


def test_check_identity_inversion_weights():
    for k in (1, 2, 3):
        rep = check_identity(SeriesSpec(FIBONACCI, 2 * k), InversionS(), n_samples=25, seed=7)
        assert rep.passed, (k, rep.max_residual)


def test_check_identity_mirror():
    rep = check_identity(F4, MirrorPa(1), n_samples=25, seed=11)
    assert rep.passed


def test_check_identity_lucas_numbers():
    for k in (1, 2):
        spec = SeriesSpec(LUCAS_NUMBERS, 2 * k)
        assert check_identity(spec, InversionS(), n_samples=20, seed=3).passed
        assert check_identity(spec, MirrorPa(1), n_samples=20, seed=3).passed


def test_check_identity_general_a():
    spec = SeriesSpec(SequenceSpec(2, -1, Kind.FIRST), 2)
    assert check_identity(spec, MirrorPa(2), n_samples=20, seed=5).passed
    spec2 = SeriesSpec(SequenceSpec(3, -1, Kind.SECOND), 4)
    assert check_identity(spec2, InversionS(), n_samples=20, seed=5).passed


def test_check_identity_footnote_variant():
    spec = SeriesSpec(FIBONACCI, 4, Variant.FOOTNOTE)
    assert check_identity(spec, InversionS(), n_samples=20, seed=9).passed
    assert check_identity(spec, MirrorPa(1), n_samples=20, seed=9).passed


@pytest.mark.parametrize(
    "kind, seed",
    [(InversionS(), 4), (InversionS(), 64), (MirrorPa(1), 215690), (MirrorPa(1), 241267)],
)
def test_matched_scan_near_pole_passes_at_weight_6(kind, seed):
    # Each scan has samples near a Fibonacci pole where |f| reaches ~1e7 and
    # the residual of an exact law is rounding alone, far above the floor
    # 1e-9 (1 + |z|)**6: the magnitude-scaled rounding term must cover it.
    rep = check_identity(SeriesSpec(FIBONACCI, 6), kind, seed=seed, eval_tol=1e-12)
    assert rep.passed, (rep.max_residual, max(r / t for r, t in zip(rep.residuals, rep.tolerances)))


def test_infinite_rounding_allowance_is_unreachable():
    # An overflowing factor * f(q) makes the residual infinite; an infinite
    # allowance would pass it.
    z = 0.3 + 0.7j
    res, d = evaluate(F4, z, 1e-10), pole_distance(FIBONACCI, z)
    side = (z, d, res.value, res.tail_bound)
    with pytest.raises(ToleranceUnreachable, match="rounding allowance"):
        symmetry._allowance(z, 4, 1e308, 1e308 * res.value, *side, *side)


@pytest.mark.parametrize("seq", [FIBONACCI, SequenceSpec(3, -1)])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_scan_tolerance_is_the_shared_allowance(seq, k):
    # Each sample's residual and tolerance, rebuilt from independent
    # evaluations, Moebius images and automorphy factors.
    spec = SeriesSpec(seq, 2 * k)
    for kind, seed in ((InversionS(), 40 + k), (MirrorPa(seq.a), 50 + k)):
        mat = symmetry.matrix_for(kind)
        rep = check_identity(spec, kind, n_samples=30, seed=seed, eval_tol=1e-12)
        for z, residual, tolerance in zip(rep.sample_points, rep.residuals, rep.tolerances):
            image = mobius_apply(mat, z)
            factor = symmetry._factor(mat.r * z + mat.s, 2 * k)
            plain, other = evaluate(spec, z, 1e-12), evaluate(spec, image, 1e-12)
            scaled = factor * other.value
            assert residual == abs(scaled - plain.value)
            assert tolerance == symmetry._allowance(
                z, 2 * k, factor, scaled,
                z, pole_distance(seq, z), plain.value, plain.tail_bound,
                image, pole_distance(seq, image), other.value, other.tail_bound,
            )


def test_negative_control_fails_loudly():
    rep = check_identity(F4, MirrorPa(2), n_samples=40, seed=13, force_pairing=True)
    assert not rep.passed
    assert rep.failure_fraction >= 0.9


def test_invalid_pairing_without_force():
    with pytest.raises(InvalidPairing):
        check_identity(F4, MirrorPa(2), n_samples=5)


def test_odd_weight_rejected():
    with pytest.raises(OddWeight):
        check_identity(SeriesSpec(FIBONACCI, 3), InversionS())


def test_uncertified_seq_rejected():
    for seq in (SequenceSpec(5, 2), SequenceSpec(0, -1)):
        with pytest.raises(UncertifiedOnly):
            check_identity(SeriesSpec(seq, 4), InversionS())
    with pytest.raises(UncertifiedOnly):
        proof_step("full-shift", 1, 0.3 + 0.7j, seq=SequenceSpec(0, -1))
    for name in PROOF_STEPS:
        with pytest.raises(UncertifiedOnly):
            proof_step(name, 1, 0.3 + 0.7j, seq=SequenceSpec(5, 2))


def test_mirror_fixed_point_zero_residual():
    # z = 1/2 is fixed by z -> 1 - z, so both sides are the same evaluation.
    z = 0.5 + 0j
    image = mobius_apply(mirror_matrix(1), z)
    assert image == z
    lhs = evaluate(F4, image, 1e-11).value
    rhs = evaluate(F4, z, 1e-11).value
    assert lhs == rhs


def test_report_is_reproducible():
    a = check_identity(F4, InversionS(), n_samples=15, seed=21)
    b = check_identity(F4, InversionS(), n_samples=15, seed=21)
    assert a == b


def test_proof_steps_pass():
    for name in PROOF_STEPS:
        for k in (1, 2):
            for z in SAFE_POINTS:
                chk = proof_step(name, k, z, eval_tol=1e-11)
                assert chk.ok, (name, k, z, chk.residual, chk.tolerance)


def test_lucas_steps_pass():
    # Every step holds for every certified sequence, either kind, a of
    # either sign, at points where z, z + a, -z and 1/z keep off the poles.
    checked = 0
    for a in (1, 2, 3, -1, -2, -3):
        for kind in Kind:
            seq = SequenceSpec(a, -1, kind)
            for z in SAFE_POINTS:
                if any(pole_distance(seq, w) < 0.05 for w in (z, z + a, -z, 1 / z)):
                    continue
                for name in PROOF_STEPS:
                    for k in (1, 2):
                        chk = proof_step(name, k, z, seq=seq, eval_tol=1e-11)
                        assert chk.ok, (seq, name, k, z, chk.residual, chk.tolerance)
                        checked += 1
    assert checked >= 400


NEAR_POLE_SEQS = (FIBONACCI, LUCAS_NUMBERS, SequenceSpec(3, -1), SequenceSpec(-2, -1, Kind.SECOND))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_proof_steps_pass_near_poles(seed):
    # z or 1/z 1e-4 to 1e-2 from a guarded pole, where |f| reaches 1e13 and
    # an exact step's residual is mostly rounding: the steps must share the
    # rounding term of `check_identity`, not only the tails and the floor.
    rng = random.Random(seed)
    for _ in range(300):
        seq = rng.choice(NEAR_POLE_SEQS)
        pole = float(rng.choice(pole_map(seq, -6, 6).poles))
        w = pole + 10 ** rng.uniform(-4, -2) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        z = w if rng.random() < 0.5 else 1 / w
        name, k = rng.choice(PROOF_STEPS), rng.randint(1, 3)
        chk = proof_step(name, k, z, seq=seq, eval_tol=1e-12)
        assert chk.ok, (seq, name, k, z, chk.residual, chk.tolerance)


@pytest.mark.parametrize("name", ["half-plus-shift", "half-minus-shift"])
def test_shift_step_without_boundary_term_fails(monkeypatch, name):
    # Negative control: with B = 1 (first kind) dropped, the shift steps
    # must fail wherever z, z + a and 1/z keep off the poles.
    move, left, right, _ = symmetry._STEPS[name]
    monkeypatch.setitem(symmetry._STEPS, name, (move, left, right, 0))
    rng = random.Random(17)
    checked = 0
    for _ in range(200):
        seq = rng.choice((FIBONACCI, SequenceSpec(3, -1), SequenceSpec(-2, -1)))
        z = symmetry._sample_annulus(rng)
        if any(pole_distance(seq, w) < symmetry.REJECT_RADIUS for w in (z, z + seq.a, 1 / z)):
            continue
        k = rng.randint(1, 3)
        chk = proof_step(name, k, z, seq=seq, eval_tol=1e-12)
        assert not chk.ok, (seq, k, z, chk.residual, chk.tolerance)
        checked += 1
    assert checked >= 150


def test_full_steps_are_lucas_steps_at_fibonacci():
    spec3 = SeriesSpec(SequenceSpec(3, -1), 4)
    for z in SAFE_POINTS:
        assert proof_step("full-shift", 2, z).lhs == evaluate(F4, z + 1).value
        assert proof_step("full-shift", 2, z, seq=spec3.seq).lhs == evaluate(spec3, z + 3).value


def test_proof_step_unknown_name():
    with pytest.raises(ValueError):
        proof_step("no-such-step", 1, 0.3 + 0.7j)


# Forced zeros and real lines.  For b = -1 the sign rule pairs the terms at
# j and 1 - j: at z = i their denominators differ by the factor
# (-1)**j * (+-i), so term(1 - j) = (-1)**k term(j) at weight 2k and f(i) = 0
# for odd k.  Real coefficients give f(-i) = conj f(i) = 0, and the shift
# L(j)(a + z) + L(j-1) = L(j+1) + L(j) z gives f(a + i) = i**(-2k) f(-i).
# On Re z = a/2 the mirror law reads f(conj z) = f(z), so f is real there.
ZERO_SEQS = [
    FIBONACCI,
    LUCAS_NUMBERS,
    SequenceSpec(3, -1),
    SequenceSpec(2, -1),
    SequenceSpec(-1, -1),
    SequenceSpec(-2, -1, Kind.SECOND),
    SequenceSpec(4, -1, Kind.SECOND),
]


def _error_bound(seq, weight, z, res):
    """tail_bound + u (m (kappa + 6) + 7) sum|t|: the omitted terms plus the
    rounding of every kept term and 3u sum|t| for the plain sum, with the term
    modulus summed here over the result's window."""
    mass = sum(
        abs((float(seq_value(seq, j)) * z + float(seq_value(seq, j - 1))) ** -weight)
        for j in range(res.j_min, res.j_max + 1)
    )
    kappa = 1.0 + 3.0 * abs(z) / pole_distance(seq, z)
    return res.tail_bound + 2.0**-53 * (weight * (kappa + 6.0) + 7.0) * mass


@pytest.mark.parametrize("seq", ZERO_SEQS)
def test_forced_zeros_at_i_and_its_images(seq):
    for k in range(1, 16, 2):
        spec = SeriesSpec(seq, 2 * k)
        for z in (1j, -1j, seq.a + 1j, seq.a - 1j):
            res = evaluate(spec, z, 1e-12)
            assert abs(res.value) <= _error_bound(seq, 2 * k, z, res), (seq, k, z, res.value)
    # At even k the paired terms add, so the zero is not there.
    for k in range(2, 16, 2):
        res = evaluate(SeriesSpec(seq, 2 * k), 1j, 1e-12)
        assert abs(res.value) > _error_bound(seq, 2 * k, 1j, res), (seq, k)


@pytest.mark.parametrize("seq", ZERO_SEQS)
def test_real_on_the_mirror_line(seq):
    rng = random.Random(seq.a * 10 + len(seq.kind.value))
    for k in range(1, 16):
        for _ in range(3):
            z = complex(seq.a / 2, rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 3.0))
            res = evaluate(SeriesSpec(seq, 2 * k), z, 1e-12)
            assert abs(res.value.imag) <= _error_bound(seq, 2 * k, z, res), (seq, k, z, res.value)
