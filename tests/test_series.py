"""Series evaluation, tail certificates, pole maps, and the brute-force oracle."""

import cmath
import hashlib
import math
import random
from fractions import Fraction

import pytest

from semimodular import (
    FIBONACCI,
    IndexCapExceeded,
    InversionS,
    Kind,
    LUCAS_NUMBERS,
    MirrorPa,
    P,
    PoleProximity,
    S,
    SequenceSpec,
    SeriesSpec,
    ToleranceUnreachable,
    Variant,
    check_identity,
    evaluate,
    evaluate_halves,
    growth_info,
    pole_map,
    proof_step,
    seq_value,
)
from semimodular import series
from semimodular.cli import render_grid
from oracle import brute_force_oracle, coeffs, omitted

Z0 = 0.3 + 0.7j
F4 = SeriesSpec(FIBONACCI, 4)
F3 = SeriesSpec(FIBONACCI, 3)
F2 = SeriesSpec(FIBONACCI, 2)
L4 = SeriesSpec(LUCAS_NUMBERS, 4)

# Frozen brute-force values: symmetric window |j| <= 200 summed at 50+
# significant digits, rounded to doubles.  Recomputed independently of the
# evaluator (see brute_force_oracle agreement tests below).
F4_AT_Z0 = -0.33091931013121495 + 2.8630716364024225j
F3_AT_Z0 = -0.3678015902811275 - 0.2531898684224778j
L4_AT_2J = -0.017596909348477838 + 0.0016974756469091592j


def test_evaluate_matches_frozen_oracle():
    res = evaluate(F4, Z0, 1e-12)
    assert res.certified
    assert res.tail_bound <= 1e-12
    assert abs(res.value - F4_AT_Z0) <= res.tail_bound + 1e-12


def test_oracle_reproduces_frozen_values():
    assert abs(brute_force_oracle(F4, Z0, 200) - F4_AT_Z0) < 1e-15
    assert abs(brute_force_oracle(F3, Z0, 200) - F3_AT_Z0) < 1e-15
    assert abs(brute_force_oracle(L4, 2j, 200) - L4_AT_2J) < 1e-15


def test_oracle_window_cap():
    with pytest.raises(ValueError):
        brute_force_oracle(F4, Z0, 501)


def test_oracle_exact_pole_hit():
    with pytest.raises(PoleProximity):
        brute_force_oracle(F4, 1.0 + 0j, 50)


def test_halves_recombine_exactly():
    for spec, z in [(F4, Z0), (L4, 2j), (F2, -1.3 + 0.4j), (SeriesSpec(SequenceSpec(-2, -1), 4), Z0)]:
        minus, plus = evaluate_halves(spec, z, 1e-11)
        full = evaluate(spec, z, 1e-11)
        assert minus.value + plus.value == full.value
        assert minus.j_max == 0 and plus.j_min == 1
        assert minus.j_min == full.j_min and plus.j_max == full.j_max
        assert full.tail_bound == minus.tail_bound + plus.tail_bound


def test_half_windows():
    minus, plus = evaluate_halves(F4, Z0, 1e-10)
    assert plus.j_min == 1
    assert minus.j_max == 0
    assert minus.j_min == -plus.j_max


def test_pole_proximity_at_phi():
    phi = (1 + 5**0.5) / 2
    with pytest.raises(PoleProximity):
        evaluate(F2, complex(phi), 1e-10)
    with pytest.raises(PoleProximity):
        evaluate(F2, complex(-1 / phi), 1e-10)


def test_pole_proximity_at_one():
    with pytest.raises(PoleProximity):
        evaluate(F4, 1.0 + 0j, 1e-10)
    with pytest.raises(PoleProximity):
        evaluate(F4, 1.0 + 1e-8j, 1e-10)


def test_guard_eps_configurable():
    z = 1.0 + 1e-5j
    res = evaluate(F4, z, 1e-9)  # outside default guard
    assert res.certified
    with pytest.raises(PoleProximity):
        evaluate(F4, z, 1e-9, guard_eps=1e-4)


def test_tol_floor():
    with pytest.raises(ValueError):
        evaluate(F4, Z0, 1e-14)


@pytest.mark.parametrize("tol", [math.inf, math.nan])
def test_tol_must_be_finite(tol):
    # An infinite tol would certify any tail: at the dominant root with the
    # guard off the tail is infinite, and `certified=True` would be vacuous.
    with pytest.raises(ValueError, match="tol must be finite"):
        evaluate(F4, (1 + math.sqrt(5)) / 2, tol, guard_eps=0)


@pytest.mark.parametrize(
    "z, guard_eps",
    [(complex(math.nan, 0.0), 1e-6), (complex(math.inf, 1.0), 1e-6), (Z0, math.nan), (Z0, -1.0)],
)
def test_rejects_nonfinite_z_and_bad_guard(z, guard_eps):
    # guard_eps = 0 stays valid: it switches the guard off.
    with pytest.raises(ValueError):
        evaluate_halves(F4, z, guard_eps=guard_eps)


@pytest.mark.parametrize(
    "z",
    [1e77 + 1e77j, 1e160 + 1e160j, 1e300 + 1e300j, 1e307 + 1e307j,
     1.7e308 + 1.7e308j, -1.5e308 + 1.5e308j, -1 + 1e-200j],
)
def test_huge_z_overflow_is_unreachable(z):
    # Out here den ** -4 overflows inside CPython's power although the term
    # underflows; (1/den) ** 4 does not, and only the j = 0 term,
    # F(-1) ** -4 = 1, survives.  From 1e307 on some denominators overflow
    # too, which makes their terms exact zeros (and |z| itself may pass
    # double range).  A term that itself overflows, next to the pole at -1
    # with the guard off, has no value in doubles.
    if z != -1 + 1e-200j:
        assert evaluate(F4, z).value == 1
    else:
        with pytest.raises(ToleranceUnreachable):
            evaluate(F4, z, guard_eps=0)


def test_determinism():
    a = evaluate(F4, Z0, 1e-12)
    b = evaluate(F4, Z0, 1e-12)
    assert a == b
    assert repr(a.value) == repr(b.value)


def test_tail_soundness_quick():
    # Acceptance runs the 50-sample version; keep a fast smoke check here.
    for spec, z in [(F4, Z0), (F2, -2.0 + 1.5j), (L4, 2j), (F3, Z0)]:
        res = evaluate(spec, z, 1e-9)
        assert omitted(spec, z, res.j_max, 20) <= res.tail_bound


@pytest.mark.parametrize(
    "spec",
    [
        F4,
        SeriesSpec(FIBONACCI, 4, Variant.FOOTNOTE),
        SeriesSpec(LUCAS_NUMBERS, 6),
        SeriesSpec(SequenceSpec(-2, -1, Kind.SECOND), 4),
        SeriesSpec(SequenceSpec(3, -1), 2),
    ],
)
def test_each_half_tail_covers_its_own_omitted_terms(spec):
    # Next to an accumulation point one half's poles crowd in and the
    # other's stay far, so a half bounded with the other half's tail
    # parameters fails here.
    for p in pole_map(spec.seq, 1, 1).accumulation_points:
        for z in (complex(p + dx, y) for dx in (-0.05, 0.05) for y in (0.02, 0.2)):
            minus, plus = evaluate_halves(spec, z, 1e-10)
            J = plus.j_max
            assert omitted(spec, z, J, 40, sides=(-1,)) <= minus.tail_bound
            assert omitted(spec, z, J, 40, sides=(1,)) <= plus.tail_bound


def test_evaluate_agrees_with_oracle():
    for spec, z in [(F4, Z0), (F3, Z0), (L4, 2j), (F2, -1.1 + 0.9j)]:
        res = evaluate(spec, z, 1e-11)
        oracle = brute_force_oracle(spec, z, 200)
        assert abs(res.value - oracle) <= res.tail_bound + 1e-12


def test_odd_weight_does_not_vanish():
    res = evaluate(F3, Z0, 1e-10)
    assert abs(res.value) > 10 * res.tail_bound
    assert abs(res.value) > 0.4


def test_footnote_variant_matches_standard():
    fn = SeriesSpec(FIBONACCI, 4, Variant.FOOTNOTE)
    a = evaluate(fn, Z0, 1e-11)
    b = evaluate(F4, Z0, 1e-11)
    assert a.certified
    assert abs(a.value - b.value) <= a.tail_bound + b.tail_bound + 1e-13


def test_footnote_requires_fibonacci():
    with pytest.raises(ValueError):
        SeriesSpec(LUCAS_NUMBERS, 4, Variant.FOOTNOTE)


def test_weight_floor():
    with pytest.raises(ValueError):
        SeriesSpec(FIBONACCI, 1)


def test_uncertified_exploration():
    spec = SeriesSpec(SequenceSpec(5, 2), 4)
    res = evaluate(spec, Z0, 1e-8)
    assert not res.certified
    oracle = brute_force_oracle(spec, Z0, 300)
    assert abs(res.value - oracle) <= max(res.tail_bound, 1e-8) + 1e-10


def test_divergent_exploration_rejected():
    # (3, 2): negatively indexed terms tend to a nonzero constant, so no
    # tolerance is reachable.
    with pytest.raises(ToleranceUnreachable):
        evaluate(SeriesSpec(SequenceSpec(3, 2), 4), Z0, 1e-8)


# ---------------------------------------------------------------------------
# Pole maps
# ---------------------------------------------------------------------------


def test_pole_map_fibonacci_window():
    pm = pole_map(FIBONACCI, -3, 5)
    expected = {
        Fraction(-2, 3),
        Fraction(-1, 2),
        Fraction(-1),
        Fraction(0),
        Fraction(1),
        Fraction(2),
        Fraction(3, 2),
        Fraction(5, 3),
    }
    assert set(pm.poles) == expected
    assert list(pm.poles) == sorted(expected)
    phi = (1 + 5**0.5) / 2
    assert pm.accumulation_points == pytest.approx((-1 / phi, phi))


def test_pole_map_skips_vanishing_denominator():
    assert pole_map(FIBONACCI, 1, 1).poles == ()


@pytest.mark.parametrize("n_min, n_max", [(0, 100_001), (-100_001, 5), (-200_000, 200_000)])
def test_pole_map_checks_the_index_cap_first(monkeypatch, n_min, n_max):
    # A range past the cap fails at one of its two end indices, before any
    # pole in the range is computed.
    calls = []

    def counted(seq, n):
        calls.append(n)
        return seq_value(seq, n)

    monkeypatch.setattr(series, "seq_value", counted)
    with pytest.raises(IndexCapExceeded):
        pole_map(FIBONACCI, n_min, n_max)
    assert len(calls) <= 2
    # An empty range stays empty wherever it lies.
    assert pole_map(FIBONACCI, 200_000, 3).poles == ()


def test_pole_map_lucas_rows():
    assert [str(p) for p in pole_map(LUCAS_NUMBERS, 2, 4).poles] == ["4/3", "7/4", "3"]
    # n = 0 uses L(-1) = -1, so the ratio is -2; n = 1 is a genuine pole
    # here since L(0) = 2 does not vanish.
    assert [str(p) for p in pole_map(LUCAS_NUMBERS, 0, 3).poles] == ["-2", "1/2", "4/3", "3"]


@pytest.mark.parametrize("seq", [FIBONACCI, LUCAS_NUMBERS])
def test_pole_exactness(seq):
    # Every reported pole kills some term denominator, in exact arithmetic.
    pm = pole_map(seq, -20, 20)
    spec = SeriesSpec(seq, 4)
    for p in pm.poles:
        assert any(
            coeffs(spec, j)[0] * p + coeffs(spec, j)[1] == 0
            for j in range(-25, 26)
        ), p


def test_guard_points_are_the_doubles_of_the_pole_map():
    for a in range(-4, 6):
        for b in (-3, -2, -1, 1, 2, 3):
            for kind in Kind:
                seq = SequenceSpec(a, b, kind)
                pm = pole_map(seq, -series.GUARD_DEPTH, series.GUARD_DEPTH)
                points = series._guard_points(seq)
                assert list(points) == sorted(points), seq
                assert set(points) == {float(p) for p in pm.poles} | set(pm.accumulation_points), seq


def test_pole_map_no_accumulation_for_exploration():
    assert pole_map(SequenceSpec(5, 2), -5, 5).accumulation_points == ()


def test_deterministic_oracle():
    a = brute_force_oracle(F4, Z0, 100)
    b = brute_force_oracle(F4, Z0, 100)
    assert a == b


def test_tail_bound_monotone_soundness_example():
    # |terms with J < |j| <= J+20| <= tail bound reported at window J.
    res = evaluate(F4, Z0, 1e-10)
    assert omitted(F4, Z0, res.j_max, 20) <= res.tail_bound


def _plan_window_both_sides(kern, z, m, tol):
    """The window planner evaluating both certified side tails at every step."""
    J = series.START_WINDOW
    while True:
        neg_params, pos_params = series._tail_params(kern.seq, kern.variant, m, J + 1)
        neg = series._certified_side_tail(neg_params, z, m)
        pos = series._certified_side_tail(pos_params, z, m)
        if neg <= tol / 2 and pos <= tol / 2:
            return J, neg, pos
        if J >= series.MAX_WINDOW:
            raise ToleranceUnreachable(
                f"window cap {series.MAX_WINDOW} hit with side tails ({neg:.3e}, {pos:.3e}) > {tol:.1e}/2"
            )
        J = min(J * 2, series.MAX_WINDOW)


def test_planner_matches_both_sides_reference():
    rng = random.Random(2013)
    specs = [
        F4,
        SeriesSpec(LUCAS_NUMBERS, 6),
        SeriesSpec(SequenceSpec(3, -1), 2),
        SeriesSpec(SequenceSpec(-2, -1, Kind.SECOND), 4),
        SeriesSpec(FIBONACCI, 4, Variant.FOOTNOTE),
        SeriesSpec(FIBONACCI, 12),
    ]
    phi = (1 + 5**0.5) / 2
    # Exactly at an accumulation point the tails never shrink: the cap.
    cases = [(F4, complex(phi, 0.0), 1e-10), (F4, complex(-1 / phi, 0.0), 1e-8)]
    for _ in range(400):
        spec = rng.choice(specs)
        r = rng.random()
        if r < 0.6:
            z = cmath.rect(rng.uniform(0.2, 5.0), rng.uniform(-math.pi, math.pi))
        else:
            # Next to a pole or accumulation point, where the window grows.
            p = rng.choice(series._guard_points(spec.seq))
            z = p + cmath.rect(10 ** rng.uniform(-6, -1), rng.uniform(-math.pi, math.pi))
        cases.append((spec, z, 10 ** rng.uniform(-13, -6)))
    capped = 0
    for spec, z, tol in cases:
        kern = series._kernel(spec.seq, spec.variant)
        try:
            want = _plan_window_both_sides(kern, z, spec.weight, tol)
        except ToleranceUnreachable as exc:
            with pytest.raises(ToleranceUnreachable) as got:
                series._plan_window(kern, z, spec.weight, tol)
            assert str(got.value) == str(exc)
            capped += 1
            continue
        assert series._plan_window(kern, z, spec.weight, tol) == want, (spec, z, tol)
    assert capped >= 2


def test_one_kernel_per_sequence_and_variant():
    # The coefficient rows depend on the sequence and the variant only, so
    # weights 2-12 share one kernel; the footnote variant has its own.
    for pairs in ([(SequenceSpec(4, -1, Kind.SECOND), Variant.STANDARD)],
                  [(FIBONACCI, Variant.STANDARD), (FIBONACCI, Variant.FOOTNOTE)]):
        series._kernel.cache_clear()
        for seq, variant in pairs:
            for w in range(2, 13):
                evaluate(SeriesSpec(seq, w, variant), Z0, 1e-12)
        assert series._kernel.cache_info().currsize == len(pairs), pairs


def test_shared_kernel_results_do_not_depend_on_call_order():
    # Weights of one (sequence, variant) extend the same rows and tail table:
    # a wide window built for one call (tol 1e-13 next to an accumulation
    # point) must not move the bits of a narrow call made before or after.
    phi = (1 + 5**0.5) / 2
    calls = [
        (evaluate, 2, complex(phi, 2e-6), 1e-13, series.GUARD_EPS),
        (evaluate_halves, 12, Z0, 1e-6, series.GUARD_EPS),
        (evaluate, 4, complex(-1 / phi, -3e-6), 1e-13, 0.0),
        (evaluate_halves, 4, Z0, 1e-10, series.GUARD_EPS),
        (evaluate, 3, complex(-1.3, 0.0), 1e-8, series.GUARD_EPS),
        (evaluate_halves, 6, complex(phi, 2e-6), 1e-12, series.GUARD_EPS),
        (evaluate, 7, 1e77 + 1e77j, 1e-10, series.GUARD_EPS),
        (evaluate, 4, 1.0 + 0j, 1e-10, 0.0),
    ]

    def run(seq, variant, order):
        out = {}
        for i in order:
            fn, w, z, tol, guard = calls[i]
            try:
                out[i] = repr(fn(SeriesSpec(seq, w, variant), z, tol, guard_eps=guard))
            except (PoleProximity, ToleranceUnreachable) as exc:
                out[i] = repr(exc)
        return out

    forward = list(range(len(calls)))
    for seq, variant in [
        (FIBONACCI, Variant.STANDARD),
        (FIBONACCI, Variant.FOOTNOTE),
        (SequenceSpec(3, 1), Variant.STANDARD),
        (SequenceSpec(5, 2), Variant.STANDARD),
    ]:
        seen = []
        for order in (forward, forward[::-1]):
            series._kernel.cache_clear()
            seen += [run(seq, variant, order), run(seq, variant, order)]
        assert all(out == seen[0] for out in seen[1:]), (seq, variant)


STANDARD, FOOTNOTE, GUARD = Variant.STANDARD, Variant.FOOTNOTE, series.GUARD_EPS
PHI = (1 + 5**0.5) / 2
# (function, sequence, weight, variant, z, tol, guard_eps) and, per result,
# float.hex of (value.real, value.imag, tail_bound) with (j_min, j_max).
PINNED_BITS = [
    # standard, certified
    ((evaluate, FIBONACCI, 4, STANDARD, 0.3 + 0.7j, 1e-10, GUARD),
     [("-0x1.52dc82fa83178p-2", "0x1.6e7921a23a125p+1", "0x1.35e42ea4cd2bap-43", -16, 16)]),
    # footnote
    ((evaluate, FIBONACCI, 4, FOOTNOTE, 0.3 + 0.7j, 1e-12, GUARD),
     [("-0x1.52dc82fa83125p-2", "0x1.6e7921a239f05p+1", "0x1.28ac0797fcbbcp-42", -16, 16)]),
    ((evaluate_halves, LUCAS_NUMBERS, 6, STANDARD, -1.3 + 0.2j, 1e-13, GUARD),
     [("0x1.081c4d8161c74p-11", "0x1.4d7834c8a3e3bp-12", "0x1.f8e089f03204ep-81", -16, 0), ("-0x1.553682d88baa3p-1", "-0x1.ab59b63d7ef42p+2", "0x1.2b7b3769fd76bp-68", 1, 16)]),
    ((evaluate, SequenceSpec(-3, -1, Kind.SECOND), 3, STANDARD, 0.4 - 1.1j, 1e-8, GUARD),
     [("-0x1.0fc035695db49p-6", "0x1.fb9a454130710p-6", "0x1.135fc0e0db1dbp-47", -8, 8)]),
    # b = +1, heuristic tails
    ((evaluate, SequenceSpec(3, 1), 4, STANDARD, 0.3 + 0.7j, 1e-10, GUARD),
     [("0x1.b08d2b78869e4p-1", "0x1.7bb23b6ca040ep+1", "0x1.c9b1941a3a650p-46", -8, 8)]),
    ((evaluate_halves, SequenceSpec(-4, 1, Kind.SECOND), 7, STANDARD, 1.2 - 0.5j, 1e-10, GUARD),
     [("0x1.14b72f512a76dp-7", "-0x1.0b93e2f0f8d31p-7", "0x1.a7ad484f9ec5ep-130", -8, 0), ("0x1.09fae979777fap-14", "0x1.5641cac22261cp-13", "0x1.aa4767c03b6c3p-121", 1, 8)]),
    # |b| > 1: Fraction values below 0
    ((evaluate_halves, SequenceSpec(5, 2), 4, STANDARD, 0.3 + 0.7j, 1e-10, GUARD),
     [("0x1.021e950309ceep+4", "-0x1.968eb97e07c2ap-3", "0x1.a8b313511ba7dp-41", -8, 0), ("-0x1.2d88c3cd3e7eap-3", "0x1.7c46e29b5f494p+1", "0x1.1bce713a3044bp-70", 1, 8)]),
    ((evaluate, SequenceSpec(3, -2, Kind.SECOND), 5, STANDARD, -0.6 + 0.9j, 1e-10, GUARD),
     [("0x1.55750eaabf416p-8", "-0x1.a0c488271d8bap-8", "0x1.d7860d364f9f3p-45", -8, 8)]),
    # guard off, next to a pole
    ((evaluate, FIBONACCI, 4, STANDARD, complex(1.0, 1e-9), 1e-6, 0.0),
     [("0x1.812f9cf7920e2p+119", "0x1.1d6c7891ca5e2p-27", "0x1.62a8481234b65p-40", -16, 16)]),
    ((evaluate_halves, FIBONACCI, 3, FOOTNOTE, complex(-0.4, -0.0), 1e-10, 0.0),
     [("-0x1.9ea1d9e400fe4p+6", "0x0.0p+0", "0x1.91efe54fc1655p-61", -32, 0), ("0x1.75e32b1d70415p+0", "0x0.0p+0", "0x1.2315f97d7368ep-66", 1, 32)]),
    # both halves resummed inverted
    ((evaluate, FIBONACCI, 4, STANDARD, 1e300 + 1e300j, 1e-10, GUARD),
     [("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0", -8, 8)]),
    ((evaluate_halves, FIBONACCI, 2, STANDARD, complex(PHI, 2e-6), 1e-13, GUARD),
     [("0x1.312de0047aa7bp+8", "0x1.93d9b1f1b3d2dp+13", "0x1.8b96c6765e2e5p-50", -64, 0), ("0x1.3c6ef372f9aa2p-1", "-0x1.65e9f80f252d2p-20", "0x1.5bf6b748536e9p-90", 1, 64)]),
    # J = 1024: None rows past |j| = 740, the minus half resummed inverted
    ((evaluate_halves, FIBONACCI, 2, STANDARD, complex(PHI, 1e-150), 1e-13, 0.0),
     [("-0x1.09fe404d9d2f7p+944", "0x1.7cbfd5136f5e8p-392", "0x1.517beb0b10e31p-424", -1024, 0), ("0x1.3c6ef372fe94fp-1", "-0x1.17544f17fb84dp-499", "0x0.0p+0", 1, 1024)]),
    ((evaluate, FIBONACCI, 2, FOOTNOTE, complex(-1 / PHI, 1e-150), 1e-6, 0.0),
     [("-0x1.edb81511f0a00p+944", "-0x1.70525436afcefp-390", "0x1.01d09bc541354p-425", -1024, 1024)]),
]


def test_kernel_bits_are_pinned():
    # Every output bit is part of the contract (byte-identical stdout and
    # PPM), so a faster kernel must reproduce these exactly.
    for (fn, seq, weight, variant, z, tol, guard), want in PINNED_BITS:
        res = fn(SeriesSpec(seq, weight, variant), z, tol, guard_eps=guard)
        got = [(r.value.real.hex(), r.value.imag.hex(), r.tail_bound.hex(), r.j_min, r.j_max)
               for r in (res if fn is evaluate_halves else [res])]
        assert got == want, (fn.__name__, seq, weight, variant, z)
    ppm = render_grid(F4, (-2.0, 2.0, -2.0, 2.0), 24, 24)
    assert hashlib.sha256(ppm).hexdigest() == "9c8107efba5509f0c835bb516f19f9edda7572e8a711316d29f1a544ebed7b2a"


def test_value_types_keep_reprs_and_checks():
    # Reprs as the earlier dataclass types printed them.
    cases = [
        (SequenceSpec(3, -1, Kind.SECOND), "SequenceSpec(a=3, b=-1, kind=<Kind.SECOND: 'second'>)"),
        (SeriesSpec(FIBONACCI, 4, Variant.FOOTNOTE),
         "SeriesSpec(seq=SequenceSpec(a=1, b=-1, kind=<Kind.FIRST: 'first'>), weight=4, "
         "variant=<Variant.FOOTNOTE: 'footnote'>)"),
        (evaluate(F4, Z0),
         "SeriesResult(value=(-0.33091931013111475+2.8630716364024402j), tail_bound=1.3761939886657463e-13, "
         "j_min=-16, j_max=16, certified=True)"),
        (pole_map(FIBONACCI, -2, 3),
         "PoleMap(poles=(Fraction(-1, 1), Fraction(-1, 2), Fraction(0, 1), Fraction(1, 1), Fraction(2, 1)), "
         "accumulation_points=(-0.6180339887498948, 1.618033988749895))"),
        (growth_info(FIBONACCI, 3),
         "GrowthInfo(dominant_root=1.618033988749895, limit_ratio_neg=-0.6180339887498948, "
         "ratio_lo=Fraction(1, 2), ratio_hi=Fraction(2, 3))"),
        (P * S, "IntMat2(p=1, q=1, r=1, s=0)"),
        (InversionS(), "InversionS()"),
        (MirrorPa(1), "MirrorPa(a=1)"),
        (check_identity(SeriesSpec(FIBONACCI, 2), InversionS(), n_samples=1, seed=3),
         "ResidualReport(sample_points=((-2.351503168161061-0.6708427105828167j),), "
         "residuals=(1.2716779685529958e-14,), tolerances=(1.1870367513607084e-08,), passed=True, seed=3)"),
        (proof_step("full-negate", 1, 0.5 + 0.5j),
         "StepCheck(name='full-negate', z=(0.5+0.5j), lhs=(4.169997680492088e-13-2.0838886172214188e-13j), "
         "rhs=(1.0413891970983968e-13-5.218048215738236e-14j), tolerance=2.914995054556446e-09)"),
    ]
    for value, text in cases:
        assert repr(value) == text
        for name in value._fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(value, name, 0)

    # Tuples: equal and hash-equal to their fields; `*` of two matrices is
    # the product, `+` and `n * mat` are tuple operations.
    a, b, kind = FIBONACCI
    assert FIBONACCI == (a, b, kind) == (1, -1, Kind.FIRST) and hash(F4) == hash((FIBONACCI, 4, Variant.STANDARD))
    assert not InversionS() and P * S == (1, 1, 1, 0) and 2 * S == S + S == (0, -1, 1, 0) * 2
    assert SequenceSpec(a=1, b=-1) == FIBONACCI and SequenceSpec(a=1, b=-1).kind is Kind.FIRST
    assert SeriesSpec(seq=FIBONACCI, weight=4) == F4 and F4.variant is Variant.STANDARD
    # Checked in this order, each with its own type and message; `_replace`
    # checks too.
    for build, error, message in [
        (lambda: SequenceSpec(1.5, 0), TypeError, "sequence parameters must be plain integers"),
        (lambda: SequenceSpec(1, -1, "first"), TypeError, "kind must be a Kind member"),
        (lambda: SequenceSpec(1, 0), ValueError, "b = 0 is rejected: the bilateral series built on it diverges"),
        (lambda: FIBONACCI._replace(b=0), ValueError, "b = 0 is rejected: the bilateral series built on it diverges"),
        (lambda: SeriesSpec(LUCAS_NUMBERS, 1, Variant.FOOTNOTE), ValueError, "weight must be an integer >= 2"),
        (lambda: SeriesSpec(FIBONACCI, 4.0), ValueError, "weight must be an integer >= 2"),
        (lambda: F4._replace(weight=1), ValueError, "weight must be an integer >= 2"),
        (lambda: SeriesSpec(LUCAS_NUMBERS, 4, Variant.FOOTNOTE), ValueError,
         "the swapped-coefficient variant is defined for the Fibonacci numbers only"),
        (lambda: SeriesSpec(tuple(FIBONACCI), 4, Variant.FOOTNOTE), TypeError, "seq must be a SequenceSpec"),
    ]:
        with pytest.raises(error) as info:
            build()
        assert type(info.value) is error and str(info.value) == message
