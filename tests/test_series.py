"""Series evaluation, tail certificates, pole maps, and the brute-force oracle."""

import cmath
import hashlib
import math
import random
import sys
import tracemalloc
from fractions import Fraction

import mpmath
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
from semimodular import series, symmetry
from semimodular.cli import main, render_grid
from semimodular.lucas import is_geometric_spec
from oracle import brute_force_oracle, coeffs, omitted, omitted_mass

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


def test_guard_outcome_at_the_imaginary_shortcut():
    # The guard skips its search when |Im z| >= guard_eps, since every
    # guarded point is real.  At that edge, one ulp inside it and on a
    # pole's real part, evaluate still raises exactly when the distance is
    # below guard_eps, and otherwise returns the unguarded result.
    cases = []
    for eps in (series.GUARD_EPS, 1e-3, 0.0, math.inf):
        edge = eps if eps < math.inf else sys.float_info.max
        for x in (1.0, 0.5, PHI, 0.3):
            for y in (edge, math.nextafter(edge, 0.0), 0.0):
                cases += [(complex(x, y), eps), (complex(x, -y), eps)]
    raised = 0
    for spec in (F4, SeriesSpec(FIBONACCI, 3, Variant.FOOTNOTE)):
        for z, eps in cases:
            d = series.pole_distance(spec.seq, z)
            try:
                got = repr(evaluate(spec, z, 1e-10, guard_eps=eps))
            except (PoleProximity, ToleranceUnreachable) as exc:
                got = repr(exc)
            if d < eps:
                raised += 1
                want = repr(PoleProximity(f"z = {z} is within {d:.3e} of a pole or accumulation point (guard {eps:.1e})"))
            else:
                try:
                    want = repr(evaluate(spec, z, 1e-10, guard_eps=0.0))
                except (PoleProximity, ToleranceUnreachable) as exc:
                    want = repr(exc)
            assert got == want, (spec, z, eps)
    assert raised > len(cases) // 2


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
    # tolerance is reachable; the spec is refused before any term is summed.
    with pytest.raises(ToleranceUnreachable, match="no tail bound"):
        evaluate(SeriesSpec(SequenceSpec(3, 2), 4), Z0, 1e-8)


def test_criterion_matches_the_roots():
    # (1 + b - a)(1 + b + a) < 0 exactly when x**2 = a x - b has real roots
    # with |r2| < 1 < |r1|, checked against the roots in mpmath.
    geometric = 0
    for a in range(-15, 16):
        for b in range(-15, 16):
            if b == 0:
                continue
            disc = a * a - 4 * b
            with mpmath.workdps(50):
                roots = sorted(abs((a + sign * mpmath.sqrt(disc)) / 2) for sign in (1, -1)) if disc >= 0 else None
            want = roots is not None and roots[0] < 1 < roots[1]
            assert is_geometric_spec(SequenceSpec(a, b)) == want, (a, b)
            geometric += want
    # Every b = -1, a != 0 recursion is one of them.
    assert geometric == 422 and all(is_geometric_spec(SequenceSpec(a, -1)) for a in range(-15, 16) if a)


@pytest.mark.parametrize(
    "seq",
    [SequenceSpec(3, 2), SequenceSpec(5, 6, Kind.SECOND), SequenceSpec(0, -1), SequenceSpec(1, 1),
     SequenceSpec(2, 1), SequenceSpec(-2, 1), SequenceSpec(2, 1, Kind.SECOND)],
    ids=["3:2", "second-5:6", "0:-1", "complex-roots", "double-root", "double-root-minus", "double-root-second"],
)
def test_refusal_names_the_criterion(capsys, seq):
    # Divergent recursions and the double root a = +-2, b = 1 are refused
    # before any term is summed, with one message true for all of them: the
    # first kind of the double root converges, but only polynomially.
    message = ("no tail bound for this sequence: the roots of x**2 = a*x - b must satisfy |r2| < 1 < |r1|,"
               " that is (1 + b - a)(1 + b + a) < 0")
    with pytest.raises(ToleranceUnreachable) as info:
        evaluate(SeriesSpec(seq, 4), Z0, 1e-8)
    assert str(info.value) == message
    kind = "first" if seq.kind is Kind.FIRST else "second"
    code = main(["eval", "--seq", f"lucas-{kind}:{seq.a}:{seq.b}", "--uncertified", "--weight", "4", "--z", "0.3,0.7"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", f"semimodular: {message}\n")


def test_underflowed_row_is_not_a_pole(capsys):
    # b = 10**100: L(-9) ~ 1e-500 and L(-10) ~ 1e-599 both round to 0, a
    # (0, 0) row past double range; so for b = 2**40.  No recursion with
    # sound tails has such a row: |L(-n)| >= |L(-1)| = 1/|b| (first kind)
    # from n = 1 on, and |b| past 1e323 needs |a| > |b| + 1, past double
    # range.  So these stay refusals.
    for b in (10**100, 2**40):
        with pytest.raises(ToleranceUnreachable, match="no tail bound"):
            evaluate(SeriesSpec(SequenceSpec(3, b), 4), Z0)
        code = main(["eval", "--seq", f"lucas-first:3:{b}", "--uncertified", "--weight", "4", "--z", "0.3,0.7"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == "" and captured.err.startswith("semimodular: no tail bound")


@pytest.mark.parametrize(
    "b, z, guard",
    [(10**54, "0.01,0.01", []), (10**54, "0.5,0", []), (10**50, "0,1e-100", ["--guard-eps", "0"])],
    ids=["b1e54-off-axis", "b1e54-real", "b1e50-unguarded"],
)
def test_one_underflowed_coefficient_is_not_a_pole(capsys, b, z, guard):
    # The row of term -10 (b = 10**54) or -11 (b = 10**50) is (-5e-324, 0),
    # but lucas-first:1:b has no sound tails, so it is refused before any
    # row is read, at every z.  A row that small needs |b| near 1e323, which
    # no convergent recursion in double range has; the convergent inputs
    # that reach the same computed-zero branch are tested below.
    code = main(["eval", "--seq", f"lucas-first:1:{b}", "--uncertified", "--weight", "4", "--z", z, *guard])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == ("semimodular: no tail bound for this sequence: the roots of x**2 = a*x - b must satisfy"
                            " |r2| < 1 < |r1|, that is (1 + b - a)(1 + b + a) < 0\n")


@pytest.mark.parametrize(
    "seq, z",
    [("fib", "-0.6666666666666666,0"), ("lucas-first:5:3", "-1.6666666666666667,0"),
     ("lucas-first:5:3", "-1.6666666666666667,5e-324")],
    ids=["fib-real", "b3-real", "b3-off-axis"],
)
def test_computed_zero_that_is_no_pole_is_unreachable(capsys, seq, z):
    # Next to the poles -2/3 (fib, term -3) and -5/3 (5:3, term -1) the
    # denominator c1*z + c0 computes to 0, but the exact one vanishes
    # neither at these real doubles (with `int` or `Fraction` rows) nor off
    # the real axis, where c1*y underflows: each term is past double range.
    # Neither its power nor its reciprocal exists, so no traceback either.
    code = main(["eval", "--seq", seq, "--uncertified", "--weight", "4", f"--z={z}", "--guard-eps", "0"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "semimodular: terms overflow double range\n"


@pytest.mark.parametrize(
    "args, term",
    [(["--z", "1,0"], "term -1 denominator vanishes exactly at z = (1+0j)"),
     (["--variant", "footnote", "--z", "0,0"], "term 0 denominator vanishes exactly at z = 0j")],
    ids=["fib-at-1", "footnote-at-0"],
)
def test_exactly_vanishing_denominator_is_a_pole(capsys, args, term):
    code = main(["eval", "--seq", "fib", "--weight", "4", *args, "--guard-eps", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"semimodular: {term}\n"


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
    # The guard holds the true poles -c0/c1 of the terms: for b = -1 the
    # pole map's ratios r(n) = L(n)/L(n-1), |n| <= GUARD_DEPTH, and for
    # other b the poles -r(n)/b of j = 1 - n (the map's ratios mirrored
    # and scaled).
    for a in range(-4, 6):
        for b in (-3, -2, -1, 1, 2, 3):
            for kind in Kind:
                seq = SequenceSpec(a, b, kind)
                pm = pole_map(seq, -series.GUARD_DEPTH, series.GUARD_DEPTH)
                points = series._guard_points(seq)
                assert list(points) == sorted(points), seq
                if b == -1:
                    assert set(points) == {float(p) for p in pm.poles} | set(pm.accumulation_points), seq
                rows = [coeffs(SeriesSpec(seq, 2), j) for j in range(1 - series.GUARD_DEPTH, 2 + series.GUARD_DEPTH)]
                assert set(points) == {float(-c0 / c1) for c1, c0 in rows if c1} | set(pm.accumulation_points), seq
                assert len(points) == sum(1 for c1, _ in rows if c1) + len(pm.accumulation_points), seq


def test_the_guard_protects_the_true_poles():
    # lucas-first:3:1 has the pole -1/3 (term 2: 3z + 1), and its pole map
    # the ratio 1/3 (n = -1), which is no pole: the series is regular there.
    spec = SeriesSpec(SequenceSpec(3, 1), 4)
    with pytest.raises(PoleProximity):
        evaluate(spec, complex(-1 / 3, 1e-9))
    assert Fraction(1, 3) in pole_map(spec.seq, -1, -1).poles
    res = evaluate(spec, complex(1 / 3, 1e-9), 1e-10)
    assert math.isfinite(abs(res.value)) and res.tail_bound <= 1e-10
    assert abs(res.value - brute_force_oracle(spec, complex(1 / 3, 1e-9), 40)) <= res.tail_bound + 1e-12


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


def _log_envelopes(spec, z, E, J):
    """log of each side's certified envelope at window J, with the
    `_tail_params` of reference edge E: -m (log d + log scale - log gamma),
    the scale |L(-(J + shift))| (minus side) or |L(J + shift)| (plus side),
    inf when z lies in the side's cluster."""
    m, out = spec.weight, []
    for sign, (lo, hi, gamma, shift) in zip((-1, 1), series._tail_params(spec.seq, spec.variant, m, E)):
        x = z.real
        d = math.hypot(lo - x if x < lo else x - hi if x > hi else 0.0, z.imag) * (1.0 - 1e-12)
        scale = abs(seq_value(spec.seq, sign * (J + shift)))
        out.append(math.inf if d <= 0.0 else -m * (math.log(d) + math.log(scale) - math.log(gamma)))
    return out


def _reference_window(spec, z, tol):
    """(E, J) of the planner, recomputed in logarithms by a linear search:
    E from MIN_WINDOW, moved to 2E while z lies in one of E's clusters or
    J > 8E; None past the cap.  (The planner also moves E when
    c = s gamma / d reaches 2**1023, at d below about 1e-300, which no
    point here comes near.)"""
    log_half, E = math.log(tol / 2), series.MIN_WINDOW
    while E < series.MAX_WINDOW:
        J = E
        if math.inf not in _log_envelopes(spec, z, E, E):
            while max(_log_envelopes(spec, z, E, J)) > log_half:
                J += 1
            if J <= 8 * E:
                return E, J
        E = min(2 * E, series.MAX_WINDOW)
    return None


def _pole(seq, n):
    """The exact pole L(n)/L(n-1)."""
    return Fraction(seq_value(seq, n), seq_value(seq, n - 1))


def test_tail_clusters_are_the_next_two_poles():
    # Each side's cluster at reference edge E is the exact hull of its next
    # two poles, rounded outward; it holds the side's poles at the next 200
    # indices and straddles a root of x**2 = a x + 1 (the side's
    # accumulation point), with the sign of a past +E and of -a past -E.
    # gamma is the one built from the exact ratios L(j-1)/L(j), j = E, E + 1.
    seqs = [SequenceSpec(a, -1, kind) for a in [*range(-6, 0), *range(1, 7)] for kind in Kind]
    for seq, variant in [(seq, Variant.STANDARD) for seq in seqs] + [(FIBONACCI, Variant.FOOTNOTE)]:
        a = seq.a
        for E in (4, 5, 8, 64, 1000, 10000):
            # Per side (minus, plus): the first of its next two pole indices,
            # the step to the second and on to later ones, and the shift.
            if variant is Variant.STANDARD:
                sides = [(E + 1, 1, 1), (1 - E, -1, 1)]
            else:
                sides = [(1 - E, -1, 2), (E, 1, 0)]
            ratios = [Fraction(seq_value(seq, j - 1), seq_value(seq, j)) for j in (E, E + 1)]
            g = float(abs(a) + min(abs(r) for r in ratios))
            params = {m: series._tail_params(seq, variant, m, E) for m in (2, 3, 7, 12)}
            for k, (first, step, shift) in enumerate(sides):
                near, far = _pole(seq, first), _pole(seq, first + step)
                lo, hi = min(near, far), max(near, far)
                want_lo, want_hi = math.nextafter(float(lo), -math.inf), math.nextafter(float(hi), math.inf)
                for m, sided in params.items():
                    gamma = math.exp(-math.log1p(-(g**-m)) / m)
                    assert sided[k] == (want_lo, want_hi, gamma, shift), (seq, variant, E, m, k)
                assert (lo > 0) == (hi > 0) == ((a > 0) == (first > 0)), (seq, variant, E, k)
                assert (lo * lo - a * lo - 1) * (hi * hi - a * hi - 1) < 0, (seq, variant, E, k)
                # Exact, cross-multiplied: reducing each pole costs a gcd.
                (lo_p, lo_q), (hi_p, hi_q) = want_lo.as_integer_ratio(), want_hi.as_integer_ratio()
                for n in range(first + 2 * step, first + 202 * step, step):
                    p, q = seq_value(seq, n), seq_value(seq, n - 1)
                    p, q = (p, q) if q > 0 else (-p, -q)
                    assert lo_p * q <= p * lo_q and p * hi_q <= hi_p * q, (seq, variant, E, n)


def test_tail_hulls_hold_every_later_pole_of_every_geometric_recursion():
    # For every recursion with sound tails (|a|, |b| <= 15), both kinds, at
    # reference edge E: the minus cluster holds the poles -r(n)/b and the
    # plus cluster the poles -1/r(n) of the next 40 indices (exact, cross-
    # multiplied), and each side's gamma comes from a growth ratio g with
    # 1 < g <= |r(n)/b| (minus) or |r(n)| (plus) there, up to the rounding
    # of one hull end, which the 1e-12 off d covers.
    cases = 0
    for a in range(-15, 16):
        for b in range(-15, 16):
            if b == 0 or not is_geometric_spec(SequenceSpec(a, b)):
                continue
            for kind in Kind:
                seq = SequenceSpec(a, b, kind)
                for E in (4, 5, 8, 64):
                    params = series._tail_params(seq, Variant.STANDARD, 2, E)
                    ratios = [(seq_value(seq, n), seq_value(seq, n - 1)) for n in range(E, E + 42)]
                    minus = [(-p, b * q) for p, q in ratios[1:]]
                    plus = [(-q, p) for p, q in ratios[:-1]]
                    grow = ([Fraction(abs(p), abs(b * q)) for p, q in ratios[1:]],
                            [Fraction(abs(p), abs(q)) for p, q in ratios[1:]])
                    for (lo, hi, gamma, shift), poles, steps in zip(params, (minus, plus), grow):
                        (lo_p, lo_q), (hi_p, hi_q) = lo.as_integer_ratio(), hi.as_integer_ratio()
                        for p, q in poles:
                            p, q = (p, q) if q > 0 else (-p, -q)
                            assert lo_p * q <= p * lo_q and p * hi_q <= hi_p * q, (seq, E, p, q)
                        # gamma falls as g rises: at least that of the least
                        # step, and finite, so g > 1.
                        least = float(min(steps))
                        assert math.exp(-math.log1p(-(least**-2)) / 2) * (1 - 1e-14) <= gamma < math.inf, (seq, E)
                        assert shift == 1
                    cases += 1
    assert cases == 422 * 2 * 4


def test_window_cap_past_unit_b():
    # At the minus accumulation point -r1/b of lucas-first:5:2 (guard off)
    # z lies in the minus cluster at every reference edge, so no window up
    # to J = 8 MAX_WINDOW is planned; |b| = 2 has no closed-form cap.
    z = complex(-(5 + 17**0.5) / 4, 0.0)
    with pytest.raises(ToleranceUnreachable) as info:
        evaluate(SeriesSpec(SequenceSpec(5, 2), 4), z, 1e-10, guard_eps=0.0)
    assert str(info.value) == "no window up to J = 80000 has side tails <= 1.0e-10/2"


def test_huge_slow_spec_is_refused_before_its_tables_grow(capsys):
    # a = 10**100 + 2, b = +-10**100: |r2| is within 1e-99 of 1, so every
    # minus growth ratio rounds to 1 and gamma is inf at every edge.  The
    # refusal comes at the first edge, with a few table entries of about
    # 330 bits a step, not after filling tables to J = 80000.
    for b in (10**100, -(10**100)):
        seq = SequenceSpec(10**100 + 2, b)
        tracemalloc.start()
        try:
            with pytest.raises(ToleranceUnreachable) as info:
                evaluate(SeriesSpec(seq, 2), 0.3 + 0.7j)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == "no window up to J = 80000 has side tails <= 1.0e-10/2"
        assert peak < 2_000_000, peak
        assert len(series._kernel(seq, Variant.STANDARD).mags) == series.MIN_WINDOW + 1
    code = main(["eval", "--seq", f"lucas-first:{10**100 + 2}:{10**100}", "--uncertified", "--weight", "2",
                 "--z", "0.3,0.7"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == "" and captured.err.count("\n") == 1
    # lucas-first:5002:5000 grows by about 1.0002 a step and would need J
    # near 118000 at 0.3 + 0.7i: refused at the first edge too.
    seq = SequenceSpec(5002, 5000)
    with pytest.raises(ToleranceUnreachable):
        evaluate(SeriesSpec(seq, 2), 0.3 + 0.7j)
    assert len(series._kernel(seq, Variant.STANDARD).mags) == series.MIN_WINDOW + 1


def test_out_of_reach_refuses_only_what_no_edge_plans(monkeypatch):
    # With windows capped at J = 8 * 64, slowly growing minus scales
    # (|r2| about 1 - 2/b for (b + 2, b), about 1 - 1/B for (B, -B)) plan
    # the same window, or end in the same refusal, with the early refusal
    # of `_out_of_reach` as without it; both outcomes occur.
    monkeypatch.setattr(series, "MAX_WINDOW", 64)
    rng = random.Random(31)
    specs = [SeriesSpec(SequenceSpec(a, b, kind), m)
             for b in (6, 20, 60, 200) for a, b in ((b + 2, b), (-b - 3, b), (b, -b), (-b, -b))
             for kind in Kind for m in (2, 5)]
    outcomes, check = {"plan": 0, "early": 0, "late": 0}, series._out_of_reach

    def plan(spec, z, tol):
        try:
            return series._plan_window(series._kernel(spec.seq, spec.variant), z, spec.weight, tol)
        except ToleranceUnreachable as exc:
            return str(exc)

    for _ in range(400):
        spec = rng.choice(specs)
        z, tol = _corpus_point(rng, spec, (-6, -1)), 10 ** rng.uniform(-13, -6)
        with monkeypatch.context() as m:
            m.setattr(series, "_out_of_reach", lambda *args: False)
            want = plan(spec, z, tol)
        calls = []
        with monkeypatch.context() as m:
            m.setattr(series, "_out_of_reach", lambda *args: calls.append(check(*args)) or calls[-1])
            got = plan(spec, z, tol)
        assert got == want, (spec, z, tol)
        outcomes["plan" if isinstance(got, tuple) else "early" if True in calls else "late"] += 1
    assert min(outcomes.values()) > 0, outcomes


def _corpus_point(rng, spec, near):
    """A point of the check annulus, or one 10**near[0] to 10**near[1] off a guard point."""
    if rng.random() < 0.5:
        return symmetry._sample_annulus(rng)
    p = rng.choice(series._guard_points(spec.seq))
    return p + cmath.rect(10 ** rng.uniform(*near), rng.uniform(-math.pi, math.pi))


def test_planner_is_minimal_at_its_reference_edge():
    rng = random.Random(2013)
    specs = [
        F4,
        SeriesSpec(LUCAS_NUMBERS, 6),
        SeriesSpec(SequenceSpec(3, -1), 2),
        SeriesSpec(SequenceSpec(-2, -1, Kind.SECOND), 4),
        SeriesSpec(FIBONACCI, 4, Variant.FOOTNOTE),
        SeriesSpec(FIBONACCI, 3, Variant.FOOTNOTE),
        SeriesSpec(FIBONACCI, 12),
        SeriesSpec(SequenceSpec(-1, -1), 5),
        SeriesSpec(SequenceSpec(3, 1), 2),
        SeriesSpec(SequenceSpec(-4, 1, Kind.SECOND), 3),
        SeriesSpec(SequenceSpec(5, 2), 4),
        SeriesSpec(SequenceSpec(3, -2, Kind.SECOND), 5),
    ]
    windows = set()
    for _ in range(600):
        spec = rng.choice(specs)
        z, tol = _corpus_point(rng, spec, (-6, -1)), 10 ** rng.uniform(-13, -6)
        J, neg, pos = series._plan_window(series._kernel(spec.seq, spec.variant), z, spec.weight, tol)
        E, want = _reference_window(spec, z, tol)
        log_half = math.log(tol / 2)
        # J meets tol / 2 at E and J - 1 does not: 1e-9 absorbs rounding
        # in a tie.
        assert J == want and max(neg, pos) <= tol / 2, (spec, z, tol)
        assert max(_log_envelopes(spec, z, E, J)) <= log_half + 1e-9, (spec, z, tol)
        assert J == E or max(_log_envelopes(spec, z, E, J - 1)) > log_half - 1e-9, (spec, z, tol)
        for tail, at_E, own in zip((neg, pos), _log_envelopes(spec, z, E, J), _log_envelopes(spec, z, J, J)):
            # The tail is E's envelope, which covers the edge's own one.
            assert tail == pytest.approx(math.exp(at_E), rel=1e-9, abs=1e-300), (spec, z, tol)
            assert tail >= math.exp(own) * (1 - 1e-9), (spec, z, tol)
        windows.add((E, J))
    # Reference edges past the first, and windows at the least edge, occur.
    assert {E for E, _ in windows} > {series.MIN_WINDOW} and min(J for _, J in windows) == series.MIN_WINDOW

    # Inside E = 4's negative cluster, outside E = 8's: E doubles, and the
    # window is not pushed up to the J = 46 planned at E = 4.
    assert series._plan_window(series._kernel(FIBONACCI, Variant.STANDARD), -0.63 + 1e-6j, 4, 1e-13)[0] == 27

    # Exactly at an accumulation point the tails never shrink: the cap.
    phi = (1 + 5**0.5) / 2
    for z, tol, tails in [(phi, 1e-10, "(inf, 4.941e-324) > 1.0e-10/2"), (-1 / phi, 1e-8, "(4.941e-324, inf) > 1.0e-08/2")]:
        with pytest.raises(ToleranceUnreachable) as info:
            series._plan_window(series._kernel(FIBONACCI, Variant.STANDARD), complex(z, 0.0), 4, tol)
        assert str(info.value) == f"window cap 10000 hit with side tails {tails}"


def test_omitted_mass_matches_mpmath():
    for spec, z, J in [(F4, Z0, 13), (F3, -0.62 + 0.01j, 20), (SeriesSpec(FIBONACCI, 5, Variant.FOOTNOTE), 2j, 5),
                       (SeriesSpec(SequenceSpec(-2, -1, Kind.SECOND), 12), 1.3 - 0.4j, 4)]:
        for side in (-1, 1):
            with mpmath.workdps(50):
                want = sum(abs((mpmath.mpf(int(c1)) * mpmath.mpc(z) + int(c0)) ** -spec.weight)
                           for c1, c0 in (coeffs(spec, side * k) for k in range(J + 1, J + 61)))
            assert omitted_mass(spec, z, J, 60, side) == pytest.approx(float(want), rel=1e-14)


def test_small_edge_tails_cover_the_omitted_mass():
    # Windows from MIN_WINDOW up, at every weight and tolerance: each half's
    # tail_bound covers the total modulus of its next 400 omitted terms.
    rng = random.Random(2023)
    seqs = [FIBONACCI, LUCAS_NUMBERS, SequenceSpec(3, -1), SequenceSpec(-1, -1), SequenceSpec(2, -1),
            SequenceSpec(-2, -1, Kind.SECOND)]
    cases = worst = 0
    while cases < 320:
        seq = rng.choice(seqs + [None])
        spec = SeriesSpec(seq or FIBONACCI, rng.randint(2, 12), Variant.FOOTNOTE if seq is None else Variant.STANDARD)
        z, tol = _corpus_point(rng, spec, (-5, -1)), 10 ** rng.uniform(-13, -6)
        try:
            halves = evaluate_halves(spec, z, tol)
        except PoleProximity:
            continue
        cases += 1
        J = halves[1].j_max
        for side, half in zip((-1, 1), halves):
            mass = omitted_mass(spec, z, J, 400, side)
            assert mass <= half.tail_bound, (spec, z, tol, side)
            worst = max(worst, mass / half.tail_bound)
    # Some bounds are sharp: one omitted term carries nearly all of it.
    assert worst > 0.9999


def test_tails_cover_the_omitted_mass_for_b_other_than_minus_one():
    # Every recursion with sound tails and b not in {0, -1}, |a|, |b| <= 7,
    # both kinds, weights 2, 3, 5 and 8: each half's tail_bound covers the
    # exact total modulus of its next 300 omitted terms, at annulus points
    # and at points 1e-5 to 1e-1 off a guarded pole.
    rng = random.Random(2031)
    seqs = [SequenceSpec(a, b, kind) for a in range(-7, 8) for b in range(-7, 8) for kind in Kind
            if b not in (0, -1) and is_geometric_spec(SequenceSpec(a, b))]
    assert len(seqs) == 144
    worst = 0.0
    for _ in range(300):
        spec = SeriesSpec(rng.choice(seqs), rng.choice((2, 3, 5, 8)))
        z, tol = _corpus_point(rng, spec, (-5, -1)), 10 ** rng.uniform(-13, -6)
        halves = evaluate_halves(spec, z, tol)
        assert not halves[0].certified
        J = halves[1].j_max
        for side, half in zip((-1, 1), halves):
            mass = omitted_mass(spec, z, J, 300, side)
            assert mass <= half.tail_bound <= tol / 2, (spec, z, tol, side)
            worst = max(worst, mass / half.tail_bound)
    assert worst > 0.9999


def test_subnormal_tail_covers_the_exact_omitted_mass():
    # The plus-side tail at J = 751 is subnormal, with about 31 bits: an
    # ulp there is far more than the relative 1e-12 margin, so the tail is
    # rounded up.  One ulp lower it would undercut the omitted mass.
    spec, z = SeriesSpec(FIBONACCI, 2), complex(PHI, 1e-150)
    plus = evaluate_halves(spec, z, 1e-13, guard_eps=0.0)[1]
    assert plus.j_max == 751 and 0.0 < plus.tail_bound < sys.float_info.min
    X, Y = Fraction(z.real), Fraction(z.imag)
    terms = [1 / ((c1 * X + c0) ** 2 + (c1 * Y) ** 2) for c1, c0 in (coeffs(spec, k) for k in range(752, 952))]
    # Each later modulus is below half the one before (|L| grows by about
    # phi), so all the terms past these sum to less than the last one.
    mass = sum(terms)
    assert mass + terms[-1] <= Fraction(plus.tail_bound)
    assert Fraction(math.nextafter(plus.tail_bound, 0.0)) < mass


def test_tails_cover_their_exact_envelopes_past_a_subnormal_power():
    # At tol 8e16 and |z| near 1e150 the power (c/|L|)**2 is subnormal and
    # tol/2 lifts the tail back to the normal range, so the power's own
    # rounding must be rounded up as well.  Fib w2 at J = E = 4: the exact
    # envelope is 1 / (d**2 L(5)**2 (1 - g**-2)), d the distance to the
    # exact cluster, the hull of the poles 5, 6 (j <= 0) or -4, -3 (j >= 1),
    # and g the smaller of the poles 5 and 6.
    neg_hi, g = max(_pole(FIBONACCI, 5), _pole(FIBONACCI, 6)), min(_pole(FIBONACCI, 5), _pole(FIBONACCI, 6))
    pos_hi = max(_pole(FIBONACCI, -4), _pole(FIBONACCI, -3))
    kern = series._kernel(FIBONACCI, Variant.STANDARD)
    for k in range(20):
        z = complex(1e150 * (1 + k / 7), 1e150)
        J, neg, pos = series._plan_window(kern, z, 2, 8e16)
        # The tail is normal, the power tail / 4e16 subnormal.
        assert J == 4 and sys.float_info.min < neg < 4e16 * sys.float_info.min
        x, y = Fraction(z.real), Fraction(z.imag)
        for tail, d2 in ((neg, (x - neg_hi) ** 2 + y**2), (pos, (x - pos_hi) ** 2 + y**2)):
            assert Fraction(tail) >= 1 / (d2 * 5**2 * (1 - 1 / g**2)), (z, tail)


def _summation_errors(spec, z, tol):
    """J and, per half, (|value - S|, u sum_k |S_k|): S the exact sum of the
    half's own computed terms, S_k the running totals of their plain sum in
    the kernel's order."""
    halves = evaluate_halves(spec, z, tol)
    J, out = halves[1].j_max, []
    for rows, half in zip(series._kernel(spec.seq, spec.variant).window(J), halves):
        terms = [(c1 * z + c0) ** -spec.weight for c1, c0 in filter(None, rows)]
        re, im = sum(Fraction(t.real) for t in terms), sum(Fraction(t.imag) for t in terms)
        error = math.hypot(Fraction(half.value.real) - re, Fraction(half.value.imag) - im)
        total, partial = 0j, 0.0
        for t in terms:
            total += t
            partial += abs(total)
        out.append((error, 2.0**-53 * partial))
    return J, out


def test_half_sums_stay_within_the_recursive_summation_bound():
    # Forced zeros (k = 1-5), near-pole and annulus points, and points next
    # to an accumulation point.  Each half is a plain sum from the far end
    # inward: every addition rounds by at most u |S_k|, so |value - S| <=
    # u sum_k |S_k|.  In ascending order that stays near u sum|t| for
    # geometric terms, but not next to an accumulation point, where many
    # terms are alike: there the worst here is 3.1 u sum|t|, past the 3u
    # that symmetry._allowance allows for the sum.
    rng = random.Random(2025)
    cases = [(SeriesSpec(seq, 2 * k), z, 1e-12)
             for seq in (FIBONACCI, LUCAS_NUMBERS, SequenceSpec(3, -1), SequenceSpec(-2, -1, Kind.SECOND))
             for k in range(1, 6) for z in (1j, -1j, seq.a + 1j, seq.a - 1j)]
    specs = [F4, SeriesSpec(LUCAS_NUMBERS, 6), SeriesSpec(SequenceSpec(3, -1), 2),
             SeriesSpec(SequenceSpec(-2, -1, Kind.SECOND), 4), SeriesSpec(FIBONACCI, 4, Variant.FOOTNOTE), F2]
    for _ in range(300):
        spec = rng.choice(specs)
        cases.append((spec, _corpus_point(rng, spec, (-5, -1)), 10 ** rng.uniform(-13, -6)))
    for _ in range(40):
        spec = rng.choice(specs)
        p = rng.choice(series._accumulation_points(spec.seq))
        cases.append((spec, p + cmath.rect(10 ** rng.uniform(-5, -3), rng.uniform(-math.pi, math.pi)), 1e-13))
    wide, sharpest = 0, 0.0
    for spec, z, tol in cases:
        J, halves = _summation_errors(spec, z, tol)
        wide += J >= 32
        for error, partial in halves:
            assert error <= partial * (1 + 1e-12), (spec, z, tol)
            sharpest = max(sharpest, error / partial)
    # Wide windows occur, and the bound is nearly met.
    assert wide >= 20 and sharpest > 0.5


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


def test_results_do_not_depend_on_kernel_history():
    # Every result depends on (spec, z, tol) only, not on which calls grew
    # the shared rows, magnitude table and reference edges before it.
    rng = random.Random(2024)
    kernels = [(FIBONACCI, Variant.STANDARD), (FIBONACCI, Variant.FOOTNOTE), (LUCAS_NUMBERS, Variant.STANDARD),
               (SequenceSpec(3, -1), Variant.STANDARD), (SequenceSpec(-2, -1, Kind.SECOND), Variant.STANDARD),
               (SequenceSpec(3, 1), Variant.STANDARD)]
    corpus = []
    for _ in range(2000):
        seq, variant = rng.choice(kernels)
        spec = SeriesSpec(seq, rng.choice((2, 3, 4, 6, 12)), variant)
        corpus.append((spec, _corpus_point(rng, spec, (-7, 0)), rng.choice((1e-13, 1e-10, 1e-8, 1e-6))))

    def run(order):
        series._kernel.cache_clear()
        out = {}
        for i in order:
            spec, z, tol = corpus[i]
            try:
                out[i] = [(h.value.real.hex(), h.value.imag.hex(), h.tail_bound.hex(), h.j_min, h.j_max)
                          for h in evaluate_halves(spec, z, tol)]
            except (PoleProximity, ToleranceUnreachable) as exc:
                out[i] = repr(exc)
        return out

    forward = run(range(len(corpus)))
    assert run(range(len(corpus) - 1, -1, -1)) == forward
    assert sum(isinstance(r, list) for r in forward.values()) > 1500
    # And every bit is pinned, so a faster kernel must reproduce them.
    digest = hashlib.sha256(repr([forward[i] for i in range(len(corpus))]).encode()).hexdigest()
    assert digest == "67e9f6ab910674b29a772f6476363ae0e47ab2eb2983ca89e5a89a128ec5172d"


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
     [("-0x1.52dc82f9f4fbbp-2", "0x1.6e7921a23d424p+1", "0x1.9c2bd9e5b9306p-35", -13, 13)]),
    # footnote
    ((evaluate, FIBONACCI, 4, FOOTNOTE, 0.3 + 0.7j, 1e-12, GUARD),
     [("-0x1.52dc82fa83124p-2", "0x1.6e7921a239f05p+1", "0x1.897d80d9e8c00p-42", -16, 16)]),
    ((evaluate_halves, LUCAS_NUMBERS, 6, STANDARD, -1.3 + 0.2j, 1e-13, GUARD),
     [("0x1.081c4d8161c67p-11", "0x1.4d7834c8a3e30p-12", "0x1.f2b7adb1fdc84p-60", -11, 0), ("-0x1.553682d88ba9ap-1", "-0x1.ab59b63d7ef4ap+2", "0x1.3842037297043p-47", 1, 11)]),
    ((evaluate, SequenceSpec(-3, -1, Kind.SECOND), 3, STANDARD, 0.4 - 1.1j, 1e-8, GUARD),
     [("-0x1.0fc0355313ea4p-6", "0x1.fb9a459724b52p-6", "0x1.88ffa716a0b60p-32", -5, 5)]),
    # b = +1: hulls from both kinds' ratios
    ((evaluate, SequenceSpec(3, 1), 4, STANDARD, 0.3 + 0.7j, 1e-10, GUARD),
     [("0x1.b08d2b7889235p-1", "0x1.7bb23b6ca039fp+1", "0x1.50f23a5bb050bp-40", -7, 7)]),
    ((evaluate_halves, SequenceSpec(-4, 1, Kind.SECOND), 7, STANDARD, 1.2 - 0.5j, 1e-10, GUARD),
     [("0x1.14b72f512a76dp-7", "-0x1.0b93e2f0f8d31p-7", "0x1.e67e4be9c9103p-77", -4, 0), ("0x1.09fae979777f9p-14", "0x1.5641cac22261cp-13", "0x1.e99fc3c1836fbp-68", 1, 4)]),
    # |b| > 1: rows int / int below 0, the minus scale |L(n)| / |b|**n
    ((evaluate_halves, SequenceSpec(5, 2), 4, STANDARD, 0.3 + 0.7j, 1e-10, GUARD),
     [("0x1.021e95030925ap+4", "-0x1.968eb97d70f26p-3", "0x1.673c0bec39d59p-36", -7, 0), ("-0x1.2d88c3cd3e7eap-3", "0x1.7c46e29b5f494p+1", "0x1.e038ea29a5e98p-62", 1, 7)]),
    ((evaluate, SequenceSpec(3, -2, Kind.SECOND), 5, STANDARD, -0.6 + 0.9j, 1e-10, GUARD),
     [("0x1.55750eae997bdp-8", "-0x1.a0c488371cf66p-8", "0x1.281a10019c082p-36", -6, 6)]),
    # guard off, next to a pole
    ((evaluate, FIBONACCI, 4, STANDARD, complex(1.0, 1e-9), 1e-6, 0.0),
     [("0x1.812f9cf7920e2p+119", "0x1.1d6c76b84adf1p-27", "0x1.3dd0b29eeb684p-23", -10, 10)]),
    ((evaluate_halves, FIBONACCI, 3, FOOTNOTE, complex(-0.4, -0.0), 1e-10, 0.0),
     [("-0x1.9ea1d9e4013c1p+6", "0x0.0p+0", "0x1.05d60c9d6d4fbp-35", -20, 0), ("0x1.75e32b1d6fb08p+0", "0x0.0p+0", "0x1.5eb9280507b4ep-41", 1, 20)]),
    # both halves resummed inverted
    ((evaluate, FIBONACCI, 4, STANDARD, 1e300 + 1e300j, 1e-10, GUARD),
     [("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0000000000002p-1022", -4, 4)]),
    ((evaluate_halves, FIBONACCI, 2, STANDARD, complex(PHI, 2e-6), 1e-13, GUARD),
     [("0x1.312de0047b07cp+8", "0x1.93d9b1f1b3d2dp+13", "0x1.bbca7d4b987ddp-46", -61, 0), ("0x1.3c6ef372f9aa2p-1", "-0x1.65e9f80f252d2p-20", "0x1.867f6fe850bd0p-86", 1, 61)]),
    # J = 751: None rows past |j| = 740, the minus half resummed inverted
    ((evaluate_halves, FIBONACCI, 2, STANDARD, complex(PHI, 1e-150), 1e-13, 0.0),
     [("-0x1.09fe404d9d2f7p+944", "0x1.7cbfd5136f5e8p-392", "0x1.5edcb3aa61ab0p-45", -751, 0), ("0x1.3c6ef372fe94fp-1", "-0x1.17544f17fb84dp-499", "0x0.000005dfce9eep-1022", 1, 751)]),
    ((evaluate, FIBONACCI, 2, FOOTNOTE, complex(-1 / PHI, 1e-150), 1e-6, 0.0),
     [("-0x1.edb81511f0a00p+944", "-0x1.70525436afcf0p-390", "0x1.0aaf021c68850p-21", -733, 733)]),
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
         "SeriesResult(value=(-0.330919310098803+2.863071636408238j), tail_bound=4.6858450968989914e-11, "
         "j_min=-13, j_max=13, certified=True)"),
        (pole_map(FIBONACCI, -2, 3),
         "PoleMap(poles=(Fraction(-1, 1), Fraction(-1, 2), Fraction(0, 1), Fraction(1, 1), Fraction(2, 1)), "
         "accumulation_points=(-0.6180339887498948, 1.618033988749895))"),
        (growth_info(FIBONACCI), "GrowthInfo(dominant_root=1.618033988749895, limit_ratio_neg=-0.6180339887498948)"),
        (P * S, "IntMat2(p=1, q=1, r=1, s=0)"),
        (InversionS(), "InversionS()"),
        (MirrorPa(1), "MirrorPa(a=1)"),
        (check_identity(SeriesSpec(FIBONACCI, 2), InversionS(), n_samples=1, seed=3),
         "ResidualReport(sample_points=((-2.351503168161061-0.6708427105828167j),), "
         "residuals=(2.7144109045958843e-11,), tolerances=(1.1923042239208322e-08,), passed=True, seed=3)"),
        (proof_step("full-negate", 1, 0.5 + 0.5j),
         "StepCheck(name='full-negate', z=(0.5+0.5j), lhs=(1.9580559396104036e-11-9.79039072035448e-12j), "
         "rhs=(3.3551605937987006e-11-1.6776025013598428e-11j), tolerance=3.025862803663788e-09)"),
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
