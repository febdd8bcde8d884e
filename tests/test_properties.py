"""Property tests for the exact-arithmetic invariants."""

import math

from hypothesis import example, given, settings, strategies as st

from semimodular import (
    FIBONACCI,
    IntMat2,
    Kind,
    LUCAS_NUMBERS,
    SequenceSpec,
    SeriesSpec,
    evaluate,
    evaluate_halves,
    pole_distance,
    pole_map,
    seq_value,
)
from semimodular.errors import SemimodularError
from semimodular.series import _HUGE_BITS, Variant
from oracle import coeffs

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

spec_strategy = st.builds(
    SequenceSpec,
    a=st.integers(min_value=-5, max_value=5),
    b=st.sampled_from([-1, 1, -2, 2, 3]),
    kind=st.sampled_from([Kind.FIRST, Kind.SECOND]),
)


@SETTINGS
@given(spec=spec_strategy, n=st.integers(min_value=-40, max_value=40))
def test_recursion_closure_everywhere(spec, n):
    assert seq_value(spec, n) == spec.a * seq_value(spec, n - 1) - spec.b * seq_value(spec, n - 2)


@SETTINGS
@given(
    entries=st.lists(st.integers(min_value=-1000, max_value=1000), min_size=8, max_size=8)
)
def test_det_multiplicative(entries):
    a = IntMat2(*entries[:4])
    b = IntMat2(*entries[4:])
    assert (a * b).det() == a.det() * b.det()


@SETTINGS
@given(
    re=st.floats(min_value=-4, max_value=4, allow_nan=False),
    im=st.floats(min_value=-4, max_value=4, allow_nan=False),
    weight=st.sampled_from([2, 3, 4, 6]),
    seq=st.sampled_from([FIBONACCI, LUCAS_NUMBERS]),
)
def test_halves_always_recombine(re, im, weight, seq):
    z = complex(re, im)
    if pole_distance(seq, z) < 0.02:
        return
    spec = SeriesSpec(seq, weight)
    minus, plus = evaluate_halves(spec, z, 1e-9)
    full = evaluate(spec, z, 1e-9)
    assert minus.value + plus.value == full.value
    assert full.tail_bound <= 1e-9


@SETTINGS
@given(n=st.integers(min_value=-30, max_value=30), seq=st.sampled_from([FIBONACCI, LUCAS_NUMBERS]))
def test_every_pole_kills_a_term(n, seq):
    pm = pole_map(seq, n, n)
    spec = SeriesSpec(seq, 2)
    for p in pm.poles:
        assert any(
            coeffs(spec, j)[0] * p + coeffs(spec, j)[1] == 0 for j in range(-35, 36)
        )


@SETTINGS
@given(
    re=st.floats(min_value=-3, max_value=3, allow_nan=False),
    im=st.floats(min_value=0.4, max_value=3, allow_nan=False),
)
def test_mirror_law_property(re, im):
    # f(1 - z) = f(z) for the weight-4 Fibonacci series, away from poles.
    z = complex(re, im)
    spec = SeriesSpec(FIBONACCI, 4)
    lhs = evaluate(spec, 1 - z, 1e-10)
    rhs = evaluate(spec, z, 1e-10)
    tol = lhs.tail_bound + rhs.tail_bound + 1e-9 * (1 + abs(z)) ** 4
    assert abs(lhs.value - rhs.value) <= tol


def _reference_term(spec, j, z):
    # The scalar path: float()-rounded exact coefficients, zero past the
    # magnitude gate, one power per term.
    c1, c0 = coeffs(spec, j)
    bits = max(x.numerator.bit_length() - x.denominator.bit_length() for x in (c1, c0))
    if bits > _HUGE_BITS:
        return 0.0 + 0.0j
    return (float(c1) * z + float(c0)) ** -spec.weight


def _reference_sum(terms):
    # The kernel's plain sum, term by term in the order given.
    total = 0.0 + 0.0j
    for t in terms:
        total += t
    return total


KERNEL_SPECS = [
    SeriesSpec(seq, w, variant)
    for seq, variant in [
        (FIBONACCI, Variant.STANDARD),
        (FIBONACCI, Variant.FOOTNOTE),
        (LUCAS_NUMBERS, Variant.STANDARD),
        (SequenceSpec(2, -1, Kind.FIRST), Variant.STANDARD),
        (SequenceSpec(-3, -1, Kind.SECOND), Variant.STANDARD),
        (SequenceSpec(3, 1, Kind.FIRST), Variant.STANDARD),
        (SequenceSpec(-4, 1, Kind.SECOND), Variant.STANDARD),
    ]
    for w in (2, 3, 4, 7, 12)
]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    spec=st.sampled_from(KERNEL_SPECS),
    re=st.floats(min_value=-3, max_value=3, allow_nan=False),
    im=st.one_of(st.just(0.0), st.floats(min_value=-2, max_value=2, allow_nan=False)),
    tol=st.sampled_from([1e-13, 1e-10, 1e-6]),
)
# The Fibonacci guard points lie in [-1, 2], with 0 next to -1/2 and to 1;
# those of lucas-first:3:1, the true poles -L(j-1)/L(j), in [-3, 0].
@example(spec=SeriesSpec(FIBONACCI, 4), re=-3.0, im=0.5, tol=1e-10)  # left of every point
@example(spec=SeriesSpec(SequenceSpec(3, 1), 4), re=3.5, im=-0.25, tol=1e-10)  # right of every point
@example(spec=SeriesSpec(FIBONACCI, 3), re=1.0, im=0.0, tol=1e-10)  # on a pole
@example(spec=SeriesSpec(FIBONACCI, 2), re=0.5, im=0.25, tol=1e-13)  # equidistant from 0 and 1
@example(spec=SeriesSpec(FIBONACCI, 4, Variant.FOOTNOTE), re=-0.25, im=0.0, tol=1e-6)  # from -1/2 and 0
def test_kernel_matches_scalar_reference(spec, re, im, tol):
    # The evaluation kernel must reproduce the scalar term-by-term path bit
    # for bit, and the bisect guard the brute-force distance over all points:
    # the poles -c0/c1 of the standard terms |j - 1| <= 64 (for b = -1 the
    # pole map's ratios) and the accumulation points.
    z = complex(re, im)
    rows = [coeffs(SeriesSpec(spec.seq, 2), j) for j in range(-63, 66)]
    points = [complex(-c0 / c1) for c1, c0 in rows if c1 != 0]
    points += [complex(a) for a in pole_map(spec.seq, 1, 1).accumulation_points]
    assert pole_distance(spec.seq, z) == min(abs(z - p) for p in points)
    try:
        minus, plus = evaluate_halves(spec, z, tol)
    except SemimodularError:
        return
    J = plus.j_max
    assert minus.j_min == -J
    assert minus.value == _reference_sum(_reference_term(spec, j, z) for j in range(-J, 1))
    assert plus.value == _reference_sum(_reference_term(spec, j, z) for j in range(J, 0, -1))
    assert evaluate(spec, z, tol).value == minus.value + plus.value
