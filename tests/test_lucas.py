"""Sequence values, sign rules, and ratio-interval guarantees."""

from fractions import Fraction

import mpmath as mp
import pytest

from semimodular import (
    FIBONACCI,
    INDEX_CAP,
    IndexCapExceeded,
    Kind,
    LUCAS_NUMBERS,
    SequenceSpec,
    UncertifiedOnly,
    growth_info,
    is_certified_spec,
    seq_value,
)

PELL = SequenceSpec(2, -1, Kind.FIRST)

SPECS = [
    FIBONACCI,
    LUCAS_NUMBERS,
    PELL,
    SequenceSpec(3, 2, Kind.FIRST),
    SequenceSpec(-2, -1, Kind.FIRST),
    SequenceSpec(-2, -1, Kind.SECOND),
    SequenceSpec(5, 2, Kind.SECOND),
]


def test_preset_values():
    assert seq_value(FIBONACCI, 10) == 55
    assert seq_value(FIBONACCI, -4) == -3
    assert seq_value(LUCAS_NUMBERS, -3) == -4
    assert seq_value(PELL, 4) == 12
    assert seq_value(SequenceSpec(3, 2), -1) == Fraction(-1, 2)


def test_seed_values():
    assert [int(seq_value(FIBONACCI, n)) for n in range(8)] == [0, 1, 1, 2, 3, 5, 8, 13]
    assert [int(seq_value(LUCAS_NUMBERS, n)) for n in range(6)] == [2, 1, 3, 4, 7, 11]


@pytest.mark.parametrize("spec", SPECS)
def test_recursion_closure(spec):
    for n in range(-50, 51):
        lhs = seq_value(spec, n)
        rhs = spec.a * seq_value(spec, n - 1) - spec.b * seq_value(spec, n - 2)
        assert lhs == rhs, (spec, n)


@pytest.mark.parametrize(
    "spec", [s for s in SPECS if s.b == -1]
)
def test_sign_rule(spec):
    for n in range(1, 51):
        if spec.kind is Kind.FIRST:
            assert seq_value(spec, -n) == (-1) ** (n - 1) * seq_value(spec, n)
        else:
            assert seq_value(spec, -n) == (-1) ** n * seq_value(spec, n)


@pytest.mark.parametrize("spec", [s for s in SPECS if abs(s.b) == 1])
def test_integrality(spec):
    for n in range(-40, 41):
        assert seq_value(spec, n).denominator == 1


@pytest.mark.parametrize("spec", SPECS + [SequenceSpec(0, 2), SequenceSpec(-3, 1, Kind.SECOND), SequenceSpec(2, -3)])
def test_value_types(spec):
    # An int for n >= 0, and for every n when b = +-1; a Fraction only for
    # n < 0 when |b| > 1, even where the value is whole (L(-2) = 0 at a = 0).
    for n in range(-40, 41):
        want = Fraction if n < 0 and abs(spec.b) > 1 else int
        assert type(seq_value(spec, n)) is want, (spec, n)


def test_backward_recursion_cross_check():
    # Negative indices come from the closed-form sign rule; walking the
    # recursion backward must agree exactly, rationals included.
    for spec in SPECS:
        hi, lo = seq_value(spec, 1), seq_value(spec, 0)
        for n in range(-1, -30, -1):
            hi, lo = lo, Fraction(spec.a * lo - hi, spec.b)
            assert lo == seq_value(spec, n), (spec, n)


def test_ratio_convergence():
    # |F(n)/F(n-1) - phi| decays like sqrt(5) * phi**(-2n+2); the exponent
    # -2n+4 absorbs the sqrt(5) since sqrt(5) < phi**2.  Checked in mpmath
    # because near n = 40 the gap sits at the double-precision floor.
    with mp.workdps(40):
        phi = (1 + mp.sqrt(5)) / 2
        for n in range(2, 41):
            ratio = mp.mpf(int(seq_value(FIBONACCI, n))) / int(seq_value(FIBONACCI, n - 1))
            assert abs(ratio - phi) < phi ** (-2 * n + 4) * (1 + mp.mpf("1e-12"))


def test_index_cap():
    with pytest.raises(IndexCapExceeded):
        seq_value(FIBONACCI, INDEX_CAP + 1)
    with pytest.raises(IndexCapExceeded):
        seq_value(FIBONACCI, -(INDEX_CAP + 1))
    # Large values stay exact: digit count of F(20000).
    assert len(str(int(seq_value(FIBONACCI, 20000)))) == 4180


def test_invalid_specs():
    with pytest.raises(ValueError):
        SequenceSpec(1, 0)
    with pytest.raises(TypeError):
        SequenceSpec(1.5, -1)  # type: ignore[arg-type]


def test_growth_info_fibonacci():
    info = growth_info(FIBONACCI)
    assert info.dominant_root == pytest.approx(1.6180339887498949, abs=1e-12)
    assert info.limit_ratio_neg == pytest.approx(-0.6180339887498949, abs=1e-12)
    assert is_certified_spec(FIBONACCI)


def test_growth_info_pell():
    info = growth_info(PELL)
    assert info.dominant_root == pytest.approx(1 + 2**0.5, abs=1e-12)


def test_growth_info_unavailable():
    with pytest.raises(UncertifiedOnly):
        growth_info(SequenceSpec(1, 1))
    with pytest.raises(UncertifiedOnly):
        growth_info(SequenceSpec(0, -1))


def test_growth_info_serves_exactly_the_certified_specs():
    for a in range(-6, 7):
        for b in (-2, -1, 1, 2, 3):
            for kind in Kind:
                spec = SequenceSpec(a, b, kind)
                if is_certified_spec(spec):
                    info = growth_info(spec)
                    assert abs(info.dominant_root) > 1, spec
                    assert (info.dominant_root > 0) == (a > 0), spec
                else:
                    with pytest.raises(UncertifiedOnly):
                        growth_info(spec)


def test_growth_info_negative_a_certified():
    info = growth_info(SequenceSpec(-2, -1))
    assert is_certified_spec(SequenceSpec(-2, -1))
    assert info.dominant_root == pytest.approx(-1 - 2**0.5, abs=1e-12)


def test_growth_info_b2_heuristic():
    assert not is_certified_spec(SequenceSpec(5, 2))
    with pytest.raises(UncertifiedOnly):
        growth_info(SequenceSpec(5, 2))
