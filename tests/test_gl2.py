"""Exact matrix algebra and generator identities."""

import random

import pytest

from semimodular import (
    FIBONACCI,
    IDENTITY,
    IntMat2,
    M_PRIME,
    P,
    S,
    T,
    U,
    V,
    fib_matrix_check,
    generator_identities,
    mirror_matrix,
    seq_value,
)


def test_named_constants():
    assert T == (1, 1, 0, 1)
    assert U == (0, 1, 1, 0)
    assert V == (1, 0, 0, -1)
    assert S == (0, -1, 1, 0)
    assert P == (-1, 1, 0, 1)
    assert M_PRIME == (-1, 0, 0, 1)
    assert mirror_matrix(3) == (-1, 3, 0, 1)


def test_determinants():
    assert S.det() == 1
    assert P.det() == -1
    assert M_PRIME.det() == -1
    assert T.det() == 1


def test_inversion_order_four():
    assert S.power(4) == IDENTITY
    assert S.power(2) == IntMat2(-1, 0, 0, -1)


def test_fibonacci_matrix():
    assert P * S == (1, 1, 1, 0)
    assert (P * S).power(3) == (3, 2, 2, 1)
    assert (P * S).power(1) == (1, 1, 1, 0)


@pytest.mark.parametrize("n", list(range(1, 51)))
def test_fib_matrix_check(n):
    assert fib_matrix_check(n)


def test_fib_matrix_check_big_entries():
    mat = (P * S).power(50)
    assert mat.p == int(seq_value(FIBONACCI, 51))
    assert mat.p == 20365011074
    assert mat.p.bit_length() > 32


def test_generator_identities_all_true():
    results = generator_identities()
    assert len(results) == 3 + 7 * 3
    assert all(ok for _, ok in results), [n for n, ok in results if not ok]


def test_det_multiplicative():
    rng = random.Random(1234)
    for _ in range(200):
        a = IntMat2(*(rng.randint(-1000, 1000) for _ in range(4)))
        b = IntMat2(*(rng.randint(-1000, 1000) for _ in range(4)))
        assert (a * b).det() == a.det() * b.det()


def test_inverse_adjugate():
    for mat in (T, U, V, S, P, M_PRIME, mirror_matrix(-3), P * T * S):
        assert mat * mat.inverse() == IDENTITY
        assert mat.inverse() * mat == IDENTITY
    with pytest.raises(ValueError):
        IntMat2(2, 0, 0, 2).inverse()


def test_power_rejects_negative():
    with pytest.raises(ValueError):
        T.power(-1)
