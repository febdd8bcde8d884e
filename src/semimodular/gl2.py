"""Exact 2x2 integer matrix algebra for the generator bookkeeping.

Matrices are over arbitrary-precision integers so that Fibonacci-matrix
powers stay exact far past the 64-bit range (F(93) already overflows it).
"""

from __future__ import annotations

from collections import namedtuple

from .lucas import FIBONACCI, seq_value


class IntMat2(namedtuple("IntMat2", "p q r s")):
    """Row-major [[p, q], [r, s]] over Python integers.

    A matrix is the tuple of its entries: `*` between two matrices is the
    matrix product, but `+` and `n * mat` are the tuple operations.
    """

    __slots__ = ()

    def __mul__(self, other: "IntMat2") -> "IntMat2":
        return IntMat2(
            self.p * other.p + self.q * other.r,
            self.p * other.q + self.q * other.s,
            self.r * other.p + self.s * other.r,
            self.r * other.q + self.s * other.s,
        )

    def det(self) -> int:
        return self.p * self.s - self.q * self.r

    def power(self, n: int) -> "IntMat2":
        """n-th power, n >= 0, by repeated squaring."""
        if n < 0:
            raise ValueError("negative powers are not supported; use inverse()")
        result = IDENTITY
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "IntMat2":
        """Adjugate-based exact inverse, defined only for det = +-1."""
        d = self.det()
        if d == 1:
            return IntMat2(self.s, -self.q, -self.r, self.p)
        if d == -1:
            return IntMat2(-self.s, self.q, self.r, -self.p)
        raise ValueError(f"determinant {d} is not a unit; no integer inverse")


IDENTITY = IntMat2(1, 0, 0, 1)
T = IntMat2(1, 1, 0, 1)
U = IntMat2(0, 1, 1, 0)
V = IntMat2(1, 0, 0, -1)
S = IntMat2(0, -1, 1, 0)
P = IntMat2(-1, 1, 0, 1)
M_PRIME = IntMat2(-1, 0, 0, 1)


def mirror_matrix(a: int) -> IntMat2:
    """[[-1, a], [0, 1]]: mirror symmetry around Re(z) = a/2."""
    return IntMat2(-1, a, 0, 1)


def _t_power(a: int) -> IntMat2:
    """T**a for any integer a (T is a unit, so negatives are fine)."""
    return T.power(a) if a >= 0 else T.inverse().power(-a)


def fib_matrix_check(n: int) -> bool:
    """True iff (P*S)**n equals [[F(n+1), F(n)], [F(n), F(n-1)]] exactly."""
    if n < 1:
        raise ValueError("n must be >= 1")
    fib = lambda k: seq_value(FIBONACCI, k)
    expected = IntMat2(fib(n + 1), fib(n), fib(n), fib(n - 1))
    return (P * S).power(n) == expected


def generator_identities() -> list[tuple[str, bool]]:
    """Exact verification of the generator relations used by the symmetry checks."""
    pt = P * T
    results = [
        ("U = PTS", U == P * T * S),
        ("V = SPTS^3", V == S * P * T * S.power(3)),
        ("P_0 = M'", mirror_matrix(0) == M_PRIME),
    ]
    for a in range(-3, 4):
        pa_ta = mirror_matrix(a) * _t_power(a)
        results.append((f"P_{a} T^{a} = PT", pa_ta == pt))
        results.append((f"U = P_{a} T^{a} S", U == pa_ta * S))
        results.append((f"V = S P_{a} T^{a} S^3", V == S * pa_ta * S.power(3)))
    return results
