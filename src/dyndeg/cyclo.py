"""Cyclotomic polynomials and minimal polynomials of 2*cos(2*pi/n).

Everything here is exact integer arithmetic on ascending coefficient
lists; cos_min_poly returns a 1-variable MultiPoly built once from its
list.  Results are cached per process by functools.cache.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .exactalg import MultiPoly, _sparse


def euler_phi(n: int) -> int:
    """Euler totient via trial-division factorization."""
    if n < 1:
        raise ValueError("n must be positive")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@functools.cache
def _cyclotomic_coeffs(n: int) -> tuple[int, ...]:
    """Ascending coefficients of x^n - 1 divided, exactly, by the monic
    cyclotomic polynomials at the divisors d < n, one at a time."""
    a = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            b = _cyclotomic_coeffs(d)
            q = [0] * (len(a) - len(b) + 1)
            for i in range(len(q) - 1, -1, -1):
                c = q[i] = a[i + len(b) - 1]
                for j, bj in enumerate(b):
                    a[i + j] -= c * bj
            if any(a):
                raise ArithmeticError(f"cyclotomic({d}) does not divide")
            a = q
    return tuple(a)


@functools.cache
def cos_min_poly(n: int) -> MultiPoly:
    """Minimal polynomial of 2*cos(2*pi/n), monic over the integers.

    For n >= 3 the n-th cyclotomic polynomial is palindromic of even degree
    d; dividing by z^(d/2) and rewriting z^j + z^-j in the variable
    w = z + 1/z yields a monic polynomial of degree d/2 whose root is
    2*cos(2*pi/n).  The rewriting walks C_0 = 2, C_1 = w,
    C_{j+1} = w*C_j - C_{j-1}, with C_j(z + 1/z) = z^j + z^-j, once.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n <= 2:
        return _sparse([-2 if n == 1 else 2, 1])
    coeffs = _cyclotomic_coeffs(n)
    d = len(coeffs) - 1
    if d % 2 != 0:
        raise AssertionError("cyclotomic degree must be even for n >= 3")
    if coeffs != coeffs[::-1]:
        raise AssertionError("cyclotomic polynomial must be palindromic")
    half = d // 2
    result = [coeffs[half]] + [0] * half
    prev, cur = [2], [0, 1]
    for j in range(1, half + 1):
        for i, c in enumerate(cur):
            result[i] += c * coeffs[half + j]
        prev, cur = cur, [x - y for x, y in zip([0] + cur, prev + [0, 0])]
    return _sparse(result)


@functools.cache
def _two_cos_orders() -> dict[Fraction, int]:
    """The rational values w of zeta + 1/zeta over roots of unity, each with
    the order n of zeta, so that w = 2*cos(2*pi/n).

    Read off the degree-one minimal polynomials of 2*cos(2*pi/n): the
    totient bound phi(n) >= sqrt(n/2) confines degree-one cases to n <= 8.
    """
    orders = {}
    for n in range(1, 9):
        p = cos_min_poly(n)
        if p.degree == 1:
            orders[Fraction(-p.evaluate([0]), p.leading()[1])] = n
    return orders
