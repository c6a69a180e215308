"""Cyclotomic polynomials and minimal polynomials of 2*cos(2*pi/n).

Everything here is exact integer arithmetic on univariate polynomials
(1-variable MultiPoly instances).  Results are cached per process by
functools.cache.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .exactalg import MultiPoly, poly_divexact

_X = MultiPoly.variable(1, 0)


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
def cyclotomic(n: int) -> MultiPoly:
    """The n-th cyclotomic polynomial, monic with integer coefficients.

    Computed as (x^n - 1) divided by the product of all lower cyclotomic
    polynomials at divisors of n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    numerator = _X**n - 1
    for d in range(1, n):
        if n % d == 0:
            numerator = poly_divexact(numerator, cyclotomic(d))
    return numerator


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
    if n == 1:
        result = _X - 2
    elif n == 2:
        result = _X + 2
    else:
        phi = cyclotomic(n)
        d = phi.degree
        if d % 2 != 0:
            raise AssertionError("cyclotomic degree must be even for n >= 3")
        coeffs = [0] * (d + 1)
        for exps, c in phi.terms:
            coeffs[exps[0]] = c
        if coeffs != coeffs[::-1]:
            raise AssertionError("cyclotomic polynomial must be palindromic")
        half = d // 2
        result = MultiPoly.constant(1, coeffs[half])
        prev, cur = MultiPoly.constant(1, 2), _X
        for j in range(1, half + 1):
            if j > 1:
                prev, cur = cur, _X * cur - prev
            result = result + cur * coeffs[half + j]
    return result


def is_root_of_unity(min_poly: MultiPoly) -> int | None:
    """Order of the root of unity with the given minimal polynomial.

    Input must be monic with integer coefficients in one variable.  Returns
    the n with min_poly equal to the n-th cyclotomic polynomial, or None.
    The search bound 2*d^2 suffices because phi(n) >= sqrt(n/2).
    """
    if min_poly.num_vars != 1 or min_poly.modulus is not None:
        raise ValueError("expected a rational univariate polynomial")
    if min_poly.is_zero() or min_poly.leading()[1] != 1:
        raise ValueError("expected a monic polynomial")
    for _, c in min_poly.terms:
        if c.denominator != 1:
            raise ValueError("expected integer coefficients")
    d = min_poly.degree
    if d < 1:
        return None
    for n in range(1, 2 * d * d + 1):
        if euler_phi(n) == d and cyclotomic(n) == min_poly:
            return n
    return None


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


def rational_two_cos_values() -> frozenset[Fraction]:
    """Exact set of rational values of zeta + 1/zeta over roots of unity."""
    return frozenset(_two_cos_orders())
