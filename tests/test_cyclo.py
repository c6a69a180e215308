import math
from fractions import Fraction

import pytest

from dyndeg.cyclo import _cyclotomic_coeffs, _two_cos_orders, cos_min_poly, euler_phi
from dyndeg.exactalg import MultiPoly, _dense, _sparse, parse_poly


def U(text):
    return parse_poly(text, num_vars=1)


x = MultiPoly.variable(1, 0)


def cyclotomic(n):
    """The n-th cyclotomic polynomial from the list cos_min_poly starts from."""
    return _sparse(_cyclotomic_coeffs(n))


class TestCyclotomic:
    def test_small_values(self):
        assert cyclotomic(1) == x - 1
        assert cyclotomic(2) == x + 1
        assert cyclotomic(3) == x**2 + x + 1
        assert cyclotomic(4) == x**2 + 1
        assert cyclotomic(6) == x**2 - x + 1
        assert cyclotomic(12) == x**4 - x**2 + 1

    def test_degree_is_totient(self):
        for n in range(1, 60):
            assert cyclotomic(n).degree == euler_phi(n)

    def test_product_identity(self):
        for n in range(1, 101):
            product = MultiPoly.constant(1, 1)
            for d in range(1, n + 1):
                if n % d == 0:
                    product = product * cyclotomic(d)
            assert product == x**n - 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cos_min_poly(0)
        with pytest.raises(ValueError):
            euler_phi(0)

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("x")
        for n in range(1, 61):
            expected = sympy.Poly(sympy.cyclotomic_poly(n, t), t).all_coeffs()[::-1]
            assert list(_cyclotomic_coeffs(n)) == expected, n


class TestCosMinPoly:
    def test_frozen_examples(self):
        assert cos_min_poly(1) == x - 2
        assert cos_min_poly(2) == x + 2
        assert cos_min_poly(3) == x + 1
        assert cos_min_poly(4) == x
        assert cos_min_poly(5) == x**2 + x - 1
        assert cos_min_poly(6) == x - 1
        assert cos_min_poly(12) == x**2 - 3

    def test_degree_half_totient(self):
        for n in range(3, 80):
            assert cos_min_poly(n).degree == euler_phi(n) // 2

    def test_numeric_root(self):
        for n in range(1, 40):
            value = 2 * math.cos(2 * math.pi / n)
            p = cos_min_poly(n)
            total = sum(float(c) * value ** exps[0] for exps, c in p.terms)
            assert abs(total) < 1e-9

    def test_matches_sympy_minimal_polynomial(self):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("x")
        for n in range(1, 31):
            expected = sympy.minimal_polynomial(2 * sympy.cos(2 * sympy.pi / n), t)
            assert _dense(cos_min_poly(n)) == sympy.Poly(expected, t).all_coeffs()[::-1], n

    def test_monic_integer(self):
        for n in range(1, 40):
            p = cos_min_poly(n)
            assert p.leading()[1] == 1
            assert all(c.denominator == 1 for _, c in p.terms)


class TestRationalTwoCos:
    def test_exact_set(self):
        # w = 2cos(2 pi/n) for the orders n whose minimal polynomial is linear
        assert _two_cos_orders() == {2: 1, -2: 2, -1: 3, 0: 4, 1: 6}
        assert all(isinstance(w, Fraction) for w in _two_cos_orders())

    def test_exhaustive_degree_scan(self):
        # degree-one minimal polynomials occur only for n in {1, 2, 3, 4, 6}
        hits = [n for n in range(1, 201) if cos_min_poly(n).degree == 1]
        assert hits == [1, 2, 3, 4, 6]

    def test_numeric_scan_matches(self):
        # near-rational values of 2cos(2*pi/n) in a primitive-angle scan
        hits = set()
        for n in range(1, 2001):
            value = 2 * math.cos(2 * math.pi / n)
            approx = Fraction(value).limit_denominator(1000)
            if abs(value - float(approx)) <= 1e-9:
                hits.add(n)
        assert hits == {1, 2, 3, 4, 6}
