import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from dyndeg import exactalg
from dyndeg.exactalg import (
    DomainMismatchError,
    Fp,
    MultiPoly,
    NEG_INF,
    NotDivisibleError,
    PolynomialParseError,
    format_poly,
    jacobian_det,
    parse_poly,
    poly_divexact,
    poly_gcd,
    poly_gcd_many,
    substitute_system,
)


def P3(text):
    return parse_poly(text, num_vars=3)


X, Y, Z = (MultiPoly.variable(3, i) for i in range(3))


class TestArithmetic:
    def test_product_example(self):
        assert (X + Y) * (X - Y) == X**2 - Y**2

    def test_zero_degree_marker(self):
        zero = MultiPoly.zero(3)
        assert zero.degree == NEG_INF
        assert zero.degree != -1
        assert (X - X).degree == NEG_INF

    def test_degree_of_sum_cancellation(self):
        p = X**2 + Y
        q = -(X**2) + Y
        assert (p + q).degree == 1

    def test_pow_zero_is_one(self):
        assert (X + Y) ** 0 == MultiPoly.constant(3, 1)

    def test_scalar_mixing(self):
        assert 2 * X == X + X
        assert X * Fraction(1, 2) + X * Fraction(1, 2) == X

    def test_variable_count_mismatch(self):
        with pytest.raises(DomainMismatchError):
            X + MultiPoly.variable(2, 0)

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatchError):
            X + MultiPoly.variable(3, 0, modulus=7)

    def test_prime_field_arithmetic(self):
        x = MultiPoly.variable(1, 0, modulus=5)
        p = (x + 2) * (x + 3)
        assert p == x**2 + 1  # (x+2)(x+3) = x^2+5x+6 = x^2+1 mod 5

    def test_composite_modulus_rejected(self):
        with pytest.raises(ValueError):
            MultiPoly.variable(1, 0, modulus=6)

    def test_canonical_scaling(self):
        p = X * Fraction(-2, 3) + Y * Fraction(4, 3)
        c = p.canonical()
        assert c == X - 2 * Y or c == -(X) + 2 * Y
        lead_exps, lead_coeff = c.leading()
        assert lead_coeff > 0
        assert c.canonical() == c

    def test_canonical_monic_mod_p(self):
        x = MultiPoly.variable(1, 0, modulus=7)
        p = 3 * x**2 + 4 * x
        assert p.canonical().leading()[1] == Fp(1, 7)


class TestSubstitutionAndDerivatives:
    def test_substitute_example(self):
        # X -> Y, Y -> Z - Y applied to X*Y + Z^2 gives Y*(Z - Y) + Z^2
        p = X * Y + Z**2
        image = p.substitute([Y, Z - Y, Z])
        assert image == parse_poly("-1*Y^2 + Y*Z + Z^2", num_vars=3)

    def test_vanishing_after_substitution(self):
        # c^2 + a*b vanishes at (a, b, c) = (1, -1, 1)
        a, b, c = (MultiPoly.variable(3, i) for i in range(3))
        v2 = c * c + a * b
        const = lambda k: MultiPoly.constant(3, k)
        assert v2.substitute([const(1), const(-1), const(1)]).is_zero()

    def test_evaluate(self):
        p = X**2 + 2 * Y * Z
        assert p.evaluate([Fraction(2), Fraction(3), Fraction(1, 2)]) == 7

    def test_partial(self):
        p = X**3 * Y + Z
        assert p.partial(0) == 3 * X**2 * Y
        assert p.partial(2) == MultiPoly.constant(3, 1)

    def test_substitute_distributes(self):
        f = X**2 - Y * Z
        g = Y + Z
        assignment = [Y * Z, X + Z, X - Y]
        lhs = (f * g).substitute(assignment)
        rhs = f.substitute(assignment) * g.substitute(assignment)
        assert lhs == rhs

    def test_substitute_system_shares_cache(self):
        forms = [X * Y, X * Y + Z**2, Y * Z]
        assignment = [X + Y, Y + Z, Z + X]
        batched = substitute_system(forms, assignment)
        single = [f.substitute(assignment) for f in forms]
        assert batched == single


class TestDivisionAndGcd:
    def test_divexact(self):
        p = (X + Y) * (X - Y + Z) * 3
        assert poly_divexact(p, X + Y) == (X - Y + Z) * 3

    def test_divexact_raises(self):
        with pytest.raises(NotDivisibleError):
            poly_divexact(X**2 + Y, X + Y)

    def test_gcd_example(self):
        # gcd(X^2 - Y^2, X^2 + 2XY + Y^2) = X + Y
        g = poly_gcd(X**2 - Y**2, X**2 + 2 * X * Y + Y**2)
        assert g == X + Y

    def test_gcd_with_zero(self):
        g = poly_gcd(MultiPoly.zero(3), 3 * X)
        assert g == X

    def test_gcd_coprime_monomials(self):
        assert poly_gcd(X * Y, Z**2) == MultiPoly.constant(3, 1)

    def test_gcd_zero_zero(self):
        z = MultiPoly.zero(3)
        assert poly_gcd(z, z).is_zero()

    def test_gcd_many(self):
        common = X + 2 * Z
        polys = [common * X, common * (Y - Z), common * common]
        assert poly_gcd_many(polys) == common

    def test_gcd_symmetric_and_canonical(self):
        p = (X + Y) ** 2 * (X - Z)
        q = (X + Y) * (Y + Z) ** 2
        g1 = poly_gcd(p, q)
        g2 = poly_gcd(q, p)
        assert g1 == g2 == X + Y

    def test_gcd_univariate_int_coefficients(self):
        x = MultiPoly.variable(1, 0)
        p = (x - 1) * (x**2 + 1) * 6
        q = (x - 1) * (x + 5) * 4
        assert poly_gcd(p, q) == x - 1

    def test_gcd_mod_p(self):
        x = MultiPoly.variable(2, 0, modulus=7)
        y = MultiPoly.variable(2, 1, modulus=7)
        p = (x + y) * (x + 2 * y)
        q = (x + y) * (x + 3 * y)
        g = poly_gcd(p, q)
        assert g == (x + y).canonical()

    def test_gcd_content_interaction(self):
        # polynomial content in the main variable must be handled
        p = (Y + Z) * (X**2) + (Y + Z) * Y * X
        q = (Y + Z) * X * Z
        g = poly_gcd(p, q)
        assert g == (Y + Z) * X


class TestJacobian:
    def test_diagonal_forms(self):
        forms = [X**2, Y**2, Z**2]
        assert jacobian_det(forms) == 8 * X * Y * Z

    def test_family_map_jacobian(self):
        # forms in (X, Y, Z) with symbolic coefficients (a, b, c) riding along
        nv = 6
        vs = [MultiPoly.variable(nv, i) for i in range(nv)]
        x, y, z, a, b, c = vs
        forms = [x * y, x * y + a * z**2, b * y * z + c * z**2]
        j = jacobian_det(forms, wrt=(0, 1, 2))
        assert j == -2 * a * b * y * z**2

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            jacobian_det([X, Y], wrt=(0, 1, 2))

    def test_chain_rule_determinant(self):
        # jacobian(F o L) = det(M) * jacobian(F) o L for linear L
        forms = [X * Y, Y * Z + X**2, Z**2 - X * Y]
        m = [[1, 2, 0], [0, 1, 1], [1, 0, 1]]  # det = 3
        linear = [
            m[0][0] * X + m[0][1] * Y + m[0][2] * Z,
            m[1][0] * X + m[1][1] * Y + m[1][2] * Z,
            m[2][0] * X + m[2][1] * Y + m[2][2] * Z,
        ]
        lhs = jacobian_det([f.substitute(linear) for f in forms])
        rhs = jacobian_det(forms).substitute(linear) * 3
        assert lhs == rhs


class TestTextFormat:
    def test_format_example(self):
        p = X * Y - Z**2 * Fraction(3, 2)
        assert format_poly(p) == "X*Y - 3/2*Z^2"

    def test_parse_example(self):
        assert P3("X*Y - 3/2*Z^2") == X * Y - Z**2 * Fraction(3, 2)

    def test_parse_juxtaposition(self):
        assert P3("XY + Z^2") == X * Y + Z**2

    def test_parse_leading_minus(self):
        assert P3("-1*Y*Z+Z^2") == -(Y * Z) + Z**2

    def test_custom_var_names(self):
        t = MultiPoly.variable(1, 0)
        p = t**2 + 1
        assert format_poly(p, var_names=("T",)) == "T^2 + 1"
        assert parse_poly("T^2+1", var_names=("T",)) == p

    def test_parse_rejects_garbage(self):
        with pytest.raises(PolynomialParseError):
            P3("X + $")
        with pytest.raises(PolynomialParseError):
            P3("")

    def test_round_trip_exact(self):
        samples = [
            X**3 - Y * Z * Fraction(7, 5) + MultiPoly.constant(3, 2),
            -X + Y - Z,
            MultiPoly.zero(3),
            MultiPoly.constant(3, Fraction(-9, 4)),
        ]
        for p in samples:
            assert P3(format_poly(p)) == p


# -- property tests ----------------------------------------------------------

coeffs = st.integers(min_value=-5, max_value=5)


@st.composite
def polys(draw, num_vars=3, max_degree=3, max_terms=5, modulus=None):
    n_terms = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(
            draw(st.integers(min_value=0, max_value=max_degree))
            for _ in range(num_vars)
        )
        if sum(exps) > max_degree:
            continue
        terms[exps] = Fraction(draw(coeffs))
    return MultiPoly(num_vars, terms, modulus)


@given(polys(), polys())
@settings(max_examples=60, deadline=None)
def test_mul_commutative(p, q):
    assert p * q == q * p


@given(polys(), polys(), polys())
@settings(max_examples=40, deadline=None)
def test_mul_associative(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(polys(), polys())
@settings(max_examples=60, deadline=None)
def test_degree_of_product_adds(p, q):
    if p.is_zero() or q.is_zero():
        assert (p * q).degree == NEG_INF
    else:
        assert (p * q).degree == p.degree + q.degree


@given(polys(), polys(), polys())
@settings(max_examples=30, deadline=None)
def test_gcd_divides_common_multiple(p, q, r):
    if r.is_zero():
        return
    g = poly_gcd(p * r, q * r)
    if p.is_zero() and q.is_zero():
        return
    # g must be divisible by the canonical form of r
    poly_divexact(g, r.canonical())


@given(polys(), polys())
@settings(max_examples=40, deadline=None)
def test_product_divided_by_factor(p, q):
    if q.is_zero():
        return
    assert poly_divexact(p * q, q) == p


@st.composite
def remainder_cases(draw, modulus=None):
    """(p, q, r) with q nonconstant, r nonzero and deg r < deg q."""
    q = draw(polys(modulus=modulus))
    assume(not q.is_constant())
    p = draw(polys(modulus=modulus))
    r = draw(polys(max_degree=q.degree - 1, modulus=modulus))
    assume(not r.is_zero())
    return p, q, r


@given(remainder_cases())
@settings(max_examples=60, deadline=None)
def test_divexact_rejects_nonzero_low_remainder(case):
    # q | p*q + r would force q | r, impossible for r != 0 of lower degree.
    p, q, r = case
    n = p * q + r
    if not p.is_zero():
        # The leading term is lead(p)*lead(q): the first step divides
        # cleanly and the failure comes from a later remainder.
        assert n.leading()[0] == tuple(
            a + b for a, b in zip(p.leading()[0], q.leading()[0])
        )
    with pytest.raises(NotDivisibleError):
        poly_divexact(n, q)


@given(polys(modulus=7), polys(modulus=7))
@settings(max_examples=40, deadline=None)
def test_product_divided_by_factor_mod_7(p, q):
    if q.is_zero():
        return
    assert poly_divexact(p * q, q) == p


@given(polys(), st.integers(min_value=0, max_value=2))
@settings(max_examples=40, deadline=None)
def test_univar_round_trip(p, v):
    if p.is_zero():
        return
    assert exactalg._from_univar(exactalg._as_univar(p, v), v, 3, None) == p


def test_divexact_builds_no_polynomial_per_quotient_term(monkeypatch):
    q = (X + 2 * Y + 3 * Z + 1) ** 7
    d = X**2 - Y * Z + 2
    n = q * d
    assert 190 <= len(n.terms) <= 230
    calls = []
    init = MultiPoly.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MultiPoly, "__init__", counting_init)
    quotient = poly_divexact(n, d)
    monkeypatch.undo()
    assert quotient == q
    assert len(calls) <= 2


def test_gcd_skips_trial_division_only_for_constant_gcd(monkeypatch):
    x = MultiPoly.variable(1, 0)
    divisions = []
    divexact = exactalg.poly_divexact

    def counting_divexact(p, d):
        divisions.append(d)
        return divexact(p, d)

    monkeypatch.setattr(exactalg, "poly_divexact", counting_divexact)
    assert poly_gcd((x + 1) * (x - 2), (x + 3) * (x - 5)) == MultiPoly.constant(1, 1)
    assert divisions == []
    assert poly_gcd((x + 1) * (x - 2), (x + 1) * (x - 5)) == x + 1
    assert divisions == [x + 1, x + 1]
