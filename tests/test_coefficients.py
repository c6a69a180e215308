"""The coefficient representation: over Q an int when integral, a Fraction
only when its denominator is above 1; over F_p an int in [1, p); never a
float or a bool."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dyndeg import exactalg
from dyndeg.cyclo import rational_two_cos_values
from dyndeg.exactalg import (
    MultiPoly,
    PolynomialParseError,
    format_poly,
    parse_poly,
    poly_divexact,
    poly_gcd,
    substitute_system,
)
from dyndeg.ratmap import ProjectivePoint


def is_canonical(c, modulus=None) -> bool:
    if modulus is not None:
        return type(c) is int and 0 <= c < modulus
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def assert_canonical(poly: MultiPoly) -> None:
    bad = [c for _, c in poly.terms if not (c and is_canonical(c, poly.modulus))]
    assert not bad, f"non-canonical coefficients {bad!r} in {poly!r}"


# Inputs mix ints, bools, integral and proper Fractions, so sums and
# products of proper Fractions can come out integral.  Denominators stay
# prime to the modulus 7, so every input reduces into F_7.
scalars = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.booleans(),
    st.builds(
        Fraction,
        st.integers(min_value=-6, max_value=6),
        st.integers(min_value=1, max_value=3),
    ),
)


@st.composite
def rational_polys(draw, num_vars=2, max_degree=3, max_terms=4):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        exps = tuple(
            draw(st.integers(min_value=0, max_value=max_degree))
            for _ in range(num_vars)
        )
        if sum(exps) <= max_degree:
            terms[exps] = draw(scalars)
    return MultiPoly(num_vars, terms)


def _ring_results(p, q, r, s, t):
    return (p + q, p - q, p * q, p**3, *substitute_system([p, q], [q + s, r - t]))


@given(
    rational_polys(),
    rational_polys(),
    rational_polys(),
    scalars,
    scalars,
    st.sampled_from([None, 7]),
)
@settings(max_examples=160, deadline=None)
def test_results_hold_canonical_coefficients(p, q, r, s, t, modulus):
    if modulus is not None:
        # The reduction oracle: the rational results reduced mod p are the
        # prime-field results on the reduced inputs.
        def reduce(poly):
            return MultiPoly(poly.num_vars, poly.terms, modulus)

        rational = _ring_results(p, q, r, s, t)
        p, q, r = reduce(p), reduce(q), reduce(r)
        assert _ring_results(p, q, r, s, t) == tuple(map(reduce, rational))
    for poly in (p, q, r):
        assert_canonical(poly)
    for poly in (p + q, p - q, p * q, p * s, s * p, p + s, p - s, -p, p**3):
        assert_canonical(poly)
    if not q.is_zero():
        quotient = poly_divexact(p * q, q)
        assert quotient == p
        assert_canonical(quotient)
    assert_canonical(poly_gcd(p * r, q * r))
    assert_canonical(p.canonical())
    for poly in substitute_system([p, q], [q + s, r - t]):
        assert_canonical(poly)
    assert is_canonical(p.evaluate([s, t]), modulus)
    assert is_canonical(p.constant_value(), modulus)


def test_coerce_maps_bools_and_integral_fractions_to_int():
    poly = MultiPoly(1, {(1,): True, (0,): Fraction(6, 3)})
    assert [type(c) for _, c in poly.terms] == [int, int]
    assert poly.terms == (((1,), 1), ((0,), 2))
    half = MultiPoly.constant(1, Fraction(1, 2))
    assert_canonical(half + half)
    assert (half + half).terms == (((0,), 1),)
    with pytest.raises(TypeError):
        MultiPoly.constant(1, 0.5)


def test_projective_point_divides_exactly():
    p = ProjectivePoint([2, 3])
    assert p.coords == (1, Fraction(3, 2))
    assert [type(c) for c in p.coords] == [int, Fraction]
    assert ProjectivePoint([0, 4, 6]).coords == (0, 1, Fraction(3, 2))
    assert ProjectivePoint([Fraction(1, 2), 1]).coords == (1, 2)
    assert all(type(c) is int for c in ProjectivePoint([Fraction(1, 2), 1]).coords)


def test_divexact_by_a_constant_is_exact():
    x = MultiPoly.variable(1, 0)
    half_x = poly_divexact(x, MultiPoly.constant(1, 2))
    assert format_poly(half_x) == "1/2*x"
    assert half_x.terms == (((1,), Fraction(1, 2)),)
    assert poly_divexact(2 * x + 4, MultiPoly.constant(1, 2)).terms == (
        ((1,), 1),
        ((0,), 2),
    )


def test_non_monic_exact_division():
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    d = 2 * x + 3 * y
    q = 5 * x**2 - y + 7
    quotient = poly_divexact(d * q, d)
    assert quotient == q
    assert all(type(c) is int for _, c in quotient.terms)
    q = Fraction(1, 3) * x - Fraction(1, 2) * y + 1
    quotient = poly_divexact(d * q, d)
    assert quotient == q
    assert_canonical(quotient)
    assert format_poly(quotient) == "1/3*X - 1/2*Y + 1"


def test_rational_two_cos_values_are_exact():
    values = rational_two_cos_values()
    assert values == {-2, -1, 0, 1, 2}
    assert all(isinstance(v, Fraction) for v in values)


@pytest.mark.parametrize("modulus", [2.5, "7", True, 7.0])
def test_modulus_must_be_an_int(modulus):
    with pytest.raises(ValueError, match=f"modulus {modulus!r} is not an integer"):
        MultiPoly(2, {}, modulus)


def test_cached_modulus_check_still_refuses():
    for _ in range(2):  # the second round is answered by the cache
        with pytest.raises(ValueError, match="not prime"):
            MultiPoly(2, {}, 91)
        with pytest.raises(ValueError, match="too large"):
            MultiPoly(2, {}, exactalg._MR_LIMIT)


def test_zero_denominator_is_a_parse_error():
    with pytest.raises(PolynomialParseError, match="zero denominator"):
        parse_poly("1/0*x", 1)
    with pytest.raises(PolynomialParseError, match="end of polynomial"):
        parse_poly("1/", 1)


def test_coprime_gcd_builds_one_polynomial(monkeypatch):
    x = MultiPoly.variable(1, 0)
    p, q = x**2 + 1, x**3 + x + 5
    calls = []
    init, build = MultiPoly.__init__, MultiPoly._build.__func__

    def counting_init(self, *args, **kwargs):
        calls.append("init")
        init(self, *args, **kwargs)

    def counting_build(cls, *args):
        calls.append("build")
        return build(cls, *args)

    monkeypatch.setattr(MultiPoly, "__init__", counting_init)
    monkeypatch.setattr(MultiPoly, "_build", classmethod(counting_build))
    g = poly_gcd(p, q)
    monkeypatch.undo()
    assert g == MultiPoly.constant(1, 1)
    assert len(calls) == 1


def test_gcd_with_monomial_content_is_canonical():
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    g = poly_gcd(-3 * x**2 * y * (x - 2 * y), 6 * x * y**2 * (x - 2 * y) * (x + y))
    assert g == x * y * (x - 2 * y)
    assert poly_gcd(x**2 * y, x * y**3 + x**2) == x


def test_gcd_of_forms_is_canonical_after_rehomogenising():
    # Z = 1 turns the common factor into Y^2 - X, whose grlex leading term
    # Y^2 no longer leads once rehomogenised: X*Z comes first in grlex.
    X, Y, Z = (MultiPoly.variable(3, i) for i in range(3))
    g = X * Z - Y**2
    assert g.leading() == ((1, 0, 1), 1)
    assert poly_gcd(g * (X + Y + Z), g * (X - 2 * Y + 3 * Z)) == g
    assert poly_gcd(-g * (X + Y + Z), g * (X - 2 * Y + 3 * Z)) == g


def test_gcd_mod_p_tests_primality_once(monkeypatch):
    def P(text):
        return parse_poly(text, 3, modulus=101)

    g = P("X^2 + 3*X*Z - 2*Y^2")
    a, b = g * P("X + 2*Y - Z"), g * P("Y^2 - X*Z + 5*Z^2")
    exactalg._modulus_is_prime.cache_clear()
    tests = []
    is_prime = exactalg.is_prime

    def counting_is_prime(n):
        tests.append(n)
        return is_prime(n)

    monkeypatch.setattr(exactalg, "is_prime", counting_is_prime)
    assert poly_gcd(a, b) == g
    assert len(tests) <= 1
