import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from dyndeg import exactalg
from dyndeg.exactalg import (
    DomainMismatchError,
    MultiPoly,
    NEG_INF,
    NotDivisibleError,
    PolynomialParseError,
    format_poly,
    is_prime,
    parse_poly,
    poly_divexact,
    poly_gcd,
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

    def test_strong_pseudoprime_to_bases_up_to_37_rejected(self):
        n = 399165290221 * 798330580441
        assert not is_prime(n)
        with pytest.raises(ValueError, match="not prime"):
            MultiPoly.variable(1, 0, modulus=n)

    def test_primality_beyond_the_proven_range_refused(self):
        assert is_prime(2**61 - 1)
        with pytest.raises(ValueError, match="too large"):
            is_prime(exactalg._MR_LIMIT)

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
        assert p.canonical().leading()[1] == 1


class TestSubstitutionAndDerivatives:
    def test_substitute_example(self):
        # X -> Y, Y -> Z - Y applied to X*Y + Z^2 gives Y*(Z - Y) + Z^2
        p = X * Y + Z**2
        (image,) = substitute_system([p], [Y, Z - Y, Z])
        assert image == parse_poly("-1*Y^2 + Y*Z + Z^2", num_vars=3)

    def test_vanishing_after_substitution(self):
        # c^2 + a*b vanishes at (a, b, c) = (1, -1, 1)
        a, b, c = (MultiPoly.variable(3, i) for i in range(3))
        v2 = c * c + a * b
        const = lambda k: MultiPoly.constant(3, k)
        assert substitute_system([v2], [const(1), const(-1), const(1)])[0].is_zero()

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
        (lhs,) = substitute_system([f * g], assignment)
        image_f, image_g = substitute_system([f, g], assignment)
        assert lhs == image_f * image_g

    def test_substitute_system_shares_cache(self):
        forms = [X * Y, X * Y + Z**2, Y * Z]
        assignment = [X + Y, Y + Z, Z + X]
        batched = substitute_system(forms, assignment)
        single = [substitute_system([f], assignment)[0] for f in forms]
        assert batched == single

    @pytest.mark.parametrize("modulus", [None, 7])
    def test_substitute_system_multiplies_nothing_by_one(self, monkeypatch, modulus):
        x, y, z = (MultiPoly.variable(3, i, modulus) for i in range(3))
        one = MultiPoly.constant(3, 1, modulus)
        forms = [x * y + 3, x**3 - y**2 * z, z + 2 * x * z**2]
        assignment = [x + y, y * z - 1, 2 * z + x]
        a, b, c = assignment
        expected = [
            sum(
                (k * a ** e[0] * b ** e[1] * c ** e[2] for e, k in f.terms),
                MultiPoly.zero(3, modulus),
            )
            for f in forms
        ]
        original = MultiPoly.__mul__
        operands = []

        def spy(left, right):
            operands.extend((left, right))
            return original(left, right)

        monkeypatch.setattr(MultiPoly, "__mul__", spy)
        got = substitute_system(forms, assignment)
        monkeypatch.undo()
        assert got == expected
        assert operands and all(operand != one for operand in operands)


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
        assert exactalg._gcd_quotients(polys)[0] == common

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
    def test_chain_rule_determinant(self, jacobian):
        # jacobian(F o L) = det(M) * jacobian(F) o L for linear L: the
        # composition substitute_system builds obeys the chain rule
        forms = [X * Y, Y * Z + X**2, Z**2 - X * Y]
        m = [[1, 2, 0], [0, 1, 1], [1, 0, 1]]  # det = 3
        linear = [
            m[0][0] * X + m[0][1] * Y + m[0][2] * Z,
            m[1][0] * X + m[1][1] * Y + m[1][2] * Z,
            m[2][0] * X + m[2][1] * Y + m[2][2] * Z,
        ]
        lhs = jacobian(substitute_system(forms, linear))
        rhs = substitute_system([jacobian(forms)], linear)[0] * 3
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


@pytest.fixture
def rational_divisions(monkeypatch):
    """The divisors of the trial divisions over Q, the _divide_terms calls
    without a modulus, as polynomials."""
    divisions = []
    divide = exactalg._divide_terms

    def spy(rem, d, p=None):
        if p is None:
            divisions.append(MultiPoly(len(d[0][0]), dict(d)))
        return divide(rem, d, p)

    monkeypatch.setattr(exactalg, "_divide_terms", spy)
    return divisions


def test_gcd_skips_trial_division_only_for_constant_gcd(rational_divisions):
    x = MultiPoly.variable(1, 0)
    assert poly_gcd((x + 1) * (x - 2), (x + 3) * (x - 5)) == MultiPoly.constant(1, 1)
    assert rational_divisions == []
    assert poly_gcd((x + 1) * (x - 2), (x + 1) * (x - 5)) == x + 1
    assert rational_divisions == [x + 1, x + 1]


def test_gcd_certifies_once(rational_divisions):
    """A homogeneous pair with a planted quadratic factor is dehomogenised
    and trial-divided once, in the modular gcd, and nowhere else."""
    g = X**2 + 3 * X * Z - 2 * Y**2
    a, b = g * (X + 2 * Y - Z), g * (Y**2 - X * Z + 5 * Z**2)
    assert poly_gcd(a, b) == g
    assert len(rational_divisions) == 2


# -- evaluation and powers ----------------------------------------------------


def reference_value(p, values):
    """p at values over Q, term by term with `pow`, sharing nothing."""
    return sum(
        (
            Fraction(c) * math.prod(pow(Fraction(v), e) for v, e in zip(values, exps))
            for exps, c in p.terms
        ),
        Fraction(0),
    )


def in_field(value, modulus):
    """A rational value, or its image in F_p when modulus = p."""
    if modulus is None:
        return value
    return value.numerator * pow(value.denominator, -1, modulus) % modulus


values = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)


@given(polys(max_degree=4, max_terms=8), st.lists(values, min_size=3, max_size=3))
@settings(max_examples=80, deadline=None)
def test_evaluate_matches_term_by_term_powers(p, point):
    assert p.evaluate(point) == reference_value(p, point)


@pytest.mark.parametrize("modulus", [7, 101])
@given(polys(max_degree=4, max_terms=8), st.lists(values, min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_evaluate_mod_p_matches_term_by_term_powers(modulus, p, point):
    """Over F_p, the value is the rational value of p's F_p coefficients
    (ints in [1, p)) at the point, reduced mod p."""
    assume(all(Fraction(v).denominator % modulus for v in point))
    p = MultiPoly(3, dict(p.terms), modulus)
    got = p.evaluate(point)
    assert 0 <= got < modulus
    assert got == in_field(reference_value(p, point), modulus)


@pytest.mark.parametrize("modulus", [None, 7])
def test_evaluate_shares_powers_across_terms(modulus):
    """Terms that share powers of one variable, zero, negative and
    fractional values."""
    terms = {(2, 1, 0): 3, (2, 0, 1): -1, (2, 0, 0): 5, (4, 1, 0): 2, (0, 3, 0): 1}
    p = MultiPoly(3, {**terms, (0, 0, 0): 4}, modulus)
    points = ([2, -3, 0], [0, 0, 0], [Fraction(-1, 2), 5, Fraction(2, 3)], [-1, -1, -1])
    for point in points:
        assert p.evaluate(point) == in_field(reference_value(p, point), modulus)


def test_evaluate_mod_p_reduces_every_product(monkeypatch):
    """Over F_p every power and monomial product that evaluate reads from
    _monomials lies in [0, p), and the value is the pow(x, e, p) one."""
    p = 2**61 - 1
    seen = []
    table = exactalg._monomials

    def recording(values, mul):
        product = table(values, mul)
        return lambda exps: seen.append(product(exps)) or seen[-1]

    monkeypatch.setattr(exactalg, "_monomials", recording)
    rng = random.Random(3000)
    coeffs = [rng.randrange(1, p) for _ in range(301)]
    f = MultiPoly(1, {(e,): c for e, c in enumerate(coeffs)}, p)
    x = rng.randrange(2, p)
    assert f.evaluate([x]) == sum(c * pow(x, e, p) for e, c in enumerate(coeffs)) % p
    assert len(seen) == len(coeffs)
    assert all(v is None or 0 <= v < p for v in seen)


@pytest.mark.parametrize("modulus", [None, 7])
def test_pow_zero_of_zero_and_nonzero_is_one(modulus):
    one = MultiPoly.constant(3, 1, modulus)
    assert MultiPoly.zero(3, modulus) ** 0 == one
    assert MultiPoly(3, {(1, 2, 0): 3, (0, 0, 1): 1}, modulus) ** 0 == one
    with pytest.raises(ValueError):
        one ** -1


def test_power_squares_no_further_than_the_top_bit():
    """_power makes one squaring per bit of e after the top one and one
    multiply per set bit after the lowest, none with `one`."""
    calls = []

    def mul(a, b):
        calls.append((a, b))
        return a * b

    for e in range(40):
        calls.clear()
        assert exactalg._power(3, e, 1, mul) == 3**e
        assert len(calls) == max(e.bit_length() + bin(e).count("1") - 2, 0)
        assert all(1 not in pair for pair in calls)


def test_extension_inverses_and_order():
    """In F_49 = exactalg._extension(7, 2), every nonzero x has x * x^-1 = 1
    and x^48 = 1, whether x lies in F_7 (an int) or not."""
    field = exactalg._extension(7, 2)
    points = list(field.points())
    assert len(points) == 48
    for x in points:
        assert x * pow(x, -1, field) % field == 1
        assert pow(x, 48, field) == 1
        assert exactalg._coeffs(pow(x, 49, field)) == exactalg._coeffs(x)


# -- packed composition -------------------------------------------------------


def sparse_substitute(polys, assignment, term_cap=None):
    """substitute_system on its sparse loop, the packed path switched off."""
    with mock.patch.object(exactalg, "_packed_substitute", lambda *args: None):
        return substitute_system(polys, assignment, term_cap=term_cap)


nonzero_coeffs = st.one_of(
    st.integers(-3, -1),
    st.integers(1, 3),
    st.integers(2**61, 2**64),
    st.integers(-(2**64), -(2**61)),
)


@st.composite
def forms(draw, num_vars, degree, modulus):
    """A nonzero form of one degree; zero coefficients leave gaps."""
    exps = [
        e for e in itertools.product(range(degree + 1), repeat=num_vars) if sum(e) == degree
    ]
    terms = {e: draw(st.just(0) | nonzero_coeffs) for e in exps if draw(st.booleans())}
    terms[draw(st.sampled_from(exps))] = draw(nonzero_coeffs)
    poly = MultiPoly(num_vars, terms, modulus)
    assume(not poly.is_zero())
    return poly


@st.composite
def compositions(draw, modulus):
    """(outer forms, assignment forms of one degree) the packed path takes."""
    nv = draw(st.integers(2, 3))
    inner = draw(st.integers(1, 3))
    assignment = [draw(forms(nv, inner, modulus)) for _ in range(nv)]
    outer = [draw(forms(nv, draw(st.integers(0, 2)), modulus)) for _ in range(2)]
    return outer, assignment


@pytest.mark.parametrize("modulus", [None, 7, 101, 2**61 - 1])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_packed_composition_equals_the_sparse_loop(modulus, data):
    outer, assignment = data.draw(compositions(modulus))
    packed = exactalg._packed_substitute(outer, assignment, None)
    assume(packed is not None)  # slots wider than the cap stay sparse
    assert packed == sparse_substitute(outer, assignment)
    assert substitute_system(outer, assignment) == packed


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("width", [1, 8, 9, 31])
def test_packed_slot_width_holds_its_bound(sign, width):
    """Output coefficients of 2^(8 * width - 1) and -(2^(8 * width - 1) + 1),
    the bound of Sum |c_e| * Prod ||G_i||_1^(e_i) reached, need the sign
    bit of a slot one byte wider: one bit less and the digit reads back
    wrong.  -2^(8 * width - 1) itself fits width signed bytes, so it would
    not pin the width; 2^(8 * width - 1) + 1 is a multiple of 3, as
    8 * width - 1 is odd."""
    x, y = (MultiPoly.variable(2, i) for i in range(2))
    top = 8 * width - 1
    peak, split = (2**top, 2 ** (top // 2)) if sign > 0 else (-(2**top + 1), 3)
    cases = [
        ([x], [peak * x, y]),  # the bound is an input's norm
        ([x * y], [split * x, (peak // split) * y]),  # a product's
    ]
    for outer, assignment in cases:
        packed = exactalg._packed_substitute(outer, assignment, None)
        assert packed is not None
        assert packed == sparse_substitute(outer, assignment)
        assert packed[0].terms[0][1] == peak


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("width", [1, 8, 9, 31])
def test_one_variable_slot_width_holds_its_bound(sign, width):
    """T -> 2^B: the product 2^a T * (sign 2^b T^2) = sign 2^(8 * width - 1) T^3
    reaches the bound, so _packed_sums widens the slot by one byte; the
    digits read back are the product's."""
    top = 8 * width - 1
    inner = [[(1, 2 ** (top // 2))], [(2, sign * 2 ** (top - top // 2))]]
    got_width, sums = exactalg._packed_sums([[((1, 1), 1)]], inner)
    assert got_width == width + 1
    assert exactalg._unpack(sums[0], range(4), 4, got_width) == [0, 0, 0, sign * 2**top]
    assert exactalg._packed_sums([[((1, 1), 1)]], inner, 8 * width) is None


def test_packed_slot_width_cap():
    """Slots of 256 bits are packed; one more byte goes to the sparse loop."""
    x, y = (MultiPoly.variable(2, i) for i in range(2))
    for top, packs in ((247, True), (255, False)):
        assignment = [2**top * (x + y), x - y]  # ||G_0||_1 = 2^(top + 1)
        outer = [x, y]
        packed = exactalg._packed_substitute(outer, assignment, None)
        assert (packed is not None) == packs
        assert substitute_system(outer, assignment) == sparse_substitute(outer, assignment)


def test_packed_dispatch_at_the_term_cap(monkeypatch):
    """A quartic plane output has C(6, 2) = 15 slots: a cap of 15 packs and
    gives the uncapped forms; a cap of 14 stays on the sparse loop and
    raises after the same additions as the sparse loop does alone."""
    f = [(X + Y + Z) ** 2, (X - Y) ** 2 + Z**2, X * Y + Y * Z + Z**2]
    full = sparse_substitute(f, f)
    assert len(full[0].terms) == 15
    assert exactalg._packed_substitute(f, f, 15) == full
    assert substitute_system(f, f, term_cap=15) == full
    assert exactalg._packed_substitute(f, f, 14) is None
    added = []
    plain_add = MultiPoly.__add__

    def counting_add(p, q):
        added.append(1)
        return plain_add(p, q)

    monkeypatch.setattr(MultiPoly, "__add__", counting_add)
    counts = []
    for run in (substitute_system, sparse_substitute):
        added.clear()
        with pytest.raises(exactalg.TermCapExceeded):
            run(f, f, term_cap=14)
        counts.append(len(added))
    assert counts[0] == counts[1] > 0


def test_packed_path_skips_parameters_fractions_and_zero_forms():
    x, y, z = (MultiPoly.variable(3, i) for i in range(3))
    assert exactalg._packed_substitute([x * y], [x, y, x + z], None) is not None
    for outer, assignment in (
        ([x * y], [x, y * z, z]),  # forms of two degrees, as a parameter's X_k
        ([x * y], [Fraction(1, 2) * x, y, z]),  # a Fraction coefficient
        ([x * y], [x, MultiPoly.zero(3), z]),  # a zero form
        ([x * y + z], [x, y, z]),  # an outer polynomial that is no form
    ):
        assert exactalg._packed_substitute(outer, assignment, None) is None
        assert substitute_system(outer, assignment) == sparse_substitute(outer, assignment)
    t = MultiPoly.variable(1, 0)
    assert exactalg._packed_substitute([t * t], [3 * t], None) is None


@given(st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=30), st.integers(9, 12))
@settings(max_examples=60, deadline=None)
def test_pack_unpack_round_trip(digits, width):
    size = len(digits)
    value = exactalg._pack(enumerate(digits), size, width)
    assert value == sum(c << (8 * width * k) for k, c in enumerate(digits))
    assert exactalg._unpack(value, range(size), size, width) == digits


# -- rational division on integers --------------------------------------------


def test_failing_rational_candidate_builds_no_fraction(monkeypatch):
    """A primitive candidate whose leading coefficient stops dividing is
    refused on the spot: no Fraction is formed."""

    class NoFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            raise AssertionError("a Fraction was built")

    monkeypatch.setattr(exactalg, "Fraction", NoFraction)
    x, y = (MultiPoly.variable(2, i) for i in range(2))
    d = 2 * x + 3 * y
    for n in (x * x + y * y, d * (x - y) + y * y, d * (5 * x + y) + 2 * y):
        rem = dict(n.terms)
        assert exactalg._divide_terms(rem, d.terms) is None
    assert exactalg._certify(dict((d * (x + y)).terms), [dict((d * x).terms), {(0, 2): 1}]) is None


@st.composite
def fraction_polys(draw):
    terms = {
        (draw(st.integers(0, 2)), draw(st.integers(0, 2))): draw(
            st.fractions(min_value=-4, max_value=4, max_denominator=6)
        )
        for _ in range(draw(st.integers(1, 4)))
    }
    return MultiPoly(2, terms)


@given(fraction_polys(), fraction_polys(), fraction_polys())
@settings(max_examples=60, deadline=None)
def test_divexact_on_fractions_matches_sympy(p, q, r):
    sympy = pytest.importorskip("sympy")
    assume(not q.is_zero())
    gens = sympy.symbols("x y")

    def to_sympy(m):
        return sympy.Poly.from_dict(
            {e: sympy.Rational(c.numerator, c.denominator) for e, c in m.terms} or {(0, 0): 0},
            *gens,
            domain="QQ",
        )

    n = p * q + r
    quo, rem = sympy.div(to_sympy(n), to_sympy(q))
    if rem.is_zero:
        got = poly_divexact(n, q)
        assert to_sympy(got) == quo
    else:
        with pytest.raises(NotDivisibleError):
            poly_divexact(n, q)
