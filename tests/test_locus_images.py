"""Coprimality of locus slices decided on their images mod 2^61 - 1.

`_slice_overlaps` skips the exact gcd of a pair only when the images of
both slices exist (the prime divides neither leading coefficient) and have
a constant gcd; `_distinct_root_count` skips the exact squarefree part only
when an image is coprime to its derivative.  The cases here plant common
and repeated factors, one of them with leading coefficient 2^61 - 1, and
compare against the exact gcd and sympy's squarefree part.  sympy is an
oracle for tests only.

Given the field degree h_n = deg Psi_n of each order, `_slice_overlaps`
first skips a pair of locus slices when lcm(h_n, h_m) exceeds the smaller
slice degree.  Real slices of five families, one of them with an order-3
slice of degree 1, check that every skipped pair has a constant exact gcd
and that the screen changes no answer; the pair (T, 1, 1), (2T, 2, 2),
whose slices have degree exactly h_n, checks the strict inequality.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dyndeg.cyclo import cos_min_poly
from dyndeg.exactalg import MultiPoly, _prime, _univariate_image, poly_gcd
from dyndeg.fabc import (
    FamilyParams,
    PairOverlap,
    _distinct_root_count,
    _locus_polys,
    _slice_overlaps,
    unlikely_intersection_explorer,
)

sympy = pytest.importorskip("sympy")

T = MultiPoly.variable(1, 0)
P = 2**61 - 1


def sqf_degree(poly: MultiPoly) -> int:
    t = sympy.Symbol("T")
    expr = sum(
        sympy.Rational(Fraction(c).numerator, Fraction(c).denominator) * t ** e[0]
        for e, c in poly.terms
    )
    return sympy.Poly(sympy.sqf_part(expr), t).degree()


def test_image_prime_is_the_first_modular_prime():
    assert _prime(0) == P
    assert _univariate_image(3 * T**2 - 1) == [P - 1, 0, 3]
    assert _univariate_image(Fraction(1, 2) * T + Fraction(1, 3)) == [2, 3]
    assert _univariate_image(P * T + 1) is None
    assert _univariate_image((P + 1) * T - 1) == [P - 1, 1]


def test_leading_coefficient_guard_keeps_a_shared_factor():
    # (P*T + 1) is 1 mod P, so the two images are T + 2 and T + 3, which are
    # coprime; only the guard on lc sends the pair to the exact gcd.
    shared = P * T + 1
    first = [(3, shared * (T + 2))]
    second = [(4, shared * (T + 3))]
    overlaps, size1, size2 = _slice_overlaps(first, second)
    assert overlaps == (
        PairOverlap(order_first=3, order_second=4, poly=shared, distinct_roots=1),
    )
    assert (size1, size2) == (2, 2)


def test_repeated_factor_is_counted_once():
    poly = (P * T + 1) ** 2 * (T**2 + 1)
    assert _distinct_root_count(poly, _univariate_image(poly)) == 3
    poly = (2 * T - 1) ** 3 * (T + 5)
    assert _distinct_root_count(poly, _univariate_image(poly)) == 2
    poly = (2 * T - 1) * (T + 5) * (T**2 - 3)
    assert _distinct_root_count(poly, _univariate_image(poly)) == 4


FACTORS = (
    T + 1,
    T - 2,
    2 * T + 3,
    T**2 + 1,
    T**2 - T - 1,
    3 * T**2 - 2,
    P * T + 1,
    Fraction(1, 2) * T**3 + 2 * T - 5,
)


@st.composite
def slices(draw):
    """(order, poly) lists whose polynomials are products of pool factors,
    so factors are shared between lists and repeated within a polynomial."""
    count = draw(st.integers(min_value=1, max_value=4))
    out = []
    for order in range(3, 3 + count):
        picks = draw(st.lists(st.sampled_from(FACTORS), min_size=1, max_size=3))
        scale = draw(st.sampled_from((1, -1, 2, Fraction(3, 2))))
        poly = MultiPoly.constant(1, scale)
        for factor in picks:
            poly = poly * factor
        out.append((order, poly))
    return out


@given(slices(), slices())
@settings(max_examples=60, deadline=None)
def test_overlaps_and_sizes_match_exact_gcd_and_sympy(first, second):
    overlaps, size1, size2 = _slice_overlaps(first, second)
    table = []
    for n1, p1 in first:
        for n2, p2 in second:
            g = poly_gcd(p1, p2)
            if not g.is_constant():
                table.append(PairOverlap(n1, n2, g, sqf_degree(g)))
    assert list(overlaps) == table
    assert size1 == sum(sqf_degree(p) for _, p in first)
    assert size2 == sum(sqf_degree(p) for _, p in second)
    for _, p in first + second:
        assert _distinct_root_count(p, _univariate_image(p)) == sqf_degree(p)


def field_degree(n: int) -> int:
    return cos_min_poly(n).degree


# (a, b, c): deg kappa = 1, 2 and 3 for kappa = c^2/(ab); every slice of
# (2T, -1, T^2) is stripped of a power of T it shares with abc, and the
# last family's order-3 slice is 3T + 4, of degree 1
SCREEN_FAMILIES = (
    ("1", "-2", "3*T"),
    ("T+1", "2", "T"),
    ("T", "1", "1"),
    ("2*T", "-1", "T^2"),
    ("T^2+1", "-1", "T+3"),
)
SCREEN_NMAX = 24


@pytest.fixture(scope="module")
def locus_slices():
    return {f: _locus_polys(FamilyParams(*f), SCREEN_NMAX)[0] for f in SCREEN_FAMILIES}


def test_stripped_slice_of_degree_one():
    # kappa = T for (T, 1, T): the order-3 numerator is -T^2 - T, and
    # stripping the factor T it shares with abc = T^2 leaves T + 1
    slices, abc, _ = _locus_polys(FamilyParams("T", "1", "T"), 3)
    assert abc == T**2
    assert slices == [(3, T + 1)]


def test_every_screened_pair_is_coprime(locus_slices):
    skipped = total = 0
    for f1, f2 in itertools.combinations_with_replacement(SCREEN_FAMILIES, 2):
        for (n1, p1), (n2, p2) in itertools.product(locus_slices[f1], locus_slices[f2]):
            total += 1
            if math.lcm(field_degree(n1), field_degree(n2)) > min(p1.degree, p2.degree):
                skipped += 1
                assert poly_gcd(p1, p2).is_constant(), (f1, n1, f2, n2)
    assert 2 * skipped > total


@pytest.mark.parametrize(
    "first, second",
    list(itertools.combinations_with_replacement(SCREEN_FAMILIES, 2)),
    ids=";".join,
)
def test_screen_changes_no_overlap_or_size(locus_slices, first, second):
    slices1, slices2 = locus_slices[first], locus_slices[second]
    assert _slice_overlaps(slices1, slices2, field_degree) == _slice_overlaps(slices1, slices2)


def test_screen_keeps_slices_of_degree_equal_to_the_field_degree():
    # kappa = 1/T for both families, so each order-n slice has degree h_n
    # and equals its partner: lcm(h_n, h_n) = deg, which must not be skipped
    report = unlikely_intersection_explorer(
        FamilyParams("T", "1", "1"), FamilyParams("2*T", "2", "2"), 20
    )
    assert report.phi_equal
    assert report.intersection_size == report.first_size == 63
