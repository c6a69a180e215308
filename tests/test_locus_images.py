"""Coprimality of locus slices decided on their images mod 2^61 - 1.

A locus slice is an ascending list of ints.  `_slice_overlaps` skips the
exact gcd of a pair only when the images of both slices exist (the prime
divides neither leading coefficient) and have a constant gcd;
`_distinct_root_count` skips the exact squarefree part only when an image
is coprime to its derivative.  The cases here plant common and repeated
factors, one of them with leading coefficient 2^61 - 1, and compare
against the exact gcd and sympy's squarefree part.  sympy is an oracle for
tests only.

Given the degree D(n, m) of the compositum of Q(zeta_n)^+ and
Q(zeta_m)^+, `_slice_overlaps` first skips a pair of locus slices of
orders n and m when D(n, m) exceeds the smaller slice degree.  D is
checked against a brute-force count of the group fixing that compositum.
Real slices of seven families, two of them with an order-3 slice of
degree 1, check that every skipped pair has a constant exact gcd and that
the screen changes no answer; the pairs (T, 1, 1), (2T, 2, 2), whose slices
have degree exactly h_n = D(n, n), and (T, 1, T), (T, 3, 3T), whose shared
root T = -1 sits on slices of degree D(3, 6) = 1, check the strict
inequality.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dyndeg.cyclo import cos_min_poly, euler_phi
from dyndeg.exactalg import MultiPoly, _dense, _prime, _sparse, poly_gcd
from dyndeg.fabc import (
    FamilyParams,
    PairOverlap,
    _compositum_degree,
    _distinct_root_count,
    _image,
    _locus_polys,
    _slice_overlaps,
    unlikely_intersection_explorer,
)

sympy = pytest.importorskip("sympy")

T = MultiPoly.variable(1, 0)
P = 2**61 - 1


def ints(poly: MultiPoly) -> list[int]:
    """poly's ascending coefficients times the lcm of their denominators,
    so that the sign and any integer content stay."""
    coeffs = _dense(poly)
    den = math.lcm(*(Fraction(c).denominator for c in coeffs))
    return [int(c * den) for c in coeffs]


def sqf_degree(poly: MultiPoly) -> int:
    t = sympy.Symbol("T")
    expr = sum(
        sympy.Rational(Fraction(c).numerator, Fraction(c).denominator) * t ** e[0]
        for e, c in poly.terms
    )
    return sympy.Poly(sympy.sqf_part(expr), t).degree()


def test_image_prime_is_the_first_modular_prime():
    assert _prime(0) == P
    assert _image(ints(3 * T**2 - 1)) == [P - 1, 0, 3]
    assert _image(ints(Fraction(1, 2) * T + Fraction(1, 3))) == [2, 3]
    assert _image(ints(P * T + 1)) is None
    assert _image(ints((P + 1) * T - 1)) == [P - 1, 1]


def test_leading_coefficient_guard_keeps_a_shared_factor():
    # (P*T + 1) is 1 mod P, so the two images are T + 2 and T + 3, which are
    # coprime; only the guard on lc sends the pair to the exact gcd.
    shared = P * T + 1
    first = [(3, ints(shared * (T + 2)))]
    second = [(4, ints(shared * (T + 3)))]
    overlaps, size1, size2 = _slice_overlaps(first, second)
    assert overlaps == (
        PairOverlap(order_first=3, order_second=4, poly=shared, distinct_roots=1),
    )
    assert (size1, size2) == (2, 2)


def test_repeated_factor_is_counted_once():
    coeffs = ints((P * T + 1) ** 2 * (T**2 + 1))
    assert _distinct_root_count(coeffs, _image(coeffs)) == 3
    coeffs = ints((2 * T - 1) ** 3 * (T + 5))
    assert _distinct_root_count(coeffs, _image(coeffs)) == 2
    coeffs = ints((2 * T - 1) * (T + 5) * (T**2 - 3))
    assert _distinct_root_count(coeffs, _image(coeffs)) == 4


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
    so factors are shared between lists and repeated within a polynomial;
    `ints` keeps the scales -1, 2 and 3 (from 3/2) of the slices."""
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
    overlaps, size1, size2 = _slice_overlaps(
        [(n, ints(p)) for n, p in first], [(n, ints(p)) for n, p in second]
    )
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
        assert _distinct_root_count(ints(p), _image(ints(p))) == sqf_degree(p)


def field_degree(n: int) -> int:
    return cos_min_poly(n).degree


def test_compositum_degree_counts_the_group_fixing_it():
    # H_k = {a mod L : a = +-1 mod k}; D(n, m) = phi(L) / |H_n & H_m|
    for n in range(3, 61):
        for m in range(3, 61):
            L = math.lcm(n, m)
            h_n = {a % L for k in range(0, L, n) for a in (k + 1, k - 1)}
            common = [a for a in h_n if a % m in (1, m - 1) and math.gcd(a, L) == 1]
            assert _compositum_degree(n, m) * len(common) == euler_phi(L), (n, m)
            assert _compositum_degree(n, m) % math.lcm(field_degree(n), field_degree(m)) == 0


# (a, b, c): deg kappa = 1, 2 and 3 for kappa = c^2/(ab); every slice of
# (2T, -1, T^2) and of (T, 1, T) is stripped of a power of T it shares with
# abc; the order-3 slices of (T^2+1, -1, T+3) and (T, 1, T) are 3T + 4 and
# T + 1, of degree 1, and the order-6 slice of (T, 3, 3T) is T + 1 too
SCREEN_FAMILIES = (
    ("1", "-2", "3*T"),
    ("T+1", "2", "T"),
    ("T", "1", "1"),
    ("2*T", "-1", "T^2"),
    ("T^2+1", "-1", "T+3"),
    ("T", "1", "T"),
    ("T", "3", "3*T"),
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
    assert slices == [(3, [1, 1])]


def test_every_screened_pair_is_coprime(locus_slices):
    skipped = by_lcm = total = 0
    for f1, f2 in itertools.combinations_with_replacement(SCREEN_FAMILIES, 2):
        for (n1, c1), (n2, c2) in itertools.product(locus_slices[f1], locus_slices[f2]):
            total += 1
            degree = min(len(c1), len(c2)) - 1
            by_lcm += math.lcm(field_degree(n1), field_degree(n2)) > degree
            if _compositum_degree(n1, n2) > degree:
                skipped += 1
                assert poly_gcd(_sparse(c1), _sparse(c2)).is_constant(), (f1, n1, f2, n2)
    assert 2 * skipped > total
    assert skipped > by_lcm


@pytest.mark.parametrize(
    "first, second",
    list(itertools.combinations_with_replacement(SCREEN_FAMILIES, 2)),
    ids=";".join,
)
def test_screen_changes_no_overlap_or_size(locus_slices, first, second):
    slices1, slices2 = locus_slices[first], locus_slices[second]
    assert _slice_overlaps(slices1, slices2, _compositum_degree) == _slice_overlaps(
        slices1, slices2
    )


def test_screen_keeps_slices_of_degree_equal_to_the_field_degree():
    # kappa = 1/T for both families, so each order-n slice has degree h_n
    # and equals its partner: lcm(h_n, h_n) = deg, which must not be skipped
    report = unlikely_intersection_explorer(
        FamilyParams("T", "1", "1"), FamilyParams("2*T", "2", "2"), 20
    )
    assert report.phi_equal
    assert report.intersection_size == report.first_size == 63


@pytest.mark.parametrize("swap", [False, True])
def test_screen_keeps_a_pair_whose_degree_is_the_compositum_degree(swap):
    # T = -1 makes kappa = T of (T, 1, T) equal -1 (order 3) and kappa = 3T
    # of (T, 3, 3T) equal -3 (order 6); both slices are T + 1, of degree
    # D(3, 6) = phi(6) / 2 = 1, so a screen value of 2 would lose the root
    first, second = FamilyParams("T", "1", "T"), FamilyParams("T", "3", "3*T")
    if swap:
        first, second = second, first
    report = unlikely_intersection_explorer(first, second, 24)
    orders = (6, 3) if swap else (3, 6)
    assert _compositum_degree(*orders) == 1
    assert report.intersection_size == 1
    assert report.overlaps == (PairOverlap(*orders, poly=T + 1, distinct_roots=1),)
