"""Coprimality of locus slices decided on their images mod 2^61 - 1.

A locus slice is an ascending list of ints.  `_slice_overlaps` skips the
exact gcd of a pair only when the images of both slices exist (the prime
divides neither leading coefficient) and have a constant gcd.  The cases
here plant common and repeated factors, one of them with leading
coefficient 2^61 - 1, and compare against the exact gcd and sympy's
squarefree part.  sympy is an oracle for tests only.

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

`_distinct_root_count` skips the exact squarefree part of a slice only
when the slice is coprime to its family's K = 2c'ab - c(ab)', whose
roots off abc are the critical points of kappa = c^2/(ab): on real and seeded
random slices the count must equal sympy's, and on two slices through a
critical point the exact path must run.  When kappa is the same for both
families, slices of different orders share no root: the paired
comparison must equal the unscreened one, also where the two strips
differ, and equal slices must run no gcd at all.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dyndeg.cyclo import cos_min_poly, euler_phi
from dyndeg.exactalg import MultiPoly, _dense, _prime, _sparse, poly_gcd
from dyndeg import fabc
from dyndeg.fabc import (
    FamilyParams,
    PairOverlap,
    _compositum_degree,
    _critical_image,
    _distinct_root_count,
    _image,
    _locus_polys,
    _slice_overlaps,
    same_ratio_invariant,
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
    reference = _slice_overlaps(slices1, slices2)
    assert _slice_overlaps(slices1, slices2, _compositum_degree) == reference
    # and with each family's K and, for a family against itself, paired
    fams = FamilyParams(*first), FamilyParams(*second)
    critical = tuple(_critical_image(f) for f in fams)
    paired = same_ratio_invariant(*fams)
    assert paired == (first == second)
    assert _slice_overlaps(slices1, slices2, _compositum_degree, critical, paired) == reference


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


def assert_counts_match_sympy(slices, critical):
    for _, coeffs in slices:
        count = _distinct_root_count(coeffs, _image(coeffs), critical)
        assert count == sqf_degree(_sparse(coeffs)), coeffs


def test_critical_count_matches_sympy_on_real_slices_and_overlaps(locus_slices):
    criticals = {f: _critical_image(FamilyParams(*f)) for f in SCREEN_FAMILIES}
    for f in SCREEN_FAMILIES:
        assert_counts_match_sympy(locus_slices[f], criticals[f])
    for f1, f2 in itertools.combinations_with_replacement(SCREEN_FAMILIES, 2):
        critical = (criticals[f1], criticals[f2])
        overlaps, *_ = _slice_overlaps(locus_slices[f1], locus_slices[f2], None, critical)
        for o in overlaps:
            assert o.distinct_roots == sqf_degree(o.poly), (f1, f2, o)
            coeffs = _dense(o.poly)
            assert _distinct_root_count(coeffs, _image(coeffs), critical[1]) == o.distinct_roots


def random_poly(rng: random.Random) -> MultiPoly:
    while True:
        poly = sum((rng.randint(-3, 3) * T**e for e in range(rng.randint(1, 3))), MultiPoly.zero(1))
        if not poly.is_zero():
            return poly


@pytest.mark.parametrize("seed", range(8))
def test_critical_count_matches_sympy_on_random_families(seed):
    rng = random.Random(seed)
    done = 0
    while done < 3:
        family = FamilyParams(random_poly(rng), random_poly(rng), random_poly(rng))
        try:
            slices = _locus_polys(family, 12)[0]
        except ValueError:  # generically unstable
            continue
        assert_counts_match_sympy(slices, _critical_image(family))
        done += 1


@pytest.mark.parametrize(
    "family, order, slice_, k, roots",
    [
        # kappa = -(T+1)^2/(T^2+1) is -2 (order 4) at its critical point T = 1
        (("-1", "T^2+1", "T+1"), 4, [1, -2, 1], T - 1, 1),
        # kappa = -(T^2+1)^2 is -1 (order 3) at its critical point T = 0
        (("1", "-1", "T^2+1"), 3, [0, 0, 2, 0, 1], T, 3),
    ],
)
def test_a_slice_through_a_critical_point_of_kappa_takes_the_exact_path(
    monkeypatch, family, order, slice_, k, roots
):
    """K = 2c'ab - c(ab)' shares the repeated root with the slice, so the
    K-test cannot decide, and the exact squarefree part counts the root
    once; reading the failed test as squarefree, or K without the factor
    c of c(ab)', would count it twice."""
    fam = FamilyParams(*family)
    critical = _critical_image(fam)
    assert critical == _image(ints(k))
    assert (order, slice_) in _locus_polys(fam, order)[0]
    calls = []
    exact = fabc._gcd_quotients
    monkeypatch.setattr(fabc, "_gcd_quotients", lambda polys: calls.append(polys) or exact(polys))
    assert _distinct_root_count(slice_, _image(slice_), critical) == roots
    assert calls, "the K-test decided a slice with a repeated root"
    assert roots == sqf_degree(_sparse(slice_)) < len(slice_) - 1


# pairs with equal kappa = c^2/(ab); in the third and the fifth the second
# family's strip removes a root of the first's locus, and the fourth has
# equal slices with a repeated root
EQUAL_KAPPA_PAIRS = (
    (("1", "-2", "3*T"), ("2", "-4", "6*T")),
    (("T", "1", "1"), ("2*T", "2", "2")),
    (("1", "-1", "T-4"), ("T-5", "5-T", "T^2-9*T+20")),
    (("-1", "T^2+1", "T+1"), ("-2", "2*T^2+2", "2*T+2")),
    (("1", "-1", "T^2+1"), ("T", "-T", "T^3+T")),
)


@pytest.mark.parametrize("first, second", EQUAL_KAPPA_PAIRS, ids=lambda f: ";".join(f))
def test_paired_overlaps_equal_the_unscreened_ones(first, second):
    fam1, fam2 = FamilyParams(*first), FamilyParams(*second)
    assert same_ratio_invariant(fam1, fam2)
    slices1, slices2 = _locus_polys(fam1, 16)[0], _locus_polys(fam2, 16)[0]
    critical = (_critical_image(fam1), _critical_image(fam2))
    reference = _slice_overlaps(slices1, slices2)
    assert _slice_overlaps(slices1, slices2, _compositum_degree, critical, True) == reference
    report = unlikely_intersection_explorer(fam1, fam2, 16)
    assert report.phi_equal
    assert (report.overlaps, report.first_size, report.second_size) == reference


def test_equal_kappa_is_not_the_whole_locus_when_the_strips_differ():
    # kappa = -(T-4)^2 for both; T = 5 is on the first order-3 slice
    # T^2 - 8T + 15 and a root of the second family's abc, so it is stripped
    report = unlikely_intersection_explorer(
        FamilyParams("1", "-1", "T-4"), FamilyParams("T-5", "5-T", "T^2-9*T+20"), 8
    )
    assert report.phi_equal
    assert (report.first_size, report.second_size, report.intersection_size) == (20, 19, 19)
    assert report.overlaps[0] == PairOverlap(3, 3, T - 3, 1)
    assert len(report.overlaps) == 6


def test_equal_slices_run_no_euclid(monkeypatch):
    """(1, -2, 3T) and (2, -4, 6T): K is constant and every order-n slice
    equals its partner, so neither the counts nor the pairs run a gcd."""
    fams = FamilyParams("1", "-2", "3*T"), FamilyParams("2", "-4", "6*T")
    slices1, slices2 = (_locus_polys(f, 24)[0] for f in fams)
    critical = tuple(_critical_image(f) for f in fams)
    assert critical == ([1], [1])
    calls = []
    for name in ("poly_gcd", "_up_gcd", "_gcd_quotients"):
        real = getattr(fabc, name)
        monkeypatch.setattr(fabc, name, lambda *a, n=name, f=real: calls.append(n) or f(*a))
    overlaps, size1, size2 = _slice_overlaps(slices1, slices2, _compositum_degree, critical, True)
    assert calls == []
    assert [(o.order_first, o.order_second) for o in overlaps] == [(n, n) for n, _ in slices1]
    assert size1 == size2 == sum(o.distinct_roots for o in overlaps) == sum(
        euler_phi(n) for n in range(3, 25)
    )
