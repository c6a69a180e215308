"""Monomial-map degrees, spectral radii, and inequality checks."""

import math
import random
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dyndeg import monomial
from dyndeg.exactalg import MultiPoly
from dyndeg.monomial import (
    LowerBoundCheck,
    MonomialMap,
    SingularMatrixError,
    analyze,
    analyze_all,
    char_poly,
    degree_D,
    full_report,
    homogenize,
    identity_rows,
    int_det,
    inverse_degree_bound_check,
    inverse_map,
    mat_mul,
    mat_pow,
    spectral_radius_enclosure,
    _degree_of_rows,
    _roots_strictly_inside,
)

GOLDEN = (3 + math.sqrt(5)) / 2  # max root of x^2 - 3x + 1
A21 = MonomialMap([[2, 1], [1, 1]])
IDENT2 = MonomialMap([[1, 0], [0, 1]])


def sup_norm(matrix):
    """Largest absolute value of an entry, map by map."""
    return max(abs(x) for row in matrix for x in row)


class TestMatrixBasics:
    def test_det_exact(self):
        assert int_det([[2, 1], [1, 1]]) == 1
        assert int_det([[1, 2], [2, 4]]) == 0
        assert int_det([[0, 1], [-1, 0]]) == 1
        assert int_det([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30

    def test_det_needs_pivot_swap(self):
        assert int_det([[0, 1, 0], [1, 0, 0], [0, 0, 1]]) == -1

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            MonomialMap([[1, 2], [2, 4]])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            MonomialMap([[1, 2, 3], [4, 5, 6]])

    def test_mat_pow(self):
        assert mat_pow([[2, 1], [1, 1]], 0) == identity_rows(2)
        assert mat_pow([[2, 1], [1, 1]], 2) == ((5, 3), (3, 2))
        a = [[1, 2], [3, 4]]
        assert mat_pow(a, 3) == mat_mul(a, mat_mul(a, a))

    def test_mat_pow_edges(self):
        a = [[0, 1, 0], [0, 0, 1], [-1, 2, 3]]
        assert mat_pow(a, 0) == identity_rows(3)
        assert mat_pow([[5]], 0) == ((1,),)
        power = identity_rows(3)
        for k in range(1, 10):
            power = mat_mul(power, a)
            assert mat_pow(a, k) == power
        with pytest.raises(ValueError):
            mat_pow(a, -1)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            A21.n = 5


class TestDegree:
    def test_identity(self):
        assert degree_D(IDENT2) == 1

    def test_frozen_examples(self):
        assert degree_D(A21) == 3
        assert degree_D(MonomialMap([[-1, 0], [0, -1]])) == 2
        assert degree_D(MonomialMap([[0, 1], [1, 0]])) == 1

    def test_power_of_identity_rows(self):
        assert _degree_of_rows(identity_rows(3)) == 1

    def test_power_degree(self):
        assert degree_D(MonomialMap(mat_pow(A21.matrix, 2))) == 8


class TestHomogenize:
    def test_identity(self):
        f = homogenize(IDENT2)
        x, y, z = (MultiPoly.variable(3, i) for i in range(3))
        assert f.coords == (x, y, z)

    def test_quadratic_involution(self):
        f = homogenize(MonomialMap([[-1, 0], [0, -1]]))
        x, y, z = (MultiPoly.variable(3, i) for i in range(3))
        assert f.coords == (y * z, x * z, x * y)

    def test_frozen_example(self):
        f = homogenize(A21)
        x, y, z = (MultiPoly.variable(3, i) for i in range(3))
        assert f.coords == (x**2 * y, x * y * z, z**3)

    def test_swap(self):
        f = homogenize(MonomialMap([[0, 1], [1, 0]]))
        x, y, z = (MultiPoly.variable(3, i) for i in range(3))
        assert f.coords == (y, x, z)

    def test_degree_cross_check_random(self):
        rng = random.Random(1234)
        for _ in range(60):
            n = rng.randint(1, 3)
            while True:
                rows = [
                    [rng.randint(-4, 4) for _ in range(n)] for _ in range(n)
                ]
                if int_det(rows) != 0:
                    break
            m = MonomialMap(rows)
            assert homogenize(m).degree == degree_D(m)


@st.composite
def nonsingular_rows(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    rows = draw(
        st.lists(
            st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
    assume(int_det(rows) != 0)
    return rows


@given(nonsingular_rows())
@settings(max_examples=80, deadline=None)
def test_clearing_and_homogenized_degree_match_loop_reference(rows):
    n = len(rows)
    clear = []
    for j in range(n):
        c = 0
        for i in range(n):
            c = max(c, -rows[i][j])
        clear.append(c)
    degree = sum(clear) + max(0, max(sum(row) for row in rows))
    m = MonomialMap(rows)
    assert monomial._clearing(m.matrix) == clear
    assert degree_D(m) == degree
    assert homogenize(m).degree == degree


@st.composite
def square_rows(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    entries = st.integers(-9, 9) | st.integers(-(2**70), 2**70)
    return tuple(tuple(draw(entries) for _ in range(n)) for _ in range(n))


@given(st.lists(square_rows(), max_size=8))
@settings(max_examples=60, deadline=None)
def test_block_invariants_match_per_map_powers(block):
    """One stacked call over a block of mixed sizes, with entries past 2^63,
    gives each map's traces, sup norms and degrees of A^0..A^N as mat_pow,
    sup_norm and _degree_of_rows give them map by map, as Python ints."""
    block = [*block, ((10**20, 1), (1, 0))]
    got = monomial._block_invariants(block)
    assert len(got) == len(block)
    for rows, (traces, norms, degrees) in zip(block, got):
        n = len(rows)
        powers = [mat_pow(rows, k) for k in range(n + 1)]
        assert traces == tuple(sum(a[i][i] for i in range(n)) for a in powers)
        assert norms == tuple(sup_norm(a) for a in powers)
        assert degrees == tuple(_degree_of_rows(a) for a in powers)
        assert {type(x) for x in traces + norms + degrees} == {int}


class TestCharPoly:
    def test_frozen_examples(self):
        assert char_poly(A21) == [1, -3, 1]
        assert char_poly(IDENT2) == [1, -2, 1]
        assert char_poly(MonomialMap([[0, 1], [-1, 0]])) == [1, 0, 1]

    def test_constant_term_is_signed_det(self):
        rng = random.Random(77)
        for _ in range(25):
            n = rng.randint(1, 5)
            while True:
                rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
                if int_det(rows) != 0:
                    break
            m = MonomialMap(rows)
            assert char_poly(m)[-1] == (-1) ** n * m.det


class TestDiskTest:
    def test_unit_examples(self):
        # z - 2: root outside
        assert not _roots_strictly_inside([1, -2], Fraction(1))
        # 2z - 1: root 1/2 inside
        assert _roots_strictly_inside([2, -1], Fraction(1))
        # z^2 + 1: roots on the circle are not strictly inside
        assert not _roots_strictly_inside([1, 0, 1], Fraction(1))
        assert _roots_strictly_inside([1, 0, 1], Fraction(11, 10))

    def test_radius_scaling(self):
        # roots 2 and 3
        p = [1, -5, 6]
        assert not _roots_strictly_inside(p, Fraction(3))
        assert _roots_strictly_inside(p, Fraction(31, 10))

    def test_mixed_roots(self):
        # roots 1/2 and 3
        assert not _roots_strictly_inside([2, -7, 3], Fraction(1))
        assert _roots_strictly_inside([2, -7, 3], Fraction(4))

    def test_degree_17_without_coefficient_blow_up(self):
        # x^16 (x - 2) + 1: its largest root is about 2 - 2^-17, so every
        # root lies inside radius 1.999999; without dividing each transform
        # by the gcd of its entries this took about a minute
        coeffs = [1, -2] + [0] * 15 + [1]
        start = time.perf_counter()
        assert _roots_strictly_inside(coeffs, Fraction(1999999, 1000000))
        assert time.perf_counter() - start < 1.0


def undivided_roots_strictly_inside(coeffs_desc, radius):
    """The Schur-Cohn test without dividing the transforms by their gcd."""
    num, den = radius.numerator, radius.denominator
    asc = list(reversed(coeffs_desc))
    n = len(asc) - 1
    b = [asc[j] * num**j * den ** (n - j) for j in range(n + 1)]
    while len(b) > 1:
        k = len(b) - 1
        if abs(b[0]) >= abs(b[k]):
            return False
        b = [b[k] * b[j + 1] - b[0] * b[k - 1 - j] for j in range(k)]
    return True


@given(
    st.lists(st.integers(-9, 9), min_size=2, max_size=8),
    # radii with small denominators and with denominators as large as the
    # enclosure's bisection points
    st.one_of(st.integers(1, 1000), st.integers(2**50, 2**60)).flatmap(
        lambda den: st.integers(den // 10, 5 * den).map(lambda num: Fraction(num, den))
    ),
)
@settings(max_examples=300, deadline=None)
def test_disk_test_agrees_with_the_undivided_transform(coeffs, radius):
    assume(coeffs[0] != 0)
    assert _roots_strictly_inside(coeffs, radius) == undivided_roots_strictly_inside(
        coeffs, radius
    )


class TestSpectralRadius:
    def test_golden_like_value(self):
        enc = spectral_radius_enclosure(A21, 1e-6)
        assert abs(enc.value - GOLDEN) / GOLDEN <= 1e-6
        assert float(enc.low) <= GOLDEN <= float(enc.high)
        assert enc.high <= enc.low * (1 + 2e-6)

    def test_identity(self):
        assert abs(analyze(IDENT2).radius.value - 1.0) <= 1e-5

    def test_estimate_above_the_radius_becomes_the_upper_bound(self, monkeypatch):
        # both ends of the float window lie above the radius, so the window's
        # low end is a proven upper bound and the bisection starts under it
        monkeypatch.setattr(
            monomial, "_float_radius_estimates", lambda polys: [1.5 * GOLDEN] * len(polys)
        )
        enc = spectral_radius_enclosure(A21, 1e-6)
        assert float(enc.low) <= GOLDEN <= float(enc.high)
        assert enc.high <= enc.low * (1 + Fraction(1e-6))

    def test_rotation(self):
        assert abs(analyze(MonomialMap([[0, 1], [-1, 0]])).radius.value - 1.0) <= 1e-5

    @pytest.mark.parametrize("rows", [[[1]], [[-1]], [[0, 1], [-1, 0]]])
    def test_radius_one_takes_two_disk_tests(self, monkeypatch, rows):
        # the float window around an estimate of 1 is clipped below at 1, and
        # its two ends certify the radius without a bisection
        disk_tests = []
        original = monomial._roots_strictly_inside

        def spy(coeffs, radius):
            disk_tests.append(radius)
            return original(coeffs, radius)

        monkeypatch.setattr(monomial, "_roots_strictly_inside", spy)
        enc = spectral_radius_enclosure(MonomialMap(rows), 1e-6)
        assert len(disk_tests) == 2
        assert enc.low == 1 < enc.high <= enc.low * (1 + Fraction(1e-6))

    def test_float_estimates_equal_numpy_roots(self):
        # monic with a nonzero constant term, as every characteristic
        # polynomial of a nonsingular matrix, degrees 1-5 shuffled together
        rng = random.Random(34)
        polys = []
        for n in (1, 2, 3, 4, 5) * 8:
            tail = [rng.randint(-50, 50) for _ in range(n)]
            tail[-1] = tail[-1] or 1
            polys.append((1, *tail))
        rng.shuffle(polys)
        estimates = monomial._float_radius_estimates(polys)
        assert len(estimates) == len(polys)
        for coeffs, est in zip(polys, estimates):
            expected = float(np.max(np.abs(np.roots([float(c) for c in coeffs]))))
            assert est == expected, coeffs

    def test_float_overflow_costs_only_its_own_estimate(self):
        polys = [(1, -3, 1), (1, 10**400, 1), (1, -1), (1, 0, 0, -2)]
        estimates = monomial._float_radius_estimates(polys)
        assert estimates[1] is None
        assert estimates[0] == pytest.approx(GOLDEN)
        assert estimates[2] == 1.0
        assert estimates[3] == pytest.approx(2 ** (1 / 3))

    def test_rel_tol_validation(self):
        with pytest.raises(ValueError):
            analyze(A21, 0.0)
        with pytest.raises(ValueError):
            analyze(A21, 2e-3)
        # below the float epsilon the bisection cannot reach the tolerance
        for rel_tol in (1e-150, sys.float_info.epsilon / 2):
            with pytest.raises(ValueError, match="rel_tol must lie in"):
                analyze(A21, rel_tol)

    @pytest.mark.parametrize(
        "rows, rel_tol",
        [([[1]], 4e-10), ([[0, 1], [1, 0]], 4e-10), ([[2, 1], [1, 1]], 1e-13)]
        + [
            (rows, sys.float_info.epsilon)
            for rows in (
                [[1]],
                [[0, 1], [1, 0]],
                [[2, 1], [1, 1]],
                [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
                [[10**40, 1], [1, 1]],
            )
        ],
    )
    def test_tight_tolerance_converges(self, rows, rel_tol):
        # the stop test compares with rel_tol exactly; rounded to a
        # denominator of 10^9, any rel_tol below 5e-10 was 0 and the
        # bisection never stopped
        m = MonomialMap(rows)
        enc = spectral_radius_enclosure(m, rel_tol)
        assert enc.high <= enc.low * (1 + Fraction(rel_tol))
        coeffs = char_poly(m)
        assert _roots_strictly_inside(coeffs, enc.high)
        assert not _roots_strictly_inside(coeffs, enc.low)

    @pytest.mark.parametrize(
        "radius", [10**155, 10**200, 3 * 10**160], ids=["1e155", "1e200", "3e160"]
    )
    def test_radius_whose_bound_passes_the_float_range(self, radius):
        # the starting bound 2 + radius^2 passes the float range, so the
        # bisection takes exact integer midpoints until the floats fit
        enc = spectral_radius_enclosure(MonomialMap([[radius, 0], [0, radius]]))
        assert enc.low <= radius < enc.high
        assert enc.high <= enc.low * (1 + Fraction(1e-6))

    def test_radius_of_powers(self):
        lam = analyze(A21).radius.value
        for k in range(1, 5):
            lam_k = analyze(MonomialMap(mat_pow(A21.matrix, k))).radius.value
            assert abs(lam_k - lam**k) / lam**k <= 1e-4

    def test_degree_growth_matches_radius(self):
        # D(A^12)^(1/12) within 2% of the spectral radius
        d12 = _degree_of_rows(mat_pow(A21.matrix, 12))
        assert abs(d12 ** (1 / 12) - 2.618034) / 2.618034 <= 0.02


class TestNormEquivalence:
    def test_frozen_examples(self):
        assert analyze(A21).sup_norm == sup_norm(A21.matrix) == 2
        for m in (A21, IDENT2, MonomialMap([[-1, 0], [0, -1]])):
            assert analyze(m).norm_equivalence_check()

    def test_random(self):
        """The check on the stored D(A) and ||A|| holds, and those equal the
        per-map degree_D and sup norm."""
        rng = random.Random(5150)
        maps = []
        for _ in range(200):
            n = rng.randint(1, 5)
            while True:
                rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
                if int_det(rows) != 0:
                    break
            maps.append(MonomialMap(rows))
        for m, data in zip(maps, analyze_all(maps)):
            assert (data.degree, data.sup_norm) == (degree_D(m), sup_norm(m.matrix))
            assert data.norm_equivalence_check()


class TestContractionIndex:
    def test_frozen_examples(self):
        assert analyze(A21).contraction_index() == 0
        assert analyze(IDENT2).contraction_index() == 0

    def test_exhaustive_cross_check(self):
        m = MonomialMap([[3, -2], [1, 0]])
        data = analyze(m)
        k = data.contraction_index()
        lam = data.radius.value
        factor = 2 ** (1 / 2) - 1
        norms = [sup_norm(mat_pow(m.matrix, j)) for j in range(3)]
        assert k in (0, 1)
        assert norms[k + 1] * factor <= lam * (1 + 2e-6) * norms[k]
        for j in range(k):
            assert norms[j + 1] * factor > lam * (1 + 2e-6) * norms[j]


class TestDegreeRatioBound:
    def test_frozen_example(self):
        res = analyze(A21).degree_ratio_check()
        assert isinstance(res, LowerBoundCheck)
        assert res.holds
        assert abs(res.rhs - 0.1381) <= 1e-3
        assert abs(res.lhs - GOLDEN) <= 1e-4

    def test_identity(self):
        res = analyze(IDENT2).degree_ratio_check()
        assert res.holds
        assert abs(res.rhs - (2 ** 0.5 - 1) / 8) <= 1e-9


class TestInverseBound:
    def test_frozen_inverse(self):
        inv = inverse_map(A21)
        assert inv.matrix == ((1, -1), (-1, 2))
        assert degree_D(inv) == 3
        assert inverse_degree_bound_check(A21)

    def test_identity(self):
        assert inverse_degree_bound_check(IDENT2)

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError):
            inverse_degree_bound_check(MonomialMap([[2, 0], [0, 1]]))

    def test_det_minus_one(self):
        m = MonomialMap([[0, 1], [1, 0]])
        inv = inverse_map(m)
        assert mat_mul(inv.matrix, m.matrix) == identity_rows(2)


class TestFindM:
    def test_identity_eps_09(self):
        assert analyze(IDENT2).m_epsilon(0.9) == 2

    def test_identity_eps_05(self):
        assert analyze(IDENT2).m_epsilon(0.5) == 5

    def test_frozen_example_revalidated(self):
        m = analyze(A21).m_epsilon(1.0)
        assert m is not None
        lam = analyze(A21).radius.value
        gamma = (2 ** 0.5 - 1) / 8
        for mm in range(1, m + 1):
            ok = True
            for k in range(2):
                dk = _degree_of_rows(mat_pow(A21.matrix, k * mm)) if k * mm else 1
                dk1 = _degree_of_rows(mat_pow(A21.matrix, (k + 1) * mm))
                if (gamma * dk1 / dk) ** (1 / mm) < lam - 1.0:
                    ok = False
                    break
            assert ok == (mm == m)

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            analyze(IDENT2).m_epsilon(0.0)

    def test_cap_returns_none(self):
        assert analyze(A21).m_epsilon(1e-9, m_cap=1) is None

    def test_target_is_the_radius_value(self):
        # with rel_tol = 1e-3, value and high differ enough that this epsilon
        # puts value - epsilon below the m = 1 ratio bound l1 and
        # high - epsilon above it: m = 1 passes only against the value
        data = analyze(A21, rel_tol=1e-3)
        gamma = (2 ** 0.5 - 1) / 8
        degs = [_degree_of_rows(mat_pow(A21.matrix, k)) for k in range(3)]
        l1 = min(gamma * degs[k + 1] / degs[k] for k in range(2))
        value, high = data.radius.value, float(data.radius.high)
        assert data.m_epsilon(value - l1 + (high - value) / 2) == 1


class TestReports:
    def test_analyze(self):
        data = analyze(A21)
        assert data.n == 2
        assert data.degree == 3
        assert data.sup_norm == 2
        assert data.char_poly == (1, -3, 1)
        assert abs(data.radius.value - GOLDEN) <= 1e-5

    def test_full_report_shape(self):
        rep = full_report(A21)
        assert rep["N"] == 2
        assert rep["D"] == 3
        assert rep["sup_norm"] == 2
        assert rep["char_poly"] == [1, -3, 1]
        assert rep["norm_equivalence"] is True
        assert rep["contraction_k"] == 0
        assert rep["degree_ratio_bound"]["holds"] is True
        assert rep["inverse_degree_bound"] is True

    def test_full_report_non_unimodular(self):
        rep = full_report(MonomialMap([[2, 0], [0, 1]]))
        assert rep["inverse_degree_bound"] is None
