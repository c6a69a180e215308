"""The quadratic family: maps, fibers, recurrence, classifiers, loci."""

import itertools
import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from dyndeg import fabc
from dyndeg.cyclo import cos_min_poly
from dyndeg import exactalg
from dyndeg.exactalg import MultiPoly, _dense, parse_poly, poly_gcd
from dyndeg.fabc import (
    DegenerateParameterError,
    FabcParams,
    FamilyParams,
    StabilityVerdict,
    build_map,
    classify,
    classify_mod_p,
    critical_locus,
    family_exceptional_locus,
    family_generic_stability,
    indeterminacy_points,
    mahler_height,
    same_ratio_invariant,
    unlikely_intersection_explorer,
    vn_sequence,
)
from dyndeg.gfam import GFamilyParams
from dyndeg.ratmap import (
    INDETERMINATE,
    ProjectiveMap,
    ProjectivePoint,
    _compose_forms,
    degree_drop_index,
    degree_sequence,
)


def poly3(text: str) -> MultiPoly:
    return parse_poly(text, 3)


class TestParams:
    def test_coercion(self):
        p = FabcParams(1, Fraction(1, 2), -3)
        assert p.b == Fraction(1, 2)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateParameterError):
            FabcParams(0, 1, 1)
        with pytest.raises(DegenerateParameterError):
            FabcParams(1, 1, 0)

    @pytest.mark.parametrize("bad", [0.1, True, -1.0, "1", Decimal(1)], ids=repr)
    def test_only_exact_rationals(self, bad):
        """A float would enter as its binary value and a bool as 0 or 1:
        FabcParams refuses them in every slot, as GFamilyParams does."""
        for params in ((bad, 1, 1), (1, bad, 1), (1, 1, bad)):
            with pytest.raises(TypeError):
                FabcParams(*params)
        for params in ((bad, 1), (1, bad)):
            with pytest.raises(TypeError):
                GFamilyParams(*params)


class TestBuildMap:
    def test_unit_params(self):
        f = build_map(FabcParams(1, 1, 1))
        assert f.coords == (poly3("X*Y"), poly3("X*Y+Z^2"), poly3("Y*Z+Z^2"))
        assert f.degree == 2

    def test_integer_params(self):
        f = build_map(FabcParams(-2, 1, 3))
        assert f.coords == (poly3("X*Y"), poly3("X*Y-2*Z^2"), poly3("Y*Z+3*Z^2"))

    def test_mod_p(self):
        f = build_map(FabcParams(1, 1, 1), modulus=5)
        assert f.modulus == 5
        assert f.degree == 2

    def test_mod_p_degenerate(self):
        with pytest.raises(DegenerateParameterError):
            build_map(FabcParams(5, 1, 1), modulus=5)
        with pytest.raises(DegenerateParameterError):
            build_map(FabcParams(Fraction(1, 5), 1, 1), modulus=5)


def compose(outer: ProjectiveMap, inner: ProjectiveMap) -> tuple:
    """The forms of outer after inner with their common factor cancelled."""
    return ProjectiveMap(_compose_forms(outer, inner.coords)).coords


class TestInverse:
    """The inverse stated in the fabc docstring (the fabc_inverse fixture)
    undoes build_map from both sides once the common factor is cancelled."""

    def test_unit_params_formula(self, fabc_inverse):
        x, y, z = (MultiPoly.variable(3, i) for i in range(3))
        g = ProjectiveMap([x * (y - x), (x - y + z) ** 2, (x - y + z) * (y - x)])
        assert g.coords == ProjectiveMap(fabc_inverse(FabcParams(1, 1, 1))).coords
        assert g.degree == 2
        f = build_map(FabcParams(1, 1, 1))
        assert compose(g, f) == compose(f, g) == (x, y, z)

    def test_symbolic_composition_is_identity(self, fabc_inverse):
        f = build_map(None)
        g = ProjectiveMap(fabc_inverse(None))
        ident = tuple(MultiPoly.variable(6, i) for i in range(3))
        assert compose(g, f) == ident
        assert compose(f, g) == ident

    def test_symbolic_degree_sequence(self):
        assert degree_sequence(build_map(None), 4).degrees == (2, 4, 8, 16)

    def test_random_triples_compose_to_identity(self, fabc_inverse):
        rng = random.Random(2024)
        ident = tuple(MultiPoly.variable(3, i) for i in range(3))
        for _ in range(20):
            vals = []
            while len(vals) < 3:
                v = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                if v != 0:
                    vals.append(v)
            p = FabcParams(*vals)
            f, g = build_map(p), ProjectiveMap(fabc_inverse(p))
            assert compose(g, f) == ident
            assert compose(f, g) == ident


class TestIndeterminacy:
    def test_standard_points(self):
        expected = {ProjectivePoint([0, 1, 0]), ProjectivePoint([1, 0, 0])}
        assert indeterminacy_points(FabcParams(1, 1, 1)) == expected
        assert indeterminacy_points(FabcParams(2, -3, 5)) == expected

    def test_apply_is_indeterminate_there(self):
        p = FabcParams(2, -3, 5)
        f = build_map(p)
        for q in indeterminacy_points(p):
            assert f.apply(q) is INDETERMINATE


class TestCriticalLocus:
    def test_symbolic(self):
        x, y, z, a, b, c = (MultiPoly.variable(6, i) for i in range(6))
        assert critical_locus(None) == (-2 * a * b * y * z**2).canonical()

    def test_concrete(self):
        assert critical_locus(FabcParams(1, 1, 1)) == poly3("Y*Z^2")
        assert critical_locus(FabcParams(1, -1, 1)) == poly3("Y*Z^2")

    def test_closed_form_is_the_jacobian(self, jacobian):
        x, y, z, a, b, c = (MultiPoly.variable(6, i) for i in range(6))
        assert jacobian(build_map(None).coords) == -2 * a * b * y * z**2
        for p in (FabcParams(2, -3, 5), FabcParams(Fraction(1, 2), 7, Fraction(-4, 3))):
            assert critical_locus(p) == jacobian(build_map(p).coords).canonical()


class TestPreimage:
    """Fibers of f = build_map(p).  The docstring inverse g gives the
    one-point fibers, f(g(q)) = q wherever both are defined, and sends the
    targets with no preimage into I(f)."""

    def test_generic_point(self, fabc_inverse):
        p = FabcParams(1, 1, 1)
        assert ProjectiveMap(fabc_inverse(p)).apply([1, 2, 3]) == ProjectivePoint([1, 4, 2])
        assert build_map(p).apply([1, 4, 2]) == ProjectivePoint([1, 2, 3])

    def test_collapsed_line_target(self):
        # the whole line Y = 0 but [1, 0, 0] collapses onto [0, a, c]
        f = build_map(FabcParams(1, 1, 1))
        for x, z in ((0, 1), (1, 1), (3, -2), (-5, 7)):
            assert f.apply([x, 0, z]) == ProjectivePoint([0, 1, 1])
        assert f.apply([1, 0, 0]) is INDETERMINATE

    def test_image_of_z_line(self):
        # the line Z = 0 but its two indeterminacy points maps onto [1, 1, 0]
        p = FabcParams(2, 3, 5)
        f = build_map(p)
        for x, y in ((1, 1), (2, -3), (-7, 4)):
            assert f.apply([x, y, 0]) == ProjectivePoint([1, 1, 0])
        assert indeterminacy_points(p) == {
            ProjectivePoint([0, 1, 0]),
            ProjectivePoint([1, 0, 0]),
        }

    def test_empty_cases(self, fabc_inverse):
        p = FabcParams(1, 1, 1)
        g = ProjectiveMap(fabc_inverse(p))
        assert g.apply([0, 0, 1]) in indeterminacy_points(p)
        # [a, a*t, c*t - c] for several t != 1
        a, b, c = 2, 3, -5
        q = FabcParams(a, b, c)
        h = ProjectiveMap(fabc_inverse(q))
        for t in (0, 2, 3, -1, 4, 7, -3, 5, Fraction(1, 2), Fraction(-2, 3)):
            t = Fraction(t)
            assert h.apply([Fraction(a), a * t, c * t - c]) in indeterminacy_points(q)
        # first two coordinates equal, last nonzero: unreachable
        assert g.apply([1, 1, 2]) in indeterminacy_points(p)
        assert h.apply([3, 3, 1]) in indeterminacy_points(q)

    def test_vertical_line_targets(self, fabc_inverse):
        p = FabcParams(2, 3, 5)
        point = ProjectiveMap(fabc_inverse(p)).apply([0, 1, 7])
        assert point not in indeterminacy_points(p)
        assert build_map(p).apply(point) == ProjectivePoint([0, 1, 7])

    def test_round_trip_random(self, fabc_inverse):
        rng = random.Random(99)
        p = FabcParams(Fraction(3, 2), -2, Fraction(5, 3))
        f, g = build_map(p), ProjectiveMap(fabc_inverse(p))
        checked = 0
        while checked < 50:
            q = [Fraction(rng.randint(-8, 8)) for _ in range(3)]
            if all(v == 0 for v in q):
                continue
            point = g.apply(q)
            image = INDETERMINATE if point is INDETERMINATE else f.apply(point)
            if image is not INDETERMINATE:
                assert image == ProjectivePoint(q)
                checked += 1

    def test_line_points_actually_map_to_target(self):
        p = FabcParams(2, 3, 5)
        f = build_map(p)
        # Y = 0 line maps to [0, a, c]
        for x, z in ((1, 1), (2, -1), (0, 1), (5, 3)):
            img = f.apply(ProjectivePoint([x, 0, z]))
            if z != 0:
                assert img == ProjectivePoint([0, p.a, p.c])
        # Z = 0 line maps to [1, 1, 0]
        for x, y in ((1, 1), (2, -1), (3, 5)):
            img = f.apply(ProjectivePoint([x, y, 0]))
            assert img == ProjectivePoint([1, 1, 0])


class TestVnSequence:
    def test_geometric_case(self):
        v = vn_sequence(FabcParams(-2, 1, 3), 8)
        assert v == [2 ** (n + 1) - 1 for n in range(9)]

    def test_vanishing_case(self):
        assert vn_sequence(FabcParams(1, -1, 1), 2) == [1, 1, 0]

    def test_repeated_root_case(self):
        v = vn_sequence(FabcParams(1, -1, 2), 20)
        assert v == [n + 1 for n in range(21)]

    def test_mod_p_matches_rational(self):
        p = FabcParams(-2, 1, 3)
        rational = vn_sequence(p, 30)
        mod7 = vn_sequence(p, 30, modulus=7)
        assert mod7 == [int(x) % 7 for x in rational]

    def test_fraction_params(self):
        v = vn_sequence(FabcParams(Fraction(1, 2), 2, Fraction(1, 3)), 3)
        ab = Fraction(1)
        assert v[2] == Fraction(1, 3) * v[1] + ab * v[0]

    def test_negative_nmax(self):
        with pytest.raises(ValueError):
            vn_sequence(FabcParams(1, 1, 1), -1)


class TestClassify:
    def test_stable(self):
        assert classify(FabcParams(1, 1, 1)) == StabilityVerdict(status="Stable")

    def test_unstable_order3(self):
        v = classify(FabcParams(1, -1, 1))
        assert v.status == "Unstable"
        assert v.zeta_order == 3
        assert v.vanishing_index == 2

    def test_unstable_order4(self):
        v = classify(FabcParams(1, -2, 2))
        assert v.status == "Unstable"
        assert v.zeta_order == 4
        assert v.vanishing_index == 3
        assert vn_sequence(FabcParams(1, -2, 2), 3) == [1, 2, 2, 0]

    def test_unstable_order6(self):
        v = classify(FabcParams(-3, 1, Fraction(3)))
        # c^2/(ab) = 9/-3 = -3
        assert v.status == "Unstable"
        assert v.zeta_order == 6
        assert v.vanishing_index == 5

    def test_edge_case_stable(self):
        # c^2 + 4ab = 0: the repeated-root case never vanishes
        assert classify(FabcParams(1, -1, 2)).status == "Stable"

    def test_fractional_params(self):
        # c^2/(ab) = -2 with fractions
        p = FabcParams(Fraction(1, 2), -1, Fraction(1))
        v = classify(p)
        assert v.status == "Unstable" and v.zeta_order == 4

    def test_degree_sequence_agreement_spots(self):
        stable = build_map(FabcParams(1, 1, 1))
        assert degree_sequence(stable, 5).degrees == (2, 4, 8, 16, 32)
        unstable = build_map(FabcParams(1, -1, 1))
        degs = degree_sequence(unstable, 3).degrees
        assert degs[2] < 8


class TestClassifyModP:
    def test_known_values(self):
        assert classify_mod_p(-2, 1, 3, 7).m == 2
        assert classify_mod_p(-2, 1, 3, 5).m == 3
        assert classify_mod_p(-2, 1, 3, 11).m == 9
        assert classify_mod_p(-2, 1, 3, 31).m == 4

    def test_degenerate(self):
        assert classify_mod_p(-2, 1, 3, 2).status == "DegenerateModP"
        assert classify_mod_p(-2, 1, 3, 3).status == "DegenerateModP"

    def test_multiplicative_order_oracle(self):
        # V_n = 2^(n+1) - 1 here, so the first zero mod p is at ord_p(2) - 1
        for p in range(5, 98):
            if not all(p % d for d in range(2, p)):
                continue
            res = classify_mod_p(-2, 1, 3, p)
            order = 1
            acc = 2 % p
            while acc != 1:
                acc = (acc * 2) % p
                order += 1
            assert res.status == "ExceptionalAt"
            assert res.m == order - 1
            assert res.m <= p * p - 1

    def test_recurrence_predicts_mod_p_degree_drop(self):
        # The degree engine over F_p against the V_n recurrence: the iterates
        # first drop at m + 1, m the least index with V_m = 0 mod p.  The
        # whole grid p in {5, 7, 11, 13}, a, c in 1..3, b in -2..2 without 0
        # covers drops at 3, 4 and 5 and stable cases.
        grid = itertools.product((5, 7, 11, 13), (1, 2, 3), (-2, -1, 1, 2), (1, 2, 3))
        seen = set()
        for p, a, b, c in grid:
            m = classify_mod_p(a, b, c, p).m
            want = m + 1 if m is not None and m + 1 <= 5 else None
            f = build_map(FabcParams(a, b, c), modulus=p)
            assert degree_drop_index(f, 5) == want, (p, a, b, c)
            seen.add(want)
        assert seen == {3, 4, 5, None}

    def test_cap_and_validation(self):
        res = classify_mod_p(-2, 1, 3, 5, search_cap=2)
        assert res.status == "NotFoundWithinCap"
        with pytest.raises(ValueError):
            classify_mod_p(1, 1, 1, 6)
        with pytest.raises(TypeError):
            classify_mod_p(1.5, 1, 1, 5)

    @pytest.mark.parametrize(
        "args, kwargs, error, message",
        [
            ((1, 1, 1, 7.0), {}, ValueError, "modulus 7.0 is not an integer"),
            ((1, 1, 1, True), {}, ValueError, "modulus True is not an integer"),
            ((True, 1, 1, 7), {}, TypeError, "a must be an integer, got True"),
            ((-2, 1, 3, 7), {"search_cap": 2.5}, TypeError,
             "search_cap must be an integer, got 2.5"),
        ],
        ids=["p-float", "p-bool", "a-bool", "cap-float"],
    )
    def test_refuses_inexact_input(self, args, kwargs, error, message):
        # a float or bool passes % and * as a number, so each is
        # refused before the search
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            classify_mod_p(*args, **kwargs)


class TestFamilyParams:
    def test_parsing(self):
        f = FamilyParams("1", "1", "T")
        assert f.c_poly == MultiPoly.variable(1, 0)

    def test_zero_rejected(self):
        with pytest.raises(DegenerateParameterError):
            FamilyParams("0", "1", "T")


class TestGenericStability:
    def test_nonconstant(self):
        assert (
            family_generic_stability(FamilyParams("1", "1", "T")).status
            == "GenericallyStable"
        )

    def test_constant_unstable(self):
        g = family_generic_stability(FamilyParams("1", "-1", "1"))
        assert g.status == "GenericallyUnstable"
        assert g.kappa == -1
        assert g.witness.zeta_order == 3

    def test_constant_stable(self):
        g = family_generic_stability(FamilyParams("T", "T", "T"))
        assert g.status == "GenericallyStable"
        assert g.kappa == 1


class TestExceptionalLocus:
    def test_frozen_polynomials(self):
        loc = family_exceptional_locus(FamilyParams("1", "1", "T"), 6)
        by_order = {e.order: e.poly for e in loc.entries}
        t = MultiPoly.variable(1, 0)
        assert by_order[3] == t**2 + 1
        assert by_order[4] == t**2 + 2
        assert by_order[5] == t**4 + 3 * t**2 + 1
        assert by_order[6] == t**2 + 3
        assert loc.zeta_one_poly == t**2 + 4

    def test_roots_and_heights_bounded(self):
        loc = family_exceptional_locus(FamilyParams("1", "1", "T"), 30)
        assert loc.truncation == 30
        assert len(loc.entries) == 28
        for e in loc.entries:
            for r in e.roots:
                assert abs(r) <= 2 + 1e-9
            for h in e.heights:
                assert 0 <= h <= math.log(2) + 1e-6

    def test_zeta_one_locus_never_enters(self):
        loc = family_exceptional_locus(FamilyParams("1", "1", "T"), 12)
        for e in loc.entries:
            assert poly_gcd(e.poly, loc.zeta_one_poly).is_constant()

    def test_residual_soundness(self):
        fam = FamilyParams("1", "2*T", "T+1")
        loc = family_exceptional_locus(fam, 10)
        for e in loc.entries:
            psi = cos_min_poly(e.order)
            for t in e.roots:
                ab = 1 * (2 * t)
                if abs(ab) < 1e-9:
                    continue
                w = -2 - (t + 1) ** 2 / ab
                val = sum(
                    complex(c) * w ** exps[0] for exps, c in psi.terms
                )
                scale = max(1.0, abs(w)) ** psi.degree
                assert abs(val) / scale <= 1e-8

    def test_degenerate_params_reported(self):
        loc = family_exceptional_locus(FamilyParams("T", "1", "T"), 6)
        assert any(abs(r) < 1e-9 for r in loc.degenerate_params)
        # stripping keeps entries clean of degenerate factors
        t = MultiPoly.variable(1, 0)
        for e in loc.entries:
            assert poly_gcd(e.poly, t).is_constant()

    def test_validation(self):
        with pytest.raises(ValueError):
            family_exceptional_locus(FamilyParams("1", "1", "T"), 2)
        with pytest.raises(ValueError):
            family_exceptional_locus(FamilyParams("1", "-1", "1"), 6)


class TestMahlerHeight:
    def test_cyclotomic_style_roots(self):
        t = MultiPoly.variable(1, 0)
        assert mahler_height(t**2 + 1) == pytest.approx(0.0, abs=1e-12)

    def test_leading_and_roots(self):
        t = MultiPoly.variable(1, 0)
        # 2T - 3: root 3/2; measure = log 2 + log(3/2) = log 3
        assert mahler_height(2 * t - 3) == pytest.approx(math.log(3), abs=1e-9)
        assert mahler_height(t**2 + 2) == pytest.approx(math.log(2) / 2, abs=1e-9)


class TestExplorer:
    def test_identical_families(self):
        fam = FamilyParams("1", "1", "T")
        for nmax in (4, 8, 12):
            rep = unlikely_intersection_explorer(fam, fam, nmax)
            assert rep.phi_equal
            assert rep.symmetric_difference_size == 0
            assert rep.intersection_size == rep.first_size == rep.second_size

    def test_scaled_family(self):
        f1 = FamilyParams("1", "1", "T")
        f2 = FamilyParams("1", "1", "2*T")
        rep = unlikely_intersection_explorer(f1, f2, 12)
        assert not rep.phi_equal
        assert rep.intersection_size == 0
        assert (
            rep.symmetric_difference_size
            == rep.first_size + rep.second_size
        )

    def test_same_ratio_invariant_detects_equality(self):
        f1 = FamilyParams("1", "1", "T")
        f3 = FamilyParams("T", "1", "T")
        assert same_ratio_invariant(f1, f1)
        assert not same_ratio_invariant(f1, f3)
        # different presentations of the same ratio
        f4 = FamilyParams("2", "1", "T")
        f5 = FamilyParams("1", "2", "T")
        assert same_ratio_invariant(f4, f5)

    def test_engineered_overlap(self):
        # both families share the order-3 parameter t = i (T^2 + 1 factor)
        f1 = FamilyParams("1", "1", "T")
        f2 = FamilyParams("1", "-1", "T")  # kappa = -T^2: order 3 at T^2 = 1
        rep = unlikely_intersection_explorer(f1, f2, 6)
        by_pair = {
            (o.order_first, o.order_second): o.poly for o in rep.overlaps
        }
        t = MultiPoly.variable(1, 0)
        # f1 order 6 (T^2 = -3) meets f2 order 3 (-T^2 = -1 - wrong)...
        # exact content: f2's order-n polynomial is Psi_n(-2 + T^2)'s numerator
        # order 3: T^2 - 1, order 4: T^2 - 2, order 6: T^2 - 3: no common
        # roots with f1's purely imaginary loci, so intersection is empty.
        assert rep.intersection_size == 0
        assert not by_pair


def _reference_psi_numerator(n, neg_w_num, ab):
    """Numerator of Psi_n(neg_w_num / ab) cleared by ab^deg, summed term by
    term from freshly built powers."""
    psi = cos_min_poly(n)
    d = psi.degree
    total = MultiPoly.zero(1)
    for exps, coeff in psi.terms:
        j = exps[0]
        total = total + coeff * neg_w_num**j * ab ** (d - j)
    return total


class TestLocusWorkDoneOnce:
    def _spy_roots(self, monkeypatch):
        calls = []
        original = fabc._numeric_roots

        def spy(poly):
            calls.append(poly)
            return original(poly)

        monkeypatch.setattr(fabc, "_numeric_roots", spy)
        return calls

    def test_explorer_computes_no_numeric_root(self, monkeypatch):
        calls = self._spy_roots(monkeypatch)
        f1 = FamilyParams("1", "-2", "3*T")
        rep = unlikely_intersection_explorer(f1, FamilyParams("2", "-4", "6*T"), 12)
        assert rep.intersection_size == rep.first_size > 0
        unlikely_intersection_explorer(f1, FamilyParams("T", "1+T", "T^2"), 12)
        assert calls == []

    def test_locus_computes_roots_once_per_entry(self, monkeypatch):
        calls = self._spy_roots(monkeypatch)
        loc = family_exceptional_locus(FamilyParams("T", "1+T", "T^2"), 12)
        assert len(calls) == len(loc.entries) + 1
        assert calls[:-1] == [_dense(e.poly) for e in loc.entries]
        for e in loc.entries:
            assert e.heights == (mahler_height(e.poly),) * len(e.roots)

    def test_shared_psi_powers_give_the_same_polynomials(self, monkeypatch):
        """The integer-list numerators, one per order and collected where
        they enter the strip, before its gate, are the canonical forms of
        the Psi_n numerators summed from fresh MultiPoly powers, with no
        substitute_system call.  The first family shares T with abc and is
        stripped; the second is not (gcd(ab, c) = 1), clears denominators,
        and its W = -(2T + 1) has a lower degree than U = ab = -T^2/2."""
        def refuse(*args, **kwargs):
            raise AssertionError("substitute_system called")

        numerators = []
        original = fabc._strip_shared_factors

        def spy(num, shared):
            numerators.append(num)
            return original(num, shared)

        monkeypatch.setattr(exactalg, "substitute_system", refuse)
        monkeypatch.setattr(fabc, "_strip_shared_factors", spy)
        for fam in (FamilyParams("T", "1+T", "T^2"), FamilyParams("T", "-1/2*T", "T+1")):
            ab = fam.a_poly * fam.b_poly
            neg_w_num = -(2 * ab + fam.c_poly * fam.c_poly)
            numerators.clear()
            fabc._locus_polys(fam, 30)
            assert numerators == [
                _dense(_reference_psi_numerator(n, neg_w_num, ab).canonical())
                for n in range(3, 31)
            ]

    def test_slices_are_the_locus_polynomials(self):
        fam = FamilyParams("T", "1+T", "T^2")
        slices, abc, zeta_one = fabc._locus_polys(fam, 20)
        loc = family_exceptional_locus(fam, 20)
        assert slices == [(e.order, _dense(e.poly)) for e in loc.entries]
        assert zeta_one == loc.zeta_one_poly
        assert abc == (fam.a_poly * fam.b_poly * fam.c_poly).canonical()


def _slices_stripped_against_abc(fam, n_max):
    """The order-n slices as the locus built them before the strip lemma:
    each numerator, from fresh MultiPoly powers, with every factor it
    shares with abc divided out by poly_gcd and poly_divexact until none
    is left; nonconstant results only."""
    ab = fam.a_poly * fam.b_poly
    neg_w_num = -(2 * ab + fam.c_poly * fam.c_poly)
    abc = ab * fam.c_poly
    slices = []
    for n in range(3, n_max + 1):
        poly = _reference_psi_numerator(n, neg_w_num, ab)
        while not (g := poly_gcd(poly, abc)).is_constant():
            poly = exactalg.poly_divexact(poly, g)
        if poly.degree > 0:
            slices.append((n, _dense(poly.canonical())))
    return slices


# (a, b, c) and the degree of gcd(ab, c); (T, T, T) has c^2/(ab) = 1 and
# no entries
STRIP_FAMILIES = (
    (("1", "-2", "3*T"), 0),
    (("T", "1", "T"), 1),
    (("2*T", "-1", "T^2"), 1),
    (("T", "1/2", "3*T"), 1),
    (("T^2+1", "1", "T^2+1"), 2),
    (("2*T", "3*T+3", "T^2+T"), 2),
    (("T", "T", "T"), 1),
)


class TestStripLemma:
    """Every factor a locus numerator shares with abc divides gcd(ab, c)
    (the lemma of fabc._locus_polys), so stripping against that one gcd
    gives the slices stripped against abc."""

    @pytest.mark.parametrize("abc, shared_degree", STRIP_FAMILIES)
    def test_gated_strip_equals_the_abc_strip(self, abc, shared_degree):
        fam = FamilyParams(*abc)
        assert poly_gcd(fam.a_poly * fam.b_poly, fam.c_poly).degree == shared_degree
        slices = fabc._locus_polys(fam, 24)[0]
        assert slices == _slices_stripped_against_abc(fam, 24)
        assert (slices == []) == (abc == ("T", "T", "T"))

    def test_no_strip_runs_when_ab_and_c_are_coprime(self, monkeypatch):
        gcds, quotients = [], []
        original_gcd, original_quotients = fabc.poly_gcd, fabc._gcd_quotients

        def spy_gcd(p, q):
            gcds.append((p, q))
            return original_gcd(p, q)

        def spy_quotients(polys):
            quotients.append(polys)
            return original_quotients(polys)

        monkeypatch.setattr(fabc, "poly_gcd", spy_gcd)
        monkeypatch.setattr(fabc, "_gcd_quotients", spy_quotients)
        for abc in (("1", "-2", "3*T"), ("T", "-1/2*T", "T+1"), ("T^2", "1", "T+1")):
            fabc._locus_polys(FamilyParams(*abc), 30)
        assert len(gcds) == 3 and quotients == []
        # the spy does see the strip where gcd(ab, c) = T
        fabc._locus_polys(FamilyParams("T", "1", "T"), 30)
        assert len(gcds) == 4 and quotients
