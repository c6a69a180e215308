"""Marked-orbit family: construction, orbit tracking, truncated set reports."""

import math
from fractions import Fraction
from types import SimpleNamespace

import pytest

from dyndeg import gfam
from dyndeg.exactalg import MultiPoly
from dyndeg.gfam import (
    GFamilyParams,
    HitsIndeterminacyAt,
    NoHitWithin,
    build_g,
    classify_parameter,
    exact_membership,
    exceptional_set,
    indeterminacy_points,
    marked_point,
    negative_answer_report,
    orbit_marked_point,
    _truncated_values,
)
from dyndeg.ratmap import (
    INDETERMINATE,
    ProjectiveMap,
    ProjectivePoint,
    degree_drop_index,
    degree_sequence,
)


def closed_form(a: Fraction, b: Fraction, n: int) -> Fraction:
    return a**n + b * sum(a**j for j in range(n))


class TestParams:
    def test_zero_multiplier_rejected(self):
        with pytest.raises(ValueError):
            GFamilyParams(0, 1)

    def test_coercion_and_validation(self):
        p = GFamilyParams(Fraction(1, 2), -3)
        assert p.a == Fraction(1, 2) and p.b == -3
        with pytest.raises(TypeError):
            GFamilyParams(1.5, 0)
        with pytest.raises(TypeError):
            build_g(GFamilyParams(1, 1), 0.25)


class TestBuildG:
    def test_frozen_at_t_zero(self):
        g = build_g(GFamilyParams(1, 1), 0)
        x, y, z = (MultiPoly.variable(3, i) for i in range(3))
        expected = ((x + z) * x + (x - z) * y, (x - z) * y, x * z)
        assert g.coords == tuple(e.canonical() for e in expected)
        assert g.degree == 2

    def test_degenerate_value_collapses_to_linear(self):
        g = build_g(GFamilyParams(1, 1), 1)
        x, y, z = (MultiPoly.variable(3, i) for i in range(3))
        assert g.degree == 1
        assert g.coords == (x + y + z, y, z)
        assert build_g(GFamilyParams(2, -3), 1).degree == 1

    def test_generic_degree_two(self):
        for t in (0, 2, -1, Fraction(1, 3)):
            assert build_g(GFamilyParams(2, 5), t).degree == 2

    def test_birational_generic_member(self, jacobian):
        assert not jacobian(build_g(GFamilyParams(1, 1), 3).coords).is_zero()


class TestIndeterminacy:
    def test_generic_candidates_verified(self):
        for t in (0, 3, -2, Fraction(5, 7)):
            pts = indeterminacy_points(GFamilyParams(1, 1), t)
            assert pts == {
                ProjectivePoint([0, 1, 0]),
                ProjectivePoint([t, 0, 1]),
            }

    def test_degenerate_member_has_none(self):
        assert indeterminacy_points(GFamilyParams(1, 1), 1) == frozenset()


class TestInvariantLines:
    def test_line_actions(self):
        p = GFamilyParams(2, -3)
        g = build_g(p, 5)
        for x, z in ((1, 1), (7, 2), (-4, 3), (0, 1)):
            img = g.apply(ProjectivePoint([x, 0, z]))
            assert img == ProjectivePoint([p.a * x + p.b * z, 0, z])
        # the restricted actions are undefined at [t, 0, 1] and [0, 1, 0]
        for x, y in ((1, 1), (3, -2), (2, 5)):
            img = g.apply(ProjectivePoint([x, y, 0]))
            assert img == ProjectivePoint([p.a * x + y, y, 0])


class TestExceptionalSet:
    def test_frozen_prefixes(self):
        assert exceptional_set(GFamilyParams(1, 1), 10) == list(range(1, 12))
        assert exceptional_set(GFamilyParams(1, 2), 10) == list(range(1, 23, 2))
        assert exceptional_set(GFamilyParams(2, 0), 10) == [2**n for n in range(11)]

    def test_matches_closed_form(self):
        for a in (-2, -1, 1, 2, Fraction(3, 2)):
            for b in (-2, 0, 1, Fraction(-1, 3)):
                p = GFamilyParams(a, b)
                vals = exceptional_set(p, 12)
                for n, v in enumerate(vals):
                    assert v == closed_form(p.a, p.b, n)

    def test_validation(self):
        with pytest.raises(ValueError, match=r"^n_max must be >= 0$"):
            exceptional_set(GFamilyParams(1, 1), -1)


class TestOrbit:
    def test_frozen_outcomes(self):
        assert orbit_marked_point(GFamilyParams(1, 1), 5, 50) == HitsIndeterminacyAt(4)
        assert orbit_marked_point(GFamilyParams(1, 2), 4, 50) == NoHitWithin(50)
        assert orbit_marked_point(GFamilyParams(1, 1), 1, 50) == HitsIndeterminacyAt(0)
        # the linear t = 1 member never meets an indeterminate point
        assert orbit_marked_point(GFamilyParams(1, 1), 1, 5) == HitsIndeterminacyAt(0)

    def test_orbit_tracks_closed_form_on_grid(self):
        t = Fraction(1, 3)  # never a set member for integer (a, b)
        for a in range(-2, 3):
            if a == 0:
                continue
            for b in range(-2, 3):
                p = GFamilyParams(a, b)
                g = build_g(p, t)
                current = marked_point()
                for n in range(13):
                    expected = ProjectivePoint([closed_form(p.a, p.b, n), 0, 1])
                    assert current == expected
                    nxt = g.apply(current)
                    assert nxt is not INDETERMINATE
                    current = nxt
                assert orbit_marked_point(p, t, 12) == NoHitWithin(12)

    def test_unexpected_indeterminate_point_names_its_step(self, monkeypatch):
        # the t = 4 member under t = 1/3: the (1, 1) orbit 1, 2, 3, 4 stays on
        # its track and meets that member's indeterminacy point [4, 0, 1],
        # which is not the target [1/3, 0, 1], at step 3, also when that
        # is the last step
        build = gfam.build_g
        monkeypatch.setattr(gfam, "build_g", lambda p, t: build(p, 4))
        for n_max in (10, 3):
            with pytest.raises(
                RuntimeError,
                match=r"^marked orbit hit an unexpected indeterminate point at step 3$",
            ):
                orbit_marked_point(GFamilyParams(1, 1), Fraction(1, 3), n_max)
        assert orbit_marked_point(GFamilyParams(1, 1), Fraction(1, 3), 2) == NoHitWithin(2)

    @pytest.mark.parametrize(
        "t, n_max, outcome, applies",
        [
            # the t = 1 member's target is the marked point itself
            (1, 2000, HitsIndeterminacyAt(0), 0),
            (5, 50, HitsIndeterminacyAt(4), 4),
            # the last point is applied too, to see whether it is indeterminate
            (Fraction(1, 3), 12, NoHitWithin(12), 13),
        ],
    )
    def test_walk_applies_the_map_up_to_the_hit(self, monkeypatch, t, n_max, outcome, applies):
        calls = []
        apply = ProjectiveMap.apply
        monkeypatch.setattr(
            ProjectiveMap, "apply", lambda self, q: calls.append(q) or apply(self, q)
        )
        assert orbit_marked_point(GFamilyParams(1, 1), t, n_max) == outcome
        assert len(calls) == applies

    def test_verdicts_need_no_precomputed_track(self, monkeypatch):
        # the walk checks each point against e_n computed beside it, so the
        # whole list exceptional_set(p, n_max) is never built
        def refuse(p, n_max):
            raise AssertionError("exceptional_set called")

        monkeypatch.setattr(gfam, "exceptional_set", refuse)
        p = GFamilyParams(1, 1)
        assert orbit_marked_point(p, 1, 2000) == HitsIndeterminacyAt(0)
        assert orbit_marked_point(p, 5, 50) == HitsIndeterminacyAt(4)
        assert orbit_marked_point(p, Fraction(1, 3), 12) == NoHitWithin(12)
        assert orbit_marked_point(GFamilyParams(2, 0), 1024, 12) == HitsIndeterminacyAt(10)
        assert orbit_marked_point(GFamilyParams(Fraction(1, 2), 1), Fraction(63, 32), 6) == (
            HitsIndeterminacyAt(5)
        )
        assert classify_parameter(GFamilyParams(1, 2), 21, 12).n == 10

    def test_negative_bound_raises_before_any_step(self, monkeypatch):
        # the step bound is ratmap.orbit's to check, in its wording, and the
        # walk raises before it applies the map once
        calls = []
        apply = ProjectiveMap.apply
        monkeypatch.setattr(
            ProjectiveMap, "apply", lambda self, q: calls.append(q) or apply(self, q)
        )
        for t in (1, 5):
            with pytest.raises(ValueError, match=r"^n_max must be >= 0$"):
                orbit_marked_point(GFamilyParams(1, 1), t, -1)
        assert calls == []

    def test_hit_index_is_least(self):
        # (a, b) = (-1, 0) cycles 1, -1, 1, ...: t = -1 is reached first at n = 1
        assert orbit_marked_point(GFamilyParams(-1, 0), -1, 20) == HitsIndeterminacyAt(1)


class TestExactMembership:
    def test_unit_multiplier(self):
        p = GFamilyParams(1, 1)
        assert exact_membership(p, 7) is True
        assert exact_membership(p, -3) is False
        assert exact_membership(p, Fraction(1, 2)) is False

    def test_strides_and_signs(self):
        p = GFamilyParams(1, 2)
        assert exact_membership(p, 9) is True
        assert exact_membership(p, 8) is False
        q = GFamilyParams(1, -2)
        assert exact_membership(q, -5) is True
        assert exact_membership(q, 3) is False

    def test_zero_shift(self):
        p = GFamilyParams(1, 0)
        assert exact_membership(p, 1) is True
        assert exact_membership(p, 2) is False

    def test_undecided_for_other_multipliers(self):
        assert exact_membership(GFamilyParams(2, 0), 4) is None


class TestClassifyParameter:
    def test_degenerate_distinguished(self):
        v = classify_parameter(GFamilyParams(1, 1), 1, 10)
        assert v.status == "DegenerateDegreeOne"

    def test_hit_and_miss(self):
        v = classify_parameter(GFamilyParams(1, 1), 3, 10)
        assert v.status == "HitsIndeterminacy" and v.n == 2
        w = classify_parameter(GFamilyParams(1, 1), -1, 10)
        assert w.status == "NoHitWithin" and w.n_max == 10

    @pytest.mark.parametrize("t", [1, 3])
    def test_negative_nmax_refused_at_every_t(self, t):
        with pytest.raises(ValueError, match=r"^n_max must be >= 0$"):
            classify_parameter(GFamilyParams(1, 1), t, -5)


class TestDegreeDrops:
    def test_unstable_values_drop_quickly(self):
        p = GFamilyParams(1, 1)
        assert degree_sequence(build_g(p, 2), 5).degrees == (2, 3, 4, 5, 6)
        assert degree_sequence(build_g(p, 3), 5).degrees == (2, 4, 7, 12, 20)
        for t in (2, 3):
            drop = degree_drop_index(build_g(p, t), 5)
            assert drop is not None and drop <= 5

    def test_stable_value_keeps_full_growth(self):
        g = build_g(GFamilyParams(1, 1), -1)
        assert degree_sequence(g, 5).degrees == (2, 4, 8, 16, 32)


class TestNegativeAnswerReport:
    def test_frozen_at_ten(self):
        rep = negative_answer_report(10)
        assert rep.linear_set == tuple(range(1, 11))
        assert rep.odd_set == (1, 3, 5, 7, 9)
        assert rep.sparse_set == (1, 2, 4, 8)
        assert rep.intersection == (1, 3, 5, 7, 9)
        assert rep.symmetric_difference == (2, 4, 6, 8, 10)
        assert rep.max_height == pytest.approx(math.log(10))

    def test_heights_monotone_unbounded_growth(self):
        small = negative_answer_report(10)
        big = negative_answer_report(1000)
        assert list(big.heights) == sorted(big.heights)
        assert big.max_height > small.max_height
        assert big.max_height == pytest.approx(math.log(1000))

    def test_sparse_subset_of_linear(self):
        rep = negative_answer_report(64)
        assert set(rep.sparse_set) <= set(rep.linear_set)

    def test_validation(self):
        for n_max in (0, -1):
            with pytest.raises(ValueError, match=r"^n_max must be >= 1$"):
                negative_answer_report(n_max)

    def test_scan_stops_past_the_bound(self):
        """The scan forms the first value past the bound and no more, and
        it refuses a family whose values do not increase."""
        products = []

        class Counted(Fraction):
            def __mul__(self, other):
                products.append(other)
                return Fraction(self) * other

        doubling = SimpleNamespace(a=Counted(2), b=Fraction(0))
        assert _truncated_values(doubling, 1000) == tuple(2**k for k in range(10))
        assert len(products) == 10
        for a, b in ((1, 0), (-1, 1), (Fraction(1, 2), 0)):
            with pytest.raises(ValueError):
                _truncated_values(GFamilyParams(a, b), 10)
