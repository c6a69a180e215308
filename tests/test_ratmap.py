from fractions import Fraction

import pytest

from dyndeg import ratmap
from dyndeg.exactalg import (
    MultiPoly,
    TermCapExceeded,
    jacobian_det,
    parse_poly,
    substitute_system,
)
from dyndeg.ratmap import (
    INDETERMINATE,
    DegreeSequence,
    ProjectiveMap,
    ProjectivePoint,
    degree_drop_index,
    degree_sequence,
    dyndeg_estimate,
    iter_degrees,
    orbit,
)

X, Y, Z = (MultiPoly.variable(3, i) for i in range(3))
IDENTITY = ProjectiveMap([X, Y, Z])


def quad_map(a, b, c):
    """The plane quadratic family [XY, XY + a*Z^2, b*YZ + c*Z^2]."""
    return ProjectiveMap([X * Y, X * Y + a * Z**2, b * Y * Z + c * Z**2])


class TestProjectivePoint:
    def test_canonical_first_nonzero_one(self):
        p = ProjectivePoint([0, 2, 4])
        assert p.coords == (Fraction(0), Fraction(1), Fraction(2))

    def test_projective_equality(self):
        assert ProjectivePoint([2, 4, 6]) == ProjectivePoint([1, 2, 3])
        assert ProjectivePoint([1, 0, 0]) != ProjectivePoint([0, 1, 0])

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ProjectivePoint([0, 0, 0])


class TestProjectiveMapConstruction:
    def test_common_factor_cancelled(self):
        f = ProjectiveMap([X * X * Y, X * Y * Y, X * Y * Z])
        assert f.degree == 1
        assert f == IDENTITY

    def test_joint_scaling(self):
        f = ProjectiveMap([2 * X, 2 * Y, 2 * Z])
        assert f == IDENTITY
        g = ProjectiveMap([X * Fraction(1, 3), Y * Fraction(1, 3), Z * Fraction(1, 3)])
        assert g == IDENTITY

    def test_relative_scaling_preserved(self):
        f = ProjectiveMap([2 * X, Y, Z])
        assert f != IDENTITY

    def test_inhomogeneous_rejected(self):
        with pytest.raises(ValueError):
            ProjectiveMap([X + X * Y, Y**2, Z**2])

    def test_mixed_degrees_rejected(self):
        with pytest.raises(ValueError):
            ProjectiveMap([X, Y**2, Z**2])

    def test_all_zero_rejected(self):
        z = MultiPoly.zero(3)
        with pytest.raises(ValueError):
            ProjectiveMap([z, z, z])

    def test_zero_coordinate_allowed(self):
        f = ProjectiveMap([X**2, MultiPoly.zero(3), Z**2])
        assert f.degree == 2

    def test_symbolic_parameters_ride_along(self):
        nv = 6
        x, y, z, a, b, c = (MultiPoly.variable(nv, i) for i in range(nv))
        f = ProjectiveMap([x * y, x * y + a * z**2, b * y * z + c * z**2])
        assert f.n == 2
        assert f.num_params == 3
        assert f.degree == 2


class TestComposeAndApply:
    def test_compose_degree_multiplies_generically(self):
        f = quad_map(1, 1, 1)
        ff = f.compose(f)
        assert ff.degree == 4

    def test_compose_with_identity(self):
        f = quad_map(2, 3, 5)
        assert f.compose(IDENTITY) == f
        assert IDENTITY.compose(f) == f

    def test_apply_basic(self):
        f = quad_map(1, 1, 1)
        image = f.apply([1, 1, 0])
        assert image == ProjectivePoint([1, 1, 0])

    def test_apply_indeterminate(self):
        f = quad_map(1, 1, 1)
        assert f.apply([0, 1, 0]) is INDETERMINATE
        assert f.apply([1, 0, 0]) is INDETERMINATE

    def test_apply_compose_coherence(self):
        f = quad_map(1, 2, 1)
        g = quad_map(2, 1, 3)
        fg = f.compose(g)
        for coords in ([1, 2, 3], [1, 1, 2], [5, 1, 1]):
            via_compose = fg.apply(coords)
            step = g.apply(coords)
            assert step is not INDETERMINATE
            via_steps = f.apply(step)
            assert via_compose == via_steps

    def test_apply_with_params_rejected(self):
        nv = 4
        x, y, z, a = (MultiPoly.variable(nv, i) for i in range(nv))
        f = ProjectiveMap([x * y, x * y + a * z**2, y * z])
        with pytest.raises(ValueError):
            f.apply([1, 1, 1])


class TestDegreeSequences:
    def test_stable_quadratic(self):
        f = quad_map(1, 1, 1)
        seq = degree_sequence(f, 4)
        assert seq.degrees == (2, 4, 8, 16)
        assert seq.truncated_at is None

    def test_unstable_quadratic_drops_at_three(self):
        f = quad_map(1, -1, 1)
        seq = degree_sequence(f, 4)
        assert seq.degrees[0] == 2
        assert seq.degrees[1] == 4
        assert seq.degrees[2] < 8
        assert degree_drop_index(f, 4) == 3

    def test_drop_index_stops_at_first_drop(self):
        # iterate 8 of this map passes 1000 raw terms; stopping at the drop
        # at 3 never composes it
        assert degree_drop_index(quad_map(1, -1, 1), 50, term_cap=1000) == 3
        assert degree_sequence(quad_map(1, -1, 1), 50, term_cap=1000).truncated_at == 8

    def test_identity_sequence(self):
        seq = degree_sequence(IDENTITY, 3)
        assert seq.degrees == (1, 1, 1)

    def test_submultiplicativity(self):
        f = quad_map(1, -2, 2)
        seq = degree_sequence(f, 6)
        degs = (1,) + seq.degrees  # prepend deg(f^0)
        for n in range(len(degs)):
            for m in range(len(degs) - n):
                assert 1 <= degs[n + m] <= degs[n] * degs[m]

    @pytest.mark.parametrize("n_max", [0, -3])
    @pytest.mark.parametrize(
        "entry",
        [lambda f, n: list(iter_degrees(f, n)), degree_sequence, degree_drop_index],
        ids=["iter_degrees", "degree_sequence", "degree_drop_index"],
    )
    def test_n_max_below_one_is_refused(self, entry, n_max):
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            entry(quad_map(1, -1, 1), n_max)

    def test_term_cap_truncation(self):
        # the line declines at the drop n = 3, which composes f^3
        f = quad_map(1, -1, 1)
        seq = degree_sequence(f, 6, term_cap=10)
        assert seq.truncated_at == 3
        assert seq.degrees == (2, 4)

    def test_term_cap_carries_iterate_index(self):
        with pytest.raises(TermCapExceeded) as hit:
            degree_drop_index(quad_map(1, -1, 1), 6, term_cap=10)
        assert hit.value.n == 3
        assert str(hit.value) == "term cap 10 exceeded at iterate 3"

    def test_term_cap_never_fires_on_certified_steps(self, monkeypatch):
        # every step of a stable map is certified on a line, so nothing is
        # composed and a cap far below the iterates' sizes never fires
        calls = []
        plain = ratmap._compose_forms
        monkeypatch.setattr(
            ratmap, "_compose_forms", lambda *a, **k: calls.append(1) or plain(*a, **k)
        )
        seq = degree_sequence(quad_map(1, 1, 1), 8, term_cap=5)
        assert seq.degrees == tuple(2**n for n in range(1, 9))
        assert seq.truncated_at is None
        assert calls == []

    def test_capped_composition_stops_early(self, monkeypatch):
        f = ProjectiveMap([(X + Y + Z) ** 2, (X - Y) ** 2 + Z**2, X * Y + Y * Z + Z**2])
        first_terms = len(f.coords[0].terms)
        added = []
        plain_add = MultiPoly.__add__

        def counting_add(p, q):
            added.append(1)
            return plain_add(p, q)

        monkeypatch.setattr(MultiPoly, "__add__", counting_add)
        # the first output form passes 5 terms at the first of its six
        # monomials, before the rest of f is substituted
        with pytest.raises(TermCapExceeded):
            substitute_system(f.coords, list(f.coords), term_cap=5)
        assert len(added) == 1 < first_terms
        monkeypatch.undo()
        # uncapped, the composition is sympy's expansion of f(f)
        sympy = pytest.importorskip("sympy")
        gens = sympy.symbols("x y z")
        exprs = [sympy.Poly.from_dict(dict(c.terms), *gens).as_expr() for c in f.coords]
        raw = substitute_system(f.coords, list(f.coords))
        for c, e in zip(raw, exprs):
            expected = sympy.Poly(e.subs(dict(zip(gens, exprs)), simultaneous=True), *gens)
            assert dict(c.terms) == expected.as_dict()
        assert max(len(c.terms) for c in raw) > 5

    def test_estimates(self):
        seq = DegreeSequence(degrees=(2, 4, 8), n_max=3)
        est = dyndeg_estimate(seq)
        assert est.root_estimate == pytest.approx(2.0)
        assert est.ratio_estimate == pytest.approx(2.0)


class TestOrbit:
    def test_orbit_hits_indeterminacy(self):
        f = quad_map(1, -1, 1)
        assert list(orbit(f, [0, 0, 1], 10)) == [
            ProjectivePoint([0, 0, 1]),
            ProjectivePoint([0, 1, 1]),
            ProjectivePoint([0, 1, 0]),
            INDETERMINATE,
        ]

    def test_orbit_completes(self):
        f = quad_map(1, 1, 1)
        points = list(orbit(f, [1, 2, 1], 3))
        assert len(points) == 4
        assert INDETERMINATE not in points

    def test_orbit_is_lazy(self, monkeypatch):
        # f is applied only when the next point is asked for
        f = quad_map(1, 1, 1)
        walk = orbit(f, [1, 2, 1], 3)
        calls = []
        apply = ProjectiveMap.apply
        monkeypatch.setattr(
            ProjectiveMap, "apply", lambda self, p: calls.append(p) or apply(self, p)
        )
        assert next(walk) == ProjectivePoint([1, 2, 1])
        assert calls == []
        next(walk)
        assert calls == [ProjectivePoint([1, 2, 1])]

    def test_negative_n_max_rejected(self):
        with pytest.raises(ValueError):
            next(orbit(quad_map(1, 1, 1), [1, 2, 1], -1))


class TestDominance:
    """In characteristic zero a map is dominant iff the Jacobian determinant
    of its forms in the point variables is nonzero."""

    def test_quadratic_family_dominant(self):
        assert not jacobian_det(quad_map(1, 1, 1).coords).is_zero()
        assert not jacobian_det(quad_map(1, -1, 1).coords).is_zero()

    def test_symbolic_family_dominant(self):
        nv = 6
        x, y, z, a, b, c = (MultiPoly.variable(nv, i) for i in range(nv))
        f = ProjectiveMap([x * y, x * y + a * z**2, b * y * z + c * z**2])
        assert not jacobian_det(f.coords).is_zero()

    def test_non_dominant_map(self):
        # a genuinely degenerate system: all coordinates depend on X, Y only
        g = ProjectiveMap([X**2, X * Y, Y**2])
        assert jacobian_det(g.coords).is_zero()


class TestPrimeFieldMaps:
    def test_normalization_monic(self):
        x, y, z = (MultiPoly.variable(3, i, modulus=5) for i in range(3))
        f = ProjectiveMap([3 * x, 3 * y, 3 * z])
        assert f == ProjectiveMap([x, y, z])

    def test_degree_sequence_mod_p(self):
        x, y, z = (MultiPoly.variable(3, i, modulus=5) for i in range(3))
        f = ProjectiveMap([x * y, x * y + z**2, y * z + z**2])
        seq = degree_sequence(f, 3)
        assert seq.degrees[0] == 2
