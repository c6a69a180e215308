"""The coprimality certificate of the degree engine (ratmap._iterates):
every iterate it certifies on a line mod r is the exact reduced iterate."""

import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from dyndeg import ratmap
from dyndeg.exactalg import MultiPoly
from dyndeg.fabc import FabcParams, build_map, build_map_symbolic
from dyndeg.gfam import GFamilyParams, build_g, exceptional_set
from dyndeg.ratmap import ProjectiveMap, _compose_forms, _iterates, first_drop

X, Y, Z = (MultiPoly.variable(3, i) for i in range(3))
MONOMIALS2 = (X * X, X * Y, X * Z, Y * Y, Y * Z, Z * Z)


def exact_degrees(f, n_max):
    """Degrees of f^1..f^n_max with _cancel at every step."""
    current, out = f, [f.degree]
    for _ in range(n_max - 1):
        current = ProjectiveMap(_compose_forms(f, current.coords))
        out.append(current.degree)
    return out


def certified_flags(f, n_max):
    """Run the engine; check each iterate against the exact reduction of f
    after the previous one, and the degrees against exact_degrees."""
    flags, degrees, prev = [], [], None
    for m, certified in _iterates(f, n_max):
        if prev is not None:
            exact = ProjectiveMap(_compose_forms(f, prev.coords))
            assert m.coords == exact.coords
            assert m.degree == exact.degree
        flags.append(certified)
        degrees.append(m.degree)
        prev = m
    assert degrees == exact_degrees(f, n_max)
    return flags, degrees


NONZERO2 = (-2, -1, 1, 2)


@pytest.mark.parametrize("a, b, c", list(itertools.product(NONZERO2, repeat=3)))
def test_fabc_grid_certifies_exactly_the_stable_prefix(a, b, c):
    f = build_map(FabcParams(a, b, c))
    flags, degrees = certified_flags(f, 4)
    drop = first_drop(degrees, f.degree)
    # every iterate before the first drop is proved coprime on the line;
    # the drop and everything after it go through _cancel
    assert flags == [False] + [drop is None or n < drop for n in range(2, 5)]


@pytest.mark.parametrize("k", [1, 2])
def test_gfam_at_exceptional_parameters(k):
    p = GFamilyParams(1, 1)
    f = build_g(p, exceptional_set(p, k)[k])
    flags, degrees = certified_flags(f, 5)
    drop = first_drop(degrees, f.degree)
    assert drop is not None
    assert flags[1:drop - 1] == [True] * (drop - 2)
    assert not any(flags[drop - 1:])


@pytest.mark.parametrize("modulus", [101, 2**61 - 1])
@pytest.mark.parametrize("abc", [(1, 1, 1), (2, 3, 1), (1, 2, -3)])
def test_stable_fabc_over_prime_fields(modulus, abc):
    f = build_map(FabcParams(*abc), modulus=modulus)
    flags, degrees = certified_flags(f, 4)
    assert degrees == [2, 4, 8, 16]
    assert any(flags)


def test_line_through_indeterminacy_point_declines(monkeypatch):
    # s*[1:0:0] + t*[5:7:11] passes through the indeterminacy point
    # [1:0:0] at t = 0, so every line form of f is divisible by t
    monkeypatch.setattr(
        ratmap, "_generic_line", lambda n, r, rng: [[5, 1], [7, 0], [11, 0]]
    )
    f = build_map(FabcParams(1, 1, 1))
    calls = []
    plain = ratmap._cancel
    monkeypatch.setattr(ratmap, "_cancel", lambda forms: calls.append(1) or plain(forms))
    assert [m.degree for m, _ in _iterates(f, 4)] == [2, 4, 8, 16]
    assert len(calls) == 3
    flags, _ = certified_flags(f, 4)
    assert flags == [False] * 4


def test_symbolic_parameters_stay_exact():
    flags, _ = certified_flags(build_map_symbolic(), 2)
    assert flags == [False, False]


coefficients = st.integers(-2, 2)


@st.composite
def plane_quadratic_maps(draw):
    """Three quadratic forms in X, Y, Z with small integer coefficients."""
    forms = [
        sum(
            (draw(coefficients) * m for m in MONOMIALS2),
            MultiPoly.zero(3),
        )
        for _ in range(3)
    ]
    assume(any(not q.is_zero() for q in forms))
    f = ProjectiveMap(forms)
    assume(f.degree >= 1)
    return f


@st.composite
def contracting_maps(draw):
    """[X*L0, X*L1, Q] with Q free of Z^2: the line X = 0 goes to the
    indeterminacy point [0:0:1], so X divides every form of f(f)."""
    lin = [
        draw(coefficients) * X + draw(coefficients) * Y + draw(coefficients) * Z
        for _ in range(2)
    ]
    q = sum((draw(coefficients) * m for m in MONOMIALS2[:-1]), MultiPoly.zero(3))
    forms = [X * lin[0], X * lin[1], q]
    assume(any(not p.is_zero() for p in forms))
    f = ProjectiveMap(forms)
    assume(f.degree == 2)
    return f


@given(plane_quadratic_maps())
@settings(max_examples=30, deadline=None)
def test_random_plane_maps(f):
    certified_flags(f, 3)


@given(contracting_maps())
@settings(max_examples=30, deadline=None)
def test_planted_common_factor_never_certified(f):
    flags, degrees = certified_flags(f, 2)
    assert degrees[1] < 4
    assert flags == [False, False]
