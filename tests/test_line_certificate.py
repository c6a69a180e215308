"""The coprimality certificate of the degree engine (ratmap._iterates):
every iterate it certifies on a line mod r is the exact reduced iterate."""

import itertools
import time

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dyndeg import exactalg, ratmap
from dyndeg.exactalg import MultiPoly, TermCapExceeded
from dyndeg.fabc import FabcParams, FamilyParams, build_map, family_generic_stability
from dyndeg.gfam import GFamilyParams, build_g, exceptional_set
from dyndeg.ratmap import (
    DegreeSequence,
    ProjectiveMap,
    _compose_forms,
    _iterates,
    degree_drop_index,
    degree_sequence,
    first_drop,
)

X, Y, Z = (MultiPoly.variable(3, i) for i in range(3))
MONOMIALS2 = (X * X, X * Y, X * Z, Y * Y, Y * Z, Z * Z)


def exact_chain(f, n_max):
    """f^1..f^n_max, with _gcd_quotients at every step."""
    chain = [f]
    for _ in range(n_max - 1):
        chain.append(ProjectiveMap(_compose_forms(f, chain[-1].coords)))
    return chain


def exact_degrees(f, n_max):
    return [m.degree for m in exact_chain(f, n_max)]


def certified_flags(f, n_max):
    """Run the engine next to its own exact chain (f after the previous
    exact iterate, _gcd_quotients at every step): nothing cancels at a certified
    step, and every yielded degree is the exact one."""
    flags, degrees, prev = [], [], None
    for degree, certified in _iterates(f, n_max):
        exact = f if prev is None else ProjectiveMap(_compose_forms(f, prev.coords))
        if certified:
            assert exact.degree == f.degree * prev.degree
        assert degree == exact.degree
        flags.append(certified)
        degrees.append(degree)
        prev = exact
    assert degrees == exact_degrees(f, n_max)
    return flags, degrees


NONZERO2 = (-2, -1, 1, 2)


@pytest.mark.parametrize("a, b, c", list(itertools.product(NONZERO2, repeat=3)))
def test_fabc_grid_certifies_exactly_the_stable_prefix(a, b, c):
    f = build_map(FabcParams(a, b, c))
    flags, degrees = certified_flags(f, 4)
    drop = first_drop(degrees, f.degree)
    # every iterate before the first drop is proved coprime on the line;
    # the drop and everything after it go through _gcd_quotients
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
    plain = ratmap._gcd_quotients
    monkeypatch.setattr(ratmap, "_gcd_quotients", lambda forms: calls.append(1) or plain(forms))
    assert [d for d, _ in _iterates(f, 4)] == [2, 4, 8, 16]
    assert len(calls) == 3
    flags, _ = certified_flags(f, 4)
    assert flags == [False] * 4


def test_symbolic_parameters_ride_the_line():
    flags, _ = certified_flags(build_map(None), 5)
    assert flags == [False] + [True] * 4


# plane maps over Q[T]: X, Y, Z and one parameter T
XT, YT, ZT, T = (MultiPoly.variable(4, i) for i in range(4))


def family(a, b, c):
    """The fabc map [XY, XY + aZ^2, bYZ + cZ^2] for polynomials a, b, c in T."""
    return ProjectiveMap([XT * YT, XT * YT + a * ZT**2, b * (YT * ZT) + c * ZT**2])


# f(f) = T * [T^2*X^4, T^2*Y^4, Y^3*Z]: every iterate carries a content in T
CONTENT_MAP = ProjectiveMap([T * XT**2, T * YT**2, YT * ZT])


def test_generically_stable_family_is_certified_to_depth():
    f = family(T, 1, T)
    start = time.perf_counter()
    for n, step in enumerate(_iterates(f, 10), start=1):
        # checked as each step comes, so a step the line fails stops here
        assert step == (2**n, n > 1)
    assert time.perf_counter() - start < 5


def test_generically_unstable_family_drops_at_its_witness():
    f = family(T, -T, T)
    flags, degrees = certified_flags(f, 5)
    assert degrees == [2, 4, 7, 12, 20]
    assert flags == [False, True, False, False, False]
    witness = family_generic_stability(FamilyParams("T", "-T", "T")).witness
    assert first_drop(degrees, f.degree) == witness.zeta_order == 3


def test_content_in_t_is_cancelled_when_certified_steps_are_rebuilt(monkeypatch):
    """Steps 2 and 3 are certified and skipped; step 4 is forced to fail, so
    f^2 and f^3 are rebuilt, and each iterate f is composed with is the
    exact reduced one, its content in T cancelled."""
    chain = exact_chain(CONTENT_MAP, 5)
    plain_coprime, plain_compose = ratmap._line_coprime, ratmap._compose_forms
    tests, inners = [], []
    monkeypatch.setattr(
        ratmap,
        "_line_coprime",
        lambda forms, r: tests.append(1) or (len(tests) != 3 and plain_coprime(forms, r)),
    )
    monkeypatch.setattr(
        ratmap,
        "_compose_forms",
        lambda g, inner, *a: inners.append(tuple(inner)) or plain_compose(g, inner, *a),
    )
    seq, count, rebuilt = composed(CONTENT_MAP, 5)
    assert list(seq.degrees) == [m.degree for m in chain] == [2, 4, 8, 16, 32]
    assert count == 3
    assert [m.coords for m in rebuilt] == [chain[1].coords, chain[2].coords]
    assert inners == [m.coords for m in chain[:3]]


def test_vanishing_line_forms_certify_nothing(monkeypatch):
    """With every residue 0, f_0 = [0, 0, YZ] and every line form of f(f)
    vanishes: no step may be certified on them."""
    plain = ratmap._line_compose
    zero_steps = []

    def at_zero(g, forms, r):
        out = plain(g, forms[: g.n + 1] + [[0]] * g.num_params, r)
        zero_steps.append(not any(any(form) for form in out))
        return out

    monkeypatch.setattr(ratmap, "_line_compose", at_zero)
    flags, degrees = certified_flags(CONTENT_MAP, 4)
    assert any(zero_steps)
    assert degrees == [2, 4, 8, 16]
    assert flags == [False] * 4


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


def vanishes(f, n_max):
    """Whether some exact iterate f^n, n <= n_max, has only zero forms (the
    map is not dominant), after checking that the engine refuses it too."""
    try:
        exact_degrees(f, n_max)
    except ValueError:
        with pytest.raises(ValueError, match="all coordinate forms are zero"):
            list(_iterates(f, n_max))
        return True
    return False


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
@example(ProjectiveMap([X * Z, X * X, MultiPoly.zero(3)]))  # f^3 = [0 : 0 : 0]
@settings(max_examples=30, deadline=None)
def test_random_plane_maps(f):
    if vanishes(f, 3):
        return
    certified_flags(f, 3)


@st.composite
def plane_quadratic_families(draw):
    """Three quadratic forms in X, Y, Z whose coefficients are a + b*T, a
    and b in [-2, 2], over Q or F_101."""
    modulus = draw(st.sampled_from([None, 101]))
    t = MultiPoly.variable(4, 3, modulus)
    monomials = [
        MultiPoly.monomial(4, e + (0,), 1, modulus)
        for e in itertools.product(range(3), repeat=3)
        if sum(e) == 2
    ]
    forms = [
        sum(
            ((draw(coefficients) + draw(coefficients) * t) * m for m in monomials),
            MultiPoly.zero(4, modulus),
        )
        for _ in range(3)
    ]
    assume(any(not q.is_zero() for q in forms))
    f = ProjectiveMap(forms)
    assume(f.degree >= 1)
    return f


@given(plane_quadratic_families())
@example(CONTENT_MAP)
@example(family(T, -T, T))
@settings(max_examples=10, deadline=None)
def test_random_plane_families(f):
    try:
        expected = exact_degrees(f, 4)
    except ValueError:
        with pytest.raises(ValueError, match="all coordinate forms are zero"):
            list(_iterates(f, 4))
        return
    assert [d for d, _ in _iterates(f, 4)] == expected


@given(contracting_maps())
@settings(max_examples=30, deadline=None)
def test_planted_common_factor_never_certified(f):
    flags, degrees = certified_flags(f, 2)
    assert degrees[1] < 4
    assert flags == [False, False]


# -- the line's forms ---------------------------------------------------------


@st.composite
def maps_on_lines(draw):
    """(f, forms, r): a plane map of degree at most 3, over Q with
    r = 2^61 - 1 or over F_r with r = 101 or 7, with or without one
    parameter T of degree at most 2, and three binary forms mod r of one
    degree D <= 3 (ascending in s, as the line stores them), followed by
    one residue [tau] mod r for T."""
    modulus = draw(st.sampled_from([None, 101, 7]))
    r = modulus or exactalg._prime(0)
    params = draw(st.integers(0, 1))
    d = draw(st.integers(1, 3))
    exps = [
        e + p
        for e in itertools.product(range(d + 1), repeat=3)
        if sum(e) == d
        for p in itertools.product(range(3), repeat=params)
    ]
    coords = [
        MultiPoly(3 + params, {e: draw(st.integers(-3, 3)) for e in exps}, modulus)
        for _ in range(3)
    ]
    assume(any(not c.is_zero() for c in coords))
    size = draw(st.integers(2, 4))
    form = st.lists(st.integers(0, r - 1), min_size=size, max_size=size)
    forms = draw(st.lists(form, min_size=3, max_size=3))
    residues = draw(st.lists(st.integers(0, r - 1), min_size=params, max_size=params))
    return ProjectiveMap(coords), forms + [[tau] for tau in residues], r


def composed_on_line(f, forms, r):
    """The forms of f mod r with each point variable replaced by its binary
    form and each parameter set to its residue, as MultiPolys in (s, t)
    mod r multiplied out term by term."""
    top = len(forms[0]) - 1
    line = [
        MultiPoly(2, {(k, top - k): c for k, c in enumerate(form)}, r)
        for form in forms[: f.n + 1]
    ] + [MultiPoly.constant(2, tau, r) for [tau] in forms[f.n + 1 :]]
    out = []
    for coord in f.coords:
        total = MultiPoly.zero(2, r)
        for exps, coeff in coord.terms:
            term = MultiPoly.constant(2, coeff, r)
            for q, e in zip(line, exps):
                for _ in range(e):
                    term = term * q
            total = total + term
        out.append(total)
    return out


@given(maps_on_lines())
# [X : 2X : -X] cancels to the constant map [1 : 2 : -1] of degree 0
@example((ProjectiveMap([X, 2 * X, -X]), [[1, 2], [3, 4], [5, 6]], exactalg._prime(0)))
@settings(max_examples=80, deadline=None)
def test_line_compose_is_the_composition_on_the_line(case):
    """_line_compose gives, coefficient by coefficient, the exact
    composition of f with the line's forms mod r."""
    f, forms, r = case
    size = f.degree * (len(forms[0]) - 1) + 1
    got = ratmap._line_compose(f, forms, r)
    assert len(got) == 3
    for row, exact in zip(got, composed_on_line(f, forms, r)):
        coeffs = dict(exact.terms)
        assert row == [coeffs.get((k, size - 1 - k), 0) for k in range(size)]


def schoolbook_line_compose(f, forms, r):
    """_line_compose as it was before the packed kernel: list products mod
    r through exactalg._monomials, then one multiply-add pass per term."""
    size = f.degree * (len(forms[0]) - 1) + 1
    product = exactalg._monomials(forms, lambda a, b: exactalg._up_mul(a, b, r))
    out = []
    for c in f.coords:
        acc = [0] * size
        for exps, coeff in c.terms:
            prod = product(exps)
            if prod is None:
                prod = [1]
            acc = [(u + coeff * v) % r for u, v in zip(acc, prod)]
        out.append(acc)
    return out


R61 = 2**61 - 1


@st.composite
def wide_maps_on_lines(draw):
    """(f, forms, r): a plane map of degree 1 to 3 whose forms may be zero,
    over Q with r = 2^61 - 1 and coefficients past 2^64, or over F_7 or
    F_101; and three binary forms mod r of one degree D <= 4, any of them
    zero, with residues up to r - 1."""
    r = draw(st.sampled_from([R61, 7, 101]))
    modulus = None if r == R61 else r
    d = draw(st.integers(1, 3))
    exps = [e for e in itertools.product(range(d + 1), repeat=3) if sum(e) == d]
    coeff = st.integers(-3, 3) | st.integers(2**64, 2**70) | st.integers(-(2**70), -(2**64))
    coords = [
        MultiPoly(3, {e: draw(coeff) for e in exps if draw(st.booleans())}, modulus)
        for _ in range(3)
    ]
    assume(any(not c.is_zero() for c in coords))
    size = draw(st.integers(1, 5))
    residue = st.sampled_from([0, 1, r - 1]) | st.integers(0, r - 1)
    form = st.just([0] * size) | st.lists(residue, min_size=size, max_size=size)
    return ProjectiveMap(coords), draw(st.lists(form, min_size=3, max_size=3)), r


@given(wide_maps_on_lines())
@example((ProjectiveMap([X**3, Y**3, Z**3]), [[0, R61 - 1]] * 3, R61))
@example((ProjectiveMap([X * X, MultiPoly.zero(3), Y * Z]), [[0, 0], [6, 6], [0, 0]], 7))
@settings(max_examples=120, deadline=None)
def test_packed_line_forms_equal_the_schoolbook_ones(case):
    f, forms, r = case
    got = ratmap._line_compose(f, forms, r)
    assert got == schoolbook_line_compose(f, forms, r)
    assert all(0 <= c < r for row in got for c in row)


def test_line_slot_width_holds_its_bound():
    """One-term forms, one through the parameter constant r - 1, reach the
    kernel's bound (r - 1)^4 exactly: every output is one slot, the first
    at the top of its width, which one byte less would overlap."""
    f = ProjectiveMap([T * XT**3, 2 * YT**3, ZT**3])
    forms = [[0, R61 - 1], [R61 - 1, 0], [0, 1], [R61 - 1]]
    assert ratmap._line_compose(f, forms, R61) == [
        [0, 0, 0, 1],
        [R61 - 2, 0, 0, 0],
        [0, 0, 0, 1],
    ]


# -- compositions the engine runs ---------------------------------------------


def composed(f, n_max):
    """(the degrees of f to n_max from _iterates, the number of
    _compose_forms calls it made, and the skipped iterates it rebuilt: at
    each step that composes, the maps ProjectiveMap built before the
    step's own)."""
    calls, made, rebuilt, degrees = [], [], [], []
    plain_compose, plain_map = ratmap._compose_forms, ratmap.ProjectiveMap

    def construct(raw):
        made.append(plain_map(raw))
        return made[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ratmap, "_compose_forms", lambda *a, **k: calls.append(1) or plain_compose(*a, **k))
        mp.setattr(ratmap, "ProjectiveMap", construct)
        for degree, _ in _iterates(f, n_max):
            rebuilt += made[:-1]
            made.clear()
            degrees.append(degree)
    return DegreeSequence(tuple(degrees), n_max), len(calls), rebuilt


@pytest.mark.parametrize(
    "abc, modulus, calls",
    [
        ((1, 1, 1), None, 0),
        ((2, 3, 1), 101, 0),
        # the first line declines at n = 2; a fresh line certifies n = 3..5
        ((1, 1, 1), 101, 1),
        # n = 2 is certified and skipped; the drop at n = 3 rebuilds f^2,
        # then composes n = 3, 4, 5: as many calls as composing every step
        ((1, -1, 1), None, 4),
    ],
)
def test_certified_steps_compose_nothing(abc, modulus, calls):
    f = build_map(FabcParams(*abc), modulus=modulus)
    seq, count, built = composed(f, 5)
    chain = exact_chain(f, 5)
    assert list(seq.degrees) == [m.degree for m in chain]
    assert count == calls
    # every iterate the engine does build is the exact reduced iterate
    by_degree = {m.degree: m.coords for m in chain}
    assert all(m.coords == by_degree[m.degree] for m in built)


def test_symbolic_map_composes_nothing():
    f = build_map(None)
    seq, count, _ = composed(f, 3)
    assert count == 0
    assert list(seq.degrees) == exact_degrees(f, 3)


def test_declining_line_composes_every_step(monkeypatch):
    monkeypatch.setattr(
        ratmap, "_generic_line", lambda n, r, rng: [[5, 1], [7, 0], [11, 0]]
    )
    seq, count, _ = composed(build_map(FabcParams(1, 1, 1)), 5)
    assert list(seq.degrees) == [2, 4, 8, 16, 32]
    assert count == 4


@given(plane_quadratic_maps(), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_random_maps_compose_at_most_once_per_step(f, n_max):
    if vanishes(f, n_max):
        return
    seq, count, _ = composed(f, n_max)
    assert list(seq.degrees) == exact_degrees(f, n_max)
    assert count <= n_max - 1


# -- the term cap bounds only the compositions that run ----------------------

# C(D+2, 2), the most terms a plane form of degree D can have, at
# D = 2, 4, 8, 16, and one below each
CAPS = (5, 6, 14, 15, 44, 45, 152, 153, 10**6)


def reference_sequence(f, n_max, cap):
    """(degrees, truncated_at) composing every step with the cap checked and
    cancelling with ProjectiveMap, skipping nothing."""
    current, degrees = f, [f.degree]
    for n in range(2, n_max + 1):
        try:
            raw = _compose_forms(f, current.coords, cap)
        except TermCapExceeded:
            return degrees, n
        current = ProjectiveMap(raw)
        degrees.append(current.degree)
    return degrees, None


@given(plane_quadratic_maps(), st.integers(1, 5), st.sampled_from(CAPS))
# f^2 is certified and skipped, and its rebuild at the decline n = 3 passes
# the cap: the reference truncates at 2, the engine at 3
@example(
    ProjectiveMap([2 * X * Y, -2 * X * X - X * Y - X * Z, -2 * X * X + X * Y + X * Z - Y * Y + Z * Z]),
    3,
    5,
)
@settings(max_examples=60, deadline=None)
def test_term_cap_bounds_only_compositions_that_run(f, n_max, cap):
    try:
        ref_degrees, ref_truncated_at = reference_sequence(f, n_max, cap)
    except ValueError:
        # an iterate has only zero forms: no line certifies it, so the engine
        # composes it under a cap no composition before it passed, and refuses it
        with pytest.raises(ValueError, match="all coordinate forms are zero"):
            degree_sequence(f, n_max, term_cap=cap)
        return
    if vanishes(f, n_max):
        return
    uncapped, count, built = composed(f, n_max)
    seq = degree_sequence(f, n_max, term_cap=cap)
    truncated_at = seq.truncated_at
    assert seq.degrees == uncapped.degrees[: len(seq.degrees)]
    if truncated_at is None:
        assert len(seq.degrees) == n_max
    else:
        # the engine's compositions are among those composing every step
        # runs, so the reference passes the cap no later
        assert len(seq.degrees) == truncated_at - 1
        assert ref_truncated_at is not None and ref_truncated_at <= truncated_at
    if count == 0:
        # every step is certified on a line: the cap bounds no work
        assert truncated_at is None
    if count == n_max - 1 and not built:
        # every step composes its own iterate, as the reference does
        assert (list(seq.degrees), truncated_at) == (ref_degrees, ref_truncated_at)
    drop = first_drop(uncapped.degrees, f.degree)
    if truncated_at is None or (drop is not None and drop < truncated_at):
        assert degree_drop_index(f, n_max, term_cap=cap) == drop
    else:
        with pytest.raises(TermCapExceeded) as hit:
            degree_drop_index(f, n_max, term_cap=cap)
        assert hit.value.n == truncated_at
