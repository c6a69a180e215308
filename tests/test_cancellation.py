"""Each common factor is divided out once: one gcd of every input at once
(exactalg._gcd_quotients) returns the quotients of its certificate, and a
map's forms are cancelled by that one call."""

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dyndeg import exactalg
from dyndeg.exactalg import MultiPoly, _gcd_quotients, poly_gcd
from dyndeg.fabc import FabcParams, build_map
from dyndeg.ratmap import degree_sequence


@st.composite
def gcd_lists(draw, modulus=None):
    """1 to 4 polynomials in three variables, each feature drawn or not: a
    planted common factor, monomial content, forms, zero inputs in any
    position and a variable none uses."""
    use = draw(st.sampled_from([(0, 1, 2), (0, 2), (1, 2)]))
    homogeneous = draw(st.booleans())

    def poly(min_degree, max_degree):
        degree = draw(st.integers(min_degree, max_degree))
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            exps = [0] * 3
            for _ in range(degree if homogeneous else draw(st.integers(0, degree))):
                exps[draw(st.sampled_from(use))] += 1
            terms[tuple(exps)] = draw(st.integers(-3, 3))
        # keeps the degree; in the last variable, so that the lex-leading
        # term of the gcd, which _gcd_mod_p scales to 1, is often not the
        # grlex-leading one
        if not homogeneous:
            terms[tuple(degree if v == use[-1] else 0 for v in range(3))] = 1
        return MultiPoly(3, terms, modulus)

    def content():
        exps = [0] * 3
        for v in use:
            exps[v] = draw(st.integers(0, 2))
        return MultiPoly.monomial(3, exps, 1, modulus)

    g = poly(1, 2)
    fs = [g * poly(0, 2) * content() for _ in range(draw(st.integers(1, 4)))]
    for i in draw(st.sets(st.integers(0, len(fs) - 1))):
        fs[i] = MultiPoly.zero(3, modulus)
    return fs


def check_quotients(fs):
    g, *quots = _gcd_quotients(fs)
    # the pairwise fold, from 0 so that a single input comes back canonical
    reference = functools.reduce(poly_gcd, fs, MultiPoly.zero(3, fs[0].modulus))
    assert g == reference == _gcd_quotients(fs[::-1])[0]
    assert len(quots) == len(fs)
    for f, q in zip(fs, quots):
        assert g * q == f


@given(gcd_lists())
@settings(max_examples=80, deadline=None)
def test_quotients_over_q(fs):
    check_quotients(fs)


@given(gcd_lists(modulus=7))
@settings(max_examples=80, deadline=None)
def test_quotients_over_f7(fs):
    check_quotients(fs)


X, Y, Z = (MultiPoly.variable(3, i) for i in range(3))


@pytest.mark.parametrize("modulus", [None, 101])
def test_gcd_builds_only_its_three_results(modulus, monkeypatch):
    """Monomial content, a denominator and forms that _reduce dehomogenises:
    the gcd strips, reduces, certifies and lifts on term dicts, and builds
    each of g, p / g and q / g once."""
    X, Y, Z = (MultiPoly.variable(3, i, modulus) for i in range(3))
    g = X**2 + 3 * X * Z - 2 * Y**2
    p = X * Z * g * (X + 2 * Y - Z) * Fraction(1, 3)
    q = Y * g * (Y**2 - X * Z + 5 * Z**2)
    calls = []
    init, build = MultiPoly.__init__, MultiPoly._build.__func__

    def counting_init(self, *args, **kwargs):
        calls.append("init")
        init(self, *args, **kwargs)

    def counting_build(cls, *args):
        calls.append("build")
        return build(cls, *args)

    monkeypatch.setattr(MultiPoly, "__init__", counting_init)
    monkeypatch.setattr(MultiPoly, "_build", classmethod(counting_build))
    got, a, b = _gcd_quotients((p, q))
    monkeypatch.undo()
    assert (got, got * a, got * b) == (g, p, q)
    assert calls.count("init") == 0
    assert calls.count("build") <= 3


def test_cancel_when_the_running_gcd_shrinks_twice(monkeypatch):
    """A pairwise fold's running gcd would fall from degree 3 to 2 to 1;
    the one gcd of the list runs Brown's algorithm once, on all four forms,
    and trial-divides each form once over Q."""
    k, h1, h2 = 2 * X + Z, X + Y, X - 2 * Z
    forms = [
        -3 * k * h1 * h2 * (X + Z),
        k * h1 * h2 * (Y + 3 * Z),
        k * h1 * (Y - Z),
        k * (Y**2 + Z**2),
    ]
    runs, divisions = [], []
    modular, divide = exactalg._gcd_modular, exactalg._divide_terms
    monkeypatch.setattr(exactalg, "_gcd_modular", lambda fs: runs.append(len(fs)) or modular(fs))
    monkeypatch.setattr(
        exactalg, "_divide_terms", lambda rem, d, p=None: divisions.append(p) or divide(rem, d, p)
    )
    g, *quots = _gcd_quotients(forms)
    monkeypatch.undo()
    assert runs == [4]
    assert divisions.count(None) == 4
    assert g == k
    assert [g * f for f in quots] == forms


def test_degree_sequence_divides_each_common_factor_once(monkeypatch):
    calls = []
    inner = exactalg._divide_terms

    def spy(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(exactalg, "_divide_terms", spy)
    # two gcds find a factor, and each certificate divides each of the three
    # forms once: over Q only over Z, since a lift that divides there
    # certifies its image mod 2^61 - 1 too
    for modulus, bound in ((None, 6), (101, 6)):
        calls.clear()
        seq = degree_sequence(build_map(FabcParams(1, -1, 1), modulus), 5)
        assert seq.degrees == (2, 4, 7, 12, 20)
        assert len(calls) <= bound, modulus


def test_degree_sequence_interpolates_in_the_cheap_variable(monkeypatch):
    """The forms of the (1, -1, 1) iterates to f^5 give γ of degree 2, 5
    and 9 with Y last, where the recursion made 20 point images; with X
    last γ has degree 0, 1 and 2, so _reduce puts X last, and at most 9
    images are made."""
    images = []
    inner = exactalg._gcd_mod_p

    def spy(*args):
        images.append(1)
        return inner(*args)

    monkeypatch.setattr(exactalg, "_gcd_mod_p", spy)
    seq = degree_sequence(build_map(FabcParams(1, -1, 1)), 5)
    assert seq.degrees == (2, 4, 7, 12, 20)
    assert len(images) <= 9


def test_rational_gcd_divides_only_over_z(monkeypatch):
    """A bivariate pair with a planted factor and small coefficients: the
    lift of the first prime's image divides both inputs over Z, so no
    division mod p runs."""
    moduli = []
    inner = exactalg._divide_terms

    def spy(rem, d, p=None):
        moduli.append(p)
        return inner(rem, d, p)

    monkeypatch.setattr(exactalg, "_divide_terms", spy)
    x, y = (MultiPoly.variable(2, i) for i in range(2))
    g = x**2 - 3 * x * y + 2 * y + 1
    a, b = g * (x + 2 * y - 1), g * (x * y - y**2 + 3)
    assert poly_gcd(a, b) == g
    assert moduli == [None, None]


@pytest.mark.parametrize("modulus", [None, 7, 101])
def test_zero_and_constant_forms(modulus):
    one = MultiPoly.constant(2, 1, modulus)
    x, zero = MultiPoly.variable(2, 0, modulus), MultiPoly.zero(2, modulus)
    assert _gcd_quotients([zero, 3 * x, zero]) == (x, zero, 3 * one, zero)
    assert _gcd_quotients([x, one, 2 * x]) == (one, x, one, 2 * x)
    assert _gcd_quotients([zero, zero]) == (zero, zero, zero)
    assert _gcd_quotients([3 * x]) == (x, 3 * one)
    assert _gcd_quotients([zero, 3 * x])[0] == x
