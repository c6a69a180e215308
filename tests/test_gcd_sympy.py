"""poly_gcd against sympy.gcd, one ring shape per branch of _gcd_core.

Each case builds pairs with a planted common factor and coprime pairs from
seeded random polynomials, checks that the expected branch ran, and asserts
that poly_gcd equals sympy's gcd up to the canonical scale.  sympy is an
oracle for tests only.
"""

import random
from fractions import Fraction

import pytest

from dyndeg import exactalg
from dyndeg.exactalg import MultiPoly, poly_gcd

sympy = pytest.importorskip("sympy")


def random_poly(rng, num_vars, degree, n_terms, modulus=None, homogeneous=False, use=None):
    """Random polynomial of total degree <= degree (== degree when
    homogeneous) in the variables `use` (default: all)."""
    use = range(num_vars) if use is None else use
    terms = {}
    while len(terms) < n_terms:
        d = degree if homogeneous else rng.randint(0, degree)
        exps = [0] * num_vars
        for _ in range(d):
            exps[rng.choice(use)] += 1
        terms[tuple(exps)] = rng.choice([c for c in range(-5, 6) if c])
    lead = [0] * num_vars
    lead[use[0]] = degree
    terms[tuple(lead)] = 1  # keeps the total degree exact
    return MultiPoly(num_vars, terms, modulus)


def sympy_gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    gens = sympy.symbols(f"x0:{p.num_vars}")
    opts = {"modulus": p.modulus} if p.modulus is not None else {"domain": "QQ"}

    def to_sympy(f):
        coeff = (lambda c: c.v) if f.modulus is not None else (
            lambda c: sympy.Rational(c.numerator, c.denominator)
        )
        return sympy.Poly.from_dict({e: coeff(c) for e, c in f.terms}, gens, **opts)

    g = sympy.gcd(to_sympy(p), to_sympy(q))
    terms = {
        e: Fraction(int(c.p), int(c.q)) if p.modulus is None else int(c)
        for e, c in g.as_dict().items()
    }
    return MultiPoly(p.num_vars, terms, p.modulus).canonical()


# (name, branch that must run, random_poly keywords for factor and cofactors)
SHAPES = [
    ("univariate", "_univar_int_list", dict(num_vars=1)),
    ("projected", "_project_vars", dict(num_vars=3, use=[0, 2])),
    ("bivariate", "_gcd_bivariate", dict(num_vars=2)),
    ("homogeneous", "_eliminate_var", dict(num_vars=3, homogeneous=True)),
    ("symbolic", "_coprime_fast_path", dict(num_vars=4)),
    ("mod-p", "_subresultant_prs", dict(num_vars=2, modulus=101)),
]


@pytest.fixture
def branch_calls(monkeypatch):
    calls = {}
    for _, name, _ in SHAPES:
        inner = getattr(exactalg, name)

        def spy(*args, _inner=inner, _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _inner(*args)

        monkeypatch.setattr(exactalg, name, spy)
    return calls


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("planted", [True, False], ids=["planted", "coprime"])
@pytest.mark.parametrize("name,branch,shape", SHAPES, ids=[s[0] for s in SHAPES])
def test_poly_gcd_matches_sympy(name, branch, shape, planted, seed, branch_calls):
    rng = random.Random(f"{name}-{planted}-{seed}")
    a = random_poly(rng, degree=2, n_terms=3, **shape)
    b = random_poly(rng, degree=2, n_terms=3, **shape)
    if planted:
        g = random_poly(rng, degree=2, n_terms=2, **shape)
        a, b = g * a, g * b
    got = poly_gcd(a, b)
    assert got == sympy_gcd(a, b)
    assert got == poly_gcd(b, a)
    if planted:
        assert not got.is_constant()
    assert branch_calls.get(branch, 0) > 0
