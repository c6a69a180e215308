"""poly_gcd against sympy.gcd, one ring shape per path of _gcd_core.

Each case builds pairs with a planted common factor and coprime pairs from
seeded random polynomials, checks that the expected path ran, and asserts
that poly_gcd equals sympy's gcd up to the canonical scale.  More rational
cases reach the corners of the modular gcd: a discarded candidate, a
skipped prime, a CRT over several primes, a coefficient that vanishes mod
the first prime, and unlucky evaluation points.  sympy is an oracle for
tests only.
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
        coeff = (lambda c: c) if f.modulus is not None else (
            lambda c: sympy.Rational(c.numerator, c.denominator)
        )
        return sympy.Poly.from_dict({e: coeff(c) for e, c in f.terms}, gens, **opts)

    g = sympy.gcd(to_sympy(p), to_sympy(q))
    terms = {
        e: Fraction(int(c.p), int(c.q)) if p.modulus is None else int(c)
        for e, c in g.as_dict().items()
    }
    return MultiPoly(p.num_vars, terms, p.modulus).canonical()


# (name, path that must run, random_poly keywords for factor and cofactors)
SHAPES = [
    ("univariate", "_gcd_modular", dict(num_vars=1)),
    ("projected", "_project_vars", dict(num_vars=3, use=[0, 2])),
    ("bivariate", "_gcd_modular", dict(num_vars=2)),
    ("homogeneous", "_eliminate_var", dict(num_vars=3, homogeneous=True)),
    ("symbolic", "_gcd_modular", dict(num_vars=4)),
    ("mod-p", "_subresultant_prs", dict(num_vars=2, modulus=101)),
]


@pytest.fixture
def branch_calls(monkeypatch):
    calls = {}
    for name in {name for _, name, _ in SHAPES}:
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


P0 = 2**61 - 1  # the first prime of the modular gcd
x = MultiPoly.variable(1, 0)
X0, X1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)


def test_candidate_agreeing_mod_the_first_prime_is_discarded(monkeypatch):
    """x + 1 and x + 1 + P0 agree mod P0, so the first candidate is x + 1;
    its trial division fails and the next prime proves them coprime."""
    failures = []
    divexact = exactalg.poly_divexact

    def spy(p, d):
        try:
            return divexact(p, d)
        except exactalg.NotDivisibleError:
            failures.append(d)
            raise

    monkeypatch.setattr(exactalg, "poly_divexact", spy)
    a, b = x + 1, x + 1 + P0
    assert poly_gcd(a, b) == sympy_gcd(a, b) == MultiPoly.constant(1, 1)
    assert failures == [x + 1]


@pytest.fixture
def primes_used(monkeypatch):
    primes = []
    inner = exactalg._gcd_mod_p

    def spy(a, b, p):
        if p not in primes:
            primes.append(p)
            assert len(primes) <= 10, "the modular gcd is not converging"
        return inner(a, b, p)

    monkeypatch.setattr(exactalg, "_gcd_mod_p", spy)
    return primes


def test_prime_dividing_a_leading_coefficient_is_skipped(primes_used):
    g = P0 * x + 1
    a, b = g * (x + 3), g * (x**2 - 7)
    got = poly_gcd(a, b)
    assert got == sympy_gcd(a, b) == g
    assert P0 not in primes_used and primes_used


@pytest.mark.parametrize(
    "g",
    [X0 + (2**64 + 13) * X1 - (2**62 + 1), X0 + P0 * X1 + 1],
    ids=["above-2^61", "vanishing-mod-first-prime"],
)
def test_large_coefficients_need_crt_over_several_primes(g, primes_used):
    a, b = g * (X0 + X1 - 2), g * (X0 * X1 - 3 * X1 + 1)
    got = poly_gcd(a, b)
    assert got == sympy_gcd(a, b) == g
    assert len(primes_used) >= 2


def test_unlucky_evaluation_points_are_discarded():
    """At t = 1 and t = 2 both inputs specialise to multiples of x^2, for
    every prime, so the first two images agree on a false gcd; the trial
    division mod p must reject it, and the image at t = 3 proves the pair
    coprime."""
    t = X1
    c = (t - 1) * (t - 2)
    a, b = X0**2 + c, X0**3 + c
    image = exactalg._gcd_mod_p(
        {e: int(v) % P0 for e, v in a.terms}, {e: int(v) % P0 for e, v in b.terms}, P0
    )
    assert image == {(0, 0): 1}
    assert poly_gcd(a, b) == sympy_gcd(a, b) == MultiPoly.constant(2, 1)
