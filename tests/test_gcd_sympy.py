"""poly_gcd against sympy.gcd_list, one ring shape per path of the gcd.

Each case builds pairs with a planted common factor and coprime pairs from
seeded random polynomials, and a triple whose first two inputs share more
than all three do, checks that the expected path ran, and asserts that the
gcd equals sympy's up to the canonical scale.  More rational
cases reach the corners of the modular gcd: a discarded candidate, a
skipped prime, a CRT over several primes, a coefficient that vanishes mod
the first prime, and unlucky evaluation points.  Over small prime fields
the gcd runs out of points and moves to an extension field; its pairs,
its two known hard triples over F_7 and its choice of modulus m are checked
against sympy too.  sympy is an oracle for tests only.
"""

import itertools
import random
from fractions import Fraction

import pytest

from dyndeg import exactalg
from dyndeg.exactalg import MultiPoly, _gcd_quotients, poly_gcd

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


def _sympy_ring(p: MultiPoly):
    gens = sympy.symbols(f"x0:{p.num_vars}")
    return gens, {"modulus": p.modulus} if p.modulus is not None else {"domain": "QQ"}


def to_sympy(f: MultiPoly):
    gens, opts = _sympy_ring(f)
    coeff = (lambda c: c) if f.modulus is not None else (
        lambda c: sympy.Rational(c.numerator, c.denominator)
    )
    return sympy.Poly.from_dict({e: coeff(c) for e, c in f.terms}, gens, **opts)


def from_sympy(g, like: MultiPoly) -> MultiPoly:
    terms = {
        e: Fraction(int(c.p), int(c.q)) if like.modulus is None else int(c)
        for e, c in g.as_dict().items()
    }
    return MultiPoly(like.num_vars, terms, like.modulus)


def sympy_gcd(*fs: MultiPoly) -> MultiPoly:
    """sympy.gcd_list of fs, at the canonical scale."""
    gens, opts = _sympy_ring(fs[0])
    g = sympy.gcd_list([to_sympy(f).as_expr() for f in fs], *gens, polys=True, **opts)
    return from_sympy(g, fs[0]).canonical()


# (name, path that must run, variables _reduce drops or None, random_poly
# keywords for factor and cofactors)
SHAPES = [
    ("univariate", "_gcd_modular", None, dict(num_vars=1)),
    ("projected", "_reduce", 1, dict(num_vars=3, use=[0, 2])),
    ("bivariate", "_gcd_modular", 0, dict(num_vars=2)),
    ("homogeneous", "_reduce", 1, dict(num_vars=3, homogeneous=True)),
    ("symbolic", "_gcd_modular", None, dict(num_vars=4)),
    ("mod-p", "_gcd_prime_field", None, dict(num_vars=2, modulus=101)),
]


@pytest.fixture
def branch_calls(monkeypatch):
    """Calls per path, and under "dropped" the number of variables each
    _reduce call removed."""
    calls = {"dropped": []}
    for name in {name for _, name, _, _ in SHAPES} | {"_reduce"}:
        inner = getattr(exactalg, name)

        def spy(*args, _inner=inner, _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            out = _inner(*args)
            if _name == "_reduce":
                arity = (len(next(iter(fs[0]))) for fs in (args[0], out[0]))
                calls["dropped"].append(next(arity) - next(arity))
            return out

        monkeypatch.setattr(exactalg, name, spy)
    return calls


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("planted", [True, False], ids=["planted", "coprime"])
@pytest.mark.parametrize("name,branch,dropped,shape", SHAPES, ids=[s[0] for s in SHAPES])
def test_poly_gcd_matches_sympy(name, branch, dropped, shape, planted, seed, branch_calls):
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
    if dropped is not None:
        assert set(branch_calls["dropped"]) == {dropped}


@pytest.mark.parametrize("name,branch,dropped,shape", SHAPES, ids=[s[0] for s in SHAPES])
def test_gcd_of_a_triple_matches_sympy(name, branch, dropped, shape, branch_calls):
    """g * h * a, g * h * b and g * c: the first two share g * h, all three
    only g, which the one gcd of the list must find and certify."""
    rng = random.Random(f"{name}-triple")
    g, h = (random_poly(rng, degree=1, n_terms=2, **shape) for _ in range(2))
    a, b, c = (random_poly(rng, degree=2, n_terms=3, **shape) for _ in range(3))
    fs = (g * h * a, g * h * b, g * c)
    got, *quots = _gcd_quotients(fs)
    assert got == sympy_gcd(*fs) == _gcd_quotients(fs[::-1])[0]
    assert [got * q for q in quots] == list(fs)
    assert poly_gcd(*fs[:2]).degree > got.degree > 0
    assert branch_calls.get(branch, 0) > 0
    if dropped is not None:
        assert set(branch_calls["dropped"]) == {dropped}


P0 = 2**61 - 1  # the first prime of the modular gcd
x = MultiPoly.variable(1, 0)
X0, X1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)


def test_candidate_agreeing_mod_the_first_prime_is_discarded(monkeypatch):
    """x + 1 and x + 1 + P0 agree mod P0, so the first candidate is x + 1;
    its trial division over Q (a _divide_terms call without a modulus)
    fails and the next prime proves them coprime."""
    failures = []
    divide = exactalg._divide_terms

    def spy(rem, d, p=None):
        out = divide(rem, d, p)
        if p is None and out is None:
            failures.append(MultiPoly(len(d[0][0]), dict(d)))
        return out

    monkeypatch.setattr(exactalg, "_divide_terms", spy)
    a, b = x + 1, x + 1 + P0
    assert poly_gcd(a, b) == sympy_gcd(a, b) == MultiPoly.constant(1, 1)
    assert failures == [x + 1]


@pytest.fixture
def primes_used(monkeypatch):
    primes = []
    inner = exactalg._candidates

    def spy(splits, p):
        if p not in primes:
            primes.append(p)
            assert len(primes) <= 10, "the modular gcd is not converging"
        return inner(splits, p)

    monkeypatch.setattr(exactalg, "_candidates", spy)
    return primes


@pytest.fixture
def division_log(monkeypatch):
    """(modulus or None, divisor, whether it divided) for each _divide_terms
    call, in order; a run that keeps dividing is cut off."""
    log = []
    divide = exactalg._divide_terms

    def spy(rem, d, p=None):
        out = divide(rem, d, p)
        log.append((p, MultiPoly(len(d[0][0]), dict(d), p), out is not None))
        assert len(log) <= 40, "the modular gcd is not converging"
        return out

    monkeypatch.setattr(exactalg, "_divide_terms", spy)
    return log


def check_fallbacks(log, k):
    """Each lifted candidate is one division over Q, and one that fails
    falls back to divisions mod its prime: none when the candidate is
    Euclid's gcd, else k that all hold (it enters the CRT state) or one
    that fails (an unlucky interpolant, so another candidate of that prime
    follows).  A candidate above the leading monomial of a certified image
    is not lifted: it has only its divisions mod a later prime, k that
    hold (the prime is dropped) or one that fails."""
    i, certified = 0, None
    while i < len(log):
        lifted = log[i][0] is None
        if lifted:
            i += 1
            if log[i - 1][2]:
                continue
        run = []
        while (
            i < len(log) and log[i][0] is not None and len(run) < k and all(ok for _, ok in run)
            and log[i][0] == (run[0][0] if run else log[i][0])
        ):
            run.append((log[i][0], log[i][2]))
            i += 1
        oks = [ok for _, ok in run]
        assert oks in ([True] * k, [False]) or lifted and not oks, log
        if not lifted:
            assert certified is not None and run[0][0] != certified, log
        elif oks != [False]:
            certified = run[0][0] if run else "Euclid"


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
def test_large_coefficients_need_crt_over_several_primes(g, primes_used, division_log):
    """The lift of the first prime's image fails over Q, so that image is
    certified mod P0 before it enters the CRT, and the lift over two
    primes holds over Q."""
    a, b = g * (X0 + X1 - 2), g * (X0 * X1 - 3 * X1 + 1)
    got = poly_gcd(a, b)
    assert got == sympy_gcd(a, b) == g
    assert len(primes_used) >= 2
    assert [(p, ok) for p, _, ok in division_log] == [
        (None, False), (P0, True), (P0, True), (None, True), (None, True)
    ]
    check_fallbacks(division_log, 2)


def check_image_of_higher_degree_is_dropped(num_vars, monkeypatch, division_log):
    """Mod _prime(1) the cofactor x + 3 - _prime(1) is x + 3, so that image
    is the whole of a, of degree 2 in x, against the gcd's 1.  CRT must
    drop it unlifted and combine the images mod _prime(0) and _prime(2),
    whose product passes 2 * (2^70 + 1): every candidate tried over Q has
    degree 1 in x."""
    x = MultiPoly.variable(num_vars, 0)
    variables = (MultiPoly.variable(num_vars, v) for v in range(num_vars))
    cofactor = sum(variables, MultiPoly.constant(num_vars, 3))  # x + 3, or x + y + 3
    g = x + 2**70 + 1
    a, b = g * cofactor, g * (cofactor - exactalg._prime(1))
    images = []
    image = exactalg._candidates

    def image_spy(splits, p):
        for cand in image(splits, p):
            if len(next(iter(cand))) == num_vars - 1:  # not an image at a point
                images.append((p, max(exactalg._join_last(cand, p))[0]))
            yield cand

    monkeypatch.setattr(exactalg, "_candidates", image_spy)
    got = poly_gcd(a, b)
    monkeypatch.undo()
    assert got == sympy_gcd(a, b) == g
    assert images == [(exactalg._prime(i), d) for i, d in enumerate((1, 2, 1))]
    # the x-exponents of the leading terms: one failed division by the
    # candidate over Q, two certifying ones
    divisors = [d.terms[0][0][:1] for p, d, _ in division_log if p is None]
    assert divisors == [(1,)] * 3
    check_fallbacks(division_log, 2)
    return [(p, ok) for p, _, ok in division_log if p is not None]


def test_image_of_higher_degree_is_dropped(monkeypatch, division_log):
    """The image mod _prime(0), whose lift fails over Q, is Euclid's gcd,
    certified with no division."""
    assert check_image_of_higher_degree_is_dropped(1, monkeypatch, division_log) == []


def test_image_of_higher_degree_is_dropped_in_two_variables(monkeypatch, division_log):
    """With x + y + 3 in the cofactors, the images are interpolants: two
    divisions mod _prime(0) certify the first, whose lift fails over Q,
    before it enters the CRT, and two mod _prime(1) certify the image of
    higher degree before its prime is dropped."""
    modular = check_image_of_higher_degree_is_dropped(2, monkeypatch, division_log)
    assert modular == [(P0, True)] * 2 + [(exactalg._prime(1), True)] * 2


def test_unlucky_evaluation_points_are_discarded(division_log):
    """At t = 1 and t = 2 both inputs specialise to multiples of x^2, for
    every prime, so the first two images agree on a false gcd; the trial
    division of its lift over Q fails, then the one mod p rejects the
    image itself, and the image at t = 3 proves the pair coprime."""
    t = X1
    c = (t - 1) * (t - 2)
    a, b = X0**2 + c, X0**3 + c
    image = exactalg._gcd_mod_p([{e: int(v) % P0 for e, v in f.terms} for f in (a, b)], P0)
    assert image == {(0, 0): 1}
    assert division_log == [(P0, MultiPoly(2, {(2, 0): 1}, P0), False)]
    division_log.clear()
    assert poly_gcd(a, b) == sympy_gcd(a, b) == MultiPoly.constant(2, 1)
    assert division_log == [
        (None, X0**2, False),
        (P0, MultiPoly(2, {(2, 0): 1}, P0), False),
    ]
    check_fallbacks(division_log, 2)


def test_unlucky_candidate_at_every_prime_is_refused(division_log):
    """g(t) = x + 5 at t = 1 and t = 2, so every prime's first candidate is
    x + 5, with the leading monomial of g.  Mod P0 its lift fails over Q
    and it fails mod P0; the true image's lift fails over Q (a coefficient
    above 2^64), and it enters the CRT certified.  Mod P1 the false
    candidate, lifted with the image mod P0, fails over Q and mod P1, and
    the true image, lifted with the image mod P0, divides over Q."""
    t = X1
    g = X0 + (2**64 + 13) * (t - 1) * (t - 2) + 5
    a, b = g * (X0 + t - 2), g * (X0 * t - 3 * t + 1)
    assert poly_gcd(a, b) == sympy_gcd(a, b) == g
    P1 = exactalg._prime(1)
    assert [(p, ok) for p, _, ok in division_log] == [
        (None, False), (P0, False),
        (None, False), (P0, True), (P0, True),
        (None, False), (P1, False),
        (None, True), (None, True),
    ]
    assert [d for p, d, ok in division_log if p and not ok] == [
        MultiPoly(2, {(1, 0): 1, (0, 0): 5}, m) for m in (P0, P1)
    ]
    check_fallbacks(division_log, 2)


def test_unlucky_candidate_above_the_certified_image_is_refused(primes_used, division_log):
    """At t = 1 and t = 2 the inputs specialise to g(1) * x^2 and g(1) * x^3,
    for every prime, so every prime's first candidate is x^3 + 5x^2, above
    the leading monomial of g.  Mod P0 it fails over Q and mod P0, and g
    mod P0, whose lift fails over Q (a coefficient above 2^64), enters the
    CRT certified.  Mod P1 the false candidate, above that image, is not
    lifted; it fails mod P1, so the prime is kept, and g mod P1, lifted
    with the image mod P0, divides over Q."""
    t = X1
    c = (t - 1) * (t - 2)
    g = X0 + (2**64 + 13) * c + 5
    a, b = g * (X0**2 + c), g * (X0**3 + c)
    assert poly_gcd(a, b) == sympy_gcd(a, b) == g
    P1 = exactalg._prime(1)
    assert primes_used == [P0, P1]
    assert [(p, ok) for p, _, ok in division_log] == [
        (None, False), (P0, False),
        (None, False), (P0, True), (P0, True),
        (P1, False),
        (None, True), (None, True),
    ]
    assert [d for p, d, ok in division_log if p and not ok] == [
        MultiPoly(2, {(3, 0): 1, (2, 0): 5}, m) for m in (P0, P1)
    ]
    check_fallbacks(division_log, 2)


@pytest.fixture
def last_variables(monkeypatch):
    """The original index of the variable each _reduce call puts last, read
    off its lift of that variable."""
    moved = []
    inner = exactalg._reduce

    def spy(fs, r):
        out, lift = inner(fs, r)
        n = len(next(iter(out[0])))
        (e,) = lift({(0,) * (n - 1) + (1,): 1})
        moved.append(e.index(1))
        return out, lift

    monkeypatch.setattr(exactalg, "_reduce", spy)
    return moved


# (num_vars, modulus, the variable the order moves last)
MOVED_ORDERS = [(2, None, 0), (2, 101, 0), (3, None, 1)]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "num_vars,modulus,moved", MOVED_ORDERS, ids=["rational", "mod-101", "three-variables"]
)
def test_moved_order_matches_sympy(num_vars, modulus, moved, seed, last_variables):
    """A planted factor whose lex leading coefficient in the last variable
    has degree 3 (x0^2 * x1^3, or x0^2 * x2^3) and in the other order is 1
    (x1^5, or x0^2 * x2^3 again), times cofactors whose leading
    coefficients are 1 in every order: the reduction moves a variable last,
    and the gcd and the quotients are sympy's."""
    rng = random.Random(f"moved-{num_vars}-{modulus}-{seed}")
    v = [MultiPoly.variable(num_vars, i, modulus) for i in range(num_vars)]

    def low(max_exps):
        # a random polynomial whose exponent of each variable i stays
        # below max_exps[i]
        terms = {}
        for _ in range(4):
            e = tuple(rng.randrange(m) for m in max_exps)
            terms[e] = rng.choice([c for c in range(-5, 6) if c])
        return MultiPoly(num_vars, terms, modulus)

    if num_vars == 2:
        g = v[0] ** 2 * v[1] ** 3 + v[1] ** 5 + low((2, 5))
    else:
        g = v[0] ** 2 * v[2] ** 3 + low((2, 3, 3))
    ones = sum((u**2 for u in v), MultiPoly.zero(num_vars, modulus))
    fs = [g * (ones + low((2,) * num_vars)) for _ in range(2)]
    got, *quots = _gcd_quotients(fs)
    assert last_variables == [moved]
    assert got == sympy_gcd(*fs) == g.canonical()
    for f, q in zip(fs, quots):
        want, rem = to_sympy(f).div(to_sympy(got))
        assert rem.is_zero and q == from_sympy(want, f)


@pytest.fixture
def extensions_used(monkeypatch):
    fields = []
    inner = exactalg._extension

    def spy(p, k):
        fields.append((p, k))
        return inner(p, k)

    monkeypatch.setattr(exactalg, "_extension", spy)
    return fields


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_small_field_gcd_matches_sympy(p, extensions_used):
    """Seeded planted and coprime pairs in 2 and 3 variables.  F_2 has one
    nonzero point, so most pairs need an extension; at degree 2, F_7 has
    enough points for these, and the two inputs below reach its extension."""
    pairs_in_extension = 0
    for num_vars, planted, seed in itertools.product((2, 3), (True, False), range(10)):
        rng = random.Random(f"small-field-{p}-{num_vars}-{planted}-{seed}")
        a, b = (random_poly(rng, num_vars, 2, 4, modulus=p) for _ in range(2))
        if planted:
            g = random_poly(rng, num_vars, 2, 3, modulus=p)
            a, b = g * a, g * b
        before = len(extensions_used)
        got = poly_gcd(a, b)
        assert got == sympy_gcd(a, b), (num_vars, planted, seed)
        if planted:
            assert not got.is_constant()
        pairs_in_extension += len(extensions_used) > before
    assert pairs_in_extension > 0 or p == 7


Y0, Y1 = MultiPoly.variable(2, 0, 7), MultiPoly.variable(2, 1, 7)


@pytest.mark.parametrize(
    "g,cofactors",
    [
        # the leading coefficient vanishes at every point of F_7 in either
        # order of the variables: (Y1^7 - Y1) * Y1 with Y1 last, and
        # (Y0^7 - Y0) * Y0 with Y0 last
        (
            Y0 + Y1 + 1,
            [(Y0**7 - Y0) * (Y1**7 - Y1) * Y0 * Y1 + k for k in (1, 2, 3)],
        ),
        # a Y-degree of 7 needs 8 points to interpolate, F_7 has 6
        (Y1**7 + Y0 + Y1 + 1, [Y0 + k for k in (2, 3, 4)]),
    ],
    ids=["vanishing-leading-coefficient", "degree-7-in-the-last-variable"],
)
def test_f7_runs_out_of_points_and_extends(g, cofactors, extensions_used):
    fs = [g * f for f in cofactors]
    with pytest.raises(exactalg._PointsExhausted):
        exactalg._gcd_mod_p([dict(f.terms) for f in fs], 7)
    got, *quots = _gcd_quotients(fs)
    assert got == poly_gcd(*fs[:2]) == sympy_gcd(*fs) == g
    assert quots == cofactors
    assert extensions_used == [(7, 2)] * 2


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_extension_modulus_is_the_first_irreducible(p, k):
    """m = s^k + lower terms whose coefficients are the base-p digits of i,
    for the least i with m irreducible: sympy must find m irreducible and
    every earlier candidate reducible."""
    s = sympy.symbols("s")

    def candidate(i):
        digits = [i // p**j % p for j in range(k)] + [1]
        return sympy.Poly(list(reversed(digits)), s, modulus=p)

    field = exactalg._extension(p, k)
    i = sum(c * p**j for j, c in enumerate(field.m[:-1]))
    assert field.m[-1] == 1 and len(field.m) == k + 1
    assert candidate(i).is_irreducible
    assert not any(candidate(j).is_irreducible for j in range(i))


@pytest.mark.parametrize("p,k", [(2, 2), (2, 4), (3, 2), (5, 2)])
def test_every_extension_point_is_invertible(p, k):
    field = exactalg._extension(p, k)
    points = list(field.points())
    assert len({tuple(exactalg._coeffs(t)) for t in points}) == p**k - 1
    assert all(t * pow(t, -1, field) % field == 1 for t in points)
    assert points[: p - 1] == list(range(1, p))
