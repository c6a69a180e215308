"""End-to-end acceptance checks.

Each test exercises one headline guarantee of the library at its stated
tolerance and prints a single summary line.  Together they cover: exact
degree sequences, the exhaustive classifier grid, the repeated-root edge
case, the mod-p exceptional-prime phenomenon, the full inverse/fiber
geometry, the one-parameter exceptional locus with height bounds, the
randomized monomial-map suites, the homogenization cross-oracle, the
marked-orbit family reports, and the uniform-convergence index search.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from dyndeg.cyclo import cos_min_poly
from dyndeg.exactalg import MultiPoly, poly_gcd
from dyndeg.fabc import (
    FabcParams,
    FamilyParams,
    build_map,
    classify,
    classify_mod_p,
    critical_locus,
    family_exceptional_locus,
    indeterminacy_points,
    vn_sequence,
)
from dyndeg.gfam import (
    GFamilyParams,
    build_g,
    exceptional_set,
    negative_answer_report,
)
from dyndeg.monomial import (
    MonomialMap,
    analyze,
    degree_D,
    homogenize,
    identity_rows,
    mat_mul,
    mat_pow,
)
from dyndeg.ratmap import (
    INDETERMINATE,
    ProjectiveMap,
    ProjectivePoint,
    _compose_forms,
    degree_drop_index,
    degree_sequence,
)
from dyndeg.suites import (
    fabc_grid_suite,
    gfam_suite,
    monomial_suite,
    unimodular_suite,
)


def report(name: str, elapsed: float, budget: float | None = None) -> None:
    window = f" (< {budget:.0f}s budget)" if budget is not None else ""
    print(f"[PASS] {name}: {elapsed:.2f}s{window}")


def test_criterion_1_stability_degree_sequences():
    t0 = time.time()
    stable = build_map(FabcParams(1, 1, 1))
    assert degree_sequence(stable, 5).degrees == (2, 4, 8, 16, 32)
    unstable = build_map(FabcParams(1, -1, 1))
    seq = degree_sequence(unstable, 3)
    assert seq.degrees[2] < 8
    assert degree_drop_index(unstable, 5) == 3
    elapsed = time.time() - t0
    assert elapsed < 30
    report("criterion 1: stability degree sequences", elapsed, 30)


def test_criterion_2_classifier_grid():
    t0 = time.time()
    result = fabc_grid_suite()
    assert result.total == 216  # all (a,b,c) in {-3..3}^3 with abc != 0
    assert result.ok, result.failures[:5]
    elapsed = time.time() - t0
    assert elapsed < 300
    report("criterion 2: classifier grid (216 triples)", elapsed, 300)


def test_criterion_3_repeated_root_edge_case():
    t0 = time.time()
    p = FabcParams(1, -1, 2)  # c^2 + 4ab = 0
    assert classify(p).status == "Stable"
    assert vn_sequence(p, 20) == [n + 1 for n in range(21)]
    assert degree_sequence(build_map(p), 5).degrees == (2, 4, 8, 16, 32)
    report("criterion 3: repeated-root edge case (1,-1,2)", time.time() - t0)


def test_criterion_4_mod_p_exceptional_primes():
    t0 = time.time()
    assert classify(FabcParams(-2, 1, 3)).status == "Stable"
    for small in (2, 3):
        assert classify_mod_p(-2, 1, 3, small).status == "DegenerateModP"
    spot = {5: 3, 7: 2, 11: 9, 31: 4}
    for p in range(5, 98):
        if any(p % d == 0 for d in range(2, p)):
            continue
        res = classify_mod_p(-2, 1, 3, p)
        assert res.status == "ExceptionalAt"
        order = 1
        acc = 2 % p
        while acc != 1:
            acc = (acc * 2) % p
            order += 1
        assert res.m == order - 1
        if p in spot:
            assert res.m == spot[p]
    report("criterion 4: mod-p exceptional primes for (-2,1,3)", time.time() - t0)


def test_criterion_5_inverse_and_fiber_geometry(fabc_inverse):
    # fabc_inverse: the inverse [ab^2 X(Y - X), w^2, bw(Y - X)],
    # w = cX - cY + aZ, that the fabc docstring states
    t0 = time.time()
    rng = random.Random(20260816)
    ident = tuple(MultiPoly.variable(3, i) for i in range(3))
    for _ in range(20):
        vals = []
        while len(vals) < 3:
            v = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            if v != 0:
                vals.append(v)
        p = FabcParams(*vals)
        g = ProjectiveMap(fabc_inverse(p))
        assert ProjectiveMap(_compose_forms(g, build_map(p).coords)).coords == ident

    x, y, z, a, b, c = (MultiPoly.variable(6, i) for i in range(6))
    assert critical_locus(None) == (-2 * a * b * y * z**2).canonical()

    p = FabcParams(2, -3, 5)
    f, g = build_map(p), ProjectiveMap(fabc_inverse(p))
    hits = 0
    while hits < 50:
        target = [Fraction(rng.randint(-9, 9)) for _ in range(3)]
        if all(v == 0 for v in target):
            continue
        point = g.apply(target)
        if point is not INDETERMINATE and f.apply(point) is not INDETERMINATE:
            assert f.apply(point) == ProjectivePoint(target)
            hits += 1

    undefined = indeterminacy_points(p)
    assert g.apply([0, 0, 1]) in undefined
    for t in (0, 2, 3, -1, 4, -2, 5, 7, Fraction(1, 2), Fraction(-3, 4)):
        t = Fraction(t)
        assert g.apply([p.a, p.a * t, p.c * t - p.c]) in undefined
    report("criterion 5: inverse and fiber geometry", time.time() - t0)


def test_criterion_6_exceptional_locus_heights():
    t0 = time.time()
    fam = FamilyParams("1", "1", "T")
    locus = family_exceptional_locus(fam, 30)
    t = MultiPoly.variable(1, 0)
    frozen = {
        3: t**2 + 1,
        4: t**2 + 2,
        5: t**4 + 3 * t**2 + 1,
        6: t**2 + 3,
    }
    by_order = {e.order: e.poly for e in locus.entries}
    for order, expected in frozen.items():
        assert by_order[order] == expected
    assert locus.zeta_one_poly == t**2 + 4
    for e in locus.entries:
        assert poly_gcd(e.poly, locus.zeta_one_poly).is_constant()
        for r in e.roots:
            assert abs(r) <= 2 + 1e-9
        for h in e.heights:
            assert h <= math.log(2) + 1e-6
    elapsed = time.time() - t0
    assert elapsed < 60
    report("criterion 6: exceptional locus of (1,1,T) to n=30", elapsed, 60)


def test_criterion_7_monomial_random_suites():
    t0 = time.time()
    random_result = monomial_suite(count=1000, seed=42)
    assert random_result.total == 1000
    assert random_result.ok, random_result.failures[:5]
    unimodular_result = unimodular_suite(count=500)
    assert unimodular_result.total == 500
    assert unimodular_result.ok, unimodular_result.failures[:5]
    elapsed = time.time() - t0
    assert elapsed < 120
    report("criterion 7: monomial suites (1000 random + 500 unimodular)", elapsed, 120)


def test_criterion_8_homogenization_cross_oracle():
    t0 = time.time()
    rng = random.Random(424242)
    checked = 0
    while checked < 200:
        n = rng.randint(1, 3)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        try:
            m = MonomialMap(rows)
        except ValueError:
            continue
        assert homogenize(m).degree == degree_D(m)
        checked += 1

    fib = MonomialMap([[2, 1], [1, 1]])
    d12 = degree_D(MonomialMap(mat_pow(fib.matrix, 12)))
    assert abs(d12 ** (1 / 12) - 2.618034) / 2.618034 < 0.02
    report("criterion 8: homogenization degree cross-oracle", time.time() - t0)


def test_criterion_9_marked_orbit_family():
    t0 = time.time()
    assert exceptional_set(GFamilyParams(1, 1), 10) == list(range(1, 12))
    assert exceptional_set(GFamilyParams(1, 2), 10) == list(range(1, 23, 2))
    assert exceptional_set(GFamilyParams(2, 0), 10) == [2**n for n in range(11)]

    grid = gfam_suite()
    assert grid.ok, grid.failures[:5]

    for t in (2, 3):
        drop = degree_drop_index(build_g(GFamilyParams(1, 1), t), 5)
        assert drop is not None and drop <= 5

    rep = negative_answer_report(10)
    assert rep.intersection == (1, 3, 5, 7, 9)
    assert rep.symmetric_difference == (2, 4, 6, 8, 10)
    report("criterion 9: marked-orbit family reports", time.time() - t0)


def test_criterion_10_uniform_index_search():
    t0 = time.time()

    def revalidate(m: MonomialMap, epsilon: float, found: int) -> None:
        n = m.n
        gamma = (2 ** (1 / n) - 1) / (2 * n * n)
        target = analyze(m).radius.value - epsilon

        def all_ratios_clear(mm: int) -> bool:
            step = mat_pow(m.matrix, mm)
            degs = [1]
            current = identity_rows(n)
            for _ in range(n):
                current = mat_mul(current, step)
                degs.append(degree_D(MonomialMap(current)))
            return all(
                (gamma * degs[k + 1] / degs[k]) ** (1 / mm) >= target
                for k in range(n)
            )

        assert all_ratios_clear(found)
        for smaller in range(1, found):
            assert not all_ratios_clear(smaller)

    ident = MonomialMap(identity_rows(2))
    m_ident = analyze(ident).m_epsilon(0.9)
    assert m_ident == 2
    revalidate(ident, 0.9, m_ident)

    fib = MonomialMap([[2, 1], [1, 1]])
    m_fib = analyze(fib).m_epsilon(1.0)
    assert m_fib is not None
    revalidate(fib, 1.0, m_fib)
    report("criterion 10: uniform-convergence index search", time.time() - t0)
