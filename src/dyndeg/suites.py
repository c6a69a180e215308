"""Batch verification suites: exhaustive grids and seeded random sweeps.

Each suite checks a library component against an independent oracle —
recurrence values against degree sequences, closed forms against actual
orbits, certified spectral enclosures against exact inequalities — and
returns a SuiteResult.  A failed instance reads "TAG: PROBLEM; ...", and
TAG replays it: "instance I (seed S): matrix [...]" in the seeded suites,
"triple (a,b,c)" in fabc-grid, "pair (a,b)" or "pair (1,1) at t=T" in gfam.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .fabc import FabcParams, build_map, classify, vn_sequence
from .gfam import GFamilyParams, NoHitWithin, build_g, orbit_marked_point
from .monomial import (
    MonomialMap,
    SpectralData,
    analyze_all,
    degree_D,
    homogenize,
    identity_rows,
    inverse_degree_bound_check,
    inverse_map,
    mat_mul,
    verify_norm_equivalence,
)
from .ratmap import degree_drop_index

__all__ = [
    "SuiteResult",
    "monomial_suite",
    "unimodular_suite",
    "fabc_grid_suite",
    "gfam_suite",
    "available_suites",
    "run_suite",
]

DEFAULT_SEED = 42


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one suite run.

    failures holds one reproduction string per failed instance, in
    instance order; a suite passes iff failures is empty.
    """

    name: str
    total: int
    passed: int
    failures: tuple[str, ...]
    seed: int | None

    @property
    def failed(self) -> int:
        return self.total - self.passed

    @property
    def ok(self) -> bool:
        return self.passed == self.total


def _run(name: str, seed: int | None, instances: Iterable[tuple[str, list[str]]]) -> SuiteResult:
    """The one suite loop over (tag, problems) per instance, in order;
    an instance fails iff its problems are nonempty."""
    total = 0
    failures = []
    for total, (tag, problems) in enumerate(instances, 1):
        if problems:
            failures.append(f"{tag}: " + "; ".join(problems))
    return SuiteResult(name, total, total - len(failures), tuple(failures), seed)


# a seeded suite draws and checks its maps in blocks of this many: the
# monomial suite seeds a block's radii with one stacked eigenvalue call per
# degree, and only one block's powers are alive at a time
_BLOCK = 64


def _seeded(count: int, seed: int, draw: Callable, check: Callable) -> Iterator:
    """(tag, problems) per instance i of a seeded suite, whose map
    m = draw(Random(seed * 1000003 + i)) replays from (seed, i) alone;
    check takes a block of maps and yields each one's problems in order.
    Only a failed instance prints its tag, so a passing one gets an empty
    tag."""
    if count < 1:
        raise ValueError("count must be positive")
    for start in range(0, count, _BLOCK):
        block = [
            draw(random.Random(seed * 1_000_003 + i))
            for i in range(start, min(start + _BLOCK, count))
        ]
        for i, m, problems in zip(itertools.count(start), block, check(block)):
            tag = f"instance {i} (seed {seed}): matrix {list(m.matrix)}" if problems else ""
            yield tag, problems


def _random_monomial_map(rng: random.Random) -> MonomialMap:
    while True:
        n = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        try:
            return MonomialMap(rows)
        except ValueError:
            continue


def _check_monomial_block(block: list[MonomialMap]) -> Iterator[list[str]]:
    return map(_check_monomial_instance, block, analyze_all(block))


def _check_monomial_instance(m: MonomialMap, data: SpectralData) -> list[str]:
    problems = []
    if not verify_norm_equivalence(m):
        problems.append("norm-equivalence bounds failed")
    try:
        k = data.contraction_index()
        if not 0 <= k < m.n:
            problems.append(f"contraction index {k} outside [0, {m.n - 1}]")
    except RuntimeError as exc:
        problems.append(f"no contraction index: {exc}")
    check = data.degree_ratio_check()
    if not check.holds:
        problems.append(
            f"degree-ratio lower bound failed ({check.lhs} < {check.rhs})"
        )
    # characteristic coefficients are elementary symmetric functions of
    # eigenvalues of modulus <= lambda, so |c_j| <= C(N, j) * lambda^j;
    # testing against the certified upper end num/den, with the
    # denominators cleared, keeps the comparison exact and on ints
    num, den = data.radius.high.numerator, data.radius.high.denominator
    for j in range(1, m.n + 1):
        if abs(data.char_poly[j]) * den**j > math.comb(m.n, j) * num**j:
            problems.append(f"characteristic coefficient {j} exceeds its bound")
            break
    if m.n <= 3 and homogenize(m).degree != data.degree:
        problems.append("homogenization degree disagrees with degree formula")
    return problems


def monomial_suite(count: int = 1000, seed: int = DEFAULT_SEED) -> SuiteResult:
    """Random nonsingular integer matrices (N in 1..5, entries in [-9, 9]):
    norm equivalence, contraction index, degree-ratio lower bound,
    characteristic-coefficient bounds, and (N <= 3) the homogenization
    cross-oracle, each map's radius certified at analyze_all's default
    rel_tol."""
    instances = _seeded(count, seed, _random_monomial_map, _check_monomial_block)
    return _run("monomial", seed, instances)


def _random_unimodular_map(rng: random.Random) -> MonomialMap:
    n = rng.choice((2, 3, 4))
    rows = [list(row) for row in identity_rows(n)]
    if rng.random() < 0.5:
        rows[0][0] = -1  # determinant -1 is unimodular too
    for _ in range(rng.randint(4, 8)):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        for row in rows:  # rows times I + c*E_ij
            row[j] += c * row[i]
    return MonomialMap(rows)


def _check_unimodular_instance(m: MonomialMap) -> list[str]:
    if abs(m.det) != 1:
        return [f"determinant {m.det} is not a unit"]
    inv = inverse_map(m)
    problems = []
    if mat_mul(m.matrix, inv.matrix) != identity_rows(m.n):
        problems.append("inverse does not invert")
    if not inverse_degree_bound_check(m, inv):
        problems.append(
            f"D(inverse) = {degree_D(inv)} exceeds "
            f"D = {degree_D(m)} to the power {m.n - 1}"
        )
    return problems


def unimodular_suite(count: int = 500, seed: int = DEFAULT_SEED + 1) -> SuiteResult:
    """Random products of elementary integer matrices (|det| = 1,
    N in {2, 3, 4}): the inverse map exists over the integers and
    D(A^-1) <= D(A)^(N-1) exactly."""
    instances = _seeded(
        count, seed, _random_unimodular_map, lambda block: map(_check_unimodular_instance, block)
    )
    return _run("unimodular", seed, instances)


# the fabc-grid suite runs the triples |a|,|b|,|c| <= _GRID_BOUND, abc != 0
_GRID_BOUND = 3


def fabc_grid_suite() -> SuiteResult:
    """Exhaustive classifier check on the integer grid |a|,|b|,|c| <= 3,
    abc != 0 (216 triples).

    Every triple's verdict is compared with the recurrence oracle: some
    V_m = 0 with m <= 24 iff Unstable, and Stable triples must stay
    nonzero out to 200.  On the sub-grid |a|,|b|,|c| <= 2 the verdict is
    also compared with the degree-sequence oracle: deg(f^n) < 2^n for
    some n <= 6 iff Unstable.  A triple reports only its first failed
    comparison.
    """

    def check(a: int, b: int, c: int) -> list[str]:
        p = FabcParams(a, b, c)
        verdict = classify(p)
        unstable = verdict.status == "Unstable"
        window = vn_sequence(p, 24)
        has_zero = any(v == 0 for v in window[1:])
        if unstable != has_zero:
            return [
                f"classifier says {verdict.status} but recurrence "
                f"window {'has' if has_zero else 'lacks'} a zero"
            ]
        if unstable and window[verdict.vanishing_index] != 0:
            return [f"vanishing index {verdict.vanishing_index} does not vanish"]
        if not unstable and any(v == 0 for v in vn_sequence(p, 200)[1:]):
            return ["Stable verdict but recurrence vanishes"]
        if max(abs(a), abs(b), abs(c)) <= 2:
            drop = degree_drop_index(build_map(p), 6)
            if unstable != (drop is not None):
                return [
                    f"classifier says {verdict.status} but degree "
                    f"sequence drop index is {drop}"
                ]
        return []

    values = [v for v in range(-_GRID_BOUND, _GRID_BOUND + 1) if v != 0]
    triples = itertools.product(values, repeat=3)
    instances = ((f"triple ({a},{b},{c})", check(a, b, c)) for a, b, c in triples)
    return _run("fabc-grid", None, instances)


def _check_gfam_pair(p: GFamilyParams, t: Fraction) -> list[str]:
    try:
        outcome = orbit_marked_point(p, t, 12)
    except RuntimeError as exc:  # the orbit left the closed-form track
        return [str(exc)]
    if outcome != NoHitWithin(12):
        return [f"unexpected orbit outcome {outcome}"]
    return []


def _check_showcase_drop(t: int, should_drop: bool) -> list[str]:
    drop = degree_drop_index(build_g(GFamilyParams(1, 1), t), 5)
    if (drop is not None) != should_drop:
        return [f"drop index {drop}, expected {'a drop' if should_drop else 'no drop'}"]
    return []


def gfam_suite() -> SuiteResult:
    """Marked-orbit family on the grid (a, b) in [-2, 2]^2, a != 0: the
    closed-form track matches the actual orbit step by step, 12 steps, at
    a parameter value outside the set, and the showcase degree drops and
    non-drops hold."""
    t = Fraction(1, 3)  # never lands in an integer-parameter orbit
    pairs = (
        (f"pair ({a},{b})", _check_gfam_pair(GFamilyParams(a, b), t))
        for a in range(-2, 3)
        if a != 0
        for b in range(-2, 3)
    )
    showcase = (
        (f"pair (1,1) at t={t_val}", _check_showcase_drop(t_val, should_drop))
        for t_val, should_drop in ((2, True), (3, True), (-1, False))
    )
    return _run("gfam", None, itertools.chain(pairs, showcase))


# each suite, and whether it takes run_suite's count and seed
_SUITES = {
    "monomial": (monomial_suite, True),
    "unimodular": (unimodular_suite, True),
    "fabc-grid": (fabc_grid_suite, False),
    "gfam": (gfam_suite, False),
}


def available_suites() -> tuple[str, ...]:
    return tuple(sorted(_SUITES))


def run_suite(name: str, count: int | None = None, seed: int = DEFAULT_SEED) -> SuiteResult:
    """Run one suite by name.  count applies to the random suites and is
    ignored by the exhaustive ones; seed likewise."""
    if name not in _SUITES:
        raise ValueError(
            f"unknown suite {name!r}; available: {', '.join(available_suites())}"
        )
    suite, seeded = _SUITES[name]
    if not seeded:
        return suite()
    return suite(seed=seed) if count is None else suite(count=count, seed=seed)
