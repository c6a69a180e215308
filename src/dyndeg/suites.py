"""Batch verification suites: exhaustive grids and seeded random sweeps.

Each suite checks a library component against an independent oracle —
recurrence values against degree sequences, closed forms against actual
orbits, certified spectral enclosures against exact inequalities — and
returns a SuiteResult whose failures carry reproduction hints.  All
randomness flows from a single integer seed, so a failing instance can
be replayed exactly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .fabc import FabcParams, build_map, classify, vn_sequence
from .gfam import (
    GFamilyParams,
    NoHitWithin,
    build_g,
    orbit_marked_point,
)
from .monomial import (
    MonomialMap,
    analyze,
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


def _instance_rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


def _random_monomial_map(rng: random.Random) -> MonomialMap:
    while True:
        n = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        try:
            return MonomialMap(rows)
        except ValueError:
            continue


def _check_monomial_instance(m: MonomialMap, rel_tol: float) -> list[str]:
    data = analyze(m, rel_tol)
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
    # testing against the certified upper end keeps the comparison exact
    high = data.radius.high
    for j in range(1, m.n + 1):
        if abs(data.char_poly[j]) > math.comb(m.n, j) * high**j:
            problems.append(f"characteristic coefficient {j} exceeds its bound")
            break
    if m.n <= 3 and homogenize(m).degree != data.degree:
        problems.append("homogenization degree disagrees with degree formula")
    return problems


def monomial_suite(count: int = 1000, seed: int = DEFAULT_SEED, rel_tol: float = 1e-6) -> SuiteResult:
    """Random nonsingular integer matrices (N in 1..5, entries in [-9, 9]):
    norm equivalence, contraction index, degree-ratio lower bound,
    characteristic-coefficient bounds, and (N <= 3) the homogenization
    cross-oracle."""
    if count < 1:
        raise ValueError("count must be positive")
    failures = []
    for i in range(count):
        m = _random_monomial_map(_instance_rng(seed, i))
        problems = _check_monomial_instance(m, rel_tol)
        if problems:
            failures.append(
                f"instance {i} (seed {seed}): matrix {list(m.matrix)}: "
                + "; ".join(problems)
            )
    return SuiteResult(
        name="monomial",
        total=count,
        passed=count - len(failures),
        failures=tuple(failures),
        seed=seed,
    )


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


def unimodular_suite(count: int = 500, seed: int = DEFAULT_SEED + 1) -> SuiteResult:
    """Random products of elementary integer matrices (|det| = 1,
    N in {2, 3, 4}): the inverse map exists over the integers and
    D(A^-1) <= D(A)^(N-1) exactly."""
    if count < 1:
        raise ValueError("count must be positive")
    failures = []
    for i in range(count):
        m = _random_unimodular_map(_instance_rng(seed, i))
        problems = []
        if abs(m.det) != 1:
            problems.append(f"determinant {m.det} is not a unit")
        else:
            inv = inverse_map(m)
            if mat_mul(m.matrix, inv.matrix) != identity_rows(m.n):
                problems.append("inverse does not invert")
            if not inverse_degree_bound_check(m, inv):
                problems.append(
                    f"D(inverse) = {degree_D(inv)} exceeds "
                    f"D = {degree_D(m)} to the power {m.n - 1}"
                )
        if problems:
            failures.append(
                f"instance {i} (seed {seed}): matrix {list(m.matrix)}: "
                + "; ".join(problems)
            )
    return SuiteResult(
        name="unimodular",
        total=count,
        passed=count - len(failures),
        failures=tuple(failures),
        seed=seed,
    )


def _fabc_triples(bound: int):
    rng = range(-bound, bound + 1)
    for a in rng:
        for b in rng:
            for c in rng:
                if a * b * c != 0:
                    yield a, b, c


def fabc_grid_suite(
    bound: int = 3,
    recurrence_window: int = 24,
    stable_window: int = 200,
    degree_bound: int = 2,
    degree_window: int = 6,
) -> SuiteResult:
    """Exhaustive classifier check on the integer grid |a|,|b|,|c| <= bound.

    Every triple's verdict is compared with the recurrence oracle: some
    V_m = 0 with m <= recurrence_window iff Unstable, and Stable triples
    must stay nonzero out to stable_window.  On the sub-grid
    |a|,|b|,|c| <= degree_bound the verdict is also compared with the
    degree-sequence oracle: deg(f^n) < 2^n for some n <= degree_window
    iff Unstable.
    """
    failures = []
    total = 0
    for a, b, c in _fabc_triples(bound):
        total += 1
        p = FabcParams(a, b, c)
        verdict = classify(p)
        tag = f"triple ({a},{b},{c})"
        window = vn_sequence(p, recurrence_window)
        has_zero = any(v == 0 for v in window[1:])
        if (verdict.status == "Unstable") != has_zero:
            failures.append(
                f"{tag}: classifier says {verdict.status} but recurrence "
                f"window {'has' if has_zero else 'lacks'} a zero"
            )
            continue
        if verdict.status == "Unstable" and window[verdict.vanishing_index] != 0:
            failures.append(
                f"{tag}: vanishing index {verdict.vanishing_index} does not vanish"
            )
            continue
        if verdict.status == "Stable":
            long_run = vn_sequence(p, stable_window)
            if any(v == 0 for v in long_run[1:]):
                failures.append(f"{tag}: Stable verdict but recurrence vanishes")
                continue
        if max(abs(a), abs(b), abs(c)) <= degree_bound:
            drop = degree_drop_index(build_map(p), degree_window)
            if (verdict.status == "Unstable") != (drop is not None):
                failures.append(
                    f"{tag}: classifier says {verdict.status} but degree "
                    f"sequence drop index is {drop}"
                )
    return SuiteResult(
        name="fabc-grid",
        total=total,
        passed=total - len(failures),
        failures=tuple(failures),
        seed=None,
    )


def gfam_suite(bound: int = 2, orbit_window: int = 12) -> SuiteResult:
    """Marked-orbit family on the grid (a, b) in [-bound, bound]^2, a != 0:
    the closed-form track matches the actual orbit step by step at a
    parameter value outside the set, and the showcase degree drops and
    non-drops hold."""
    failures = []
    total = 0
    t = Fraction(1, 3)  # never lands in an integer-parameter orbit
    for a in range(-bound, bound + 1):
        if a == 0:
            continue
        for b in range(-bound, bound + 1):
            total += 1
            p = GFamilyParams(a, b)
            tag = f"pair ({a},{b})"
            try:
                # raises RuntimeError when the orbit leaves the closed-form track
                outcome = orbit_marked_point(p, t, orbit_window)
                if outcome != NoHitWithin(orbit_window):
                    raise RuntimeError(f"unexpected orbit outcome {outcome}")
            except RuntimeError as exc:
                failures.append(f"{tag}: {exc}")
    showcase = GFamilyParams(1, 1)
    for t_val, should_drop in ((2, True), (3, True), (-1, False)):
        total += 1
        drop = degree_drop_index(build_g(showcase, t_val), 5)
        if (drop is not None) != should_drop:
            failures.append(
                f"pair (1,1) at t={t_val}: drop index {drop}, "
                f"expected {'a drop' if should_drop else 'no drop'}"
            )
    return SuiteResult(
        name="gfam",
        total=total,
        passed=total - len(failures),
        failures=tuple(failures),
        seed=None,
    )


_SUITES = {
    "monomial": lambda count, seed: monomial_suite(
        count=count if count is not None else 1000,
        seed=seed,
    ),
    "unimodular": lambda count, seed: unimodular_suite(
        count=count if count is not None else 500,
        seed=seed,
    ),
    "fabc-grid": lambda count, seed: fabc_grid_suite(),
    "gfam": lambda count, seed: gfam_suite(),
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
    return _SUITES[name](count, seed)
