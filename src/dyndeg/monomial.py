"""Exact analytics for monomial self-maps of projective space.

An integer matrix A with nonzero determinant defines the rational self-map
whose affine coordinates are the monomials with exponents given by the rows
of A.  This module computes the homogenized degree D(A), sup norms, and
characteristic polynomials exactly, certifies the spectral radius with an
enclosing rational interval, and checks the degree/norm inequalities that
relate them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .exactalg import MultiPoly, _power
from .ratmap import ProjectiveMap

Rows = tuple[tuple[int, ...], ...]


class SingularMatrixError(ValueError):
    """Raised when a matrix with det = 0 is used where dominance is needed."""


def _validate_rows(matrix: Sequence[Sequence[int]]) -> Rows:
    for row in matrix:
        if not isinstance(row, (list, tuple)):
            raise ValueError(f"matrix row {row!r} is not a list")
    rows = tuple(tuple(row) for row in matrix)
    for row in rows:
        for x in row:
            if isinstance(x, bool) or not isinstance(x, int):
                raise ValueError(f"matrix entry {x!r} is not an integer")
    if not rows or any(len(r) != len(rows) for r in rows):
        raise ValueError("matrix must be square and nonempty")
    return rows


def int_det(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in matrix]
    n = len(a)
    sign, prev = 1, 1
    for i in range(n - 1):
        if a[i][i] == 0:
            swap = next((k for k in range(i + 1, n) if a[k][i] != 0), None)
            if swap is None:
                return 0
            a[i], a[swap] = a[swap], a[i]
            sign = -sign
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
        prev = a[i][i]
    return sign * a[-1][-1]


class MonomialMap:
    """A dominant monomial self-map of P^N, stored as its exponent matrix.

    Row i holds the exponents of the i-th affine coordinate monomial.  The
    map is dominant exactly when det(A) != 0, which is enforced here.
    """

    __slots__ = ("matrix", "n", "det", "_invariants")

    def __init__(self, matrix: Sequence[Sequence[int]]):
        rows = _validate_rows(matrix)
        d = int_det(rows)
        if d == 0:
            raise SingularMatrixError("exponent matrix must have nonzero determinant")
        object.__setattr__(self, "matrix", rows)
        object.__setattr__(self, "n", len(rows))
        object.__setattr__(self, "det", d)

    def __setattr__(self, name, value):
        raise AttributeError("MonomialMap is immutable")

    def __eq__(self, other):
        return isinstance(other, MonomialMap) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"MonomialMap({[list(r) for r in self.matrix]})"


def identity_rows(n: int) -> Rows:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Rows:
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_pow(a: Sequence[Sequence[int]], k: int) -> Rows:
    if k < 0:
        raise ValueError("exponent must be >= 0")
    base = tuple(tuple(int(x) for x in row) for row in a)
    return _power(base, k, identity_rows(len(a)), mat_mul)


def _clearing(rows: Sequence[Sequence[int]]) -> list[int]:
    """For each column j, the power of X_j that clears its most negative
    exponent (0 when the column has none)."""
    return [max(0, -min(col)) for col in zip(*rows)]


def _degree_of_rows(rows: Sequence[Sequence[int]]) -> int:
    return sum(_clearing(rows)) + max(0, max(sum(row) for row in rows))


def degree_D(m: MonomialMap) -> int:
    """Degree of the homogenized map: for each variable, the power needed to
    clear denominators, plus the largest positive row sum."""
    return _degree_of_rows(m.matrix)


def _block_invariants(matrices: Sequence[Rows]) -> list[tuple[tuple[int, ...], ...]]:
    """(traces, sup norms, degrees D) of A^0..A^N for each N x N matrix A, in
    order.  Each size's matrices stack into one dtype=object array, so entries
    stay Python ints and never overflow (numpy has object matmul since 1.17):
    N - 1 stacked products, then one reduction per invariant over all powers."""
    out: list = [None] * len(matrices)
    for n in {len(rows) for rows in matrices}:
        indices = [i for i, rows in enumerate(matrices) if len(rows) == n]
        a = np.array([matrices[i] for i in indices], dtype=object)
        chain = [np.broadcast_to(np.identity(n, dtype=object), a.shape), a]
        for _ in range(n - 1):
            chain.append(chain[-1] @ a)
        p = np.stack(chain, axis=1)  # p[j, k] is the k-th power of map j
        clearing = np.maximum(-p.min(axis=2), 0).sum(axis=2)
        degrees = clearing + np.maximum(p.sum(axis=3).max(axis=2), 0)
        invariants = (p.trace(axis1=2, axis2=3), abs(p).max(axis=(2, 3)), degrees)
        for i, *inv in zip(indices, *(x.tolist() for x in invariants)):
            out[i] = tuple(map(tuple, inv))
    return out


def homogenize(m: MonomialMap) -> ProjectiveMap:
    """The map on P^N in homogeneous coordinates (last variable at infinity).

    Coordinate i is prod_j X_j^(a_ij + c_j) * Z^(d - row degree), where c_j
    clears the most negative exponent in column j and d = degree_D.
    """
    clear = _clearing(m.matrix)
    d = degree_D(m)
    coords = []
    # the last coordinate, the affine constant 1, takes the zero row
    for row in m.matrix + ((0,) * m.n,):
        exps = [a + c for a, c in zip(row, clear)]
        coords.append(MultiPoly.monomial(m.n + 1, (*exps, d - sum(exps)), 1))
    return ProjectiveMap(coords)


def char_poly(m: MonomialMap) -> list[int]:
    """Coefficients of det(xI - A), descending, computed exactly from the
    power sums p_k = tr A^k by Newton's identities:
    k*c_k = -(p_k + sum_{0<j<k} c_j*p_{k-j})."""
    if not hasattr(m, "_invariants"):  # a lone map, as a block of one
        object.__setattr__(m, "_invariants", _block_invariants([m.matrix])[0])
    p = m._invariants[0]
    coeffs = [1]
    for k in range(1, m.n + 1):
        q, r = divmod(-(p[k] + sum(coeffs[j] * p[k - j] for j in range(1, k))), k)
        assert r == 0, "Newton step must divide exactly"
        coeffs.append(q)
    return coeffs


def _roots_strictly_inside(coeffs_desc: Sequence[int], radius: Fraction) -> bool:
    """Exact test: do all roots of the integer polynomial lie in |z| < radius?

    Scales the polynomial to the unit disk and applies the Schur transform
    recursively: with ascending coefficients b_0..b_n, all roots are strictly
    inside iff |b_0| < |b_n| and the degree-(n-1) transform
    t_j = b_n*b_{j+1} - b_0*b_{n-1-j} again has all roots strictly inside.
    Each transform is divided by the gcd of its entries, positive as
    t_{n-1} = b_n^2 - b_0^2 > 0: that changes no comparison and no later
    root, and stops the bit size doubling at every step.
    """
    if radius <= 0:
        return False
    num, den = radius.numerator, radius.denominator
    asc = list(reversed(coeffs_desc))
    n = len(asc) - 1
    b = [asc[j] * num**j * den ** (n - j) for j in range(n + 1)]
    while len(b) > 1:
        k = len(b) - 1
        if abs(b[0]) >= abs(b[k]):
            return False
        b = [b[k] * b[j + 1] - b[0] * b[k - 1 - j] for j in range(k)]
        g = math.gcd(*b)
        b = [c // g for c in b]
    return True


@dataclass(frozen=True)
class RadiusEnclosure:
    """Certified spectral-radius enclosure: low <= radius < high exactly."""

    value: float
    low: Fraction
    high: Fraction


def _float_radius_estimates(polys: Sequence[Sequence[int]]) -> list[float | None]:
    """max|root| of each monic polynomial in floats, in input order, or None
    where its coefficients pass the float range or the estimate is not a
    positive float.

    The polynomials are grouped by degree and each group's companion
    matrices, the ones np.roots builds (ones below the diagonal, first row
    -c[1:]), go to one stacked eigvals call.  So when c[-1] != 0, as in the
    characteristic polynomial of a nonsingular matrix, each estimate equals
    max(abs(np.roots(c))) bitwise.
    """
    out: list[float | None] = [None] * len(polys)
    rows: dict[int, list[float]] = {}
    for i, coeffs in enumerate(polys):
        try:
            rows[i] = [float(c) for c in coeffs[1:]]
        except OverflowError:
            pass
    for n in {len(row) for row in rows.values()}:
        indices = [i for i, row in rows.items() if len(row) == n]
        companions = np.tile(np.eye(n, k=-1), (len(indices), 1, 1))
        companions[:, 0, :] = -np.array([rows[i] for i in indices])
        radii = np.abs(np.linalg.eigvals(companions)).max(axis=1)
        for i, est in zip(indices, radii.tolist()):
            out[i] = est if math.isfinite(est) and est > 0 else None
    return out


_ROUND_DEN = 10**12


def _to_frac(x: float) -> Fraction:
    return Fraction(round(x * _ROUND_DEN), _ROUND_DEN)


def _certify_radius(
    coeffs: Sequence[int], rel_tol: float, est: float | None
) -> RadiusEnclosure:
    """Enclose the max root modulus of a monic integer polynomial whose roots
    have modulus product >= 1 (so the radius is >= 1).

    The float estimate est seeds the window from est * (1 - rel_tol/3),
    clipped below at 1, to est * (1 + rel_tol/3), whose ends two exact disk
    tests certify; a radius-1 polynomial is certified there too.  When the window misses, its tested
    end bounds the radius and the bisection from [1, 2 + max|c|] continues
    inside the bound."""
    lo = Fraction(1)
    hi = Fraction(2 + max(abs(c) for c in coeffs))
    if est is not None:
        cand_lo = max(lo, _to_frac(est * (1 - rel_tol / 3)))
        cand_hi = _to_frac(est * (1 + rel_tol / 3))
        if cand_lo < cand_hi:
            if _roots_strictly_inside(coeffs, cand_hi):
                if not _roots_strictly_inside(coeffs, cand_lo):
                    mid = float((cand_lo + cand_hi) / 2)
                    return RadiusEnclosure(mid, cand_lo, cand_hi)
                hi = cand_lo
            else:
                lo = cand_hi
    if not _roots_strictly_inside(coeffs, hi):
        raise RuntimeError("spectral radius enclosure failed: no upper bound")
    ratio = 1 + Fraction(rel_tol)
    for _ in range(500):
        if hi <= lo * ratio:
            value = float((lo + hi) / 2)
            return RadiusEnclosure(value, lo, hi)
        try:
            mid = _to_frac(math.sqrt(float(lo) * float(hi)))
        except OverflowError:  # past the float range the mean is exact
            mid = Fraction(math.isqrt(math.floor(lo * hi)))
        if not lo < mid < hi:
            mid = (lo + hi) / 2
        if _roots_strictly_inside(coeffs, mid):
            hi = mid
        else:
            lo = mid
    raise RuntimeError("spectral radius enclosure did not converge")


def _gamma(n: int) -> float:
    """gamma_N = (2^(1/N) - 1) / (2 N^2), the constant of the degree-ratio bound."""
    return (2 ** (1 / n) - 1) / (2 * n * n)


@dataclass(frozen=True)
class LowerBoundCheck:
    """Result of comparing the spectral radius against the degree-ratio
    lower bound (2^(1/N)-1)/(2N^2) * min_k D(A^(k+1))/D(A^k)."""

    holds: bool
    lhs: float
    rhs: float


@dataclass(frozen=True)
class SpectralData:
    """Exact invariants of a monomial map A, norms[k] and degrees[k] the sup
    norm and degree D of A^k for 0 <= k <= N, plus the radius certified at
    rel_tol; analyze_all computes them once and the checks read only these."""

    n: int
    matrix: Rows
    char_poly: tuple[int, ...]
    radius: RadiusEnclosure
    norms: tuple[int, ...]
    degrees: tuple[int, ...]
    rel_tol: float

    degree = property(lambda self: self.degrees[1])
    sup_norm = property(lambda self: self.norms[1])

    def norm_equivalence_check(self) -> bool:
        """Exact check of D(A)/(2N) <= ||A|| <= N * D(A)."""
        return Fraction(self.degree, 2 * self.n) <= self.sup_norm <= self.n * self.degree

    def contraction_index(self) -> int:
        """Least k in [0, N-1] with ||A^(k+1)|| * (2^(1/N) - 1) <= lam * ||A^k||,
        using the certified radius with a (1 + 2*rel_tol) guard band.  Such a
        k always exists; failure to find one signals a bug."""
        factor = 2 ** (1 / self.n) - 1
        guarded = self.radius.value * (1 + 2 * self.rel_tol)
        for k in range(self.n):
            if self.norms[k + 1] * factor <= guarded * self.norms[k]:
                return k
        raise RuntimeError("no contraction index in [0, N-1]; invariant violated")

    def degree_ratio_check(self) -> LowerBoundCheck:
        """Check lam(A) >= gamma_N * min over 0 <= k <= N-1 of
        D(A^(k+1))/D(A^k), with D(A^0) = 1; lhs carries a (1 + 2*rel_tol)
        guard band."""
        ratio = min(Fraction(self.degrees[k + 1], self.degrees[k]) for k in range(self.n))
        lhs = self.radius.value
        rhs = _gamma(self.n) * float(ratio)
        return LowerBoundCheck(holds=lhs * (1 + 2 * self.rel_tol) >= rhs, lhs=lhs, rhs=rhs)

    def m_epsilon(self, epsilon: float, m_cap: int = 64) -> int | None:
        """Least m <= m_cap such that for every 0 <= k < N,
        (gamma_N * D(A^((k+1)m)) / D(A^(km)))^(1/m) >= lam(A) - epsilon,
        or None if no m within the cap works."""
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        target = self.radius.value - epsilon
        log_gamma = math.log(_gamma(self.n))
        for mm in range(1, m_cap + 1):
            degs = _block_invariants([mat_pow(self.matrix, mm)])[0][2]
            if all(
                math.exp((log_gamma + math.log(degs[k + 1]) - math.log(degs[k])) / mm)
                >= target
                for k in range(self.n)
            ):
                return mm
        return None


def analyze_all(maps: Sequence[MonomialMap], rel_tol: float = 1e-6) -> list[SpectralData]:
    """Each map's spectral data, in order: one _block_invariants call for the
    maps not yet analyzed, char_poly of each, and the radius enclosures,
    seeded by one stacked eigenvalue call per degree."""
    # below the float epsilon the bisection needs more than its 500 steps
    if not (sys.float_info.epsilon <= rel_tol <= 1e-3):
        raise ValueError(f"rel_tol must lie in [{sys.float_info.epsilon!r}, 1e-3]")
    todo = [m for m in maps if not hasattr(m, "_invariants")]
    for m, inv in zip(todo, _block_invariants([m.matrix for m in todo])):
        object.__setattr__(m, "_invariants", inv)
    polys = [tuple(char_poly(m)) for m in maps]
    estimates = _float_radius_estimates(polys)
    return [
        SpectralData(
            n=m.n, matrix=m.matrix, char_poly=coeffs,
            radius=_certify_radius(coeffs, rel_tol, est),
            norms=m._invariants[1], degrees=m._invariants[2], rel_tol=rel_tol,
        )
        for m, coeffs, est in zip(maps, polys, estimates)
    ]


def analyze(m: MonomialMap, rel_tol: float = 1e-6) -> SpectralData:
    """The spectral data of one map, as analyze_all gives it."""
    return analyze_all([m], rel_tol)[0]


def spectral_radius_enclosure(m: MonomialMap, rel_tol: float = 1e-6) -> RadiusEnclosure:
    """Largest eigenvalue modulus with a certified rational enclosure.

    The float estimate seeds an interval whose endpoints are verified by an
    exact all-roots-inside-disk test, so [low, high) always contains the true
    value and high/low - 1 <= rel_tol.
    """
    return analyze(m, rel_tol).radius


def _adjugate(rows: Rows) -> Rows:
    """adj(A) of a nonsingular A by one fraction-free (Bareiss) Gauss-Jordan
    elimination of [A | I].

    After pivot step k every entry is a minor of [A | I] (Sylvester's
    identity), so each division by the previous pivot is exact.  The row
    operations E give E A = d I with d the last pivot, so the right block
    is E = d A^-1; row swaps make d = sign * det(A), hence
    adj(A) = det(A) A^-1 = sign * E.
    """
    n = len(rows)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    sign, prev = 1, 1
    for k in range(n):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if swap is None:
                raise SingularMatrixError("adjugate by elimination needs det != 0")
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot, pivot_row = a[k][k], a[k]
        for i in range(n):
            if i == k:
                continue
            row, factor = a[i], a[i][k]
            for j in range(2 * n):
                row[j] = (pivot * row[j] - factor * pivot_row[j]) // prev
        prev = pivot
    return tuple(tuple(sign * x for x in row[n:]) for row in a)


def inverse_map(m: MonomialMap) -> MonomialMap:
    """Exponent matrix of the inverse map; requires |det A| = 1."""
    if abs(m.det) != 1:
        raise ValueError("inverse requires |det A| = 1")
    # A^-1 = adj(A) / det(A) = det(A) * adj(A) as det(A) = +-1
    adj = _adjugate(m.matrix)
    return MonomialMap(tuple(tuple(m.det * x for x in row) for row in adj))


def inverse_degree_bound_check(m: MonomialMap, inv: MonomialMap | None = None) -> bool:
    """Exact check of D(A^-1) <= D(A)^(N-1) for a birational monomial map.
    A caller that already holds inverse_map(m) passes it as inv."""
    if inv is None:
        inv = inverse_map(m)
    return degree_D(inv) <= degree_D(m) ** (m.n - 1)


def full_report(m: MonomialMap, rel_tol: float = 1e-6) -> dict:
    """All invariants and inequality checks in one JSON-friendly record.
    Its radius and checks are floats, so a map whose values pass the float
    range raises ValueError."""
    try:
        data = analyze(m, rel_tol)
        bound = data.degree_ratio_check()
        return {
            "N": data.n,
            "D": data.degree,
            "sup_norm": data.sup_norm,
            "char_poly": list(data.char_poly),
            "lambda": data.radius.value,
            "lambda_interval": [float(data.radius.low), float(data.radius.high)],
            "norm_equivalence": data.norm_equivalence_check(),
            "contraction_k": data.contraction_index(),
            "degree_ratio_bound": {"holds": bound.holds, "lhs": bound.lhs, "rhs": bound.rhs},
            "inverse_degree_bound": inverse_degree_bound_check(m) if abs(m.det) == 1 else None,
        }
    except OverflowError as exc:
        raise ValueError(f"matrix values pass the float range: {exc}") from None
