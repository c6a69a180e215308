"""The quadratic plane family [XY, XY + aZ^2, bYZ + cZ^2] and its stability.

For rational parameters with abc != 0 this map is birational: with
w = cX - cY + aZ its inverse is [ab^2 X(Y - X), w^2, bw(Y - X)].  The map
contracts the line Y = 0 to [0 : a : c] and the line Z = 0 to [1 : 1 : 0].
The inverse sends [0 : 0 : 1] and [a : at : ct - c] (t != 1) to the
map's indeterminacy points [0 : 1 : 0] and [1 : 0 : 0], so those two
have no preimage.  Stability is governed by the linear recurrence
V_0 = 1, V_1 = c, V_{n+1} = c V_n + ab V_{n-1}: a degree drop occurs
exactly when some V_m vanishes, which for rational parameters happens
iff c^2/(ab) is one of -1, -2, -3 (a root-of-unity condition with orders
3, 4, 6).  The same machinery runs modulo primes and for one-parameter
polynomial families, where the parameters with a drop form a bounded-height
exceptional locus cut out by explicit polynomials.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import indexOf
from typing import Callable, Iterator, Union

import numpy as np

from .cyclo import _two_cos_orders, cos_min_poly, euler_phi
from .exactalg import (
    DomainMismatchError,
    MultiPoly,
    parse_poly,
    poly_gcd,
    _check_modulus,
    _coerce,
    _dense,
    _exact_fraction,
    _gcd_quotients,
    _packed_sums,
    _prime,
    _sparse,
    _unpack,
    _up_gcd,
)
from .ratmap import (
    INDETERMINATE,
    ProjectiveMap,
    ProjectivePoint,
)

Rational = Union[int, Fraction]


class DegenerateParameterError(ValueError):
    """Raised when a*b*c = 0, where the family degenerates."""


@dataclass(frozen=True)
class FabcParams:
    """Parameters (a, b, c) with abc != 0."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __init__(self, a: Rational, b: Rational, c: Rational):
        object.__setattr__(self, "a", _exact_fraction(a, "a"))
        object.__setattr__(self, "b", _exact_fraction(b, "b"))
        object.__setattr__(self, "c", _exact_fraction(c, "c"))
        if self.a * self.b * self.c == 0:
            raise DegenerateParameterError("parameters must satisfy a*b*c != 0")


def _lift_params(p: FabcParams, modulus: int | None):
    if modulus is not None:
        _check_modulus(modulus)
    try:
        lifted = tuple(_coerce(v, modulus) for v in (p.a, p.b, p.c))
    except DomainMismatchError as exc:
        raise DegenerateParameterError(
            f"denominator vanishes modulo {modulus}"
        ) from exc
    if not all(lifted):
        raise DegenerateParameterError(f"a*b*c = 0 modulo {modulus}")
    return lifted


def _symbols(p: FabcParams | None, modulus: int | None) -> tuple:
    """X, Y, Z and a, b, c for the formulas below: p's parameters lifted to
    the field, or, when p is None, variables 3, 4, 5 of a six-variable ring
    (the same expressions serve both)."""
    if p is None:
        return tuple(MultiPoly.variable(6, i) for i in range(6))
    xyz = tuple(MultiPoly.variable(3, i, modulus) for i in range(3))
    return xyz + _lift_params(p, modulus)


def build_map(p: FabcParams | None, modulus: int | None = None) -> ProjectiveMap:
    """The degree-2 map [XY, XY + aZ^2, bYZ + cZ^2]."""
    x, y, z, a, b, c = _symbols(p, modulus)
    return ProjectiveMap([x * y, x * y + a * z**2, b * (y * z) + c * z**2])


def indeterminacy_points(p: FabcParams) -> frozenset[ProjectivePoint]:
    """Common zeros of the three coordinate forms, derived from the system:
    XY = 0 and (XY + aZ^2) = 0 force Z = 0 (a != 0), leaving XY = 0 on the
    line Z = 0.  Each candidate is verified against the map."""
    f = build_map(p)
    candidates = [ProjectivePoint([0, 1, 0]), ProjectivePoint([1, 0, 0])]
    points = []
    for q in candidates:
        if f.apply(q) is not INDETERMINATE:
            raise RuntimeError(f"derived indeterminacy point {q} fails verification")
        points.append(q)
    # No solutions off Z = 0: with Z = 1, XY = 0 and XY + a = 0 give a = 0,
    # which FabcParams rules out.
    return frozenset(points)


def critical_locus(p: FabcParams | None) -> MultiPoly:
    """The Jacobian determinant of the coordinate forms in X, Y, Z,
    -2ab * Y * Z^2, canonically scaled."""
    x, y, z, a, b, c = _symbols(p, None)
    return (-2 * a * b * y * z**2).canonical()


def _vn_terms(a, b, c, modulus: int | None) -> Iterator:
    """V_0, V_1, ... of the recurrence V_0 = 1, V_1 = c,
    V_{n+1} = c V_n + ab V_{n-1}, for a, b, c already in the coefficient
    domain: over the rationals, or over F_p as ints in [0, p)."""
    ab = a * b
    prev, cur = 1, c
    yield prev
    while True:
        yield cur
        nxt = c * cur + ab * prev
        prev, cur = cur, (_coerce(nxt, None) if modulus is None else nxt % modulus)


def vn_sequence(p: FabcParams, n_max: int, modulus: int | None = None) -> list:
    """V_0..V_nMax by the exact recurrence V_{n+1} = c V_n + ab V_{n-1},
    over the rationals or a prime field."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return list(islice(_vn_terms(*_lift_params(p, modulus), modulus), n_max + 1))


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of the stability test.

    Unstable verdicts carry the root-of-unity order n and the vanishing
    index m = n - 1 with V_m = 0 (verified exactly).
    """

    status: str  # "Stable" | "Unstable"
    zeta_order: int | None = None
    vanishing_index: int | None = None


def classify(p: FabcParams) -> StabilityVerdict:
    """Stability of the map for rational parameters.

    The degree sequence drops iff some V_m = 0, which forces the ratio of
    the recurrence's characteristic roots to be a root of unity zeta with
    zeta + 1/zeta = -2 - c^2/(ab) rational.  Rational values of
    zeta + 1/zeta are 0, +-1, +-2; excluding zeta = 1 (where V_n never
    vanishes) and zeta = -1 (which forces c = 0) leaves
    c^2/(ab) in {-1, -2, -3}, with orders 3, 4, 6 and V_{n-1} = 0.
    """
    order = _two_cos_orders().get(-2 - p.c * p.c / (p.a * p.b))
    if order is None or order < 3:
        return StabilityVerdict(status="Stable")
    m = order - 1
    witness = vn_sequence(p, m)
    if witness[m] != 0 or any(v == 0 for v in witness[1:m]):
        raise RuntimeError(
            f"vanishing-index witness failed for {p}: V = {witness}"
        )
    return StabilityVerdict(status="Unstable", zeta_order=order, vanishing_index=m)


@dataclass(frozen=True)
class ModPResult:
    """Result of the mod-p vanishing search for integer parameters."""

    p: int
    status: str  # "ExceptionalAt" | "NotFoundWithinCap" | "DegenerateModP"
    m: int | None
    search_cap: int


def classify_mod_p(
    a: int, b: int, c: int, p: int, search_cap: int | None = None
) -> ModPResult:
    """Least m >= 1 with V_m = 0 modulo p, by the exact recurrence.

    The default cap p^2 always suffices for p not dividing abc: the ratio of
    the characteristic roots lies in a field with p^2 elements, so its
    multiplicative order divides p^2 - 1 (and the repeated-root case
    vanishes at m = p - 1).  a, b, c and search_cap must be ints, not
    bools, and p a prime int (``_check_modulus``).
    """
    _check_modulus(p)
    cap = p * p if search_cap is None else search_cap
    for name, v in (("a", a), ("b", b), ("c", c), ("search_cap", cap)):
        if isinstance(v, bool) or not isinstance(v, int):
            raise TypeError(f"{name} must be an integer, got {v!r}")
    if cap < 1:
        raise ValueError("search_cap must be >= 1")
    if (a * b * c) % p == 0:
        return ModPResult(p=p, status="DegenerateModP", m=None, search_cap=cap)
    try:
        m = indexOf(islice(_vn_terms(a % p, b % p, c % p, p), cap + 1), 0)
    except ValueError:
        return ModPResult(p=p, status="NotFoundWithinCap", m=None, search_cap=cap)
    return ModPResult(p=p, status="ExceptionalAt", m=m, search_cap=cap)


@dataclass(frozen=True)
class FamilyParams:
    """Polynomials a(T), b(T), c(T) (univariate over the rationals, nonzero)
    defining a one-parameter family of maps."""

    a_poly: MultiPoly
    b_poly: MultiPoly
    c_poly: MultiPoly

    def __init__(self, a_poly, b_poly, c_poly):
        # parse all three before checking any, so that a parse error wins
        polys = [
            raw if isinstance(raw, MultiPoly) else parse_poly(str(raw), 1, var_names=("T",))
            for raw in (a_poly, b_poly, c_poly)
        ]
        for name, poly in zip("abc", polys):
            if poly.num_vars != 1 or poly.modulus is not None:
                raise ValueError(f"{name}(T) must be univariate over the rationals")
            if poly.is_zero():
                raise DegenerateParameterError(f"{name}(T) must be nonzero")
        object.__setattr__(self, "a_poly", polys[0])
        object.__setattr__(self, "b_poly", polys[1])
        object.__setattr__(self, "c_poly", polys[2])


@dataclass(frozen=True)
class GenericStability:
    """Stability of the family over the rational function field."""

    status: str  # "GenericallyStable" | "GenericallyUnstable"
    kappa: Fraction | None = None  # constant value of c^2/(ab) if constant
    witness: StabilityVerdict | None = None


def family_generic_stability(f: FamilyParams) -> GenericStability:
    """Stable over the function field unless c(T)^2/(a(T)b(T)) is a constant
    kappa at which the map is unstable.  The triple (1, 1/kappa, 1) has
    c^2/(ab) = kappa, so classify decides it, with its V_m witness."""
    c2 = f.c_poly * f.c_poly
    ab = f.a_poly * f.b_poly
    kappa = Fraction(c2.leading()[1], ab.leading()[1])
    if not (c2 - kappa * ab).is_zero():
        return GenericStability(status="GenericallyStable")
    verdict = classify(FabcParams(1, 1 / kappa, 1))
    if verdict.status == "Stable":
        return GenericStability(status="GenericallyStable", kappa=kappa)
    return GenericStability(status="GenericallyUnstable", kappa=kappa, witness=verdict)


def _strip_shared_factors(num: list[int], shared: MultiPoly) -> list[int]:
    """The locus numerator with ascending primitive int coefficients num,
    every factor it shares with shared divided out, as the same kind of
    list; num itself when shared is constant, with no gcd run.

    shared is gcd(ab, c), and the lemma of _locus_polys makes it hold
    every factor num shares with abc.  Each gcd hands back its quotient
    (_gcd_quotients), so each factor is divided out once.
    """
    if shared.is_constant():
        return num
    poly = _sparse(num)
    while True:
        g, quotient, _ = _gcd_quotients((poly, shared))
        if g.is_constant():
            return _dense(poly.canonical())
        poly = quotient


@dataclass(frozen=True)
class LocusEntry:
    """One order's slice of the exceptional locus: the defining polynomial,
    its numeric roots, and a per-root height (shared Mahler value)."""

    order: int
    poly: MultiPoly
    roots: tuple[complex, ...]
    heights: tuple[float, ...]


@dataclass(frozen=True)
class ExceptionalLocus:
    entries: tuple[LocusEntry, ...]
    degenerate_params: tuple[complex, ...]
    zeta_one_poly: MultiPoly
    truncation: int


def _log(c: Rational) -> float:
    """Natural log of |c| for a nonzero int or Fraction of any size."""
    return math.log(abs(c.numerator)) - math.log(c.denominator)


def _numeric_roots(coeffs: list) -> tuple[complex, ...]:
    """Roots of p by numpy, sorted, coeffs its ascending coefficients.  Past
    the float range they are 2^k times the roots of p(2^k u) / 2^e, k the
    rounded mean of log2|c_j / c_d| from the lowest nonzero c_j to d, and
    2^e the power of two nearest the largest coefficient of p(2^k u)."""
    coeffs = coeffs[::-1]
    if len(coeffs) < 2:
        return ()
    try:
        k, floats = 0, [float(c) for c in coeffs]
    except OverflowError:
        d, lo = len(coeffs) - 1, max(i for i, c in enumerate(coeffs) if c)
        k = round((_log(coeffs[lo]) - _log(coeffs[0])) / (lo * math.log(2))) if lo else 0
        e = round(max(_log(c) / math.log(2) + k * (d - i) for i, c in enumerate(coeffs) if c))
        floats = [float(c * Fraction(2) ** (k * (d - i) - e)) for i, c in enumerate(coeffs)]
    roots = (complex(r) for r in np.roots(floats) * 2.0**k)
    return tuple(sorted(roots, key=lambda z: (round(z.real, 9), round(z.imag, 9))))


def _height_from_roots(coeffs: list, roots: tuple[complex, ...]) -> float:
    """mahler_height of the polynomial with ascending coefficients coeffs,
    given its numeric roots."""
    d = len(coeffs) - 1
    if d < 1:
        raise ValueError("height needs a non-constant polynomial")
    lead = coeffs[-1]
    total = _log(lead) if abs(lead) > sys.float_info.max else math.log(abs(float(lead)))
    for r in roots:
        total += math.log(max(1.0, abs(r)))
    return total / d


def mahler_height(poly: MultiPoly) -> float:
    """Degree-normalized log Mahler measure:
    (log|lead| + sum over roots of log max(1, |root|)) / deg."""
    coeffs = _dense(poly)
    return _height_from_roots(coeffs, _numeric_roots(coeffs))


def _locus_polys(
    f: FamilyParams, n_max: int
) -> tuple[list[tuple[int, list[int]]], MultiPoly, MultiPoly]:
    """The exact part of family_exceptional_locus: the (order, slice)
    pairs, each slice an ascending list of coprime ints with a positive
    last entry, abc and the zeta = 1 polynomial c^2 + 4ab.

    Lemma: every factor that an order-n numerator shares with abc divides
    gcd(ab, c), so the slices are stripped against that one gcd.  With
    U = ab, W = -(2ab + c^2) and Psi_n = cos_min_poly(n) = sum psi_j w^j,
    monic of degree h, the numerator is N_n = sum psi_j W^j U^(h - j).
    At a root T0 of ab, N_n(T0) = (-c(T0)^2)^h, zero only if c(T0) = 0.
    At a root T0 of c alone, W(T0) = -2U(T0), so N_n(T0) =
    U(T0)^h Psi_n(-2), which is nonzero: -2 = 2cos(2 pi k/n) only for
    n = 2.  So each root of an irreducible factor that N_n shares with
    abc is a root of both ab and c, and the factor divides gcd(ab, c).
    """
    if n_max < 3:
        raise ValueError("n_max must be >= 3")
    generic = family_generic_stability(f)
    if generic.status != "GenericallyStable":
        raise ValueError("family is generically unstable; locus undefined")
    ab = f.a_poly * f.b_poly
    c2 = f.c_poly * f.c_poly
    abc = (ab * f.c_poly).canonical()
    shared = poly_gcd(ab, f.c_poly)
    # Psi_n(w) at w = W/U, W = -(2ab + c^2) and U = ab, cleared by U^h for
    # h = deg Psi_n <= n_max/2: the form sum of c_j W^j U^(h - j) in (W, U),
    # all of them by _packed_sums (T -> 2^B), with W and U scaled by one
    # integer so that both have integer coefficients
    w, u = _dense(-(2 * ab + c2)), _dense(ab)
    den = math.lcm(*(c.denominator for c in w + u))
    w, u = [int(c * den) for c in w], [int(c * den) for c in u]
    psis = [_dense(cos_min_poly(n)) for n in range(3, n_max + 1)]
    width, sums = _packed_sums(
        [[((j, len(psi) - 1 - j), c) for j, c in enumerate(psi) if c] for psi in psis],
        [list(enumerate(w)), list(enumerate(u))],
    )
    top = max(len(w), len(u)) - 1
    slices = []
    for n, psi, total in zip(range(3, n_max + 1), psis, sums):
        size = (len(psi) - 1) * top + 1
        num = _unpack(total, range(size), size, width)
        while num and not num[-1]:
            num.pop()
        if not num:
            raise RuntimeError(f"order-{n} numerator vanished unexpectedly")
        content = math.gcd(*num) if num[-1] > 0 else -math.gcd(*num)
        num = _strip_shared_factors([c // content for c in num], shared)
        if len(num) > 1:
            slices.append((n, num))
    return slices, abc, (c2 + 4 * ab).canonical()


def family_exceptional_locus(f: FamilyParams, n_max: int) -> ExceptionalLocus:
    """Parameters t where the specialized map's degrees drop, sliced by the
    root-of-unity order n = 3..n_max.

    For each n the defining polynomial is the primitive numerator of
    Psi_n(-2 - c(T)^2/(a(T)b(T))), with factors shared with a*b*c stripped
    (those parameters are degenerate and reported separately, each once:
    the roots of abc divided by its gcd with abc').  Orders whose
    polynomial is constant contribute no entry.  The locus where
    c^2 + 4ab = 0 never meets these entries (its 2cos value is 2, not a
    root of any Psi_n with n >= 3) and is reported on the side.
    """
    slices, abc, zeta_one = _locus_polys(f, n_max)
    squarefree = _gcd_quotients((abc, abc.partial(0)))[1]
    entries = []
    for n, coeffs in slices:
        roots = _numeric_roots(coeffs)
        h = _height_from_roots(coeffs, roots)
        entries.append(
            LocusEntry(order=n, poly=_sparse(coeffs), roots=roots, heights=(h,) * len(roots))
        )
    return ExceptionalLocus(
        entries=tuple(entries),
        degenerate_params=_numeric_roots(_dense(squarefree)),
        zeta_one_poly=zeta_one,
        truncation=n_max,
    )


def _image(coeffs: list) -> list | None:
    """The int list coeffs mod r = _prime(0), or None when r divides its
    last entry.

    Lemma (that of _gcd_modular with one prime and no points): if r divides
    neither lc(a) nor lc(b) of integer polynomials a, b, the primitive
    G = gcd(a, b) over Z keeps its degree mod r (lc(G) divides lc(a), by
    Gauss) and divides both images, so a constant _up_gcd of the images
    proves gcd(a, b) = 1 over Q.  A nonconstant one proves nothing, and
    callers then run poly_gcd.
    """
    r = _prime(0)
    return [c % r for c in coeffs] if coeffs[-1] % r else None


def _critical_image(f: FamilyParams) -> list | None:
    """The _image of K = 2c'ab - c(ab)', primitive, with kappa' = cK/(ab)^2
    for kappa = c^2/(ab); None when K = 0 or _image gives None."""
    ab = f.a_poly * f.b_poly
    k = (2 * f.c_poly.partial(0) * ab - f.c_poly * ab.partial(0)).canonical()
    return None if k.is_zero() else _image(_dense(k))


def _distinct_root_count(coeffs: list, image: list | None, critical: list | None = None) -> int:
    """Degree of the squarefree part of the polynomial S with ascending int
    coefficients coeffs, given its _image and, when S is a locus slice or a
    factor of one, its family's _critical_image.

    Lemma: such an S is squarefree iff gcd(S, K) = 1.  S shares no root
    with abc (the lemma of _locus_polys), so at a root T0 of S, U = ab and
    c are nonzero and T0 is as multiple in S as in N_n = U^h Psi_n(w),
    w = -2 - kappa.  Psi_n has simple roots, so T0 is multiple exactly when
    w'(T0) = -c K / U^2 vanishes, that is when K(T0) = 0.  A constant K
    decides with no Euclid, a constant gcd of the images by _image's lemma
    (K = 0 makes kappa constant, and the strip leaves no slice).  Otherwise
    the exact squarefree part, S divided by its gcd with S', decides."""
    if critical is not None and (
        len(critical) == 1 or image is not None and len(_up_gcd(image, critical, _prime(0))) == 1
    ):
        return len(coeffs) - 1
    poly = _sparse(coeffs)
    return max(_gcd_quotients((poly, poly.partial(0)))[1].degree, 0)


@dataclass(frozen=True)
class PairOverlap:
    """A nontrivial common factor between order slices of two loci."""

    order_first: int
    order_second: int
    poly: MultiPoly
    distinct_roots: int


@dataclass(frozen=True)
class IntersectionReport:
    """Exact comparison of two families' truncated exceptional loci."""

    truncation: int
    phi_equal: bool  # c^2/(ab) identical as rational functions
    overlaps: tuple[PairOverlap, ...]
    first_size: int
    second_size: int
    intersection_size: int
    symmetric_difference_size: int


def same_ratio_invariant(first: FamilyParams, second: FamilyParams) -> bool:
    """Whether c^2/(ab) agrees for the two families as rational functions,
    tested by exact cross-multiplication."""
    lhs = first.c_poly * first.c_poly * (second.a_poly * second.b_poly)
    rhs = second.c_poly * second.c_poly * (first.a_poly * first.b_poly)
    return (lhs - rhs).is_zero()


@functools.cache
def _compositum_degree(n: int, m: int) -> int:
    """Degree D(n, m) of the compositum K of Q(zeta_n)^+ and Q(zeta_m)^+,
    n, m >= 3: phi(L) / (2 if gcd(n, m) > 2 else 4), L = lcm(n, m).

    Lemma: Gal(Q(zeta_L)/Q) = (Z/L)^x and Q(zeta_k)^+ is the fixed field of
    H_k = {a : a = +-1 mod k} (Washington, GTM 83), so D = phi(L) / |H|,
    H = H_n & H_m.  H holds a = 1 and a = -1 mod L, and by the CRT the two
    a with a = +-1 mod n, a = -+1 mod m exactly when 1 = -1 mod gcd(n, m);
    all four differ as n, m > 2.  K contains both fields, so D is a
    multiple of lcm(h_n, h_m), h_k = phi(k) / 2.
    """
    return euler_phi(math.lcm(n, m)) // (2 if math.gcd(n, m) > 2 else 4)


def _slice_overlaps(
    first: list[tuple[int, list[int]]],
    second: list[tuple[int, list[int]]],
    field_degree: Callable[[int, int], int] | None = None,
    critical: tuple[list | None, list | None] = (None, None),
    paired: bool = False,
) -> tuple[tuple[PairOverlap, ...], int, int]:
    """Nontrivial common factors between two lists of (order, slice) pairs,
    a slice a nonconstant ascending int list, and each list's root count.

    field_degree, when given, maps orders (n, m) to an integer D dividing
    [Q(T0):Q] for every common root T0 of an order-n slice S_n of first
    and an order-m slice S'_m of second.  A pair with
    D > min(deg S_n, deg S'_m) is then coprime and skipped with no gcd: a
    common root T0 would give D <= [Q(T0):Q] <= deg gcd(S_n, S'_m) <=
    min(deg S_n, deg S'_m).  The screen compares integer degrees only.
    paired, when true, says that slices of different orders share no root,
    and those pairs are skipped too.  Without either no pair is screened,
    so any slices may be compared.

    Each slice is reduced once by _image and counted once by
    _distinct_root_count with its family's _critical_image, critical[0] or
    critical[1] (None for lists that are not slices); an overlap divides
    its first slice and is counted with critical[0].  Equal lists S have
    the canonical S as their gcd.  A pair whose images have a constant gcd
    is coprime by _image's lemma; the exact poly_gcd runs only on the other
    pairs, those with a nonconstant image gcd or an image prime dividing a
    leading coefficient.
    """
    r = _prime(0)
    imaged1 = [(n, c, _image(c)) for n, c in first]
    imaged2 = [(n, c, _image(c)) for n, c in second]
    roots1 = [_distinct_root_count(c, i, critical[0]) for _, c, i in imaged1]
    roots2 = [_distinct_root_count(c, i, critical[1]) for _, c, i in imaged2]
    overlaps = []
    for (n1, c1, i1), roots in zip(imaged1, roots1):
        for n2, c2, i2 in imaged2:
            if paired and n1 != n2:
                continue
            if field_degree and field_degree(n1, n2) >= min(len(c1), len(c2)):
                continue
            if c1 == c2:
                overlaps.append(PairOverlap(n1, n2, _sparse(c1).canonical(), roots))
                continue
            if i1 is not None and i2 is not None and len(_up_gcd(i1, i2, r)) == 1:
                continue
            g = poly_gcd(_sparse(c1), _sparse(c2))
            if g.is_constant():
                continue
            coeffs = _dense(g)
            roots_g = _distinct_root_count(coeffs, _image(coeffs), critical[0])
            overlaps.append(PairOverlap(n1, n2, g, roots_g))
    return tuple(overlaps), sum(roots1), sum(roots2)


def unlikely_intersection_explorer(
    first: FamilyParams, second: FamilyParams, n_max: int
) -> IntersectionReport:
    """Compare truncated exceptional loci of two generically stable families.

    Slices of one family's locus at different orders are automatically
    coprime (a parameter pins down a single 2cos value), so sizes add over
    orders and the intersection is the union of pairwise gcd root sets.
    Only the exact slices are compared; no numeric root is computed.

    Pairs are screened by field degree before any gcd.  Let T0 be a common
    root of the order-n slice of the first locus and the order-m slice of
    the second.  Factors shared with abc are stripped, so a(T0)b(T0) != 0,
    and x0 = -2 - kappa(T0) with kappa = c^2/(ab) lies in Q(T0) and is a
    root of Psi_n = cos_min_poly(n), likewise y0 of Psi_m.  Each root of
    Psi_n generates the normal field Q(zeta_n)^+, so the subfield Q(x0, y0)
    of Q(T0) is their compositum, of degree _compositum_degree(n, m): that
    is the hypothesis of _slice_overlaps' screen.

    When the kappas are equal (phi_equal), x0 = y0 is a root of Psi_n and
    of Psi_m, and a root 2cos(2 pi k/n), gcd(k, n) = 1, determines n; so
    n = m, and the loci are compared order by order (paired).
    """
    slices1 = _locus_polys(first, n_max)[0]
    slices2 = _locus_polys(second, n_max)[0]
    phi_equal = same_ratio_invariant(first, second)
    critical = (_critical_image(first), _critical_image(second))
    overlaps, size1, size2 = _slice_overlaps(
        slices1, slices2, _compositum_degree, critical, phi_equal
    )
    inter = sum(o.distinct_roots for o in overlaps)
    return IntersectionReport(
        truncation=n_max,
        phi_equal=phi_equal,
        overlaps=overlaps,
        first_size=size1,
        second_size=size2,
        intersection_size=inter,
        symmetric_difference_size=size1 + size2 - 2 * inter,
    )
