"""Rational self-maps of projective space with exact arithmetic.

A map is a tuple of N+1 coprime forms, homogeneous of a common degree in
the point coordinates.  Extra polynomial variables beyond the first N+1
act as symbolic parameters and ride through composition untouched.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

from .exactalg import (
    DomainMismatchError,
    MultiPoly,
    TermCapExceeded,
    substitute_system,
    _canonical_scale,
    _coerce,
    _content_last,
    _gcd_quotients,
    _packed_sums,
    _prime,
    _unpack,
)

DEFAULT_TERM_CAP = 200_000
_TERM_CAP_ENV = "DYNDEG_TERM_CAP"


def term_cap_default() -> int:
    raw = os.environ.get(_TERM_CAP_ENV)
    if raw is None:
        return DEFAULT_TERM_CAP
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{_TERM_CAP_ENV} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"{_TERM_CAP_ENV} must be positive")
    return value


class _Indeterminate:
    """Outcome of applying a map at a point where every coordinate vanishes."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Indeterminate"

    def __bool__(self):
        return False


INDETERMINATE = _Indeterminate()


class ProjectivePoint:
    """Point of projective N-space with exact scalar coordinates,
    canonicalized so the first nonzero coordinate is 1."""

    __slots__ = ("coords", "modulus")

    def __init__(self, coords: Sequence, modulus: int | None = None):
        vals = [_coerce(c, modulus) for c in coords]
        if len(vals) < 2:
            raise ValueError("need at least two coordinates")
        pivot = next((v for v in vals if v), None)
        if pivot is None:
            raise ValueError("all coordinates are zero")
        coords = tuple(_coerce(Fraction(v, pivot), modulus) for v in vals)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "modulus", modulus)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("ProjectivePoint is immutable")

    @property
    def dim(self) -> int:
        return len(self.coords) - 1

    def __eq__(self, other):
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        return self.modulus == other.modulus and self.coords == other.coords

    def __hash__(self):
        return hash((self.modulus, self.coords))

    def __repr__(self):
        inner = ", ".join(str(c) for c in self.coords)
        return f"[{inner}]"


PointLike = Union[ProjectivePoint, Sequence]


def _as_point(value: PointLike, modulus=None) -> ProjectivePoint:
    if isinstance(value, ProjectivePoint):
        return value
    return ProjectivePoint(value, modulus)


class ProjectiveMap:
    """Dominant-candidate rational self-map of P^N given by coprime forms."""

    __slots__ = ("n", "coords", "degree", "num_params", "modulus")

    def __init__(self, coords: Sequence[MultiPoly]):
        coords = tuple(coords)
        if len(coords) < 2:
            raise ValueError("need at least two coordinate forms")
        n = len(coords) - 1
        nv = coords[0].num_vars
        mod = coords[0].modulus
        for c in coords:
            if c.num_vars != nv or c.modulus != mod:
                raise DomainMismatchError("coordinate forms disagree in ring")
        if nv < n + 1:
            raise ValueError("not enough variables for the point coordinates")
        point_vars = tuple(range(n + 1))
        degrees = set()
        for c in coords:
            if c.is_zero():
                continue
            if not c.is_homogeneous_in(point_vars):
                raise ValueError("coordinate form is not homogeneous in point variables")
            degrees.add(c.degree_in_vars(point_vars))
        if not degrees:
            raise ValueError("all coordinate forms are zero")
        if len(degrees) != 1:
            raise ValueError("coordinate forms have different degrees")
        coords = _gcd_quotients(coords)[1:]
        degree = next(c.degree_in_vars(point_vars) for c in coords if not c.is_zero())
        # the fields in __slots__ order, the forms at their canonical scale
        scale = _canonical_scale(coords)
        coords = tuple(c * scale for c in coords)
        for name, value in zip(self.__slots__, (n, coords, degree, nv - (n + 1), mod)):
            object.__setattr__(self, name, value)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("ProjectiveMap is immutable")

    def __eq__(self, other):
        if not isinstance(other, ProjectiveMap):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        from .exactalg import format_poly

        inner = ", ".join(format_poly(c) if c.num_vars <= 3 else format_poly(
            c, var_names=tuple(f"X{i}" for i in range(c.num_vars))
        ) for c in self.coords)
        return f"ProjectiveMap([{inner}])"

    # -- operations ----------------------------------------------------------

    def compose(self, other: "ProjectiveMap") -> "ProjectiveMap":
        """self after other (apply `other` first)."""
        f, g = self, other
        if f.n != g.n or f.modulus != g.modulus:
            raise DomainMismatchError("maps live on different spaces")
        if f.coords[0].num_vars != g.coords[0].num_vars:
            raise DomainMismatchError("maps have different parameter rings")
        return ProjectiveMap(_compose_forms(f, g.coords))

    def apply(self, point: PointLike):
        """Evaluate at a point; returns INDETERMINATE when all forms vanish."""
        if self.num_params:
            raise ValueError("cannot apply a map with symbolic parameters to a point")
        p = _as_point(point, self.modulus)
        if p.dim != self.n:
            raise ValueError("point dimension does not match the map")
        if p.modulus != self.modulus:
            raise DomainMismatchError("point and map domains differ")
        values = [c.evaluate(p.coords) for c in self.coords]
        if not any(values):
            return INDETERMINATE
        return ProjectivePoint(values, self.modulus)


def _compose_forms(
    f: ProjectiveMap, inner: Sequence[MultiPoly], term_cap: int | None = None
) -> list[MultiPoly]:
    """Raw forms of f after `inner`: the forms of `inner` replace the point
    variables, and parameter variables map to themselves."""
    nv = f.coords[0].num_vars
    assignment = list(inner) + [
        MultiPoly.variable(nv, i, f.modulus) for i in range(f.n + 1, nv)
    ]
    return substitute_system(f.coords, assignment, term_cap=term_cap)


@dataclass(frozen=True)
class DegreeSequence:
    """Degrees of the reduced iterates f, f^2, ..., f^nMax.

    `truncated_at` marks the first iterate whose composition passed the
    term cap; degrees from it on are not reported.
    """

    degrees: tuple[int, ...]
    n_max: int
    truncated_at: int | None = None

    def __len__(self):
        return len(self.degrees)


@dataclass(frozen=True)
class DynamicalDegreeEstimate:
    root_estimate: float
    ratio_estimate: float
    n_used: int


# Seed of the lines the coprimality certificate restricts iterates to.
_LINE_SEED = 20160


def _generic_line(n: int, r: int, rng: random.Random) -> list[list[int]]:
    """A line P^1 -> P^n for the coprimality certificate, s*P + t*Q for two
    points P, Q mod r drawn from rng, as n+1 linear binary forms [Q_i, P_i]."""
    return [[rng.randrange(r), rng.randrange(r)] for _ in range(n + 1)]


# A binary form of degree D mod r is a list of D+1 ints in [0, r), entry k
# the coefficient of s^k t^(D-k); entries may be 0, so its length gives D.


def _line_compose(f: ProjectiveMap, forms: list[list[int]], r: int) -> list[list[int]]:
    """The forms of f, with integer coefficients, evaluated on binary forms
    of one degree D and then on one constant [tau] per parameter, mod r:
    binary forms of degree deg(f) * D, by _packed_sums (s -> 2^B, t -> 1,
    tau in slot 0) and reduced mod r on unpacking."""
    size = f.degree * (len(forms[0]) - 1) + 1
    width, sums = _packed_sums([c.terms for c in f.coords], [list(enumerate(g)) for g in forms])
    return [[c % r for c in _unpack(total, range(size), size, width)] for total in sums]


def _line_coprime(forms: list[list[int]], r: int) -> bool:
    """Whether binary forms mod r, not all zero, have a gcd of degree 0: some
    form keeps its s^D coefficient (t divides not all of them) and the
    forms at t = 1 have a constant gcd."""
    if not any(form[-1] for form in forms):
        return False
    # at t = 1: the nonzero forms without their zero top coefficients in s
    stripped = (a[: max(k for k, c in enumerate(a) if c) + 1] for a in forms if any(a))
    return len(_content_last(stripped, r)) == 1


def _iterates(
    f: ProjectiveMap, n_max: int, term_cap: int | None = None
) -> Iterator[tuple[int, bool]]:
    """Yield (deg f^n, certified) for n = 1..n_max: each reduced iterate is
    f composed with the previous one, and `certified` says whether a line
    certificate, not _gcd_quotients, proved the composition coprime.
    Raises ValueError when n_max < 1, on the first step, and
    TermCapExceeded, carrying n, when step n composes and a form passes
    the term cap.

    Coprimality certificate (a Bellon-Viallet restriction to a line).
    Fix r = 2^61 - 1 over Q (the forms of a reduced map have coprime
    integer coefficients) or r = p over F_p, a line l: P^1 -> P^N mod r,
    one residue tau mod r for each parameter T of f, f_tau = f at
    T = tau, G_1 = f_tau o l mod r, and let G_n = f_tau(G_{n-1}) mod r.
    Setting T to tau is a ring map, and it commutes with composition.
    Lemma: if G_{n-1} = c * (f^{n-1}_tau o l) mod r with c a unit, then
    G_n = c^d * (R_n,tau o l) for the raw composition R_n = f(f^{n-1}),
    d = deg f.  A primitive common factor g of R_n of positive degree
    in the point variables X divides each R_n,i in Z[T][X] (Gauss's lemma
    over Z[T]; over F_p in F_p[T][X]) and so restricts to a binary form
    g_tau o l dividing each R_n,i,tau o l mod r; once some R_n,i,tau o l
    is nonzero mod r, g_tau o l is nonzero, of degree deg_X g.  So if the
    forms of G_n are not all zero and their gcd has degree 0,
    deg_X g = 0: R_n = k * f^n for a content k in T alone (a constant
    without parameters), which changes no degree, so
    deg f^n = d * deg f^(n-1); and G_n = c^d * k(tau) * (f^n_tau o l)
    with k(tau) a unit, as G_n is not zero.  If k vanishes at tau, every
    line form is zero and the step is not certified.  A line gcd of
    positive degree proves nothing (the line may meet the base locus of
    R_n, or r may be unlucky), and stays positive at every later step,
    so _gcd_quotients divides the common factor out of all the forms at
    once, taking the gcd certificate's quotients; if none cancels, a fresh
    line, with fresh residues, restarts the invariant at f^n.

    G_n never reads R_n, so a certified step composes nothing: `current`
    lags at f^built, and the skipped iterates are rebuilt only when a
    step the line does not certify needs exact forms.  Each is rebuilt
    through ProjectiveMap, whose _gcd_quotients divides out a content in
    T a certified step may carry: the raw f(f) of [T*X^2, T*Y^2, Y*Z] is
    T * [T^2*X^4, T^2*Y^4, Y^3*Z].  The term cap bounds exactly these
    compositions, and TermCapExceeded carries the step that needed them.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    cap = term_cap if term_cap is not None else term_cap_default()
    yield f.degree, False
    current, built, degree = f, 1, f.degree
    r = f.modulus if f.modulus is not None else _prime(0)
    rng = random.Random(_LINE_SEED)

    def restart(g: ProjectiveMap) -> tuple[list[list[int]], list[list[int]]]:
        """g on a fresh line, one residue per parameter drawn after its points."""
        points = _generic_line(f.n, r, rng)
        at = [[rng.randrange(r)] for _ in range(f.num_params)]
        return _line_compose(g, points + at, r), at

    line, at = restart(f)
    for n in range(2, n_max + 1):
        degree *= f.degree
        if line is not None:
            line = _line_compose(f, line + at, r)
            if _line_coprime(line, r):
                yield degree, True
                continue
        try:
            for _ in range(built, n - 1):
                current = ProjectiveMap(_compose_forms(f, current.coords, cap))
            raw = _compose_forms(f, current.coords, cap)
        except TermCapExceeded:
            raise TermCapExceeded(cap, n) from None
        built = n
        if all(c.is_zero() for c in raw):
            raise ValueError(
                f"f^{n}: all coordinate forms are zero (the map is not dominant)"
            )
        current = ProjectiveMap(raw)
        # Nothing cancelled, so the line met a common zero of its own (or r
        # was unlucky): restart on a fresh line.  After a cancellation later
        # iterates mostly cancel too, so the exact path keeps them.
        if line is not None and current.degree == degree:
            line, at = restart(current)
        else:
            line = None
        degree = current.degree
        yield degree, False


def iter_degrees(
    f: ProjectiveMap, n_max: int, term_cap: int | None = None
) -> Iterator[int]:
    """Yield deg(f^n) for n = 1..n_max, composing f with the previous reduced
    iterate and cancelling common factors each step, or proving there are
    none on a line, which composes nothing (see _iterates).  Raises
    TermCapExceeded, carrying n, when step n composes and a form passes
    the term cap."""
    return (d for d, _ in _iterates(f, n_max, term_cap))


def degree_sequence(
    f: ProjectiveMap, n_max: int, term_cap: int | None = None
) -> DegreeSequence:
    """Degrees of the first n_max reduced iterates, from iter_degrees: a
    step composes and cancels only where no line certificate proves it."""
    degrees: list[int] = []
    try:
        for d in iter_degrees(f, n_max, term_cap):
            degrees.append(d)
    except TermCapExceeded as hit:
        return DegreeSequence(tuple(degrees), n_max, truncated_at=hit.n)
    return DegreeSequence(tuple(degrees), n_max)


def dyndeg_estimate(seq: DegreeSequence) -> DynamicalDegreeEstimate:
    """Numeric first-dynamical-degree estimates from a finite sequence:
    the n-th root of the last degree and the last consecutive ratio."""
    degs = seq.degrees
    if not degs:
        raise ValueError("empty degree sequence")
    n = len(degs)
    root = degs[-1] ** (1.0 / n)
    # every iterate after one of degree 0 has degree 0, so the ratio reads 0
    ratio = degs[-1] / degs[-2] if n >= 2 and degs[-2] else float(degs[-1])
    return DynamicalDegreeEstimate(root_estimate=root, ratio_estimate=ratio, n_used=n)


def first_drop(degrees: Iterable[int], d: int) -> int | None:
    """Least n with degrees[n-1] < d^n, i.e. deg(f^n) < (deg f)^n for the
    degrees of f, f^2, ...; None if there is none.  Consumes `degrees`
    lazily and stops at the first drop."""
    return next((n for n, dn in enumerate(degrees, start=1) if dn < d**n), None)


def degree_drop_index(
    f: ProjectiveMap, n_max: int, term_cap: int | None = None
) -> int | None:
    """Least n <= n_max with deg(f^n) < (deg f)^n, or None if no drop is
    seen (the map is algebraically stable as far as checked).  Composes no
    iterate past the first drop; raises TermCapExceeded like iter_degrees."""
    return first_drop(iter_degrees(f, n_max, term_cap), f.degree)


def orbit(f: ProjectiveMap, start: PointLike, n_max: int) -> Iterator:
    """Yield P, f(P), ..., f^n_max(P), applying f only when the next item is
    asked for; where f is undefined at a yielded point, yield INDETERMINATE
    after it and stop.  A negative n_max raises ValueError at the first
    step."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    p = _as_point(start, f.modulus)
    for _ in range(n_max + 1):
        yield p
        p = f.apply(p)
        if p is INDETERMINATE:
            yield p
            return
