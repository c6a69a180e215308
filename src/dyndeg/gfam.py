"""A quadratic plane family whose unstable parameters form a marked orbit.

The family is

    g_t([X, Y, Z]) = [(aX + bZ)(X - tZ) + (X - Z)Y,  (X - Z)Y,  (X - tZ)Z]

with a fixed nonzero multiplier ``a`` and shift ``b``.  For t != 1 each
member is a degree-2 birational self-map of the plane with indeterminacy
points [0, 1, 0] and [t, 0, 1]; at t = 1 the three forms share the
factor X - Z and the map collapses to a linear one.

The lines Y = 0 and Z = 0 are invariant, and on Y = 0 the map acts by
[X, 0, Z] -> [aX + bZ, 0, Z].  The marked point [1, 0, 1] therefore has
the exact orbit [e_n, 0, 1] with

    e_0 = 1,   e_{n+1} = a * e_n + b,

i.e. e_n = a^n + b(a^{n-1} + ... + a + 1).  Degree growth of g_t fails
precisely when this orbit reaches the indeterminacy point [t, 0, 1], so
the set of unstable parameter values is {e_n : n >= 0} — an explicit,
infinite set of unbounded height.  Choosing (a, b) = (1, 1) and (1, 2)
gives two families whose unstable sets are the positive integers and
the odd positive integers: infinite intersection and infinite symmetric
difference at once, which is what ``negative_answer_report`` tabulates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator, Union

from .exactalg import MultiPoly, _exact_fraction
from .ratmap import INDETERMINATE, ProjectiveMap, ProjectivePoint, orbit

__all__ = [
    "GFamilyParams",
    "HitsIndeterminacyAt",
    "NoHitWithin",
    "ParameterVerdict",
    "NegativeAnswerReport",
    "build_g",
    "exceptional_set",
    "exact_membership",
    "orbit_marked_point",
    "classify_parameter",
    "indeterminacy_points",
    "marked_point",
    "negative_answer_report",
]

Rational = Union[int, Fraction]


@dataclass(frozen=True)
class GFamilyParams:
    """Multiplier/shift pair (a, b) with a != 0."""

    a: Fraction
    b: Fraction

    def __init__(self, a: Rational, b: Rational):
        object.__setattr__(self, "a", _exact_fraction(a, "a"))
        object.__setattr__(self, "b", _exact_fraction(b, "b"))
        if self.a == 0:
            raise ValueError("the multiplier a must be nonzero")


def build_g(p: GFamilyParams, t: Rational) -> ProjectiveMap:
    """The member of the family at parameter value t.

    Degree 2 for t != 1; at t = 1 the common factor X - Z cancels and
    the returned map is linear.
    """
    t = _exact_fraction(t, "t")
    x, y, z = (MultiPoly.variable(3, i) for i in range(3))
    a, b = p.a, p.b
    return ProjectiveMap(
        [
            (a * x + b * z) * (x - t * z) + (x - z) * y,
            (x - z) * y,
            (x - t * z) * z,
        ]
    )


def marked_point() -> ProjectivePoint:
    """The point on Y = 0 whose orbit witnesses every degree drop."""
    return ProjectivePoint([1, 0, 1])


def indeterminacy_points(p: GFamilyParams, t: Rational) -> frozenset[ProjectivePoint]:
    """The verified indeterminacy points of the member at t.

    Candidates [0, 1, 0] and [t, 0, 1] are kept only if every coordinate
    form actually vanishes there, so the degenerate t = 1 member (which
    is linear, hence everywhere defined) yields the empty set.
    """
    t = _exact_fraction(t, "t")
    g = build_g(p, t)
    candidates = (ProjectivePoint([0, 1, 0]), ProjectivePoint([t, 0, 1]))
    return frozenset(q for q in candidates if g.apply(q) is INDETERMINATE)


def _track(p: GFamilyParams) -> Iterator[Fraction]:
    """e_0 = 1, e_1, e_2, ... by e_{n+1} = a*e_n + b, without end."""
    e = Fraction(1)
    while True:
        yield e
        e = p.a * e + p.b


def exceptional_set(p: GFamilyParams, n_max: int) -> list[Fraction]:
    """First n_max + 1 unstable parameter values e_0, ..., e_{n_max}.

    e_0 = 1 and e_{n+1} = a*e_n + b, equivalently
    e_n = a^n + b(a^{n-1} + ... + a + 1).
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return list(islice(_track(p), n_max + 1))


def exact_membership(p: GFamilyParams, t: Rational) -> bool | None:
    """Decide t in {e_n : n >= 0} in closed form, or None when that is
    out of reach.

    For a = 1 the orbit is the arithmetic progression 1, 1+b, 1+2b, ...,
    so membership is (t - 1)/b being a nonnegative integer (t == 1 when
    b = 0).  Every other multiplier returns None and calls nothing; a
    caller that needs an answer there runs ``orbit_marked_point`` to a
    finite depth itself (closed forms for a != 1: ROADMAP item 14).
    """
    t = _exact_fraction(t, "t")
    if p.a != 1:
        return None
    if p.b == 0:
        return t == 1
    steps = (t - 1) / p.b
    return steps.denominator == 1 and steps >= 0


@dataclass(frozen=True)
class HitsIndeterminacyAt:
    """The marked orbit reached [t, 0, 1] after n steps."""

    n: int


@dataclass(frozen=True)
class NoHitWithin:
    """The marked orbit avoided [t, 0, 1] for all n <= n_max."""

    n_max: int


OrbitOutcome = Union[HitsIndeterminacyAt, NoHitWithin]


def orbit_marked_point(p: GFamilyParams, t: Rational, n_max: int) -> OrbitOutcome:
    """Walk the actual map's orbit of [1, 0, 1] (``ratmap.orbit``) and
    report the least n with g_t^n([1, 0, 1]) = [t, 0, 1], if one exists
    with n <= n_max; the walk stops there, applying g_t no further.

    Each point is checked against the closed form [e_n, 0, 1], e_n from
    ``_track`` beside the walk; a mismatch (the recurrence and the map
    disagree) raises RuntimeError, as does any other indeterminate point.
    A negative n_max raises ValueError at the walk's first step.
    """
    t = _exact_fraction(t, "t")
    target = ProjectivePoint([t, 0, 1])
    for n, (point, e) in enumerate(zip(orbit(build_g(p, t), marked_point(), n_max), _track(p))):
        if point is INDETERMINATE:
            raise RuntimeError(
                f"marked orbit hit an unexpected indeterminate point at step {n - 1}"
            )
        if point != ProjectivePoint([e, 0, 1]):
            raise RuntimeError(
                f"marked orbit left its predicted track at step {n}"
            )
        if point == target:
            return HitsIndeterminacyAt(n)
    return NoHitWithin(n_max)


@dataclass(frozen=True)
class ParameterVerdict:
    """How the member at one parameter value loses (or keeps) degree 2.

    status is one of:
      - "DegenerateDegreeOne": t = 1, the map itself is linear;
      - "HitsIndeterminacy": the marked orbit lands on [t, 0, 1] at
        step ``n`` (degree growth fails);
      - "NoHitWithin": no collision found up to the truncation.
    """

    status: str
    n: int | None
    n_max: int


def classify_parameter(p: GFamilyParams, t: Rational, n_max: int) -> ParameterVerdict:
    t = _exact_fraction(t, "t")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if t == 1:
        return ParameterVerdict(status="DegenerateDegreeOne", n=None, n_max=n_max)
    outcome = orbit_marked_point(p, t, n_max)
    if isinstance(outcome, HitsIndeterminacyAt):
        return ParameterVerdict(status="HitsIndeterminacy", n=outcome.n, n_max=n_max)
    return ParameterVerdict(status="NoHitWithin", n=None, n_max=n_max)


def _truncated_values(p: GFamilyParams, bound: int) -> tuple[int, ...]:
    """Members of {e_n} lying in [1, bound], as a sorted tuple, read off
    _track.

    The caller must pass a family whose values strictly increase from
    e_0 = 1, as the report families do, so the scan stops at the first
    value past bound; any other family raises ValueError.
    """
    values, prev = [], None
    for e in _track(p):
        if prev is not None and e <= prev:
            raise ValueError("the family's values must increase")
        if e > bound:
            return tuple(values)
        if e.denominator == 1:
            values.append(int(e))
        prev = e


@dataclass(frozen=True)
class NegativeAnswerReport:
    """Truncated unstable-parameter sets for the three showcase families.

    linear_set is {e_n} for (a, b) = (1, 1) — all positive integers;
    odd_set is (1, 2) — the odd ones; sparse_set is (2, 0) — powers of
    two.  The intersection of the first two is infinite (all odds) while
    their symmetric difference is infinite too (all evens), and the
    naive heights log e_n grow without bound — recorded here up to the
    truncation.
    """

    n_max: int
    linear_set: tuple[int, ...]
    odd_set: tuple[int, ...]
    sparse_set: tuple[int, ...]
    intersection: tuple[int, ...]
    symmetric_difference: tuple[int, ...]
    heights: tuple[float, ...]
    max_height: float


def negative_answer_report(n_max: int) -> NegativeAnswerReport:
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    linear = _truncated_values(GFamilyParams(1, 1), n_max)
    odd = _truncated_values(GFamilyParams(1, 2), n_max)
    sparse = _truncated_values(GFamilyParams(2, 0), n_max)
    heights = tuple(math.log(v) for v in linear)
    return NegativeAnswerReport(
        n_max=n_max,
        linear_set=linear,
        odd_set=odd,
        sparse_set=sparse,
        intersection=tuple(sorted(set(linear) & set(odd))),
        symmetric_difference=tuple(sorted(set(linear) ^ set(odd))),
        heights=heights,
        max_height=max(heights),
    )
