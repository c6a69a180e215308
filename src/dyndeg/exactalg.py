"""Exact coefficient arithmetic and sparse multivariate polynomials.

Coefficients are either `fractions.Fraction` (characteristic zero) or `Fp`
elements (prime fields).  A polynomial is a sparse collection of terms,
exponent vector -> nonzero coefficient, kept in descending graded
lexicographic order so printing, hashing, and leading-term queries are
deterministic.
"""

from __future__ import annotations

import heapq
import math
import operator
import random
import re
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

NEG_INF = float("-inf")

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class DomainMismatchError(ValueError):
    """Operands live over different coefficient domains or variable counts."""


class PolynomialParseError(ValueError):
    """Input text is not a valid polynomial expression."""


class NotDivisibleError(ArithmeticError):
    """Exact polynomial division was requested but does not exist."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact for n < 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Fp:
    """Element of the prime field Z/pZ.  Immutable."""

    __slots__ = ("p", "v")

    def __init__(self, value: int, p: int, _checked: bool = False):
        if not _checked and not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "v", value % p)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Fp elements are immutable")

    def _lift(self, other) -> "Fp":
        if isinstance(other, Fp):
            if other.p != self.p:
                raise DomainMismatchError(f"mixed moduli {self.p} and {other.p}")
            return other
        if isinstance(other, int):
            return Fp(other, self.p, _checked=True)
        if isinstance(other, Fraction):
            if other.denominator % self.p == 0:
                raise DomainMismatchError("denominator vanishes mod p")
            num = other.numerator % self.p
            den = pow(other.denominator % self.p, -1, self.p)
            return Fp(num * den, self.p, _checked=True)
        return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return Fp(self.v + o.v, self.p, _checked=True)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return Fp(self.v - o.v, self.p, _checked=True)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return Fp(o.v - self.v, self.p, _checked=True)

    def __mul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return Fp(self.v * o.v, self.p, _checked=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        if o.v == 0:
            raise ZeroDivisionError("division by zero in prime field")
        return Fp(self.v * pow(o.v, -1, self.p), self.p, _checked=True)

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if n < 0:
            if self.v == 0:
                raise ZeroDivisionError("inverse of zero in prime field")
            return Fp(pow(self.v, n, self.p), self.p, _checked=True)
        return Fp(pow(self.v, n, self.p), self.p, _checked=True)

    def __neg__(self):
        return Fp(-self.v, self.p, _checked=True)

    def __bool__(self):
        return self.v != 0

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.v))

    def __repr__(self):
        return f"Fp({self.v}, {self.p})"


Scalar = Union[Fraction, Fp, int]


def _coerce(value, modulus: int | None):
    """Lift a raw scalar into the coefficient domain."""
    if modulus is None:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, Fp):
            raise DomainMismatchError("prime-field scalar in rational polynomial")
        raise TypeError(f"unsupported coefficient {value!r}")
    if isinstance(value, Fp):
        if value.p != modulus:
            raise DomainMismatchError(f"mixed moduli {modulus} and {value.p}")
        return value
    if isinstance(value, int):
        return Fp(value, modulus, _checked=True)
    if isinstance(value, Fraction):
        return Fp(0, modulus, _checked=True)._lift(value)
    raise TypeError(f"unsupported coefficient {value!r}")


def grlex_key(exps: tuple) -> tuple:
    return (sum(exps), exps)


def _add_terms(acc: dict, terms: Iterable[tuple]) -> None:
    """Add (exponent vector, nonzero coefficient) pairs into the dict acc in
    place, deleting entries that cancel to zero."""
    for e, c in terms:
        prev = acc.get(e)
        if prev is None:
            acc[e] = c
        else:
            s = prev + c
            if s:
                acc[e] = s
            else:
                del acc[e]


class MultiPoly:
    """Sparse multivariate polynomial with exact coefficients.

    Terms are stored as a tuple of (exponent-vector, coefficient) pairs in
    descending graded-lex order.  Instances are immutable and hashable.
    """

    __slots__ = ("num_vars", "terms", "modulus", "_hash")

    def __init__(
        self,
        num_vars: int,
        terms: Mapping[tuple, Scalar] | Iterable[tuple] = (),
        modulus: int | None = None,
    ):
        if num_vars < 1:
            raise ValueError("num_vars must be >= 1")
        if modulus is not None and not is_prime(modulus):
            raise ValueError(f"modulus {modulus} is not prime")
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict = {}
        for exps, coeff in items:
            exps = tuple(exps)
            if len(exps) != num_vars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps} for {num_vars} variables")
            c = _coerce(coeff, modulus)
            if exps in clean:
                c = clean[exps] + c
            if c:
                clean[exps] = c
            elif exps in clean:
                del clean[exps]
        object.__setattr__(
            self,
            "terms",
            tuple(sorted(clean.items(), key=lambda t: grlex_key(t[0]), reverse=True)),
        )
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(num_vars: int, modulus: int | None = None) -> "MultiPoly":
        return MultiPoly(num_vars, (), modulus)

    @staticmethod
    def constant(num_vars: int, value, modulus: int | None = None) -> "MultiPoly":
        return MultiPoly(num_vars, {(0,) * num_vars: value}, modulus)

    @staticmethod
    def variable(num_vars: int, index: int, modulus: int | None = None) -> "MultiPoly":
        exps = tuple(1 if i == index else 0 for i in range(num_vars))
        return MultiPoly(num_vars, {exps: 1}, modulus)

    @staticmethod
    def monomial(num_vars, exps, coeff=1, modulus=None) -> "MultiPoly":
        return MultiPoly(num_vars, {tuple(exps): coeff}, modulus)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and sum(self.terms[0][0]) == 0)

    @property
    def degree(self):
        """Total degree; the zero polynomial reports -inf."""
        if not self.terms:
            return NEG_INF
        return sum(self.terms[0][0])

    def degree_in(self, var: int) -> int | float:
        if not self.terms:
            return NEG_INF
        return max(e[var] for e, _ in self.terms)

    def degree_in_vars(self, vars_subset: Sequence[int]):
        if not self.terms:
            return NEG_INF
        return max(sum(e[v] for v in vars_subset) for e, _ in self.terms)

    def is_homogeneous_in(self, vars_subset: Sequence[int]) -> bool:
        if not self.terms:
            return True
        degs = {sum(e[v] for v in vars_subset) for e, _ in self.terms}
        return len(degs) == 1

    def is_homogeneous(self) -> bool:
        return self.is_homogeneous_in(range(self.num_vars))

    def leading(self):
        """(exponent vector, coefficient) of the graded-lex leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0]

    def constant_value(self):
        for exps, c in self.terms:
            if sum(exps) == 0:
                return c
        return _coerce(0, self.modulus)

    def _check_compat(self, other: "MultiPoly"):
        if self.num_vars != other.num_vars:
            raise DomainMismatchError(
                f"variable counts differ: {self.num_vars} vs {other.num_vars}"
            )
        if self.modulus != other.modulus:
            raise DomainMismatchError(
                f"coefficient domains differ: {self.modulus} vs {other.modulus}"
            )

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Fp)):
            other = MultiPoly.constant(self.num_vars, other, self.modulus)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_compat(other)
        out = dict(self.terms)
        _add_terms(out, other.terms)
        return MultiPoly(self.num_vars, out, self.modulus)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(
            self.num_vars, [(e, -c) for e, c in self.terms], self.modulus
        )

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Fp)):
            other = MultiPoly.constant(self.num_vars, other, self.modulus)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Fp)):
            c0 = _coerce(other, self.modulus)
            if not c0:
                return MultiPoly.zero(self.num_vars, self.modulus)
            return MultiPoly(
                self.num_vars, [(e, c * c0) for e, c in self.terms], self.modulus
            )
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_compat(other)
        out: dict = {}
        add = operator.add
        for ea, ca in self.terms:
            for eb, cb in other.terms:
                e = tuple(map(add, ea, eb))
                prev = out.get(e)
                out[e] = ca * cb if prev is None else prev + ca * cb
        return MultiPoly(self.num_vars, out, self.modulus)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = MultiPoly.constant(self.num_vars, 1, self.modulus)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (
            self.num_vars == other.num_vars
            and self.modulus == other.modulus
            and self.terms == other.terms
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.num_vars, self.modulus, self.terms))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return f"MultiPoly({format_poly(self)!r})"

    # -- evaluation and substitution ---------------------------------------

    def evaluate(self, values: Sequence) -> Scalar:
        if len(values) != self.num_vars:
            raise ValueError("wrong number of values")
        vals = [_coerce(v, self.modulus) for v in values]
        total = _coerce(0, self.modulus)
        pow_cache: list[dict] = [{0: _coerce(1, self.modulus)} for _ in vals]
        for exps, coeff in self.terms:
            term = coeff
            for i, e in enumerate(exps):
                if e:
                    cache = pow_cache[i]
                    p = cache.get(e)
                    if p is None:
                        p = vals[i] ** e
                        cache[e] = p
                    term = term * p
            total = total + term
        return total

    def substitute(self, assignment: Sequence["MultiPoly"]) -> "MultiPoly":
        """Substitute a polynomial for every variable."""
        return substitute_system([self], assignment)[0]

    def partial(self, var: int) -> "MultiPoly":
        """Partial derivative with respect to one variable."""
        out = []
        for exps, coeff in self.terms:
            e = exps[var]
            if e:
                new = list(exps)
                new[var] = e - 1
                out.append((tuple(new), coeff * e))
        return MultiPoly(self.num_vars, out, self.modulus)

    # -- normalization -----------------------------------------------------

    def canonical(self) -> "MultiPoly":
        """Scale to the canonical representative of the projective class."""
        if not self.terms:
            return self
        return self * _canonical_scale((self,))


def _canonical_scale(polys: Sequence[MultiPoly]) -> Scalar:
    """One scalar for polynomials, not all zero: over Q it makes all their
    coefficients coprime integers and the leading coefficient of the first
    nonzero one positive; over a prime field it makes that coefficient 1."""
    lead = next(p for p in polys if p.terms).terms[0][1]
    if isinstance(lead, Fp):
        return Fp(1, lead.p, _checked=True) / lead
    den = 1
    for p in polys:
        for _, c in p.terms:
            den = den * c.denominator // math.gcd(den, c.denominator)
    num = 0
    for p in polys:
        for _, c in p.terms:
            num = math.gcd(num, c.numerator * (den // c.denominator))
    scale = Fraction(den, num)
    return -scale if lead < 0 else scale


class TermCapExceeded(ArithmeticError):
    """A substitution stopped because one output form passed the term cap;
    `n` is the iterate being composed, or None outside the degree engine."""

    def __init__(self, cap: int, n: int | None = None):
        where = "" if n is None else f" at iterate {n}"
        super().__init__(f"term cap {cap} exceeded{where}")
        self.n = n


def substitute_system(
    polys: Sequence[MultiPoly],
    assignment: Sequence[MultiPoly],
    *,
    term_cap: int | None = None,
) -> list[MultiPoly]:
    """Substitute assignment[i] for variable i in every polynomial, sharing
    powers and monomial products.  With `term_cap`, raises TermCapExceeded as
    soon as the running sum of one output form holds more than term_cap
    terms, before the remaining terms are expanded."""
    if not assignment or any(len(assignment) != p.num_vars for p in polys):
        raise ValueError("assignment must cover every variable")
    nv = assignment[0].num_vars
    mod = assignment[0].modulus
    if any(q.num_vars != nv or q.modulus != mod for q in assignment):
        raise DomainMismatchError("assignment polynomials disagree")
    if any(p.modulus != mod for p in polys):
        raise DomainMismatchError("assignment domain differs from polynomial")
    pows = [[MultiPoly.constant(nv, 1, mod)] for _ in assignment]
    products: dict = {}
    out = []
    for p in polys:
        result = MultiPoly.zero(nv, mod)
        for exps, coeff in p.terms:
            prod = products.get(exps)
            if prod is None:
                prod = MultiPoly.constant(nv, 1, mod)
                for i, e in enumerate(exps):
                    if e:
                        lst = pows[i]
                        while len(lst) <= e:
                            lst.append(lst[-1] * assignment[i])
                        prod = prod * lst[e]
                products[exps] = prod
            result = result + prod * coeff
            if term_cap is not None and len(result.terms) > term_cap:
                raise TermCapExceeded(term_cap)
        out.append(result)
    return out


def _heap_key(exps: tuple) -> tuple:
    """Min-heap key that pops exponent vectors in descending grlex order."""
    return (-sum(exps), tuple(map(operator.neg, exps)))


def poly_divexact(p: MultiPoly, d: MultiPoly) -> MultiPoly:
    """Exact division p / d; raises NotDivisibleError when the quotient
    would not be polynomial.

    The remainder lives in one dict keyed by exponent vector, with a heap
    of grlex keys over it; a key whose term cancelled stays in the heap and
    is skipped when popped.  Each step pops the leading remainder term,
    divides it by the leading term of d (or raises), and subtracts qc*d
    term by term.  One quotient term costs len(d) - 1 coefficient updates
    and at most as many heap pushes, so the whole division takes
    O(len(q) * len(d)) coefficient operations and heap operations of
    logarithmic cost; the quotient is built as one MultiPoly at the end.

    Lemma (termination and exactness): in grlex order the leading term of
    qc*d equals the popped leading term of the remainder, so every step
    removes that monomial and adds only smaller ones; the leading monomial
    strictly falls, and only finitely many monomials lie below the first.
    The loop therefore ends, with an empty remainder exactly when d
    divides p: if d*q = p, the leading term of any nonzero remainder
    d*(q - partial quotient) is divisible by the leading term of d.
    """
    p._check_compat(d)
    if d.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if p.is_zero():
        return p
    if d.is_constant():
        return p * (_coerce(1, p.modulus) / d.terms[0][1])
    (lead_e, lead_c), rest = d.terms[0], d.terms[1:]
    sub, add, neg = operator.sub, operator.add, operator.neg
    rem = dict(p.terms)
    heap = [_heap_key(e) for e in rem]
    heapq.heapify(heap)
    quot = []
    while heap:
        key = heapq.heappop(heap)
        re = tuple(map(neg, key[1]))
        rc = rem.pop(re, None)
        if rc is None:
            continue
        qe = tuple(map(sub, re, lead_e))
        if any(e < 0 for e in qe):
            raise NotDivisibleError("leading term not divisible")
        qc = rc / lead_c
        quot.append((qe, qc))
        for de, dc in rest:
            e = tuple(map(add, qe, de))
            prev = rem.get(e)
            if prev is None:
                rem[e] = -qc * dc
                heapq.heappush(heap, _heap_key(e))
            else:
                s = prev - qc * dc
                if s:
                    rem[e] = s
                else:
                    del rem[e]
    return MultiPoly(p.num_vars, quot, p.modulus)


# -- GCD machinery ----------------------------------------------------------


def _int_primitive(coeffs: list[int]) -> list[int]:
    """Strip leading zeros, divide by content, force positive lead."""
    while coeffs and coeffs[0] == 0:
        coeffs = coeffs[1:]
    if not coeffs:
        return []
    g = 0
    for c in coeffs:
        g = math.gcd(g, c)
    if coeffs[0] < 0:
        g = -g
    return [c // g for c in coeffs]


def _prem_lists(a: list, b: list, is_zero):
    """Pseudo-remainder for descending coefficient lists over any domain.

    Returns lc(b)^(deg a - deg b + 1) * a  mod  b, possibly with leading
    zeros stripped.
    """
    da, db = len(a) - 1, len(b) - 1
    if da < db:
        return list(a)
    lb = b[0]
    r = list(a)
    reductions = 0
    while len(r) - 1 >= db:
        lr = r[0]
        r = [lb * c for c in r]
        for i in range(db + 1):
            r[i] = r[i] - lr * b[i]
        r.pop(0)
        reductions += 1
        while r and is_zero(r[0]):
            r.pop(0)
        if not r:
            break
    needed = da - db + 1
    if reductions < needed and r:
        factor = lb ** (needed - reductions)
        r = [factor * c for c in r]
    return r


def _subresultant_prs(a: list, b: list, one, divexact, is_zero):
    """Subresultant PRS over an integral domain.

    a, b: descending coefficient lists (elements of the domain), deg a >=
    deg b >= 0, both nonzero.  Returns the last nonzero remainder (a list),
    which is a GCD up to content, or None when the GCD is constant.
    """
    g = one
    h = one
    while True:
        da, db = len(a) - 1, len(b) - 1
        if db == 0:
            return None
        delta = da - db
        r = _prem_lists(a, b, is_zero)
        if not r:
            return b
        if len(r) - 1 == 0:
            return None
        denom = g * h ** delta
        a = b
        b = [divexact(c, denom) for c in r]
        g = a[0]
        if delta == 1:
            h = g
        elif delta > 1:
            h = divexact(g ** delta, h ** (delta - 1))


def _int_poly_gcd(a: list[int], b: list[int]) -> list[int]:
    """GCD of integer univariate polynomials (descending lists), primitive
    with positive leading coefficient."""
    a = _int_primitive(list(a))
    b = _int_primitive(list(b))
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        return [1]
    res = _subresultant_prs(
        a,
        b,
        1,
        lambda x, y: _divexact_int(x, y),
        lambda x: x == 0,
    )
    if res is None:
        return [1]
    return _int_primitive(res)


def _int_poly_eval(coeffs: list[int], r: int) -> int:
    total = 0
    for c in coeffs:
        total = total * r + c
    return total


def _int_poly_divexact_list(a: list[int], b: list[int]) -> list[int]:
    """Exact division of descending integer coefficient lists."""
    if not b:
        raise ZeroDivisionError
    if not a:
        return []
    out: list[Fraction] = []
    rem = [Fraction(c) for c in a]
    lb = Fraction(b[0])
    while len(rem) >= len(b):
        q = rem[0] / lb
        out.append(q)
        for i in range(len(b)):
            rem[i] -= q * b[i]
        assert rem[0] == 0
        rem.pop(0)
    if any(rem):
        raise NotDivisibleError("inexact univariate division")
    result = []
    for q in out:
        if q.denominator != 1:
            raise NotDivisibleError("non-integer quotient")
        result.append(q.numerator)
    return result


def _newton_interpolate(xs: list[Fraction], ys: list[Fraction]) -> list[Fraction]:
    """Exact polynomial interpolation; returns ascending coefficients."""
    n = len(xs)
    coef = list(ys)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    poly = [Fraction(0)] * n
    acc = [Fraction(1)]
    for k in range(n):
        for idx, c in enumerate(acc):
            poly[idx] += coef[k] * c
        new = [Fraction(0)] * (len(acc) + 1)
        for idx, c in enumerate(acc):
            new[idx] -= c * xs[k]
            new[idx + 1] += c
        acc = new
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    return poly


def _divexact_int(x: int, y: int) -> int:
    q, r = divmod(x, y)
    if r:
        raise NotDivisibleError("inexact integer division in PRS")
    return q


def _monomial_content(p: MultiPoly) -> tuple[tuple[int, ...], MultiPoly]:
    """Split off the largest monomial dividing every term."""
    mins = list(p.terms[0][0])
    for exps, _ in p.terms[1:]:
        for i, e in enumerate(exps):
            if e < mins[i]:
                mins[i] = e
    if not any(mins):
        return tuple(mins), p
    stripped = MultiPoly(
        p.num_vars,
        [(tuple(map(operator.sub, e, mins)), c) for e, c in p.terms],
        p.modulus,
    )
    return tuple(mins), stripped


def _as_univar(p: MultiPoly, v: int) -> list[MultiPoly]:
    """Descending coefficient list of p viewed as univariate in variable v.

    Coefficients are polynomials in the same ambient ring with zero
    v-exponent.
    """
    d = p.degree_in(v)
    buckets: list[dict] = [dict() for _ in range(d + 1)]
    for exps, c in p.terms:
        e = list(exps)
        k = e[v]
        e[v] = 0
        buckets[k][tuple(e)] = c
    out = [MultiPoly(p.num_vars, buckets[d - i], p.modulus) for i in range(d + 1)]
    return out


def _from_univar(coeffs: list[MultiPoly], v: int, num_vars: int, modulus) -> MultiPoly:
    """Inverse of _as_univar: sum of coeffs[i] * x_v^(d - i)."""
    d = len(coeffs) - 1
    total: dict = {}
    for i, c in enumerate(coeffs):
        _add_terms(
            total,
            [(e[:v] + (e[v] + d - i,) + e[v + 1 :], coeff) for e, coeff in c.terms],
        )
    return MultiPoly(num_vars, total, modulus)


def _eliminate_var(p: MultiPoly, v: int) -> MultiPoly:
    """Set variable v to 1 and drop it from the ring."""
    out: dict = {}
    for exps, c in p.terms:
        e = exps[:v] + exps[v + 1 :]
        prev = out.get(e)
        out[e] = c if prev is None else prev + c
    return MultiPoly(p.num_vars - 1, out, p.modulus)


def _rehomogenize(p: MultiPoly, v: int, num_vars: int) -> MultiPoly:
    """Inverse of _eliminate_var for polynomials of known total degree."""
    d = p.degree
    out = {}
    for exps, c in p.terms:
        pad = d - sum(exps)
        e = exps[:v] + (pad,) + exps[v:]
        out[e] = c
    return MultiPoly(num_vars, out, p.modulus)


def _to_int_coeffs(coeffs: list[Fraction]) -> list[int]:
    lcm = 1
    for c in coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    return [int(c * lcm) for c in coeffs]


def _univar_coeff_values(p: MultiPoly, v: int, point: list) -> list:
    """Evaluate all variables except v, returning descending coefficients."""
    d = p.degree_in(v)
    vals = [_coerce(0, p.modulus)] * (d + 1)
    for exps, c in p.terms:
        term = c
        for i, e in enumerate(exps):
            if i != v and e:
                term = term * point[i] ** e
        vals[d - exps[v]] = vals[d - exps[v]] + term
    return vals


_FAST_PATH_TRIES = 4


def _coprime_fast_path(p: MultiPoly, q: MultiPoly, shared: list[int]) -> bool:
    """Certify gcd(p, q) = 1 by random evaluation.

    For each shared variable v: evaluate the others at random integers such
    that the leading v-coefficient of p survives, then check the univariate
    gcd is constant.  A common factor with positive v-degree would survive
    the specialization, so success is a proof; failure is merely
    inconclusive.
    """
    if p.modulus is not None:
        return False
    rng = random.Random(0xC0FFEE ^ (p.degree * 1009 + q.degree))
    lead_cache = {}
    for v in shared:
        certified = False
        lead = lead_cache.get(v)
        if lead is None:
            lead = _as_univar(p, v)[0]
            lead_cache[v] = lead
        for _ in range(_FAST_PATH_TRIES):
            point = [Fraction(rng.randint(-30, 30)) for _ in range(p.num_vars)]
            if not lead.evaluate(point):
                continue
            pa = _to_int_coeffs(_univar_coeff_values(p, v, point))
            qa = _to_int_coeffs(_univar_coeff_values(q, v, point))
            if not qa:
                continue
            if len(_int_poly_gcd(pa, qa)) == 1:
                certified = True
                break
        if not certified:
            return False
    return True


def _content_wrt(p: MultiPoly, v: int) -> MultiPoly:
    coeffs = [c for c in _as_univar(p, v) if not c.is_zero()]
    return poly_gcd_many(coeffs)


def _project_vars(p: MultiPoly, keep: list[int]) -> MultiPoly:
    terms = [(tuple(exps[v] for v in keep), c) for exps, c in p.terms]
    return MultiPoly(len(keep), terms, p.modulus)


def _lift_vars(p: MultiPoly, keep: list[int], num_vars: int) -> MultiPoly:
    out = {}
    for exps, c in p.terms:
        e = [0] * num_vars
        for i, v in enumerate(keep):
            e[v] = exps[i]
        out[tuple(e)] = c
    return MultiPoly(num_vars, out, p.modulus)


def _univar_int_list(p: MultiPoly, v: int) -> list[int]:
    """Descending integer coefficients of a canonical univariate polynomial."""
    d = p.degree_in(v)
    out = [0] * (d + 1)
    for exps, c in p.terms:
        out[d - exps[v]] = int(c)
    return out


def _bivar_cols(p: MultiPoly, main: int, other: int) -> list[list[int]]:
    """cols[j] = descending integer coefficient list (in `other`) of main**j."""
    dx = p.degree_in(main)
    buckets: list[dict[int, int]] = [dict() for _ in range(dx + 1)]
    dys = [0] * (dx + 1)
    for exps, c in p.terms:
        j, k = exps[main], exps[other]
        buckets[j][k] = int(c)
        if k > dys[j]:
            dys[j] = k
    return [
        [buckets[j].get(k, 0) for k in range(dys[j], -1, -1)] if buckets[j] else []
        for j in range(dx + 1)
    ]


def _bivar_from_cols(
    cols: Sequence[Sequence], main: int, other: int, modulus
) -> MultiPoly:
    out = {}
    for j, col in enumerate(cols):
        d = len(col) - 1
        for i, c in enumerate(col):
            if c:
                e = [0, 0]
                e[main] = j
                e[other] = d - i
                out[tuple(e)] = c
    return MultiPoly(2, out, modulus)


def _gcd_bivariate(p: MultiPoly, q: MultiPoly, shared: list[int]):
    """Evaluation/interpolation gcd for bivariate rational polynomials.

    Computes univariate integer gcds of the inputs specialized at integer
    points, then interpolates the candidate and certifies it by exact trial
    division.  A certified result is the true gcd: any common divisor
    specializes (with surviving leading coefficient) into the pointwise gcd,
    bounding its main-variable degree, and the candidate divides the gcd
    while matching that bound.  Returns None if the point budget runs out.
    """
    main = max(shared, key=lambda w: min(p.degree_in(w), q.degree_in(w)))
    other = 1 - main
    p = p.canonical()
    q = q.canonical()
    pcols = _bivar_cols(p, main, other)
    qcols = _bivar_cols(q, main, other)

    def split_content(cols: list[list[int]]) -> tuple[list[int], list[list[int]]]:
        """(content in `other`, primitive columns)."""
        g: list[int] = []
        for col in cols:
            if col:
                g = _int_poly_gcd(g, col)
            if len(g) == 1:
                return g, cols
        return g, [_int_poly_divexact_list(c, g) if c else [] for c in cols]

    cont_p, pcols = split_content(pcols)
    cont_q, qcols = split_content(qcols)
    cont = _int_poly_gcd(cont_p, cont_q)
    cont_poly = _bivar_from_cols([cont], main, other, p.modulus)

    lcp, lcq = pcols[-1], qcols[-1]
    gamma = _int_poly_gcd(lcp, lcq)
    dy = min(
        max((len(c) - 1 for c in pcols if c), default=0),
        max((len(c) - 1 for c in qcols if c), default=0),
    )
    n_points = dy + len(gamma)
    pp_poly = _bivar_from_cols(pcols, main, other, p.modulus)
    qq_poly = _bivar_from_cols(qcols, main, other, p.modulus)

    def eval_cols(cols: list[list[int]], r: int) -> list[int]:
        vals = [_int_poly_eval(c, r) if c else 0 for c in cols]
        return list(reversed(vals))

    best_d: int | None = None
    points: list[tuple[int, list[Fraction]]] = []
    budget = 4 * n_points + 48
    r, used = 0, 0
    while used < budget:
        r = -r if r > 0 else -r + 1
        if _int_poly_eval(lcp, r) == 0 or _int_poly_eval(lcq, r) == 0:
            continue
        used += 1
        gr = _int_poly_gcd(eval_cols(pcols, r), eval_cols(qcols, r))
        dr = len(gr) - 1
        if dr == 0:
            return cont_poly
        if best_d is None or dr < best_d:
            best_d, points = dr, []
        if dr > best_d:
            continue
        scale = Fraction(_int_poly_eval(gamma, r), gr[0])
        points.append((r, [c * scale for c in gr]))
        if len(points) < n_points:
            continue
        xs = [Fraction(pt[0]) for pt in points]
        cand_cols: list[list[Fraction]] = [[] for _ in range(best_d + 1)]
        for pos in range(best_d + 1):
            ys = [pt[1][pos] for pt in points]
            asc = _newton_interpolate(xs, ys)
            cand_cols[best_d - pos] = list(reversed(asc))
        den = 1
        for col in cand_cols:
            for c in col:
                den = den * c.denominator // math.gcd(den, c.denominator)
        int_cols = [[int(c * den) for c in col] for col in cand_cols]
        _, int_cols = split_content(int_cols)
        cand = _bivar_from_cols(int_cols, main, other, p.modulus).canonical()
        try:
            poly_divexact(pp_poly, cand)
            poly_divexact(qq_poly, cand)
        except NotDivisibleError:
            points.pop(0)
            continue
        return cont_poly * cand
    return None


def _gcd_core(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """GCD of two nonzero non-constant polynomials without monomial factors,
    up to canonical scale.  Branches in order, each early exit a proof, and
    one coprimality decision per ring shape:

    1. No shared variable: a nonconstant common factor has positive degree
       in some variable, and then so do both inputs.  The gcd is 1.
    2. Some variable in neither input: divisors involve only the variables
       of what they divide, so recurse without it and lift back.
    3. One variable over Q: by Gauss's lemma the gcd is the primitive gcd
       over Z[x], from the integer subresultant PRS.
    4. Both homogeneous: divisors of forms are forms, and neither input is
       divisible by the last variable, so setting it to 1 keeps divisors
       and their degrees; recurse, then rehomogenise.
    5. Two variables over Q: _gcd_bivariate, certified by trial division.
    6. What is left over Q (three or more variables, not homogeneous, as
       with symbolic parameters; or a bivariate pair that ran out of
       points): _coprime_fast_path, whose success proves gcd 1.
    7. Recursive subresultant PRS in the variable of least shared degree,
       after splitting off contents.
    """
    one = MultiPoly.constant(p.num_vars, 1, p.modulus)
    shared = [
        v
        for v in range(p.num_vars)
        if p.degree_in(v) > 0 and q.degree_in(v) > 0
    ]
    if not shared:
        return one
    active = sorted(
        v for v in range(p.num_vars) if p.degree_in(v) > 0 or q.degree_in(v) > 0
    )
    if len(active) < p.num_vars:
        g = poly_gcd(_project_vars(p, active), _project_vars(q, active))
        return _lift_vars(g, active, p.num_vars)
    if p.num_vars == 1 and p.modulus is None:
        g = _int_poly_gcd(
            _univar_int_list(p.canonical(), 0), _univar_int_list(q.canonical(), 0)
        )
        return MultiPoly(1, {(len(g) - 1 - i,): c for i, c in enumerate(g)}, None)
    if p.is_homogeneous() and q.is_homogeneous():
        v = max(active)
        g = poly_gcd(_eliminate_var(p, v), _eliminate_var(q, v))
        return _rehomogenize(g, v, p.num_vars)
    if p.num_vars == 2 and p.modulus is None:
        g = _gcd_bivariate(p, q, shared)
        if g is not None:
            return g
    if _coprime_fast_path(p, q, shared):
        return one
    v = min(shared, key=lambda w: min(p.degree_in(w), q.degree_in(w)))
    cp = _content_wrt(p, v)
    cq = _content_wrt(q, v)
    pp = poly_divexact(p, cp)
    qq = poly_divexact(q, cq)
    cont = poly_gcd(cp, cq)
    pu = _as_univar(pp, v)
    qu = _as_univar(qq, v)
    if len(pu) < len(qu):
        pu, qu = qu, pu
    res = _subresultant_prs(
        pu,
        qu,
        one,
        poly_divexact,
        lambda x: x.is_zero(),
    )
    if res is None:
        return cont
    g = _from_univar(res, v, p.num_vars, p.modulus)
    gc = _content_wrt(g, v)
    g = poly_divexact(g, gc)
    return cont * g


def poly_gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Greatest common divisor, canonically normalized.

    A zero input returns the other.  Otherwise the monomial content of each
    input is split off: the gcd is the termwise-minimum monomial times the
    gcd of the stripped parts, which is 1 if one of them is constant and
    else comes from _gcd_core (see there for the branch order).  A
    nonconstant result is verified by exact trial division into both
    inputs.  A constant result needs no check: it is nonzero, and over a
    field a nonzero constant divides every polynomial.
    """
    p._check_compat(q)
    if p.is_zero():
        return q.canonical()
    if q.is_zero():
        return p.canonical()
    mp, ps = _monomial_content(p)
    mq, qs = _monomial_content(q)
    mg = tuple(map(min, mp, mq))
    if ps.is_constant() or qs.is_constant():
        core = MultiPoly.constant(p.num_vars, 1, p.modulus)
    else:
        core = _gcd_core(ps, qs)
    g = (MultiPoly.monomial(p.num_vars, mg, 1, p.modulus) * core).canonical()
    if not g.is_constant():
        poly_divexact(p, g)
        poly_divexact(q, g)
    return g


def poly_gcd_many(polys: Sequence[MultiPoly]) -> MultiPoly:
    if not polys:
        raise ValueError("need at least one polynomial")
    g = polys[0].canonical()
    for p in polys[1:]:
        if g.is_constant() and not g.is_zero():
            break
        g = poly_gcd(g, p)
    return g


# -- determinants and Jacobians ---------------------------------------------


def jacobian_det(
    forms: Sequence[MultiPoly], wrt: Sequence[int] | None = None
) -> MultiPoly:
    """Determinant of the Jacobian matrix of `forms`.

    By default differentiates with respect to the first len(forms)
    variables; extra variables ride along as symbolic coefficients.
    """
    n = len(forms)
    if n == 0:
        raise ValueError("need at least one form")
    nv = forms[0].num_vars
    mod = forms[0].modulus
    for f in forms:
        if f.num_vars != nv or f.modulus != mod:
            raise DomainMismatchError("forms disagree in variables or domain")
    if wrt is None:
        wrt = tuple(range(n))
    if len(wrt) != n:
        raise ValueError("non-square Jacobian system")
    if any(v < 0 or v >= nv for v in wrt):
        raise ValueError("differentiation variable out of range")
    rows = [[f.partial(v) for v in wrt] for f in forms]
    return _poly_matrix_det(rows)


def _poly_matrix_det(rows: list[list[MultiPoly]]) -> MultiPoly:
    n = len(rows)
    nv = rows[0][0].num_vars
    mod = rows[0][0].modulus
    memo: dict = {}

    def minor(r: int, cols: tuple[int, ...]) -> MultiPoly:
        if r == n:
            return MultiPoly.constant(nv, 1, mod)
        key = (r, cols)
        got = memo.get(key)
        if got is not None:
            return got
        total = MultiPoly.zero(nv, mod)
        for i, c in enumerate(cols):
            entry = rows[r][c]
            if entry.is_zero():
                continue
            sub = minor(r + 1, cols[:i] + cols[i + 1 :])
            term = entry * sub
            total = total + term if i % 2 == 0 else total - term
        memo[key] = total
        return total

    return minor(0, tuple(range(n)))


# -- text format -------------------------------------------------------------


def default_var_names(num_vars: int) -> tuple[str, ...]:
    if num_vars == 1:
        return ("x",)
    if num_vars == 2:
        return ("X", "Y")
    if num_vars == 3:
        return ("X", "Y", "Z")
    return tuple(f"X{i}" for i in range(num_vars))


def format_poly(p: MultiPoly, var_names: Sequence[str] | None = None) -> str:
    """Render in the canonical text format, e.g. 'X*Y - 3/2*Z^2'."""
    if var_names is None:
        var_names = default_var_names(p.num_vars)
    if len(var_names) != p.num_vars:
        raise ValueError("wrong number of variable names")
    if p.is_zero():
        return "0"
    pieces = []
    for exps, coeff in p.terms:
        if p.modulus is None:
            neg = coeff < 0
            mag = -coeff if neg else coeff
            coeff_txt = str(mag)
            unit = mag == 1
        else:
            neg = False
            coeff_txt = str(coeff.v)
            unit = coeff.v == 1
        factors = []
        for name, e in zip(var_names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            body = coeff_txt
        elif unit:
            body = "*".join(factors)
        else:
            body = "*".join([coeff_txt] + factors)
        pieces.append(("-" if neg else "+", body))
    sign, body = pieces[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


_TOKEN_RE = re.compile(r"\s*(\d+|[A-Za-z][A-Za-z0-9]*|\^|\*|\+|-|/)")


def _split_var_token(token: str, index: Mapping[str, int]) -> list[str] | None:
    """Split an identifier into known variable names by longest-prefix match.

    Supports juxtaposed products like 'XY' when 'X' and 'Y' are variables.
    Returns None when the token cannot be fully resolved.
    """
    if token in index:
        return [token]
    names: list[str] = []
    rest = token
    while rest:
        match = None
        for name in index:
            if rest.startswith(name) and (match is None or len(name) > len(match)):
                match = name
        if match is None:
            return None
        names.append(match)
        rest = rest[len(match):]
    return names


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise PolynomialParseError(f"unexpected character at {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def parse_poly(
    text: str,
    num_vars: int | None = None,
    var_names: Sequence[str] | None = None,
    modulus: int | None = None,
) -> MultiPoly:
    """Parse the text polynomial format (round-trips with format_poly)."""
    if var_names is None:
        if num_vars is None:
            raise ValueError("need num_vars or var_names")
        var_names = default_var_names(num_vars)
    if num_vars is None:
        num_vars = len(var_names)
    if len(var_names) != num_vars:
        raise ValueError("wrong number of variable names")
    index = {name: i for i, name in enumerate(var_names)}
    tokens = _tokenize(text)
    if not tokens:
        raise PolynomialParseError("empty polynomial text")
    pos = 0
    terms: list[tuple[tuple[int, ...], Fraction]] = []

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        t = tokens[pos]
        pos += 1
        return t

    while pos < len(tokens):
        sign = 1
        while peek() in ("+", "-"):
            if take() == "-":
                sign = -sign
        coeff = Fraction(sign)
        exps = [0] * num_vars
        saw_factor = False
        while True:
            t = peek()
            if t is None or t in ("+", "-"):
                break
            if t == "*":
                take()
                continue
            if t.isdigit():
                take()
                val = Fraction(int(t))
                if peek() == "/":
                    take()
                    d = take()
                    if not d.isdigit():
                        raise PolynomialParseError("bad fraction denominator")
                    val = val / int(d)
                coeff *= val
                saw_factor = True
                continue
            names = _split_var_token(t, index)
            if names:
                take()
                e = 1
                if peek() == "^":
                    take()
                    d = take()
                    if not d.isdigit():
                        raise PolynomialParseError("bad exponent")
                    e = int(d)
                for name in names[:-1]:
                    exps[index[name]] += 1
                exps[index[names[-1]]] += e
                saw_factor = True
                continue
            raise PolynomialParseError(f"unexpected token {t!r}")
        if not saw_factor:
            raise PolynomialParseError("term with no factors")
        terms.append((tuple(exps), coeff))
    return MultiPoly(num_vars, terms, modulus)
