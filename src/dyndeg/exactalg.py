"""Exact coefficient arithmetic and sparse multivariate polynomials.

Every coefficient is a plain Python number.  Over Q it is kept in
canonical form: an `int` when it is integral and a `fractions.Fraction`
only when its denominator is above 1, so the integer polynomials of the
iterate pipeline run on plain int arithmetic.  Over the prime field F_p it
is an `int` in [1, p).  A polynomial is a sparse collection of terms,
exponent vector -> nonzero coefficient, kept in descending graded
lexicographic order so printing, hashing, and leading-term queries are
deterministic.

Two places enforce the canonical form: `_coerce`, for values from outside
(the one place an int or Fraction enters F_p), and `MultiPoly._set`, the
one normalisation behind both the public constructor and the internal
builder `MultiPoly._build` that arithmetic uses for its own results.

Lemma (prime-field coefficients): `_set` is the only place a MultiPoly's
terms are stored, and over F_p it reduces each coefficient mod p and drops
those that vanish, so every stored F_p coefficient is an int in [1, p).
Arithmetic may therefore combine coefficients with plain int +, - and *
and leave the reduction to `_set`.  Every true division of coefficients
is exact: `int / int` would give a float, so quotients go through
`Fraction` (which `_coerce` maps into F_p), `//` when exact over Q, or
`pow(c, -1, p)`.
"""

from __future__ import annotations

import functools
import math
import itertools
import operator
import re
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence, Union

NEG_INF = float("-inf")

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to all of _MR_BASES (Sorenson and Webster,
# Math. Comp. 86, 2017); below it the test is exact
_MR_LIMIT = 3317044064679887385961981


class DomainMismatchError(ValueError):
    """Operands live over different coefficient domains or variable counts."""


class PolynomialParseError(ValueError):
    """Input text is not a valid polynomial expression."""


class NotDivisibleError(ArithmeticError):
    """Exact polynomial division was requested but does not exist."""


def _check_modulus(modulus) -> None:
    """Refuse a modulus that is not a prime int below _MR_LIMIT; each
    distinct modulus is tested for primality once per process.  The type
    check runs before the cache, whose keys would let 7.0 or True pass as
    7 or 1."""
    if isinstance(modulus, bool) or not isinstance(modulus, int):
        raise ValueError(f"modulus {modulus!r} is not an integer")
    if not _modulus_is_prime(modulus):
        raise ValueError(f"modulus {modulus} is not prime")


@functools.lru_cache(maxsize=64)
def _modulus_is_prime(modulus: int) -> bool:
    return is_prime(modulus)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for n < _MR_LIMIT;
    raises ValueError at or above it, where no fixed-base test is proven."""
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is too large for the primality test")
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


# A coefficient: over Q an int, or a Fraction whose denominator is above 1;
# over F_p an int in [1, p).  F_p values such as `evaluate` returns are
# ints in [0, p).
Scalar = Union[int, Fraction]


def _coerce(value, modulus: int | None):
    """Lift a raw int or Fraction into the coefficient domain, in canonical
    form: the one place an outside value enters F_p.  `numerator` turns a
    bool or another int subclass into a plain int."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"unsupported coefficient {value!r}")
    if modulus is None:
        return value.numerator if value.denominator == 1 else value
    if value.denominator % modulus == 0:
        raise DomainMismatchError("denominator vanishes mod p")
    return value.numerator * pow(value.denominator, -1, modulus) % modulus


def _exact_fraction(value, what: str) -> Fraction:
    """A parameter as a Fraction, refusing anything but an int that is not
    a bool, or a Fraction: Fraction(0.1) would silently take the binary
    value of the float."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError(f"{what} must be an exact rational, got {value!r}")
    return Fraction(value)


def _grlex_term_key(term: tuple) -> tuple:
    """Graded-lex sort key of a term (exponent vector, coefficient): total
    degree, then the exponent vector."""
    e = term[0]
    return (sum(e), e)


def _power(x, e: int, one, mul: Callable):
    """x^e under mul, for e >= 0, by square-and-multiply: `one` when e = 0,
    no product with `one` and no squaring past the top bit of e."""
    out = None
    while e:
        if e & 1:
            out = x if out is None else mul(out, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return one if out is None else out


def _monomials(values: Sequence, mul: Callable) -> Callable:
    """product(exps) = the product of values[i]^exps[i] under mul, None for
    the constant monomial.  Each power values[i]^e and each monomial's
    product is built once and shared with later calls."""
    powers = [[v] for v in values]  # powers[i][e - 1] = values[i]^e
    products: dict = {}

    def product(exps: tuple):
        prod = products.get(exps)
        if prod is None:
            for i, e in enumerate(exps):
                if e:
                    lst = powers[i]
                    while len(lst) < e:
                        lst.append(mul(lst[-1], values[i]))
                    prod = lst[e - 1] if prod is None else mul(prod, lst[e - 1])
            products[exps] = prod
        return prod

    return product


# Kronecker packing: a polynomial over Z as one int, its coefficients the
# signed digits of width bytes each, digit k at bit 8 * width * k.


def _pack(digits: Iterable[tuple[int, int]], size: int, width: int) -> int:
    """The int sum of c * 2^(8 * width * k) over the pairs (k, c) of
    distinct slots k < size with |c| < 2^(8 * width - 1), built from two
    byte strings: one of the positive digits, one of the negated negative
    ones."""
    pos, neg = bytearray(size * width), bytearray(size * width)
    for k, c in digits:
        at = k * width
        if c > 0:
            pos[at : at + width] = c.to_bytes(width, "little")
        elif c:
            neg[at : at + width] = (-c).to_bytes(width, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _unpack(value: int, slots: Iterable[int], size: int, width: int) -> list[int]:
    """The digits at `slots` of an int that _pack could build from digits
    at slots below size: 2^(8 * width - 1) is added to every slot, which
    makes every digit nonnegative without a carry, the sum is turned into
    bytes once, and only the slots asked for are read back."""
    half = 1 << (8 * width - 1)
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * size, "little")
    raw = (value + bias).to_bytes(size * width, "little")
    read = int.from_bytes
    return [read(raw[k * width : (k + 1) * width], "little") - half for k in slots]


def _packed_sums(
    outer: Sequence[Sequence[tuple[tuple, int]]],
    inner: Sequence[Sequence[tuple[int, int]]],
) -> tuple[int, list[int]]:
    """The one Kronecker composition (Harvey, J. Symbolic Comput. 44,
    2009): (width, sums) with sums[k] = sum c * prod_i phi(G_i)^(e_i)
    over the terms (e, c) of outer[k], for the polynomials G_i of Z[y]
    whose (slot, coefficient) digits inner[i] lists, phi: y -> 2^B and
    B = 8 * width, at whatever width the bound below asks for.

    Lemma.  phi is a ring map Z[y] -> Z, so sums[k] = phi(H_k) for
    H_k = P_k(G) in Z[y].  A polynomial whose coefficients lie in
    (-2^(B-1), 2^(B-1)) has those coefficients as the signed B-bit digits
    of its image, so _pack builds phi(G_i) and _unpack reads H_k back from
    sums[k].  As ||A * B||_1 <= ||A||_1 * ||B||_1, every coefficient of H_k
    is at most sum |c_e| * prod_i ||G_i||_1^(e_i) in absolute value, and B
    is the least multiple of 8 with this bound, and every ||G_i||_1, below
    2^(B-1).  Each caller maps its ring into Z[y] one to one on what it
    reads back:
    - forms of degree d * D in x_0..x_m: x_m -> 1, x_j -> y^(R^j) for
      j < m with R > d * D, so distinct monomials land on distinct slots
      and the exponent of x_m is d * D minus the others;
    - one variable: T -> y;
    - binary forms of degree d * D mod r: s -> y, t -> 1 on their
      residues in [0, r) as integers; reducing each coefficient mod r, a
      ring map Z -> F_r, then gives the composition mod r, as
      MultiPoly._set does for forms over F_p.  A parameter T of the outer
      forms takes its residue tau, a constant in slot 0: T -> tau is a
      ring map and commutes with composition.  By Gauss's lemma over
      Z[T] a common factor of positive degree in the point variables
      stays a nonzero form of that degree on the line once some line
      form is nonzero; a content in T alone changes no degree, and if it
      vanishes at tau every line form is zero (ratmap._iterates).
    """
    norms = [sum(abs(c) for _, c in g) for g in inner]
    bound = max(
        norms + [sum(abs(c) * math.prod(map(pow, norms, e)) for e, c in p) for p in outer]
    )
    width = (bound.bit_length() + 8) // 8  # the least with bound < 2^(8 * width - 1)
    product = _monomials(
        [_pack(g, 1 + max((k for k, _ in g), default=0), width) for g in inner], operator.mul
    )
    sums = []
    for p in outer:
        total = 0
        for e, c in p:
            prod = product(e)
            total += c if prod is None else c * prod
        sums.append(total)
    return width, sums


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
        if modulus is not None:
            _check_modulus(modulus)
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict = {}
        for exps, coeff in items:
            exps = tuple(exps)
            if len(exps) != num_vars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps} for {num_vars} variables")
            c = _coerce(coeff, modulus)
            prev = clean.get(exps)
            clean[exps] = c if prev is None else prev + c
        self._set(num_vars, clean, modulus)

    @classmethod
    def _build(cls, num_vars: int, terms: dict, modulus: int | None) -> "MultiPoly":
        """Internal constructor for results of this module's own arithmetic:
        terms maps tuples of num_vars nonnegative ints to coefficients of
        the domain, so none of the constructor's checks or its coercion
        runs."""
        poly = object.__new__(cls)
        poly._set(num_vars, terms, modulus)
        return poly

    def _set(self, num_vars: int, terms: dict, modulus: int | None) -> None:
        """The one normalisation of every MultiPoly: over Q drop zero
        coefficients and turn integral Fractions into ints, over F_p reduce
        the int coefficients mod p and drop those that vanish; then store
        the terms in descending grlex order."""
        if modulus is None:
            items = [
                (e, c.numerator if c.__class__ is Fraction and c.denominator == 1 else c)
                for e, c in terms.items()
                if c
            ]
        else:
            items = [(e, r) for e, c in terms.items() if (r := c % modulus)]
        items.sort(key=_grlex_term_key, reverse=True)
        object.__setattr__(self, "terms", tuple(items))
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
        return max(self._degrees_in(vars_subset))

    def is_homogeneous_in(self, vars_subset: Sequence[int]) -> bool:
        if not self.terms:
            return True
        return len(set(self._degrees_in(vars_subset))) == 1

    def _degrees_in(self, vars_subset: Sequence[int]) -> Iterable[int]:
        """Each term's degree in the variables vars_subset."""
        if not vars_subset:
            return itertools.repeat(0, len(self.terms))
        exps = map(operator.itemgetter(0), self.terms)
        pick = operator.itemgetter(*vars_subset)
        return map(pick, exps) if len(vars_subset) == 1 else map(sum, map(pick, exps))

    def leading(self):
        """(exponent vector, coefficient) of the graded-lex leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0]

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
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.num_vars, other, self.modulus)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_compat(other)
        out = dict(self.terms)
        for e, c in other.terms:
            prev = out.get(e)
            out[e] = c if prev is None else prev + c
        return MultiPoly._build(self.num_vars, out, self.modulus)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._build(
            self.num_vars, {e: -c for e, c in self.terms}, self.modulus
        )

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.num_vars, other, self.modulus)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c0 = _coerce(other, self.modulus)
            if not c0:
                return MultiPoly.zero(self.num_vars, self.modulus)
            if c0 == 1:
                return self
            return MultiPoly._build(
                self.num_vars, {e: c * c0 for e, c in self.terms}, self.modulus
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
        return MultiPoly._build(self.num_vars, out, self.modulus)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        one = MultiPoly.constant(self.num_vars, 1, self.modulus)
        return _power(self, n, one, operator.mul)

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
        p = self.modulus
        mul = operator.mul if p is None else (lambda a, b: a * b % p)
        product = _monomials([_coerce(v, p) for v in values], mul)
        total = 0
        for exps, coeff in self.terms:
            prod = product(exps)
            total += coeff if prod is None else coeff * prod
        return _coerce(total, self.modulus)

    def partial(self, var: int) -> "MultiPoly":
        """Partial derivative with respect to one variable."""
        out = {}
        for exps, coeff in self.terms:
            e = exps[var]
            if e:
                new = list(exps)
                new[var] = e - 1
                out[tuple(new)] = coeff * e
        return MultiPoly._build(self.num_vars, out, self.modulus)

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
    if polys[0].modulus is not None:
        return pow(lead, -1, polys[0].modulus)
    den = 1
    for p in polys:
        for _, c in p.terms:
            den = den * c.denominator // math.gcd(den, c.denominator)
    num = 0
    for p in polys:
        for _, c in p.terms:
            num = math.gcd(num, c.numerator * (den // c.denominator))
    scale = den // num if den % num == 0 else Fraction(den, num)
    return -scale if lead < 0 else scale


class TermCapExceeded(ArithmeticError):
    """A substitution stopped because one output form passed the term cap;
    `n` is the iterate being composed, or None outside the degree engine."""

    def __init__(self, cap: int, n: int | None = None):
        where = "" if n is None else f" at iterate {n}"
        super().__init__(f"term cap {cap} exceeded{where}")
        self.n = n


def _packed_substitute(
    polys: Sequence[MultiPoly], assignment: Sequence[MultiPoly], term_cap: int | None
) -> list[MultiPoly] | None:
    """substitute_system by _packed_sums, or None where it does not run.
    It runs when every input is a form with int coefficients in two or
    more variables, the assignment's nonzero forms share one degree D (0
    when all are zero), and the most terms an output form of degree d * D
    can have, C(d * D + nv - 1, nv - 1), is at most term_cap for every
    output (so the sparse loop's cap could not fire either); a zero outer
    form has d = 0 and gives the zero form.  The slot of x^e is
    sum_{j<m} e_j * R^j with R = d' * D + 1, d' the largest outer degree
    (the first map of _packed_sums' lemma), at any slot width; over F_p
    the residues in [0, p) are packed.  Symbolic parameters (their forms
    have two degrees, or are no forms), Fractions and one variable stay
    on the sparse loop."""
    nv, mod = assignment[0].num_vars, assignment[0].modulus
    if nv < 2 or not all(
        all(c.__class__ is int for _, c in q.terms) and q.is_homogeneous_in(range(q.num_vars))
        for q in (*polys, *assignment)
    ):
        return None
    inner = {g.degree for g in assignment if g.terms}
    if len(inner) > 1:
        return None
    degrees = [max(p.degree, 0) * max(inner, default=0) for p in polys]
    top = max(degrees, default=0)
    if term_cap is not None and math.comb(top + nv - 1, nv - 1) > term_cap:
        return None
    weights = [(top + 1) ** j for j in range(nv - 1)]
    width, sums = _packed_sums(
        [p.terms for p in polys],
        [[(sum(map(operator.mul, e, weights)), c) for e, c in g.terms] for g in assignment],
    )
    out = []
    for deg, total in zip(degrees, sums):
        # (exponents of x_0..x_{m-1} summing to at most deg, slot, their sum)
        vecs = [((), 0, 0)]
        for w in weights:
            vecs = [(e + (k,), s + k * w, t + k) for e, s, t in vecs for k in range(deg - t + 1)]
        digits = _unpack(total, (s for _, s, _ in vecs), deg * weights[-1] + 1, width)
        terms = {e + (deg - t,): c for (e, _, t), c in zip(vecs, digits) if c}
        out.append(MultiPoly._build(nv, terms, mod))
    return out


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
    packed = _packed_substitute(polys, assignment, term_cap)
    if packed is not None:
        return packed
    product = _monomials(assignment, operator.mul)
    out = []
    for p in polys:
        result = MultiPoly.zero(nv, mod)
        for exps, coeff in p.terms:
            prod = product(exps)
            result = result + (
                MultiPoly.constant(nv, coeff, mod) if prod is None else prod * coeff
            )
            if term_cap is not None and len(result.terms) > term_cap:
                raise TermCapExceeded(term_cap)
        out.append(result)
    return out


def poly_divexact(p: MultiPoly, d: MultiPoly) -> MultiPoly:
    """Exact division p / d; raises NotDivisibleError when the quotient
    would not be polynomial.  Over Q the denominators are cleared first:
    p = s * A with A the integer terms of p, and d = D / t with D = t * d
    primitive (t = _canonical_scale of d), so p / d = s * t * (A / D), the
    division _divide_terms makes on integers.  Its list spans the degree
    box of p, so a sparse p of high degree in several variables allocates
    the whole box; for every composition the iterate pipeline divides,
    that is the box its Kronecker kernel packs."""
    p._check_compat(d)
    if d.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if p.modulus is None:
        rem, s = _integer_terms(p, (0,) * p.num_vars)
        t = _canonical_scale((d,))
        d, scale = d * t, s * t
    else:
        rem, scale = dict(p.terms), 1
    quot = _divide_terms(rem, d.terms, p.modulus)
    if quot is None:
        raise NotDivisibleError("leading term not divisible")
    terms = {e: c * scale for e, c in quot} if scale != 1 else dict(quot)
    return MultiPoly._build(p.num_vars, terms, p.modulus)


def _divide_terms(rem: dict, d: Sequence[tuple], p: int | None = None):
    """Quotient terms of A / G for A = rem and G = d, or None when G does
    not divide A.

    rem maps exponent vectors to nonzero coefficients, d lists (exponent
    vector, coefficient) pairs in any order, and neither is changed.
    Coefficients are ints, G primitive, when p is None; otherwise they
    lie in F_p, or in the _Field p.

    One long division on a dense list (Harvey, J. Symbolic Comput. 44,
    2009).  With t_j = deg_(x_j) A, the exponent vector e takes the slot
    sum_j e_j * W_j, where W_0 = 1 and W_(j+1) = W_j * (t_j + 1), and A is
    written into a list indexed by slot.  G's term of the top slot leads.
    From the top slot down, each nonzero slot s gives the quotient term
    at slot s - slot(lead): its coefficient is a divmod by the leading
    coefficient over Z, which gives up on a remainder, and a product with
    its inverse mod p; its exponents are that slot's digits, and it gives
    up when one exceeds the room t_j - deg_(x_j) G; and that term times
    G's other terms is subtracted at their slot offsets.  The slots below
    the lead must end at zero.

    Lemma.  phi: x_j -> z^(W_j) is a ring map, one to one on polynomials
    of degree at most t_j in every x_j, and the loop is the long division
    of phi(A) by phi(G) in z.  So a zero remainder with every term of the
    quotient Q inside the room proves G * Q = A: both lie in the box, and
    phi(G * Q) = phi(A).  If G * Q = A, then Q lies inside the room and
    phi(Q), whose coefficients are Q's, is the one quotient of phi(A) by
    phi(G) over the fraction field, which the loop builds term by term;
    over Z, Q has integer coefficients by Gauss's lemma.  So a quotient
    term outside the room, a nonzero remainder or, over Z, a leading
    coefficient that does not divide proves that G does not divide A.
    """
    if not rem:
        return []
    sizes = [t + 1 for t in map(max, zip(*rem))]
    weights = list(itertools.accumulate(sizes[:-1], operator.mul, initial=1))
    room = [t - 1 - max(g) for t, g in zip(sizes, zip(*(e for e, _ in d)))]
    a = [0] * math.prod(sizes)
    for e, c in rem.items():
        a[sum(map(operator.mul, e, weights))] = c
    slots = [(sum(map(operator.mul, e, weights)), c) for e, c in d]
    lead, lc = max(slots, key=operator.itemgetter(0))
    rest = [(k - lead, c) for k, c in slots if k != lead]
    inv = pow(lc, -1, p) if p else None
    quot = []
    for s in range(len(a) - 1, lead - 1, -1):
        rc = a[s] % p if p else a[s]
        if not rc:
            continue
        if p:
            qc = rc * inv % p
        else:
            qc, r = divmod(rc, lc)
            if r:
                return None
        q, qe = s - lead, []
        for size, free in zip(sizes, room):
            q, e = divmod(q, size)
            if e > free:
                return None
            qe.append(e)
        quot.append((tuple(qe), qc))
        for k, c in rest:
            a[s + k] -= qc * c
    if any(c % p for c in a[:lead]) if p else any(a[:lead]):
        return None
    return quot


# -- GCD machinery ----------------------------------------------------------


def _reduce(fs: list, r: int):
    """(fs', lift) for nonconstant term dicts fs without monomial content:
    the list in a smaller ring, its variables possibly reordered, and the
    map that takes a divisor or quotient of its members back (fs and the
    identity if no variable drops or moves).  r is a prime: p over F_p,
    _prime(0) over Q.

    Lemma.  Variables no input uses are dropped: divisors involve only the
    variables of what they divide.  When every input is a form, the last
    remaining variable z is then set to 1.  Divisors and quotients h of
    forms are forms, and z divides no input, so neither h: h(z = 1) keeps
    the degree of h, and lift rehomogenises it to h.  Setting z = 1 is a
    ring map, one to one on forms of one degree, so h' * k' = f(z = 1)
    lifts to lift(h') * lift(k') = f, and lift(gcd(fs')) is a gcd of fs.

    The order.  Brown's recursion needs about deg_t(gamma * G / lc(G)) + 2
    points in its last variable t, gamma the gcd of the inputs' lex
    leading coefficients in t.  So one kept variable t moves to the last
    place: the one whose gamma mod r has the least degree
    (_gamma_degree), the last one in index order on ties, and no other is
    tried when that one's gamma is constant.  A permutation of the
    variables is a ring automorphism, so it maps gcds to gcds and
    quotients to quotients, and lift undoes it.  Brown's lemma holds in
    every order, and the trial division certifies in any, so the choice
    changes the speed only.
    """
    n = len(next(iter(fs[0])))
    slots = [v for v in range(n) if any(e[v] for f in fs for e in f)]
    forms = all(len({sum(e) for e in f}) == 1 for f in fs)
    keep = slots[:-1] if forms else slots[:]
    if len(keep) > 1 and (least := _gamma_degree(fs, keep, keep[-1], r)):
        t = keep[-1]
        for v in reversed(keep[:-1]):
            if (d := _gamma_degree(fs, keep, v, r)) < least:
                t, least = v, d
                if not d:
                    break
        keep.remove(t)
        keep.append(t)
    if keep == list(range(n)):
        return fs, lambda g: g
    order = keep + slots[-1:] if forms else keep  # z last, if set to 1

    def lift(g: dict) -> dict:
        d, out = max(map(sum, g)), {}
        for e, c in g.items():
            full = [0] * n
            for v, k in zip(order, e + (d - sum(e),)):
                full[v] = k
            out[tuple(full)] = c
        return out

    return [{tuple(e[v] for v in keep): c for e, c in f.items()} for f in fs], lift


def _gamma_degree(fs: list, keep: list, t: int, r: int) -> int | float:
    """The degree in variable t of the gcd mod r of the term dicts fs' lex
    leading coefficients in t, the other variables of keep ranked first in
    their order; inf when every one vanishes mod r.  Each leading column
    is found by a scan of the exponent vectors, with no dict built."""
    rank = operator.itemgetter(*(v for v in keep if v != t))
    cols = []
    for f in fs:
        top = max(map(rank, f))
        pairs = [(e[t], c) for e, c in f.items() if rank(e) == top]
        col = [0] * (1 + max(pairs)[0])
        for k, c in pairs:
            col[k] = c % r
        while col and not col[-1]:
            col.pop()
        if col:
            cols.append(col)
    return len(_content_last(cols, r)) - 1 if cols else math.inf


# Images mod a prime p hold plain ints in [0, p), and _Ext too over a _Field:
# a univariate polynomial is an ascending coefficient list without trailing
# zeros ([] is zero), a multivariate one a dict {exponent vector: nonzero}.


def _up_divmod(a: list, b: list, p: int) -> tuple[list, list]:
    """Quotient and remainder of a by a nonzero b over F_p."""
    r = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - db, 0)
    for i in range(len(q) - 1, -1, -1):
        c = r[i + db] * inv % p
        if c:
            q[i] = c
            for j, bj in enumerate(b):
                r[i + j] = (r[i + j] - c * bj) % p
    del r[db:]
    while r and not r[-1]:
        r.pop()
    return q, r


@functools.lru_cache(maxsize=32)
def _montgomery(p: int, size: int) -> tuple[int, int, int]:
    """(K, -p^(-1) mod 2^K, M) for an odd p: K the least multiple of 8 with
    4p <= 2^K and M the low K bits of each of size slots of 2K bits."""
    k = (p.bit_length() + 9) // 8 * 8
    low = int.from_bytes((b"\xff" * (k // 8) + bytes(k // 8)) * size, "little")
    return k, pow(-p, -1, 1 << k), low


# the least length of the shorter list for which _up_gcd packs
_PACKED_GCD = 5


def _up_gcd(a: list, b: list, p: int) -> list:
    """Monic gcd over F_p of two lists, not both zero, by Euclid.  Over a
    _Field, for p = 2 and when the shorter list is below _PACKED_GCD it
    divides lists by _up_divmod.  Otherwise each remainder step is a few
    big-int operations on the lists packed into slots of W = 2K bits
    (_montgomery's K; Kronecker packing as in _packed_sums): with n, m the
    degrees of A, B, a, a' and b, b' the top two coefficients of A and B
    mod p, A <- b^2 * A + (-ab * x + ab' - a'b) * B when n = m + 1, whose
    coefficients of x^n and x^(n-1) vanish mod p, and else one pass
    A <- b * A - a * x^(n-m) * B per quotient term; slots above the new
    degree are cut off, and Montgomery's reduction (Math. Comp. 44, 1985)
    A <- (A + (((A & M) * p') & M) * p) >> K, p' = -p^(-1) mod 2^K, then
    acts on every slot at once.  A nonzero constant remainder ends Euclid
    at the gcd 1; else only the last nonzero remainder is unpacked.

    Lemma (unit scaling).  Each pass replaces A by u * A + v * B with
    u = b^2 or b, a unit mod p, and the reduction maps each slot c to
    (c + t * p) / 2^K with 2^K | c + t * p, that is c * 2^(-K) mod p: A
    times the unit 2^(-K).  So every pass keeps the ideal (A, B) and
    lowers deg A, a slot vanishes mod p before the reduction iff after it,
    and the last nonzero remainder is the gcd up to a unit.

    Lemma (slot bound).  Every slot of A and B lies in [0, 4p) after each
    reduction (in [0, p) when packed).  Negated multipliers are taken mod
    p, so a pass builds slots below p * 4p + 2 * p * 4p = 12p^2 <= 3p * 2^K
    (4p <= 2^K); the products with p' and with p act on slots below 2^K,
    and t * p < p * 2^K.  So before the shift every slot stays below
    4p * 2^K <= 2^(2K), none carries into the next, and after it every
    slot lies below 4p again.
    """
    if len(a) < len(b):
        a, b = b, a
    if len(b) < _PACKED_GCD or p == 2 or isinstance(p, _Field):
        while b:
            a, b = b, _up_divmod(a, b, p)[1]
    else:
        k, neg_inv, low = _montgomery(p, 1 << (len(a) - 1).bit_length())
        w = 2 * k
        slot = (1 << w) - 1
        A, B = (_pack(enumerate(c), len(c), w // 8) for c in (a, b))
        n, m = len(a) - 1, len(b) - 1
        while m > 0:
            lb, lb1 = (B >> w * m) % p, (B >> w * (m - 1) & slot) % p
            while n >= m:
                la = (A >> w * n) % p
                if n == m + 1:
                    la1 = (A >> w * (n - 1) & slot) % p
                    q = (p - la * lb % p << w) + (la * lb1 - la1 * lb) % p
                    X, d = lb * lb % p * A + q * B, n - 2
                else:
                    X, d = lb * A + ((p - la) * B << w * (n - m)), n - 1
                while d >= 0 and not (X >> w * d & slot) % p:
                    d -= 1
                X &= (1 << w * (d + 1)) - 1
                A, n = X + ((X & low) * neg_inv & low) * p >> k, d
            A, B, n, m = B, A, m, n
        a = [1] if m == 0 else _unpack(A, range(n + 1), n + 1, w // 8)
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _up_eval(a: list, x: int, p: int) -> int:
    v = 0
    for c in reversed(a):
        v = (v * x + c) % p
    return v


def _up_mul(a: list, b: list, p: int) -> list:
    """Product of two ascending lists over F_p, schoolbook."""
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return [c % p for c in out]


def _split_last(a: dict, p: int) -> dict:
    """{exponents of the other variables: ascending list in the last one},
    with the integer coefficients of a reduced mod p."""
    out: dict = {}
    for e, c in a.items():
        c %= p
        if c:
            col = out.setdefault(e[:-1], [])
            if len(col) <= e[-1]:
                col.extend([0] * (e[-1] + 1 - len(col)))
            col[e[-1]] = c
    return out


def _join_last(s: dict, p: int, scale: int = 1) -> dict:
    """Inverse of _split_last, times a scalar."""
    return {
        m + (i,): c * scale % p for m, col in s.items() for i, c in enumerate(col) if c
    }


def _eval_last(s: dict, t: int, p: int) -> dict:
    """A split polynomial with its last variable set to t, as a dict that
    may hold zeros (_split_last drops them)."""
    return {m: _up_eval(col, t, p) for m, col in s.items()}


def _content_last(cols: Iterable[list], p: int) -> list:
    """Monic gcd over F_p of lists, the first one nonzero, stopping at 1: on
    a split polynomial's columns, its content in the last variable."""
    g: list = []
    for col in cols:
        g = _up_gcd(g, col, p)
        if len(g) == 1:
            break
    return g


def _candidates(splits: list, p: int):
    """Brown's candidates for the gcd G of split polynomials, each nonzero
    mod p, over the field K = F_p (or the _Field p), by his recursion on
    the last variable t; lex order ranks the other variables first, so
    leading coefficients lie in K[t].  Each candidate is a split dict c * C,
    unscaled; one in t alone is G up to a scalar, and none follows it.

    With one variable this is Euclid (_content_last).  Otherwise let c be
    the content of all the inputs in K[t] and G' = G / c the primitive
    part.  At the nonzero points t of K (1, ..., p - 1 over F_p), taken
    once each, where no leading coefficient l_i of an input vanishes, the
    gcd h of the f_i(t) (_gcd_mod_p, certified) is divisible by G(t),
    whose leading monomial is that of G because lc(G) divides every l_i:
    h never has a lower leading monomial than G, a constant h proves
    G = c, and h = G(t) up to a scalar at all but finitely many points
    (Brown 1971 for two inputs; for k, G = gcd(f_1, F) for a fresh
    variable y and F = sum_{i >= 2} y^i * f_i, whose coefficients in y at
    t are the f_i(t)).  Images with the lowest leading monomial seen,
    scaled to lead with gamma(t), gamma = gcd(l_1, ..., l_k), are values
    of the one polynomial gamma * G / lc(G); Newton interpolation in t
    runs until a new point leaves the interpolant unchanged, and then c
    times its primitive part C is a candidate.  C has the leading
    monomial of the images, so if c * C divides every input it divides G
    without a lower leading monomial, and is G up to a scalar (G' is
    primitive); if not, more points follow.  The generator ends when no
    point is left, as over small fields but not near 2^61.
    """
    if () in splits[0]:
        yield {(): _content_last((s[()] for s in splits), p)}
        return
    c = _content_last((col for s in splits for col in s.values()), p)
    leads = [s[max(s)] for s in splits]
    gamma = _content_last(leads, p)
    lm, interp, nodes = None, {}, [1]
    for t in p.points() if isinstance(p, _Field) else range(1, p):
        if not all(_up_eval(lead, t, p) for lead in leads):
            continue
        h = _gcd_mod_p([_eval_last(s, t, p) for s in splits], p)
        m = max(h)
        if not any(m):
            yield {m: c}
            return
        if lm is not None and m > lm:
            continue
        if m != lm:
            lm, interp, nodes = m, {}, [1]
        s = _up_eval(gamma, t, p)
        w = pow(_up_eval(nodes, t, p), -1, p)
        changed = False
        for mono in interp.keys() | h.keys():
            col = interp.get(mono, [])
            v = (h.get(mono, 0) * s - _up_eval(col, t, p)) * w % p
            if v:
                new = [u * v % p for u in nodes]
                for i, u in enumerate(col):
                    new[i] = (new[i] + u) % p
                interp[mono] = new
                changed = True
        nodes = [(u - t * v) % p for u, v in zip([0] + nodes, nodes + [0])]
        if changed:
            continue
        g = _content_last(interp.values(), p)
        yield {mono: _up_mul(_up_divmod(col, g, p)[0], c, p) for mono, col in interp.items()}


def _gcd_mod_p(fs: list, p: int, quotients: list | None = None) -> dict:
    """Gcd of polynomials fs, each nonzero mod p, over the field K = F_p
    (or the _Field p) with lex leading coefficient 1: the first of
    _candidates' that _holds_mod_p certifies.  That certificate holds over
    F_p and at every inner level of the recursion, whose images must be
    true gcds; over Q, _gcd_modular consumes _candidates itself.
    _PointsExhausted is raised when no point is left.  Given a list
    `quotients`, the f_i / G are appended to it unless G = 1.
    """
    splits = [_split_last(f, p) for f in fs]
    for cand in _candidates(splits, p):
        qs = _holds_mod_p(cand, splits, p)
        if qs is not None:
            lc = cand[max(cand)][-1]
            g = _join_last(cand, p, pow(lc, -1, p))
            if quotients is not None and any(max(g)):
                quotients += ({e: u * lc % p for e, u in f} for f in qs)
            return g
    raise _PointsExhausted(p)


def _holds_mod_p(cand: dict, splits: list, p: int):
    """The quotients of split polynomials by a candidate of _candidates, as
    an iterable of term iterables, or None unless it divides all of them:
    the certificate mod p.  A candidate in the last variable alone is
    Euclid's gcd and needs no division; its quotients are computed only
    when they are iterated."""
    top = max(cand)
    if not any(top):
        c = cand[top]
        return (
            _join_last({m: _up_divmod(col, c, p)[0] for m, col in s.items()}, p).items()
            for s in splits
        )
    return _certify(_join_last(cand, p), [_join_last(s, p) for s in splits], p)


def _certify(g: dict, fs: list, p: int | None = None) -> list | None:
    """[f / g for f in fs] as term lists, or None unless g divides every f:
    the one trial division of the gcd over Q and over F_p."""
    d = list(g.items())
    quots = []
    for f in fs:
        if (q := _divide_terms(f, d, p)) is None:
            return None
        quots.append(q)
    return quots


class _PointsExhausted(ArithmeticError):
    """_gcd_mod_p has tried every nonzero point of its field."""


class _Field(int):
    """F_{p^k} = F_p[s]/(m), m = self.m monic irreducible of degree k >= 2,
    standing in for the prime p in _gcd_mod_p and the helpers it calls.  As
    an int it is p, so elements of F_p stay plain ints and `% F`,
    `pow(x, -1, F)` act on them as before; the other elements are _Ext.
    Its points are the nonzero elements, i = 1, ..., p^k - 1 read as the
    base-p digits of their coefficients in s, so those of F_p come first."""

    def points(self):
        k = len(self.m) - 1
        return (_ext([i // self**j for j in range(k)], self) for i in range(1, self**k))


class _Ext:
    """An element of a _Field F outside F_p: its ascending coefficient list
    in s, reduced mod p and m, of length at least 2."""

    __slots__ = ("c", "F")

    def __init__(self, c: list, F: _Field):
        self.c, self.F = c, F

    def __add__(self, o):
        pairs = itertools.zip_longest(self.c, _coeffs(o), fillvalue=0)
        return _ext([u + v for u, v in pairs], self.F)

    __radd__ = __add__

    def __neg__(self):
        return _ext([-u for u in self.c], self.F)

    def __sub__(self, o):
        return self + -o

    def __rsub__(self, o):
        return -self + o

    def __mul__(self, o):
        return _ext(_up_mul(self.c, _coeffs(o), self.F), self.F)

    __rmul__ = __mul__

    def __mod__(self, F):
        return self

    def __pow__(self, e: int, mod=None):
        """self^e by squaring in F, whatever mod is; x^(p^k - 1) = 1 for
        x != 0, so e = -1 gives the inverse."""
        F = self.F
        e %= F ** (len(F.m) - 1) - 1
        return _power(self, e, 1, lambda a, b: a * b % F)


def _coeffs(x) -> list:
    """Ascending coefficient list in s of an int or _Ext."""
    return x.c if isinstance(x, _Ext) else [x] if x else []


def _ext(c: list, F: _Field):
    """The element of F with coefficients c in s: an int when it lies in F_p."""
    r = _up_divmod([u % F for u in c], F.m, F)[1]
    return _Ext(r, F) if len(r) > 1 else r[0] if r else 0


@functools.lru_cache(maxsize=64)
def _extension(p: int, k: int) -> _Field:
    """F_{p^k} with m = s^k + (lower terms whose coefficients are the base-p
    digits of i), for the least i giving an irreducible m.  Ben-Or's test:
    m is irreducible iff gcd(s^(p^j) - s, m) = 1 for j = 1, ..., k // 2.
    Powers of _Ext only multiply, so they are sound before m is known to be
    irreducible."""
    field = _Field(p)
    for i in itertools.count():
        field.m = [i // p**j % p for j in range(k)] + [1]
        s = x = _Ext([0, 1], field)
        for _ in range(k // 2):
            x = pow(x, p, field)
            if len(_up_gcd(field.m, _coeffs(x - s), p)) > 1:
                break
        else:
            return field


def _gcd_prime_field(fs: list, p: int) -> tuple[dict, ...] | None:
    """(G, *[f / G for f in fs]) for _reduce's term dicts over F_p, G with
    lex leading coefficient 1, or None when G = 1: _gcd_mod_p over F_p,
    and while that runs out of points, over F_{p^k} for k = 2, 4, 8, ...

    Lemma (extension fields): for fs over F_p, their gcd G over F_{p^k}
    with lex leading coefficient 1 is their gcd over F_p.  Applying
    x -> x^p to every coefficient is a ring automorphism of F_{p^k}[X]
    that fixes every f, so it maps G to a gcd with leading coefficient 1,
    that is to G; hence G has coefficients in F_p.  So do the quotients
    f / G, which are unique and likewise fixed, so G divides every f over
    F_p, and every common divisor over F_p divides G.  Brown's lemma in
    _gcd_mod_p holds over any field, so its trial division over F_{p^k}
    certifies G, and _ext hands its coefficients back as ints.
    """
    for k in itertools.count():
        field = _extension(p, 2**k) if k else p
        quotients: list = []
        try:
            g = _gcd_mod_p(fs, field, quotients)
        except _PointsExhausted:
            continue
        return (g, *quotients) if any(max(g)) else None


def _integer_terms(p: MultiPoly, m: tuple) -> tuple[dict, Scalar]:
    """(a, s): p = s * x^m * a, a as {exponent vector: int} and 1 / s the
    lcm of p's denominators (s = 1 over F_p)."""
    den = math.lcm(*(c.denominator for _, c in p.terms))
    a = {
        tuple(map(operator.sub, e, m)): c.numerator * (den // c.denominator)
        for e, c in p.terms
    }
    return a, Fraction(1, den) if den > 1 else 1


_PRIMES = [2**61 - 1]


def _prime(i: int) -> int:
    """The i-th prime counting down from 2^61 - 1, cached in _PRIMES."""
    while len(_PRIMES) <= i:
        n = _PRIMES[-1] - 2
        while not is_prime(n):
            n -= 2
        _PRIMES.append(n)
    return _PRIMES[i]


def _dense(p: MultiPoly) -> list:
    """Ascending coefficient list of a univariate polynomial, [] for 0."""
    out = [0] * (p.degree + 1) if p.terms else []
    for (e,), c in p.terms:
        out[e] = c
    return out


def _sparse(coeffs: Sequence) -> MultiPoly:
    """The univariate polynomial over Q with ascending coefficients coeffs."""
    return MultiPoly._build(1, {(i,): c for i, c in enumerate(coeffs)}, None)


def _gcd_modular(fs: list) -> tuple[dict, ...] | None:
    """(G, *[f / G for f in fs]) for integer term dicts that _reduce
    returned, G primitive, by Brown's dense modular algorithm (J. ACM 18,
    1971), or None when G = 1.

    Let l_i be the leading coefficient of f_i in lex order and
    gamma = gcd(l_1, ..., l_k).  Primes r are taken downward from
    2^61 - 1, skipping those dividing some l_i, and _candidates gives the
    candidates h for G_r = gcd(fs mod r), scaled to lex leading
    coefficient 1 and not yet certified.

    Lemma (Brown): G = gcd(fs) has lc(G) dividing every l_i, so r keeps
    the leading monomial of G, and G mod r divides G_r: G_r never has a
    lower leading monomial than G, and a constant G_r proves G = 1.  The
    same holds in _candidates for an evaluation point t where no l_i(t)
    vanishes, so gamma(t) != 0.  Only finitely many primes, and in
    _candidates only finitely many points, give G_r != G mod r up to a
    scalar (for k inputs, by the two-input case on f_1 and the y-sum F
    there); the others give gamma * G_r = H mod r for the one integer
    polynomial H = gamma * G / lc(G).  Certified images are combined by
    CRT into the symmetric range, from scratch when one has a lower
    leading monomial than the lowest seen; once the lucky primes' product
    passes 2 * max|H| the lift is H.

    The certificate.  Each candidate h is lifted by CRT on a copy of that
    state, and the primitive part C of the lift is trial-divided into
    every input over Z, in _reduce's ring.  If it divides, C = G up to a
    unit, and the division gives the quotients.  If not, _holds_mod_p
    tries h mod r: if it holds, h = G_r enters the CRT state and the next
    prime follows; if not, h was an unlucky interpolant and the next
    candidate follows.  A candidate above the lowest leading monomial
    certified is not lifted, since that monomial is at least G's, so its
    lift is not G; it still faces _holds_mod_p, and ends its prime only
    as a certified G_r.  An unlucky interpolant may sit above that
    monomial at every prime (points where every input has an integer
    root), and dropping the prime for it would drop them all.

    Lemma (one certificate over Q).  Suppose C divides every f_i over Q.
    C is primitive, so by Gauss's lemma the quotients lie in Z[x], and
    C mod r divides every f_i mod r.  The lift is gamma * h mod r, so its
    lex leading coefficient is gamma mod r, which r does not divide;
    neither does the lift's content, and C mod r is a unit times h.  So
    h divides every input mod r, and h has the leading monomial of its
    point images; by the lemma of _candidates, h = G_r up to a scalar.  A
    Q certificate that holds thus implies the mod-r certificate of every
    image it lifts: each is G_r, so C divides G with a leading monomial
    no lower than G's, and C = G up to a unit.
    """
    leads = [f[max(f)] for f in fs]
    gamma = math.gcd(*leads)
    lm, mod, res = None, 1, {}
    for i in itertools.count():
        pr = _prime(i)
        if not all(lead % pr for lead in leads):
            continue
        splits = [_split_last(f, pr) for f in fs]
        for cand in _candidates(splits, pr):
            h = _join_last(cand, pr, pow(cand[max(cand)][-1], -1, pr))
            m = max(h)
            if not any(m):
                return None
            if lm is not None and m > lm:
                if _holds_mod_p(cand, splits, pr) is None:
                    continue
                break
            old, old_mod = (res, mod) if m == lm else ({}, 1)
            s, w = gamma % pr, pow(old_mod, -1, pr)
            new, new_mod = {}, old_mod * pr
            for e in old.keys() | h.keys():
                r = old.get(e, 0)
                new[e] = r + old_mod * ((h.get(e, 0) * s - r) * w % pr)
            lift = {e: r - new_mod if 2 * r > new_mod else r for e, r in new.items()}
            content = math.gcd(*lift.values())
            g = {e: c // content for e, c in lift.items()}
            qs = _certify(g, fs)
            if qs is not None:
                return g, *map(dict, qs)
            if _holds_mod_p(cand, splits, pr) is not None:
                lm, mod, res = m, new_mod, new
                break


def _gcd_quotients(polys: Sequence[MultiPoly]) -> tuple[MultiPoly, ...]:
    """(g, *[f / g for f in polys]), g the canonical gcd of all of polys at
    once, for one or more polynomials of one ring.  Zero inputs drop out, and their
    quotient is 0 (the input itself); with none left g is 0, with one left
    its canonical form.  Otherwise g is x^m, m the termwise minimum of the
    monomial contents x^m_i of the inputs f_i, times the gcd G of the
    stripped parts: 1 when no variable has positive degree in all of them
    (a nonconstant common factor has positive degree in some variable, and
    then so does every input), else the one that _gcd_modular (over Q) or
    _gcd_prime_field certifies on _reduce's list of the term dicts of the
    f_i / x^m_i, denominators cleared.  One tail lifts G and its
    quotients, scales G to be canonical and the quotients by the inverse
    scale and the cleared denominators, shifts them by x^m and the
    x^(m_i - m), and builds each once.  Lemma: x^m times the canonical G
    is canonical: a monic monomial changes no coefficient, and grlex is a
    monomial order, so e > e' implies e + m > e' + m.
    """
    for f in polys[1:]:
        polys[0]._check_compat(f)
    live = [f for f in polys if f.terms]
    g, quots = _nonzero_gcd_quotients(live) if live else (polys[0], [])
    quots = iter(quots)
    return g, *(next(quots) if f.terms else f for f in polys)


def _nonzero_gcd_quotients(polys: list[MultiPoly]) -> tuple[MultiPoly, list[MultiPoly]]:
    """_gcd_quotients for nonzero polynomials, as (g, quotients)."""
    nv, mod = polys[0].num_vars, polys[0].modulus
    if len(polys) == 1:
        g = polys[0].canonical()
        return g, [MultiPoly.constant(nv, Fraction(polys[0].terms[0][1], g.terms[0][1]), mod)]

    def build(terms: Iterable[tuple], m: Sequence[int], scale: Scalar = 1):
        # scale * x^m * terms, m possibly negative
        terms = {tuple(map(operator.add, e, m)): c * scale for e, c in terms}
        return MultiPoly._build(nv, terms, mod)

    ms = [tuple(map(min, zip(*(e for e, _ in f.terms)))) for f in polys]
    mg = tuple(map(min, *ms))
    if any(all(f.degree_in(v) > m[v] for f, m in zip(polys, ms)) for v in range(nv)):
        stripped = [_integer_terms(f, m) for f, m in zip(polys, ms)]
        fs, lift = _reduce([a for a, _ in stripped], _prime(0) if mod is None else mod)
        core = _gcd_modular(fs) if mod is None else _gcd_prime_field(fs, mod)
        if core is not None:
            g, *quots = map(lift, core)
            lead = max(g.items(), key=_grlex_term_key)[1]
            # G * u is canonical: G is monic in lex order over F_p, primitive over Q
            u = pow(lead, -1, mod) if mod else 1 if lead > 0 else -1
            v = lead if mod else u  # 1 / u
            return build(g.items(), mg, u), [
                build(q.items(), [*map(operator.sub, m, mg)], v * s)
                for q, m, (_, s) in zip(quots, ms, stripped)
            ]
    down = [-e for e in mg]
    return MultiPoly._build(nv, {mg: 1}, mod), [
        build(f.terms, down) if any(mg) else f for f in polys
    ]


def poly_gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Greatest common divisor, canonically normalized (0 for two zeros):
    the gcd of the pair, certified once by one trial division of each
    input (see _gcd_quotients)."""
    return _gcd_quotients((p, q))[0]


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
        neg = coeff < 0
        mag = -coeff if neg else coeff
        coeff_txt = str(mag)
        unit = mag == 1
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
        if pos == len(tokens):
            raise PolynomialParseError("unexpected end of polynomial text")
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
                    if int(d) == 0:
                        raise PolynomialParseError("zero denominator")
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
