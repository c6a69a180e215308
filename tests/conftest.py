"""Oracles that several test modules share."""

import collections
from fractions import Fraction

import pytest

from dyndeg import exactalg, fabc
from dyndeg.exactalg import MultiPoly


@pytest.fixture
def jacobian():
    """sympy's determinant of the Jacobian matrix of forms with respect to
    their first len(forms) variables, as a MultiPoly of the forms' ring
    (over the rationals); later variables ride along as coefficients."""
    sympy = pytest.importorskip("sympy")

    def det(forms):
        nv = forms[0].num_vars
        gens = sympy.symbols(f"x0:{nv}")
        exprs = [sympy.Poly.from_dict(dict(f.terms), *gens).as_expr() for f in forms]
        matrix = sympy.Matrix([[sympy.diff(e, v) for v in gens[: len(forms)]] for e in exprs])
        terms = sympy.Poly(matrix.det(), *gens).as_dict()
        return MultiPoly(nv, {e: Fraction(int(c.p), int(c.q)) for e, c in terms.items()})

    return det


@pytest.fixture
def fabc_inverse():
    """The inverse of fabc.build_map(p) that the fabc module docstring
    states, [ab^2 X(Y - X), w^2, bw(Y - X)] with w = cX - cY + aZ, as raw
    forms over the rationals (six variables when p is None)."""

    def forms(p):
        x, y, z, a, b, c = fabc._symbols(p, None)
        w = c * x - c * y + a * z
        return [a * b * b * (x * (y - x)), w * w, b * (w * (y - x))]

    return forms


@pytest.fixture
def composition_paths(monkeypatch):
    """Counts of the substitute_system calls that ran packed and of those
    that took the sparse loop, as {"packed": n, "sparse": m}, read from a
    spy on exactalg._packed_substitute (None sends a call to the sparse
    loop)."""
    counts = collections.Counter(packed=0, sparse=0)
    plain = exactalg._packed_substitute

    def spy(polys, assignment, term_cap):
        out = plain(polys, assignment, term_cap)
        counts["sparse" if out is None else "packed"] += 1
        return out

    monkeypatch.setattr(exactalg, "_packed_substitute", spy)
    return counts


Division = collections.namedtuple("Division", "num_vars field divided")


@pytest.fixture
def divisions(monkeypatch):
    """One Division(num_vars, field, divided) per exactalg._divide_terms
    call, read from a spy: the divisor's variable count, the field as
    passed (None for Q, an int prime for F_p, an exactalg._Field for an
    extension) and whether a quotient came back."""
    calls = []
    plain = exactalg._divide_terms

    def spy(rem, d, p=None):
        out = plain(rem, d, p)
        calls.append(Division(len(d[0][0]), p, out is not None))
        return out

    monkeypatch.setattr(exactalg, "_divide_terms", spy)
    return calls

