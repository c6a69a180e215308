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


@pytest.fixture
def division_paths(monkeypatch):
    """Counts of the _divide_terms calls by the path that answered them, as
    {"rows": n, "heap": m, "fallback": k}: "rows" when _divide_rows proved
    the quotient, "heap" when the heap loop ran, and "fallback" for the
    heap divisions over Q in two variables that found a quotient
    _divide_rows had not proved, read from spies on both functions."""
    counts = collections.Counter(rows=0, heap=0, fallback=0)
    plain_rows, plain_terms = exactalg._divide_rows, exactalg._divide_terms
    proved = []

    def rows(rem, d):
        out = plain_rows(rem, d)
        proved.append(out is not None)
        return out

    def terms(rem, d, p=None):
        proved.clear()
        out = plain_terms(rem, d, p)
        if proved == [True]:
            counts["rows"] += 1
        else:
            counts["heap"] += 1
            counts["fallback"] += bool(proved) and out is not None
        return out

    monkeypatch.setattr(exactalg, "_divide_rows", rows)
    monkeypatch.setattr(exactalg, "_divide_terms", terms)
    return counts
