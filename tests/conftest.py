"""Oracles that several test modules share."""

from fractions import Fraction

import pytest

from dyndeg import fabc
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
