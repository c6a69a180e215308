"""The characteristic polynomial read off the traces of A^0..A^N (Newton's
identities) against sympy's charpoly, and against Cayley-Hamilton.  sympy
is an oracle for tests only."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from dyndeg.monomial import MonomialMap, analyze, char_poly, int_det

sympy = pytest.importorskip("sympy")


@st.composite
def nonsingular_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    entries = st.integers(min_value=-9, max_value=9)
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    assume(int_det(rows) != 0)
    return rows


@given(nonsingular_matrices())
@settings(max_examples=60, deadline=None)
def test_char_poly_matches_sympy_and_cayley_hamilton(rows):
    m = MonomialMap(rows)
    coeffs = char_poly(m)
    a = sympy.Matrix(rows)
    assert coeffs == [int(c) for c in a.charpoly().all_coeffs()]
    n = len(rows)
    cayley_hamilton = sum((c * a ** (n - j) for j, c in enumerate(coeffs)), sympy.zeros(n))
    assert cayley_hamilton == sympy.zeros(n)
    assert analyze(m).char_poly == tuple(coeffs)
