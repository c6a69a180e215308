"""The characteristic polynomial read off the traces of A^0..A^N (Newton's
identities) against sympy's charpoly, and against Cayley-Hamilton; the
adjugate from one fraction-free Gauss-Jordan elimination against sympy's
adjugate.  sympy is an oracle for tests only."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from dyndeg.monomial import (
    MonomialMap,
    SingularMatrixError,
    _adjugate,
    analyze,
    char_poly,
    int_det,
)

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


@st.composite
def unimodular_matrices(draw):
    """Products of elementary integer matrices, det +-1."""
    n = draw(st.integers(min_value=1, max_value=6))
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        rows[0][0] = -1
    ops = st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from((-2, -1, 1, 2))
    )
    for i, j, c in draw(st.lists(ops, max_size=10)):
        if i != j:  # add c times row j to row i
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return rows


@given(st.one_of(nonsingular_matrices(), unimodular_matrices()))
@settings(max_examples=80, deadline=None)
def test_adjugate_matches_sympy(rows):
    adj = _adjugate(tuple(tuple(r) for r in rows))
    a = sympy.Matrix(rows)
    assert [list(r) for r in adj] == a.adjugate().tolist()
    assert a * sympy.Matrix(adj) == a.det() * sympy.eye(len(rows))


def test_adjugate_refuses_a_singular_matrix():
    with pytest.raises(SingularMatrixError):
        _adjugate(((1, 2, 3), (2, 4, 6), (0, 1, 1)))
