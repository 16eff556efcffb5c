"""Intersection lattice of the blow-up surface: matrix, pullbacks, excess divisor."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planeheights.picard import (
    DivisorClass,
    _solve_on_tree,
    basis_labels,
    closed_form_excess,
    closed_form_pullbacks,
    effective_excess,
    intersection_matrix,
    solve_pullbacks,
)


def test_matrix_d2_diagonal():
    m = intersection_matrix(2)
    assert [m[i][i] for i in range(7)] == [-3, -2, -2, -1, -2, -2, -1]


def test_matrix_d3_first_exceptional_selfintersection():
    m = intersection_matrix(3)
    labels = basis_labels(3)
    e1 = labels.index("E1")
    assert m[e1][e1] == -3
    e5, f5 = labels.index("E5"), labels.index("F5")
    assert m[e5][e5] == -1 and m[f5][f5] == -1


def test_matrix_symmetric():
    for d in (2, 3, 5, 8):
        m = intersection_matrix(d)
        n = len(m)
        assert n == 4 * d - 1
        for i in range(n):
            for j in range(n):
                assert m[i][j] == m[j][i]


def test_matrix_adjacencies_d3():
    m = intersection_matrix(3)
    labels = basis_labels(3)
    idx = {lab: k for k, lab in enumerate(labels)}

    def meets(a, b):
        return m[idx[a]][idx[b]] == 1

    assert meets("H#", "E2") and meets("H#", "F2")
    assert meets("E1", "E3")  # E_1 meets E_d
    assert meets("E2", "E3") and meets("E3", "E4") and meets("E4", "E5")
    assert not meets("E1", "E2")
    assert not meets("H#", "E1")
    assert not meets("E2", "F2")


def test_solve_pullbacks_d2_displays():
    pi, phi, psi = solve_pullbacks(2)
    assert pi.coeffs == tuple(map(Fraction, (1, 1, 2, 2, 1, 2, 2)))
    assert phi.coeffs == tuple(map(Fraction, (2, 1, 2, 1, 2, 4, 4)))
    # psi is the E<->F mirror of phi
    assert psi.coeffs == tuple(map(Fraction, (2, 2, 4, 4, 1, 2, 1)))


def test_closed_form_coefficient_spot_checks():
    _, phi5, _ = closed_form_pullbacks(5)
    labels = basis_labels(5)
    assert phi5.coeffs[labels.index("E7")] == 2 * 5 - 7  # == 3
    _, phi3, _ = closed_form_pullbacks(3)
    labels3 = basis_labels(3)
    assert phi3.coeffs[labels3.index("F2")] == 2 * 3  # j*d with j = 2


def test_solver_matches_closed_forms():
    for d in range(2, 33):
        assert solve_pullbacks(d) == closed_form_pullbacks(d)


def test_excess_divisor_d2():
    want = tuple(map(Fraction, (Fraction(3, 2), Fraction(1, 2), 1, 0, Fraction(1, 2), 1, 0)))
    assert effective_excess(2).coeffs == want


def test_excess_divisor_closed_form_and_effectivity():
    for d in range(2, 33):
        excess = effective_excess(d)
        assert excess == closed_form_excess(d)
        assert excess.is_effective()
        labels = basis_labels(d)
        assert excess.coeffs[labels.index(f"E{2 * d - 1}")] == 0


def test_excess_coefficient_spot_check_d4():
    labels = basis_labels(4)
    assert effective_excess(4).coeffs[labels.index("E3")] == Fraction(13, 4)


def test_intersection_products():
    for d in range(2, 13):
        pi, phi, psi = solve_pullbacks(d)
        assert pi.dot(pi) == 1
        assert phi.dot(phi) == 1
        assert psi.dot(psi) == 1
        assert pi.dot(phi) == d
        assert pi.dot(psi) == d


def test_tree_solve_refuses_a_zero_pivot_naming_its_curve():
    # root A (diagonal 1) with one leaf B of diagonal 0: B has no pivot
    with pytest.raises(ValueError, match="zero pivot at B"):
        _solve_on_tree(["A", "B"], [1, 0], [(0, 1)], [[1, 0]])
    # the same two curves with a nonzero leaf solve exactly: [[1, 1], [1, 2]] x = (1, 0)
    assert _solve_on_tree(["A", "B"], [1, 2], [(0, 1)], [[1, 0]]) == [[2, -1]]


def _dense_dot(d, a, b):
    return sum(a[i] * entry * b[j]
               for i, row in enumerate(intersection_matrix(d))
               for j, entry in enumerate(row) if entry)


@st.composite
def _class_pair(draw):
    """(d, a, b): two integer classes or two rational ones on the degree-d surface."""
    d = draw(st.integers(2, 12))
    numerators = st.integers(-50, 50)
    if draw(st.booleans()):
        coefficient = st.builds(Fraction, numerators, st.integers(1, 40))
    else:
        coefficient = numerators.map(Fraction)
    vectors = st.lists(coefficient, min_size=4 * d - 1, max_size=4 * d - 1)
    return d, draw(vectors), draw(vectors)


@settings(max_examples=100, deadline=None)
@given(_class_pair())
def test_dot_on_the_edge_list_equals_the_dense_product(pair):
    d, a, b = pair
    got = DivisorClass(d, tuple(a)).dot(DivisorClass(d, tuple(b)))
    assert isinstance(got, Fraction)
    assert got == _dense_dot(d, a, b)


def test_rejects_small_d():
    with pytest.raises(ValueError):
        intersection_matrix(1)
    with pytest.raises(ValueError):
        closed_form_pullbacks(1)


def test_divisor_class_arithmetic():
    pi, phi, _ = solve_pullbacks(2)
    combo = phi - pi.scale(Fraction(5, 2))
    assert combo + pi.scale(Fraction(5, 2)) == phi
    with pytest.raises(ValueError):
        DivisorClass(2, (Fraction(1),))
