import pytest

from math import comb

from pvcgap.graphs import build_pvc_lp, make_clique, pvc_rows
from pvcgap.lasserre import (
    allones_eigenvalue_after_schur,
    build_zbar,
    covered_edges,
    expected_slack,
    lasserre1_refutes,
    level1_slack_matrix,
)
from pvcgap.linalg import SymMatrix, psd_check, quadratic_form, schur_complement
from pvcgap.moments import DistParams
from pvcgap.rational import ONE, ZERO, Rat

from conftest import sym_equal, sym_rows, zbar_by_enumeration


def test_covered_edges_formula():
    assert covered_edges(5, 2) == 7
    assert covered_edges(9, 0) == 0
    for n in range(1, 8):
        assert covered_edges(n, 1) == n - 1
        assert covered_edges(n, n) == n * (n - 1) // 2
    with pytest.raises(ValueError):
        covered_edges(4, 5)


def test_expected_slack_values():
    assert expected_slack(2, 0, ONE) == ONE
    assert expected_slack(10, 1, Rat(1, 28)) == Rat(1691, 784)
    assert expected_slack(7, 3, ZERO) == Rat(-3)


def test_zbar_entry_structure():
    n, t, p = 7, 1, Rat(1, 4)
    zbar = build_zbar(n, t, p)
    s = {k: expected_slack(k, t, p) for k in (n - 2, n - 1, n)}
    assert zbar.get(0, 0) == s[n]
    for i in range(1, n + 1):
        assert zbar.get(0, i) == p * (s[n - 1] + (n - 1))
        assert zbar.get(i, i) == zbar.get(0, i)
        for j in range(i + 1, n + 1):
            assert zbar.get(i, j) == p * p * (s[n - 2] + covered_edges(n, 2))


def test_closed_form_equals_enumeration_spot():
    assert sym_equal(build_zbar(4, 1, Rat(1, 2)), zbar_by_enumeration(4, 1, Rat(1, 2)))
    assert sym_equal(build_zbar(9, 2, Rat(1, 7)), zbar_by_enumeration(9, 2, Rat(1, 7)))
    with pytest.raises(ValueError):
        zbar_by_enumeration(21, 1, Rat(1, 2))


def test_allones_direction_is_an_eigenvector():
    zbar = build_zbar(8, 1, Rat(1, 9))
    eig = allones_eigenvalue_after_schur(zbar)
    sc = schur_complement(zbar)
    for row in sym_rows(sc):
        assert sum(row, ZERO) == eig


def test_eigenvalue_rejects_nonpositive_pivot():
    zbar = build_zbar(6, 2, ZERO)  # expected slack is -2 < 0
    with pytest.raises(ValueError):
        allones_eigenvalue_after_schur(zbar)


# Exact eigenvalues at the canonical inclusion probability p = t/C(n-2r,2),
# frozen from this module's own closed forms (the enumeration oracle above
# pins the matrix itself).  The sign flips between these parameter points:
# the level-1 moment-SDP cut only bites once p is small enough relative to n.
EIGENVALUES = {
    (12, 2, 1): Rat(8795925, 874655488),
    (14, 2, 2): Rat(398879438, 8178013125),
    (12, 1, 1): Rat(-89847692, 1052220375),
    (13, 2, 1): Rat(-482405, 28273536),
    (14, 1, 2): Rat(-180545696, 1477262259),
    (16, 2, 2): Rat(-9601984, 370402659),
}


@pytest.mark.parametrize("point,expected", sorted(EIGENVALUES.items()))
def test_allones_eigenvalue_exact_values(point, expected):
    n, r, t = point
    p = Rat(t, comb(n - 2 * r, 2))
    zbar = build_zbar(n, t, p)
    assert allones_eigenvalue_after_schur(zbar) == expected
    if n <= 12:
        assert sym_equal(zbar, zbar_by_enumeration(n, t, p))


@pytest.mark.parametrize("point", sorted(k for k, v in EIGENVALUES.items() if v < 0))
def test_negative_direction_refutes(point):
    n, r, t = point
    cert = lasserre1_refutes(n, r, t)
    assert cert.verdict == "refuted"
    assert cert.witness is not None
    # the witness is an exact negative direction for the matrix itself
    p = Rat(t, comb(n - 2 * r, 2))
    zbar = build_zbar(n, t, p)
    vec = [Rat(s) for s in cert.witness["vector"]]
    num, den = cert.witness["quadratic_form"]["exact"].split("/")
    assert quadratic_form(zbar, vec) == Rat(int(num), int(den)) < 0


@pytest.mark.parametrize("point", sorted(k for k, v in EIGENVALUES.items() if v > 0))
def test_positive_direction_points_survive(point):
    n, r, t = point
    cert = lasserre1_refutes(n, r, t)
    assert cert.verdict == "not-refuted"
    assert cert.witness is None


def test_refutes_rejects_parameter_violations():
    with pytest.raises(ValueError):
        lasserre1_refutes(7, 2, 1)  # needs n >= 2r + 2t + 2
    with pytest.raises(ValueError):
        lasserre1_refutes(12, 2, 0)


def test_all_ones_distribution_slack_matrix_is_psd():
    # p = 1 makes the demand slack a convex combination of integral slacks
    assert psd_check(build_zbar(6, 1, ONE)).is_psd


def test_level1_slack_matrices_psd_on_small_clique():
    g = make_clique(6)
    params = DistParams(g, Rat(1, 15))
    lp = build_pvc_lp(g, 1)
    # one edge row, one lower box row, one upper box row
    for row_idx in (0, g.m + 1, g.m + 1 + g.var_count):
        sm = level1_slack_matrix(params, lp.rows[row_idx])
        assert psd_check(sm).is_psd


@pytest.mark.parametrize("n,r,t", [(6, 1, 1), (8, 2, 1), (9, 2, 2)])
def test_the_demand_rows_slack_matrix_has_the_closed_form_minor(n, r, t):
    """The lifted demand row's slack matrix, over {empty} u V, is `build_zbar`'s."""
    g = make_clique(n)
    p = Rat(t, comb(n - 2 * r, 2))
    demand = pvc_rows(g, t)[g.m]  # the demand row follows the edge rows
    full = level1_slack_matrix(DistParams(g, p), demand)
    assert full.n == 1 + g.var_count
    assert sym_equal(SymMatrix.from_function(n + 1, full.get), build_zbar(n, t, p))
