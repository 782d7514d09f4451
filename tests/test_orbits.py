"""The class program: `lp_solve` on the equitable classes of the lifted LP.

The plain solve, `lp_solve` with `simplex._equitable_classes` patched to
singleton classes, is the oracle: on singletons the class program is the
program itself.
"""

import pytest

from pvcgap import simplex
from pvcgap.graphs import Graph, build_pvc_lp, least_twins, make_clique, make_star
from pvcgap.hierarchy import generate_sa1_lp
from pvcgap.rational import ONE, ZERO, Rat
from pvcgap.simplex import LinearProgram, lp_solve

from conftest import PATH6, WEIGHTED_PATH, equitable_classes


def _singletons(lp, _c):
    return [[j] for j in range(lp.n_vars)], [[i] for i in range(lp.n_rows)]


def _plain_solve(lp: LinearProgram):
    """lp_solve on singleton classes, so on the full program."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "_equitable_classes", _singletons)
        return lp_solve(lp)


def _solved_on_classes(lp: LinearProgram):
    """lp_solve's result, checked to be laid out over the full program and
    constant on each of its (equitable) variable classes."""
    res = lp_solve(lp)
    assert len(res.primal) == lp.n_vars
    assert len(res.dual) == lp.n_rows
    var_classes, _row_classes = equitable_classes(lp)
    assert all(len({res.primal[j] for j in cls}) == 1 for cls in var_classes)
    return res


def _class_counts(lp: LinearProgram) -> tuple:
    var_classes, row_classes = equitable_classes(lp)
    return len(var_classes), len(row_classes)


@pytest.mark.parametrize("n,t", [(n, t) for n in range(1, 6) for t in range(n + 1)])
def test_orbit_and_plain_solves_agree_on_stars(n, t):
    lp = generate_sa1_lp(make_star(n), t)
    assert _class_counts(lp)[0] < lp.n_vars
    assert _solved_on_classes(lp).value == _plain_solve(lp).value


@pytest.mark.parametrize("n,t", [(n, t) for n in range(2, 5) for t in range(n * (n - 1) // 2 + 1)])
def test_orbit_and_plain_solves_agree_on_cliques(n, t):
    lp = generate_sa1_lp(make_clique(n), t)
    assert _class_counts(lp)[0] < lp.n_vars
    assert _solved_on_classes(lp).value == _plain_solve(lp).value


@pytest.mark.parametrize("n", range(1, 11))
def test_lifted_lp_value_on_every_small_star(n):
    for t in range(n + 1):
        assert _solved_on_classes(generate_sa1_lp(make_star(n), t)).value == (ONE if t else ZERO)


@pytest.mark.parametrize("n,t", [(n, t) for n in range(5, 10) for t in range(1, 4)] + [(13, 1)])
def test_lifted_lp_value_on_cliques_is_the_closed_form(n, t):
    # K13 is the largest clique under SA1_VARIABLE_CAP: 30,942 rows over
    # 4,187 variables, 121,799 nonzero entries against 130 million dense
    # ones, so this also guards that the rows stay sparse
    lp = generate_sa1_lp(make_clique(n), t)
    assert _solved_on_classes(lp).value == Rat(t * n, (n - 1) * (n - 2) + 2 * t)


def test_star_orbit_program_size_does_not_grow_with_n():
    for n, size in ((4, (46, 254)), (6, (92, 522)), (10, (232, 1346))):
        lp = generate_sa1_lp(make_star(n), n // 2)
        assert (lp.n_vars, lp.n_rows) == size
        assert _class_counts(lp) == (10, 46)


def test_reaches_the_sixteen_leaf_star():
    lp = generate_sa1_lp(make_star(16), 8)
    assert (lp.n_vars, lp.n_rows) == (562, 3302)
    assert _solved_on_classes(lp).value == ONE


def test_the_twin_free_path_reduces_by_its_reflection():
    # P6 has no twins, but its end-to-end reflection is a symmetry
    assert least_twins(PATH6) == []
    lp = generate_sa1_lp(PATH6, 3)
    assert (lp.n_vars, lp.n_rows) == (67, 376)
    assert _class_counts(lp) == (37, 197)
    assert _solved_on_classes(lp).value == _plain_solve(lp).value == Rat(5, 3)


def test_the_star_cover_lp_reduces():
    lp = build_pvc_lp(make_star(6), 3)
    assert (lp.n_vars, lp.n_rows) == (13, 33)
    assert _class_counts(lp) == (3, 8)
    assert _solved_on_classes(lp).value == _plain_solve(lp).value == Rat(1, 2)


def test_the_weighted_path_lifted_lp_solves_as_the_plain_one():
    lp = generate_sa1_lp(WEIGHTED_PATH, 2)
    assert _solved_on_classes(lp).value == _plain_solve(lp).value


def test_without_generators_the_orbit_program_is_the_program():
    # four distinct weights on a path: no symmetry, so every class is a singleton
    assert least_twins(WEIGHTED_PATH) == []
    lp = build_pvc_lp(WEIGHTED_PATH, 2)
    assert _class_counts(lp) == (lp.n_vars, lp.n_rows)


def test_classes_start_from_the_objective():
    # leaves 1 and 2 are twins of unequal weight: the objective keeps them
    # apart, and an objective that weighs them equally puts them together
    g = Graph(3, ((1, 3), (2, 3)), (1, 2, 1))
    lp = build_pvc_lp(g, 1)
    assert equitable_classes(lp)[0] == [[0], [1], [2], [3], [4]]
    even = LinearProgram(lp.names, lp.rows, (ONE, ONE, ONE, ZERO, ZERO))
    assert equitable_classes(even)[0] == [[0, 1], [2], [3, 4]]
    assert _solved_on_classes(even).value == _plain_solve(even).value == Rat(1, 2)


def test_a_repeated_row_shares_its_class():
    lp = build_pvc_lp(make_star(2), 1)
    twice = LinearProgram(lp.names, lp.rows * 2, lp.objective)
    var_classes, row_classes = equitable_classes(lp)
    assert equitable_classes(twice) == (
        var_classes, [cls + [i + lp.n_rows for i in cls] for cls in row_classes])
    assert _solved_on_classes(twice).value == lp_solve(lp).value


def test_a_wrong_orbit_is_caught_by_the_full_recheck(monkeypatch):
    # lump the star's center in with the leaves: the class program then has
    # a worse optimum, which the full program's re-check cannot certify
    lp = generate_sa1_lp(make_star(4), 2)
    classes = simplex._equitable_classes

    def lumped(*args):
        var_classes, row_classes = classes(*args)
        leaves, center = var_classes[1], var_classes[2]
        assert (leaves, center) == ([1, 2, 3, 4], [5])
        return [var_classes[0], leaves + center] + var_classes[3:], row_classes

    monkeypatch.setattr(simplex, "_equitable_classes", lumped)
    with pytest.raises(RuntimeError):
        lp_solve(lp)


# -- twins: `least_twins`, which the moment scans read -------------------------


def test_twin_swaps_of_the_star_are_its_leaf_swaps():
    # swapping leaf 1 with any other leaf is a symmetry of the star
    assert least_twins(make_star(3)) == [(1, 2), (1, 3)]


def test_twin_swaps_keep_adjacent_twins_edge():
    # in K3 the twins are adjacent: the swap of 1 and 2 keeps their edge
    assert least_twins(make_clique(3)) == [(1, 2), (1, 3)]


def test_twin_swaps_need_equal_weights():
    assert least_twins(Graph(4, ((1, 4), (2, 4), (3, 4)), (1, 2, 1, 1))) == [(1, 3)]
    assert least_twins(Graph(3, ((1, 3), (2, 3)), (1, 2, 1))) == []


def test_a_path_has_only_its_end_twins():
    assert least_twins(Graph(3, ((1, 2), (2, 3)))) == [(1, 3)]
    assert least_twins(Graph(4, ((1, 2), (2, 3), (3, 4)))) == []
