"""The orbit program: `lp_solve` on the twin-swap orbits of the lifted LP.

The plain solve, `dataclasses.replace(lp, generators=())`, is the oracle:
with no generators the orbit program is the program itself.
"""

from dataclasses import replace

import pytest

from pvcgap import simplex
from pvcgap.graphs import Graph, build_pvc_lp, make_clique, make_star, twin_swaps
from pvcgap.hierarchy import generate_sa1_lp
from pvcgap.rational import ONE, ZERO, Rat, as_rational
from pvcgap.simplex import LinearProgram, lp_solve


def _solved_on_orbits(lp: LinearProgram):
    """lp_solve's result, checked to be laid out over the full program."""
    res = lp_solve(lp)
    assert len(res.primal) == lp.n_vars
    assert len(res.dual) == lp.n_rows
    for gen in lp.generators:  # invariant under each generator: constant on orbits
        assert [res.primal[j] for j in gen] == list(res.primal)
    return res


def _orbit_counts(lp: LinearProgram) -> tuple:
    var_orbits, row_orbits = simplex._orbits(lp, [as_rational(x) for x in lp.objective])
    return len(var_orbits), len(row_orbits)


@pytest.mark.parametrize("n,t", [(n, t) for n in range(1, 6) for t in range(n + 1)])
def test_orbit_and_plain_solves_agree_on_stars(n, t):
    lp = generate_sa1_lp(make_star(n), t)
    assert lp.generators or n == 1
    assert _solved_on_orbits(lp).value == lp_solve(replace(lp, generators=())).value


@pytest.mark.parametrize("n,t", [(n, t) for n in range(2, 5) for t in range(n * (n - 1) // 2 + 1)])
def test_orbit_and_plain_solves_agree_on_cliques(n, t):
    lp = generate_sa1_lp(make_clique(n), t)
    assert len(lp.generators) == n - 1
    assert _solved_on_orbits(lp).value == lp_solve(replace(lp, generators=())).value


@pytest.mark.parametrize("n", range(1, 11))
def test_lifted_lp_value_on_every_small_star(n):
    for t in range(n + 1):
        assert _solved_on_orbits(generate_sa1_lp(make_star(n), t)).value == (ONE if t else ZERO)


@pytest.mark.parametrize("n,t", [(n, t) for n in range(5, 10) for t in range(1, 4)] + [(13, 1)])
def test_lifted_lp_value_on_cliques_is_the_closed_form(n, t):
    # K13 is the largest clique under SA1_VARIABLE_CAP: 30,942 rows over
    # 4,187 variables, 121,799 nonzero entries against 130 million dense
    # ones, so this also guards that the rows stay sparse
    lp = generate_sa1_lp(make_clique(n), t)
    assert _solved_on_orbits(lp).value == Rat(t * n, (n - 1) * (n - 2) + 2 * t)


def test_star_orbit_program_size_does_not_grow_with_n():
    for n, size in ((4, (46, 254)), (6, (92, 522)), (10, (232, 1346))):
        lp = generate_sa1_lp(make_star(n), n // 2)
        assert (lp.n_vars, lp.n_rows) == size
        assert len(lp.generators) == n - 1
        assert _orbit_counts(lp) == (10, 46)


def test_reaches_the_sixteen_leaf_star():
    lp = generate_sa1_lp(make_star(16), 8)
    assert (lp.n_vars, lp.n_rows) == (562, 3302)
    assert _solved_on_orbits(lp).value == ONE


def test_without_generators_the_orbit_program_is_the_program():
    lp = build_pvc_lp(make_star(5), 2)
    assert lp.generators == ()
    assert _orbit_counts(lp) == (lp.n_vars, lp.n_rows)


def test_a_wrong_orbit_is_caught_by_the_full_recheck(monkeypatch):
    # lump the star's center in with the leaves: the orbit program then has
    # a worse optimum, which the full program's re-check cannot certify
    lp = generate_sa1_lp(make_star(4), 2)
    orbits = simplex._orbits

    def lumped(*args):
        var_orbits, row_orbits = orbits(*args)
        leaves, center = var_orbits[1], var_orbits[2]
        assert (leaves, center) == ([1, 2, 3, 4], [5])
        return [var_orbits[0], leaves + center] + var_orbits[3:], row_orbits

    monkeypatch.setattr(simplex, "_orbits", lumped)
    with pytest.raises(RuntimeError):
        lp_solve(lp)


# -- twin swaps --------------------------------------------------------------


def test_twin_swaps_of_the_star_are_its_leaf_swaps():
    g = make_star(3)  # codes: v1..v4 = 0..3, e1_4, e2_4, e3_4 = 4..6
    assert twin_swaps(g) == ((1, 0, 2, 3, 5, 4, 6), (2, 1, 0, 3, 6, 5, 4))


def test_twin_swaps_keep_adjacent_twins_edge():
    g = make_clique(3)  # codes: v1..v3 = 0..2, e1_2, e1_3, e2_3 = 3..5
    assert twin_swaps(g) == ((1, 0, 2, 3, 5, 4), (2, 1, 0, 5, 4, 3))


def test_twin_swaps_need_equal_weights():
    assert twin_swaps(Graph(4, ((1, 4), (2, 4), (3, 4)), (1, 2, 1, 1))) == ((2, 1, 0, 3, 6, 5, 4),)
    assert twin_swaps(Graph(3, ((1, 3), (2, 3)), (1, 2, 1))) == ()


def test_a_path_has_only_its_end_twins():
    assert twin_swaps(Graph(3, ((1, 2), (2, 3)))) == ((2, 1, 0, 4, 3),)
    assert twin_swaps(Graph(4, ((1, 2), (2, 3), (3, 4)))) == ()


# -- refused generators ------------------------------------------------------


def test_a_generator_must_permute_the_variables():
    lp = build_pvc_lp(make_star(2), 1)  # 5 variables
    for bad in ((0, 1, 2, 3), (0, 0, 2, 3, 4), (0, 1, 2, 3, 5)):
        with pytest.raises(ValueError, match="not a permutation"):
            replace(lp, generators=(bad,))


def test_a_generator_must_map_rows_onto_rows():
    # swapping the path's end vertex 1 with its middle vertex 2 (not twins)
    # maps the edge row of {2, 3} outside the row set
    lp = build_pvc_lp(Graph(3, ((1, 2), (2, 3))), 1)
    with pytest.raises(ValueError, match="outside the row set"):
        lp_solve(replace(lp, generators=((1, 0, 2, 3, 4),)))


def test_a_generator_must_fix_the_objective():
    # leaves 1 and 2 are twins of unequal weight: the swap maps rows onto
    # rows but moves the objective, and twin_swaps leaves it out
    g = Graph(3, ((1, 3), (2, 3)), (1, 2, 1))
    swap = (1, 0, 2, 4, 3)
    lp = build_pvc_lp(g, 1)
    with pytest.raises(ValueError, match="moves the objective"):
        lp_solve(replace(lp, generators=(swap,)))
    assert lp_solve(replace(lp, objective=(ONE, ONE, ONE, ZERO, ZERO), generators=(swap,))
                    ).value == Rat(1, 2)
    assert twin_swaps(g) == ()


def test_a_program_with_generators_needs_distinct_rows():
    lp = build_pvc_lp(make_star(2), 1)
    twice = replace(lp, rows=lp.rows + lp.rows[:1], generators=twin_swaps(make_star(2)))
    with pytest.raises(ValueError, match="distinct rows"):
        lp_solve(twice)
    assert lp_solve(replace(twice, rows=lp.rows)).value == lp_solve(lp).value
