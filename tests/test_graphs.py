import random

import pytest

from pvcgap.graphs import (
    Graph,
    brute_force_opt,
    brute_force_witness,
    build_pvc_lp,
    format_graph,
    integral_opt,
    make_clique,
    make_star,
    parse_graph,
)
from pvcgap.rational import Rat
from pvcgap.simplex import lp_solve

from conftest import dot


def test_clique_edge_counts():
    assert make_clique(4).m == 6
    assert make_clique(10).m == 45
    assert make_clique(1).m == 0
    with pytest.raises(ValueError):
        make_clique(0)


def test_huge_clique_is_refused_before_building_edges():
    with pytest.raises(ValueError, match="1000405 edges"):
        make_clique(1415)  # C(1415, 2) just exceeds the cap of 10**6


def test_star_shape():
    g = make_star(3)
    assert g.n == 4
    assert g.edges == ((1, 4), (2, 4), (3, 4))
    assert make_star(1).m == 1
    g5 = make_star(5)
    assert g5.n == 6 and g5.m == 5
    with pytest.raises(ValueError):
        make_star(0)


def test_variable_order_is_vertices_then_edges():
    g = make_clique(3)
    assert g.var_names() == ["v1", "v2", "v3", "e1_2", "e1_3", "e2_3"]


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, ((1, 1),))
    with pytest.raises(ValueError):
        Graph(3, ((1, 2), (1, 2)))
    with pytest.raises(ValueError):
        Graph(3, ((2, 4),))


def test_pvc_lp_row_and_variable_counts():
    lp = build_pvc_lp(make_star(3), 2)
    assert lp.n_vars == 7
    assert lp.n_rows == 3 + 1 + 14
    lp4 = build_pvc_lp(make_clique(4), 6)
    demand = lp4.rows[6]
    assert demand[1] == Rat(6)
    with pytest.raises(ValueError):
        build_pvc_lp(make_clique(4), 7)


def test_full_demand_is_vertex_cover():
    # t = |E| forces a fractional vertex cover; on K_4 that is 2 (all x_i = 1/2)
    res = lp_solve(build_pvc_lp(make_clique(4), 6))
    assert res.value == Rat(2)
    assert brute_force_opt(make_clique(4), 6) == Rat(3)


def test_brute_force_small_cases():
    for n in (1, 3, 7):
        g = make_star(n)
        for t in range(1, n + 1):
            assert brute_force_opt(g, t) == Rat(1)
    for n in (3, 5, 8):
        g = make_clique(n)
        for t in (1, n - 1):
            assert brute_force_opt(g, t) == Rat(1)
    assert brute_force_opt(make_clique(5), 0) == Rat(0)
    with pytest.raises(ValueError):
        brute_force_opt(make_clique(4), 99)


def test_brute_force_witness_is_lp_feasible():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 7)
        edges = tuple(
            e for e in make_clique(n).edges if rng.random() < 0.6
        )
        if not edges:
            continue
        g = Graph(n, edges)
        t = rng.randint(0, g.m)
        weight, cover = brute_force_witness(g, t)
        lp = build_pvc_lp(g, t)
        x = [Rat(0)] * lp.n_vars
        for v in cover:
            x[g.vertex_code(v)] = Rat(1)
        for i, j in g.edges:
            if i in cover or j in cover:
                x[g.edge_code(i, j)] = Rat(1)
        for coeffs, rhs in lp.rows:
            assert dot(coeffs, x) >= rhs
        assert dot(lp.objective, x) == weight


def test_lp_is_a_relaxation_of_brute_force():
    rng = random.Random(17)
    for _ in range(15):
        n = rng.randint(2, 6)
        edges = tuple(e for e in make_clique(n).edges if rng.random() < 0.7)
        if not edges:
            continue
        g = Graph(n, edges)
        t = rng.randint(0, g.m)
        res = lp_solve(build_pvc_lp(g, t))
        assert res.value <= brute_force_opt(g, t)


def test_integral_opt_is_brute_force_up_to_its_cap():
    weighted = Graph(3, ((1, 2), (2, 3)), weights=(Rat(5), Rat(1), Rat(5)))
    for g, t in ((weighted, 2), (make_clique(8), 20), (make_star(23), 5), (make_clique(24), 1)):
        assert g.n <= 24
        assert integral_opt(g, t) == brute_force_opt(g, t)
    for g in (make_clique(25), make_star(24)):
        assert integral_opt(g, 1) is None


def test_weighted_brute_force():
    g = Graph(3, ((1, 2), (2, 3)), weights=(Rat(5), Rat(1), Rat(5)))
    # vertex 2 covers both edges at weight 1
    assert brute_force_opt(g, 2) == Rat(1)


def test_graph_file_round_trip():
    text = "4 3\n1 2\n2 3\n3 4\nw 2 5/2\n"
    g = parse_graph(text)
    assert g.n == 4 and g.m == 3
    assert g.weights[1] == Rat(5, 2)
    assert parse_graph(format_graph(g)) == g


def test_graph_file_comments_and_errors():
    g = parse_graph("# hello\n2 1\n\n1 2  # an edge\n")
    assert g.m == 1
    with pytest.raises(ValueError):
        parse_graph("")
    with pytest.raises(ValueError):
        parse_graph("2 2\n1 2\n")
    with pytest.raises(ValueError):
        parse_graph("2 1\n1 1\n")
    with pytest.raises(ValueError):
        parse_graph("2 1\n1 2\nw 9 4\n")
    # a header that undercounts its edges no longer turns an edge into a weight
    for text in ("3 1\n1 2\n2 3\n", "2 1\n1 2\n2 5/2\n"):
        with pytest.raises(ValueError, match="m=1 edge lines"):
            parse_graph(text)
    for text in ("3 -1\n", "3 -2\n1 2\n"):  # not re-read as weight lines
        with pytest.raises(ValueError, match="edge count"):
            parse_graph(text)
