import random
from functools import partial
from itertools import combinations
from math import comb

import pytest

from pvcgap import graphs
from pvcgap.graphs import (
    Graph,
    brute_force_opt,
    brute_force_witness,
    build_pvc_lp,
    integral_opt,
    make_clique,
    make_star,
    parse_graph,
    pvc_rows,
)
from pvcgap.rational import ONE, Rat, rational_str
from pvcgap.simplex import lp_solve

from conftest import dot


def format_graph(g: Graph) -> str:
    """The graph file text `parse_graph` reads back as g."""
    out = [f"{g.n} {g.m}"]
    out.extend(f"{i} {j}" for i, j in g.edges)
    for i, w in enumerate(g.weights, start=1):
        if w != ONE:
            out.append(f"w {i} {rational_str(w)}")
    return "\n".join(out) + "\n"


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


def test_the_dense_lp_is_the_sparse_rows_in_their_order():
    g = Graph(3, ((1, 2), (2, 3)), weights=(Rat(5), Rat(0), Rat(1, 2)))
    rows = pvc_rows(g, 2)
    assert [name for name, _, _ in rows] == [
        "edge:e1_2", "edge:e2_3", "demand",
        "box0:v1", "box0:v2", "box0:v3", "box0:e1_2", "box0:e2_3",
        "box1:v1", "box1:v2", "box1:v3", "box1:e1_2", "box1:e2_3"]
    assert rows[1] == ("edge:e2_3", ((1, 1), (2, 1), (4, -1)), 0)
    assert rows[2] == ("demand", ((3, 1), (4, 1)), 2)
    assert rows[-1] == ("box1:e2_3", ((4, -1),), -1)
    lp = build_pvc_lp(g, 2)
    assert lp.names == ("v1", "v2", "v3", "e1_2", "e2_3")
    assert lp.objective == g.weights + (Rat(0), Rat(0))
    assert lp.rows == tuple(
        (tuple(Rat(dict(coeffs).get(j, 0)) for j in range(g.var_count)), Rat(rhs))
        for _, coeffs, rhs in rows)
    for t in (-1, 3):
        with pytest.raises(ValueError):
            pvc_rows(g, t)


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
    for g in (make_star(24), Graph(25, make_clique(25).edges, (2,) + (1,) * 24)):
        assert integral_opt(g, 1) is None


def test_integral_opt_on_a_unit_weight_clique_is_the_closed_form(monkeypatch):
    want = {(n, t): brute_force_opt(make_clique(n), t)
            for n in range(1, 13) for t in range(comb(n, 2) + 1)}
    monkeypatch.setattr(graphs, "BRUTE_FORCE_MAX_N", 0)  # every clique is past the cap
    assert {(n, t): integral_opt(make_clique(n), t) for n, t in want} == want
    monkeypatch.undo()
    # k vertices of K30 cover 29 + 28 + ... + (30 - k) edges
    k30 = make_clique(30)
    assert [integral_opt(k30, t) for t in (0, 1, 29, 30, 57, 58, 435)] == [0, 1, 1, 2, 2, 3, 29]


def test_weighted_brute_force():
    g = Graph(3, ((1, 2), (2, 3)), weights=(Rat(5), Rat(1), Rat(5)))
    # vertex 2 covers both edges at weight 1
    assert brute_force_opt(g, 2) == Rat(1)


def _all_masks_opt(g: Graph, t: int):
    """Least weight of a vertex set covering >= t edges, over every subset."""
    best = None
    for mask in range(1 << g.n):
        chosen = {v for v in range(1, g.n + 1) if mask >> (v - 1) & 1}
        if sum(1 for i, j in g.edges if i in chosen or j in chosen) >= t:
            weight = sum((g.weights[v - 1] for v in chosen), Rat(0))
            best = weight if best is None or weight < best else best
    return best


def test_brute_force_equals_the_all_masks_oracle_on_weighted_graphs():
    rng = random.Random(2014)
    for _ in range(60):
        n = rng.randint(1, 8)
        edges = tuple(e for e in make_clique(n).edges if rng.random() < 0.5)
        weights = tuple(rng.choice([Rat(0), Rat(1), Rat(rng.randint(0, 9), rng.randint(1, 4))])
                        for _ in range(n))
        g = Graph(n, edges, weights)
        t = rng.randint(0, g.m)
        weight, cover = brute_force_witness(g, t)
        assert weight == _all_masks_opt(g, t) == sum((g.weights[v - 1] for v in cover), Rat(0))
        assert sum(1 for i, j in g.edges if i in cover or j in cover) >= t


def _counted_combinations(visited, pool, k):
    for subset in combinations(pool, k):
        visited.append(subset)
        yield subset


def test_a_zero_weight_does_not_defeat_the_size_bound(monkeypatch):
    # the floor of `size` vertices is the sum of the `size` least weights, not
    # size * 0, so a zero weight still stops the walk long before all 2^n subsets
    rng = random.Random(7)
    n = 14
    edges = tuple(e for e in make_clique(n).edges if rng.random() < 0.3)
    visited = []
    monkeypatch.setattr(graphs, "combinations", partial(_counted_combinations, visited))
    for weights in ((Rat(0),) + (Rat(1),) * (n - 1), (Rat(0), Rat(0)) + (Rat(1, 2),) * (n - 2)):
        g = Graph(n, edges, weights)
        t = g.m // 2
        visited.clear()
        weight, cover = brute_force_witness(g, t)
        assert weight == _all_masks_opt(g, t) == sum((g.weights[v - 1] for v in cover), Rat(0))
        assert len(visited) < 2**n // 8, len(visited)


def test_negative_weights_are_refused():
    with pytest.raises(ValueError, match="nonnegative"):
        Graph(2, ((1, 2),), (Rat(1), Rat(-5)))
    with pytest.raises(ValueError, match="nonnegative"):
        parse_graph("2 1\n1 2\nw 1 -5\n")
    assert Graph(2, ((1, 2),), (Rat(0), Rat(0))).weights == (Rat(0), Rat(0))


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
