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
    expand,
    integral_opt,
    lift,
    make_clique,
    make_star,
    parse_graph,
    pvc_rows,
    row_name,
)
from pvcgap.hierarchy import yn_pairs
from pvcgap.moments import DistParams, _pair_weights, moment
from pvcgap.rational import ONE, Rat, rational_str
from pvcgap.simplex import lp_solve

from conftest import WEIGHTED_PATH, dot


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
    assert build_pvc_lp(g, 0).names == ("v1", "v2", "v3", "e1_2", "e1_3", "e2_3")


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, ((1, 1),))
    with pytest.raises(ValueError):
        Graph(3, ((1, 2), (1, 2)))
    with pytest.raises(ValueError):
        Graph(3, ((2, 4),))


def test_graph_sorts_edges_fills_weights_and_keeps_its_fields():
    g = Graph(3, ((2, 3), (1, 3), (1, 2)))
    assert g.edges == ((1, 2), (1, 3), (2, 3))
    assert g.var_name(4) == "e1_3"
    assert not hasattr(g, "__dict__")
    assert g.weights == (ONE, ONE, ONE)
    weighted = Graph(2, ((1, 2),), (2, "1/3"))
    assert weighted.weights == (Rat(2), Rat(1, 3))
    assert all(type(w) is Rat for w in weighted.weights)
    assert weighted == Graph(2, [(1, 2)], (Rat(2), Rat(1, 3)))
    assert hash(weighted) == hash(Graph(2, ((1, 2),), (2, Rat(1, 3))))
    with pytest.raises(AttributeError):
        g.n = 4
    assert g.n == 3


def test_pvc_lp_row_and_variable_counts():
    lp = build_pvc_lp(make_star(3), 2)
    assert lp.n_vars == 7
    assert lp.n_rows == 3 + 1 + 14
    lp4 = build_pvc_lp(make_clique(4), 6)
    demand = lp4.rows[6]
    assert demand == (tuple((e, 1) for e in range(4, 10)), 6)
    with pytest.raises(ValueError):
        build_pvc_lp(make_clique(4), 7)


WEIGHTED_P3 = Graph(3, ((1, 2), (2, 3)), weights=(Rat(5), Rat(0), Rat(1, 2)))


def test_the_lp_rows_are_the_sparse_rows_in_their_order():
    g = WEIGHTED_P3
    rows = pvc_rows(g, 2)
    assert len(rows) == 2 + 1 + 5 + 5
    assert rows[1] == (((1, 1), (2, 1), (4, -1)), 0)
    assert rows[2] == (((3, 1), (4, 1)), 2)
    assert rows[3] == (((0, 1),), 0)
    assert rows[-1] == (((4, -1),), -1)
    lp = build_pvc_lp(g, 2)
    assert lp.names == ("v1", "v2", "v3", "e1_2", "e2_3")
    assert lp.objective == g.weights + (Rat(0), Rat(0))
    assert lp.rows == rows
    for t in (-1, 3):
        with pytest.raises(ValueError):
            pvc_rows(g, t)


ROW_NAMES = {
    "path": (WEIGHTED_P3, [
        "edge:e1_2", "edge:e2_3", "demand",
        "box0:v1", "box0:v2", "box0:v3", "box0:e1_2", "box0:e2_3",
        "box1:v1", "box1:v2", "box1:v3", "box1:e1_2", "box1:e2_3"]),
    "K4": (make_clique(4), [
        "edge:e1_2", "edge:e1_3", "edge:e1_4", "edge:e2_3", "edge:e2_4", "edge:e3_4", "demand",
        "box0:v1", "box0:v2", "box0:v3", "box0:v4",
        "box0:e1_2", "box0:e1_3", "box0:e1_4", "box0:e2_3", "box0:e2_4", "box0:e3_4",
        "box1:v1", "box1:v2", "box1:v3", "box1:v4",
        "box1:e1_2", "box1:e1_3", "box1:e1_4", "box1:e2_3", "box1:e2_4", "box1:e3_4"]),
    "star": (make_star(3), [
        "edge:e1_4", "edge:e2_4", "edge:e3_4", "demand",
        "box0:v1", "box0:v2", "box0:v3", "box0:v4", "box0:e1_4", "box0:e2_4", "box0:e3_4",
        "box1:v1", "box1:v2", "box1:v3", "box1:v4", "box1:e1_4", "box1:e2_4", "box1:e3_4"]),
}


@pytest.mark.parametrize("g, names", ROW_NAMES.values(), ids=ROW_NAMES)
def test_row_name_names_every_row_in_order(g, names):
    assert [row_name(g, k) for k in range(len(pvc_rows(g, 1)))] == names


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
            x[v - 1] = Rat(1)
        for e, (i, j) in enumerate(g.edges, g.n):
            if i in cover or j in cover:
                x[e] = Rat(1)
        for coeffs, rhs in lp.rows:
            assert sum((c * x[j] for j, c in coeffs), Rat(0)) >= rhs
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
    with pytest.raises(ValueError, match="second vertex-weight line for vertex 1"):
        parse_graph("2 1\n1 2\nw 1 1/2\nw 1 3\n")
    # a field that is not an integer, or a bad weight, names its line
    for text, message in (("x 2\n", "header must be 'n m', got 'x 2'"),
                          ("2 1\n1 y\n", "edge line must be 'i j', got '1 y'"),
                          ("2 1\n1 2\nw z 3\n",
                           "vertex-weight line must be 'w i value', got 'w z 3'"),
                          ("2 1\n1 2\nw 1 x\n", "not a rational literal: 'x', in 'w 1 x'"),
                          ("2 1\n1 2\nw 1 -1\n",
                           "vertex weights must be nonnegative, got 'w 1 -1'")):
        with pytest.raises(ValueError) as exc:
            parse_graph(text)
        assert str(exc.value) == message
    # a header that undercounts its edges no longer turns an edge into a weight
    for text in ("3 1\n1 2\n2 3\n", "2 1\n1 2\n2 5/2\n"):
        with pytest.raises(ValueError, match="m=1 edge lines"):
            parse_graph(text)
    for text in ("3 -1\n", "3 -2\n1 2\n"):  # not re-read as weight lines
        with pytest.raises(ValueError, match="edge count"):
            parse_graph(text)


# -- lifted rows ---------------------------------------------------------------


def test_expand_is_the_written_out_product():
    """On random disjoint (Y, N) with |N| <= 4: the signed monomials of
    prod_{Y} x_y prod_{N} (1 - x_n), written out as one term (-1)^|T| per
    subset T of N, and equal to the product at every 0-1 point."""
    rng = random.Random(5)
    for _ in range(200):
        codes = rng.sample(range(12), rng.randint(0, 8))
        k = rng.randint(0, min(4, len(codes)))
        ns, ys = tuple(codes[:k]), tuple(codes[k:])
        written = {tuple(sorted((*ys, *t))): (-1) ** size
                   for size in range(k + 1) for t in combinations(ns, size)}
        terms = expand(ys, ns)
        assert terms == written and len(terms) == 1 << k, (ys, ns)
        for point in range(1 << len(codes)):
            x = {c: point >> i & 1 for i, c in enumerate(codes)}
            product = 1
            for c in ys:
                product *= x[c]
            for c in ns:
                product *= 1 - x[c]
            assert sum(sign * all(x[c] for c in s) for s, sign in terms.items()) == product


def test_expand_of_an_overlapping_pair_is_empty():
    assert expand((2,), (0, 2)) == {}
    assert expand((0, 4), (4,)) == {}
    assert expand((), ()) == {(): 1}


def test_lift_of_an_edge_row_by_x_and_one_minus_x():
    # K3: v1, v2, v3 are codes 0, 1, 2; e1_2 is code 3.  The edge row
    # x0 + x1 - x3 >= 0 times x0 (1 - x1) is x0 - x0x1 - x0x3 + x0x1x3.
    row = pvc_rows(make_clique(3), 1)[0]  # the edge row of e1_2
    assert lift(row, (0,), (1,)) == {(0,): 1, (0, 1): -1, (0, 3): -1, (0, 1, 3): 1}


def test_lift_of_the_demand_row_has_a_term_per_subset_of_n():
    # K3 at t = 1: (x3 + x4 + x5 - 1) x2 (1 - x0)(1 - x1), one signed term
    # for each of T = {}, {0}, {1}, {0, 1}
    demand = pvc_rows(make_clique(3), 1)[3]  # after K3's three edge rows
    expected = {}
    for t, sign in (((), 1), ((0,), -1), ((1,), -1), ((0, 1), 1)):
        expected[(*t, 2)] = -sign
        for e in (3, 4, 5):
            expected[(*t, 2, e)] = sign
    assert lift(demand, (2,), (0, 1)) == expected
    assert len(expected) == 16


def test_lift_with_overlapping_y_and_n_is_empty():
    demand = pvc_rows(make_clique(3), 1)[3]  # after K3's three edge rows
    assert lift(demand, (2,), (0, 2)) == {}
    assert lift(demand, (0, 4), (4,)) == {}


@pytest.mark.parametrize("g, t, p", [(make_clique(8), 1, Rat(1, comb(4, 2))),
                                     (make_clique(6), 1, Rat(1, 100)),
                                     (make_star(4), 2, Rat(1, 7)),
                                     (WEIGHTED_PATH, 2, Rat(1, 7))],
                         ids=["K8-canonical", "K6-p-1-100", "star4", "weighted-P4"])
def test_a_lifted_row_on_the_moments_is_the_scans_weighted_row(g, t, p):
    """Every row at every pair with |Y u N| <= 2: the lifted row summed over
    the moments is the scan's sum_j c_j w(Y+{j}, N) - rhs * w(Y, N) (on K8,
    261,893 rows)."""
    params = DistParams(g, p)
    rows = pvc_rows(g, t)
    for y, n in yn_pairs(g.var_count, 2):
        wyn, w = _pair_weights(params, y, n)
        for coeffs, rhs in rows:
            want = 0 if w is None else sum(c * w[j] for j, c in coeffs) - rhs * wyn
            lifted = lift((coeffs, rhs), y, n)
            assert sum(c * moment(params, s) for s, c in lifted.items()) == want, (y, n, coeffs)
