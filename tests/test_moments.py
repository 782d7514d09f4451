import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from pvcgap.graphs import make_clique, make_star
from pvcgap.linalg import psd_check
from pvcgap.moments import (
    DistParams,
    SUPPORT_CAP,
    MomentMismatch,
    SupportTooLarge,
    _enumerate_on_off,
    build_cond_matrix,
    cond_weight,
    moment,
)
from pvcgap.rational import ONE, ZERO, Rat

from conftest import edge_code


def _params(n=8, p=Rat(1, 5)):
    return DistParams(make_clique(n), p)


def _prob(params, a):
    """The moment as a rational: `moment` returns it times params.den."""
    return Rat(moment(params, a), params.den)


def test_singleton_values():
    params = _params()
    g = params.graph
    p = params.p
    assert _prob(params, (3 - 1,)) == p
    assert _prob(params, (edge_code(g, 2, 5),)) == 2 * p - p * p
    assert _prob(params, ()) == ONE


def test_vertex_forces_incident_edge():
    params = _params()
    g = params.graph
    a = (1 - 1, edge_code(g, 1, 2))
    assert _prob(params, a) == params.p


def test_probability_bounds_and_monotonicity():
    rng = random.Random(11)
    params = _params()
    g = params.graph
    codes = range(g.var_count)
    for _ in range(200):
        a = tuple(rng.sample(codes, rng.randint(0, 3)))
        b = tuple(rng.sample(codes, rng.randint(0, 3)))
        ya = _prob(params, a)
        yab = _prob(params, a + b)
        assert ZERO <= yab <= ya <= ONE


def test_cond_weight_examples():
    params = _params()
    g = params.graph
    p = params.p
    assert cond_weight(params, (), ()) == ONE
    e = edge_code(g, 1, 2)
    assert cond_weight(params, (e,), (1 - 1,)) == p - p * p
    assert cond_weight(params, (1 - 1,), (2 - 1,)) == p * (ONE - p)
    with pytest.raises(ValueError):
        cond_weight(params, (e,), (e,))


def test_inclusion_exclusion_matches_enumeration_500_cases():
    rng = random.Random(2718281)
    params = _params(8, Rat(2, 7))
    g = params.graph
    codes = list(range(g.var_count))
    for _ in range(500):
        k = rng.randint(0, 4)
        union = rng.sample(codes, k)
        ymask = rng.randrange(1 << k)
        y = tuple(union[i] for i in range(k) if ymask >> i & 1)
        n = tuple(union[i] for i in range(k) if not ymask >> i & 1)
        # the inclusion-exclusion sum, assembled from moments by hand
        total = ZERO
        for size in range(len(n) + 1):
            for t_sub in combinations(n, size):
                term = _prob(params, y + t_sub)
                total = total + term if size % 2 == 0 else total - term
        assert cond_weight(params, y, n) == total


def test_cross_check_catches_a_wrong_moment():
    params = _params()
    g = params.graph
    y, n = (1 - 1,), (2 - 1,)
    # the inclusion-exclusion sum reads moment({v1, v2}) from the memo
    params._memo[tuple(sorted(y + n))] = params.den // 2
    with pytest.raises(MomentMismatch):
        cond_weight(params, y, n)


def test_partition_weights_sum_to_one():
    rng = random.Random(31415)
    params = _params(8, Rat(1, 3))
    g = params.graph
    codes = list(range(g.var_count))
    for _ in range(100):
        s = rng.sample(codes, rng.randint(0, 3))
        k = len(s)
        total = ZERO
        for ymask in range(1 << k):
            y = tuple(s[i] for i in range(k) if ymask >> i & 1)
            n = tuple(s[i] for i in range(k) if not ymask >> i & 1)
            total += cond_weight(params, y, n)
        assert total == ONE


def test_untouched_edge_factors_out():
    params = _params(9, Rat(1, 4))
    g = params.graph
    p = params.p
    edge_val = 2 * p - p * p
    y = (1 - 1, edge_code(g, 2, 3))
    n = (4 - 1,)
    f = edge_code(g, 6, 7)  # shares no endpoint with anything above
    assert cond_weight(params, y + (f,), n) == edge_val * cond_weight(params, y, n)


def test_cond_matrix_entries_and_idempotence():
    params = _params(5, Rat(1, 3))
    g = params.graph
    cm = build_cond_matrix(params, (1 - 1,), (2 - 1,))
    assert cm.n == 1 + g.var_count
    # (empty, empty) entry is the bare conditioning weight
    assert cm.get(0, 0) == cond_weight(params, (1 - 1,), (2 - 1,))
    i = 3 - 1
    assert cm.get(1 + i, 1 + i) == cm.get(0, 1 + i)
    # columns of variables inside N vanish
    j = 2 - 1
    assert all(cm.get(1 + j, k) == ZERO for k in range(cm.n))


def test_cond_matrices_are_psd_50_random_pairs():
    rng = random.Random(64)
    params = DistParams(make_clique(10), Rat(1, 28))
    g = params.graph
    codes = list(range(g.var_count))
    for _ in range(50):
        k = rng.randint(0, 1)
        union = rng.sample(codes, k)
        ymask = rng.randrange(1 << k)
        y = tuple(union[i] for i in range(k) if ymask >> i & 1)
        n = tuple(union[i] for i in range(k) if not ymask >> i & 1)
        cm = build_cond_matrix(params, y, n)
        assert psd_check(cm).is_psd


def test_unconditioned_matrix_psd_cross_checked_with_floats():
    params = DistParams(make_clique(10), Rat(1, 28))
    cm = build_cond_matrix(params, (), ())
    assert psd_check(cm).is_psd
    a = np.array(
        [[float(cm.get(i, j)) for j in range(cm.n)] for i in range(cm.n)]
    )
    assert np.linalg.eigvalsh(a).min() > -1e-12


def test_support_cap_is_enforced():
    params = DistParams(make_clique(2 * 14), Rat(1, 2))
    g = params.graph
    pairs = [edge_code(g, 2 * i + 1, 2 * i + 2) for i in range(14)]
    with pytest.raises(SupportTooLarge, match="28 vertices"):
        moment(params, pairs)
    # the cap is inclusive: requiring 13 disjoint edges off spans exactly 26 vertices
    assert SUPPORT_CAP == 26
    # probabilities are integers over params.den = 2^26, so 1/2^26 reads 1
    assert params.den == 2**26
    assert _enumerate_on_off(params, (), pairs[:13]) == 1
    with pytest.raises(SupportTooLarge, match="27 vertices"):
        _enumerate_on_off(params, (27 - 1,), pairs[:13])


def test_degenerate_probabilities():
    for p in (ZERO, ONE):
        params = _params(6, p)
        g = params.graph
        assert _prob(params, (1 - 1,)) == p
        assert _prob(params, (edge_code(g, 1, 2),)) == (ZERO if p == 0 else ONE)
        assert cond_weight(params, (), (1 - 1,)) == ONE - p


def test_star_graph_moments():
    g = make_star(4)
    params = DistParams(g, Rat(1, 2))
    center = 5 - 1
    leaf_edge = edge_code(g, 1, 5)
    # edge on iff center or its leaf chosen
    assert _prob(params, (leaf_edge,)) == Rat(3, 4)
    assert cond_weight(params, (leaf_edge,), (center,)) == Rat(1, 4)


def _on_off_by_vertex_sets(graph, p, on, off):
    """P[on all one, off all zero] as a Fraction sum over all 2^n vertex sets."""
    p = Fraction(p)

    def value(code, chosen):
        if graph.is_vertex_code(code):
            return code in chosen
        a, b = graph.code_endpoints(code)
        return a in chosen or b in chosen

    total = Fraction(0)
    for mask in range(1 << graph.n):
        chosen = {v for v in range(graph.n) if mask >> v & 1}
        if all(value(c, chosen) for c in on) and not any(value(c, chosen) for c in off):
            total += p ** len(chosen) * (1 - p) ** (graph.n - len(chosen))
    return total


@pytest.mark.parametrize("graph, p", [
    (make_clique(5), Rat(2, 7)), (make_clique(6), Rat(1, 3)), (make_star(6), Rat(3, 5)),
])
def test_kernel_equals_a_sum_over_all_vertex_sets(graph, p):
    rng = random.Random(graph.n * 1009 + graph.m)
    params = DistParams(graph, p)
    codes = list(range(graph.var_count))
    for _ in range(120):
        on = rng.sample(codes, rng.randint(0, 4))
        off = rng.sample(codes, rng.randint(0, 3))
        expected = _on_off_by_vertex_sets(graph, p, on, off)
        assert Fraction(_enumerate_on_off(params, on, off), params.den) == expected
