import random
from itertools import combinations

import numpy as np
import pytest

from pvcgap.graphs import make_clique, make_star
from pvcgap.linalg import psd_check
from pvcgap.moments import (
    DistParams,
    MomentMismatch,
    SupportTooLarge,
    build_cond_matrix,
    cond_weight,
    moment,
)
from pvcgap.rational import ONE, ZERO, Rat


def _params(n=8, p=Rat(1, 5)):
    return DistParams(make_clique(n), p)


def test_singleton_values():
    params = _params()
    g = params.graph
    p = params.p
    assert moment(params, (g.vertex_code(3),)) == p
    assert moment(params, (g.edge_code(2, 5),)) == 2 * p - p * p
    assert moment(params, ()) == ONE


def test_vertex_forces_incident_edge():
    params = _params()
    g = params.graph
    a = (g.vertex_code(1), g.edge_code(1, 2))
    assert moment(params, a) == params.p


def test_probability_bounds_and_monotonicity():
    rng = random.Random(11)
    params = _params()
    g = params.graph
    codes = range(g.var_count)
    for _ in range(200):
        a = tuple(rng.sample(codes, rng.randint(0, 3)))
        b = tuple(rng.sample(codes, rng.randint(0, 3)))
        ya = moment(params, a)
        yab = moment(params, a + b)
        assert ZERO <= yab <= ya <= ONE


def test_cond_weight_examples():
    params = _params()
    g = params.graph
    p = params.p
    assert cond_weight(params, (), ()) == ONE
    e = g.edge_code(1, 2)
    assert cond_weight(params, (e,), (g.vertex_code(1),)) == p - p * p
    assert cond_weight(params, (g.vertex_code(1),), (g.vertex_code(2),)) == p * (ONE - p)
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
                term = moment(params, y + t_sub)
                total = total + term if size % 2 == 0 else total - term
        assert cond_weight(params, y, n) == total


def test_cross_check_catches_a_wrong_moment():
    params = _params()
    g = params.graph
    y, n = (g.vertex_code(1),), (g.vertex_code(2),)
    # the inclusion-exclusion sum reads moment({v1, v2}) from the memo
    params._memo[tuple(sorted(y + n))] = Rat(1, 2)
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
    y = (g.vertex_code(1), g.edge_code(2, 3))
    n = (g.vertex_code(4),)
    f = g.edge_code(6, 7)  # shares no endpoint with anything above
    assert cond_weight(params, y + (f,), n) == edge_val * cond_weight(params, y, n)


def test_cond_matrix_entries_and_idempotence():
    params = _params(5, Rat(1, 3))
    g = params.graph
    cm = build_cond_matrix(params, (g.vertex_code(1),), (g.vertex_code(2),))
    assert cm.dim == 1 + g.var_count
    # (empty, empty) entry is the bare conditioning weight
    assert cm.matrix.get(0, 0) == cond_weight(params, (g.vertex_code(1),), (g.vertex_code(2),))
    i = g.vertex_code(3)
    assert cm.matrix.get(1 + i, 1 + i) == cm.matrix.get(0, 1 + i)
    # columns of variables inside N vanish
    j = g.vertex_code(2)
    assert all(cm.matrix.get(1 + j, k) == ZERO for k in range(cm.dim))


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
        assert psd_check(cm.matrix).is_psd


def test_unconditioned_matrix_psd_cross_checked_with_floats():
    params = DistParams(make_clique(10), Rat(1, 28))
    cm = build_cond_matrix(params, (), ())
    assert psd_check(cm.matrix).is_psd
    a = np.array(
        [[float(cm.matrix.get(i, j)) for j in range(cm.dim)] for i in range(cm.dim)]
    )
    assert np.linalg.eigvalsh(a).min() > -1e-12


def test_support_cap_is_enforced():
    params = DistParams(make_clique(20), Rat(1, 2), support_cap=5)
    g = params.graph
    big = tuple(g.edge_code(2 * i + 1, 2 * i + 2) for i in range(3))
    with pytest.raises(SupportTooLarge):
        moment(params, big)


def test_degenerate_probabilities():
    for p in (ZERO, ONE):
        params = _params(6, p)
        g = params.graph
        assert moment(params, (g.vertex_code(1),)) == p
        assert moment(params, (g.edge_code(1, 2),)) == (ZERO if p == 0 else ONE)
        assert cond_weight(params, (), (g.vertex_code(1),)) == ONE - p


def test_star_graph_moments():
    g = make_star(4)
    params = DistParams(g, Rat(1, 2))
    center = g.vertex_code(5)
    leaf_edge = g.edge_code(1, 5)
    # edge on iff center or its leaf chosen
    assert moment(params, (leaf_edge,)) == Rat(3, 4)
    assert cond_weight(params, (leaf_edge,), (center,)) == Rat(1, 4)
