"""The lifted-row scan on twin-vertex orbits against the per-pair weights it replaced."""

import re
from functools import partial
from math import comb

import pytest

from pvcgap import hierarchy, moments
from pvcgap.graphs import Graph, make_clique, make_star, twin_swaps
from pvcgap.hierarchy import (
    _canonical_pair,
    _pair_weights,
    _twin_group,
    verify_sa,
    verify_sap,
    yn_pairs,
)
from pvcgap.moments import DistParams, MomentMismatch, _weight_overlap_ok
from pvcgap.rational import Rat

PATH6 = Graph(6, tuple((i, i + 1) for i in range(1, 6)))
GRAPHS = {
    "K7": make_clique(7),
    "star5": make_star(5),
    "P6": PATH6,
    # leaves 1, 2, 6 and leaves 3, 4, 5 are two twin classes
    "star5-two-weights": Graph(6, make_star(5).edges, (1, 1, 2, 2, 2, 1)),
}


def _direct_weights(params, y, n):
    """w(Y, N) and every w(Y+{q}, N), each from `_weight_overlap_ok`: the
    per-pair loop the scan ran before it read weights by orbit."""
    wyn = _weight_overlap_ok(params, y, n)
    if wyn == 0:
        return 0, None
    return wyn, [0 if q in n else _weight_overlap_ok(params, tuple(sorted({*y, q})), n)
                 for q in range(params.graph.var_count)]


def _oracle_scan_pair(cache, params, rows, y, n):
    """`_scan_pair` on the direct weights, cached per pair for the scans of one test."""
    if (y, n) not in cache:
        wyn, w = _direct_weights(params, y, n)
        cache[y, n] = None, len(rows)
        for k, (name, coeffs, rhs) in enumerate(rows if wyn else (), 1):
            lhs = sum(c * w[j] for j, c in coeffs)
            if lhs < rhs * wyn:
                lhs, rhs = Rat(lhs, params.den), Rat(rhs * wyn, params.den)
                cache[y, n] = hierarchy.Violation(name, y, n, lhs, rhs), k
                break
    return cache[y, n]


@pytest.mark.parametrize("name", GRAPHS)
def test_relabelled_weights_equal_the_direct_ones(name):
    g = GRAPHS[name]
    params = DistParams(g, Rat(1, 7))
    for y, n in yn_pairs(g.var_count, 2):
        assert _pair_weights(params, y, n) == _direct_weights(params, y, n), (y, n)


def test_on_a_twin_free_graph_every_pair_is_its_own_key():
    assert twin_swaps(PATH6) == ()
    group, codes = _twin_group(PATH6), list(range(PATH6.var_count))
    for y, n in yn_pairs(PATH6.var_count, 2):
        assert _canonical_pair(group, y, n) == ((y, n), codes)


@pytest.mark.parametrize("size,r,orbits", [(size, 1, 5) for size in range(6, 10)]
                         + [(size, 2, 22) for size in range(6, 10)]
                         + [(6, 3, 104), (7, 3, 104)])
def test_orbit_counts_on_cliques(size, r, orbits):
    g = make_clique(size)
    group, keys = _twin_group(g), set()
    for y, n in yn_pairs(g.var_count, r):
        key, perm = _canonical_pair(group, y, n)
        assert sorted(perm) == list(range(g.var_count))
        assert key == (tuple(sorted(perm[c] for c in y)), tuple(sorted(perm[c] for c in n)))
        keys.add(key)
    assert len(keys) == orbits


def _cases():
    canonical = [(n, r, 1, Rat(1, comb(n - 2 * r, 2)))
                 for n in range(4, 11) for r in range(3) if n - 2 * r >= 2]
    p100 = [(n, r, 1, Rat(1, 100)) for n in range(4, 11) for r in range(3)]
    # the first violation lies at a pair that is not its orbit's key
    relabelled = [(5, 2, 1, Rat(1, 10)), (6, 2, 5, Rat(1, 3))]
    return canonical + p100 + relabelled


@pytest.mark.parametrize("n,r,t,p", _cases())
def test_verdicts_equal_the_oracle_scan(monkeypatch, n, r, t, p):
    g = make_clique(n)
    got = [verify(DistParams(g, p), t, r) for verify in (verify_sa, verify_sap)]
    monkeypatch.setattr(hierarchy, "_scan_pair", partial(_oracle_scan_pair, {}))
    want = [verify(DistParams(g, p), t, r) for verify in (verify_sa, verify_sap)]
    assert got == want


@pytest.mark.parametrize("n,r,t,p", [(5, 2, 1, Rat(1, 10)), (6, 2, 5, Rat(1, 3))])
def test_a_witness_read_through_a_relabelling(n, r, t, p):
    g = make_clique(n)
    v = verify_sa(DistParams(g, p), t, r).violated
    assert v.constraint == "demand" and (v.y, v.n) == ((), (0, g.edge_code(2, 3)))
    assert _canonical_pair(_twin_group(g), v.y, v.n)[0] == ((), (2, g.edge_code(1, 2)))


def test_a_corrupted_representative_weight_fails_the_cross_check(monkeypatch):
    g = make_clique(6)
    p = Rat(1, comb(4, 2))
    # w({e2_3}, {v1}) belongs to no key's own (Y, N): the scan reaches it only
    # as the weight at q = e2_3 of the key ((), (v1,))
    event = ((g.edge_code(2, 3),), (g.vertex_code(1),))
    assert _canonical_pair(_twin_group(g), *event)[0] != event
    assert _canonical_pair(_twin_group(g), (), event[1])[0] == ((), event[1])
    assert verify_sa(DistParams(g, p), 1, 1).feasible
    enumerate_on_off = moments._enumerate_on_off

    def off_by_one(params, on, off):
        value = enumerate_on_off(params, on, off)
        return value + 1 if (tuple(on), tuple(off)) == event else value

    monkeypatch.setattr(moments, "_enumerate_on_off", off_by_one)
    with pytest.raises(MomentMismatch, match=re.escape(f"Y={event[0]} N={event[1]}")):
        verify_sa(DistParams(g, p), 1, 1)
