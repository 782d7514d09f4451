"""The lifted-row scan and the conditioned moment matrices on twin-vertex
orbits against the per-pair weights and matrices they replaced."""

import re
from functools import partial
from itertools import chain, groupby, permutations, product
from math import comb

import pytest

from pvcgap import hierarchy, linalg, moments
from pvcgap.graphs import Graph, least_twins, make_clique, make_star, row_name
from pvcgap.hierarchy import verify_sa, verify_sap, verify_xyn_family, yn_pair_count, yn_pairs
from pvcgap.linalg import SymMatrix, quadratic_form
from pvcgap.moments import (
    DistParams,
    MomentMismatch,
    _canonical_pair,
    _code_perm,
    _disjoint_pair,
    _pair_weights,
    _twin_group,
    _weight_overlap_ok,
    build_cond_matrix,
)
from pvcgap.rational import ZERO, Rat

from conftest import PATH6, WEIGHTED_PATH, edge_code, sym_equal, weights_per_code

PATH8 = Graph(8, tuple((i, i + 1) for i in range(1, 8)))
GRAPHS = {
    "K7": make_clique(7),
    "star5": make_star(5),
    "P6": PATH6,
    # leaves 1, 2, 6 and leaves 3, 4, 5 are two twin classes
    "star5-two-weights": Graph(6, make_star(5).edges, (1, 1, 2, 2, 2, 1)),
}


def _oracle_scan_pair(cache, params, rows, y, n):
    """`_scan_pair` on the direct weights, cached per pair for the scans of one test."""
    if (y, n) not in cache:
        wyn, w = weights_per_code(params, y, n)
        cache[y, n] = None, len(rows)
        for k, (coeffs, rhs) in enumerate(rows if wyn else (), 1):
            lhs = sum(c * w[j] for j, c in coeffs)
            if lhs < rhs * wyn:
                lhs, rhs = Rat(lhs, params.den), Rat(rhs * wyn, params.den)
                cache[y, n] = hierarchy.Violation(row_name(params.graph, k - 1), y, n, lhs, rhs), k
                break
    return cache[y, n]


@pytest.mark.parametrize("name", GRAPHS)
def test_relabelled_weights_equal_the_direct_ones(name):
    g = GRAPHS[name]
    params = DistParams(g, Rat(1, 7))
    for y, n in yn_pairs(g.var_count, 2):
        assert _pair_weights(params, y, n) == weights_per_code(params, y, n), (y, n)


K33 = Graph(6, tuple((i, j) for i in (1, 2, 3) for j in (4, 5, 6)))
CLASS_GRAPHS = {
    "K7": make_clique(7),
    "K9": make_clique(9),
    "star6": make_star(6),
    "K3,3": K33,
    "P5": Graph(5, tuple((i, i + 1) for i in range(1, 5))),
    "weighted-path": WEIGHTED_PATH,
}


@pytest.mark.parametrize("p", [None, Rat(1, 100), Rat(1, 3)], ids=["canonical", "p1_100", "p1_3"])
@pytest.mark.parametrize("name", CLASS_GRAPHS)
def test_weights_per_stabiliser_class_equal_the_per_code_ones(name, p):
    # the canonical p of a clique at r = 2, t = 1; 1/7 off the cliques
    g = CLASS_GRAPHS[name]
    if p is None:
        p = Rat(1, comb(g.n - 4, 2)) if g.m == comb(g.n, 2) else Rat(1, 7)
    params, group = DistParams(g, p), _twin_group(g)
    keys = {_canonical_pair(group, y, n)[0] for y, n in yn_pairs(g.var_count, 2)}
    for y, n in sorted(keys):
        assert moments._weights_at(params, y, n) == weights_per_code(params, y, n), (y, n)


def test_a_clique_computes_as_many_weights_for_any_n(monkeypatch):
    """At r = 2 each of the 22 keys computes one weight per stabiliser class,
    and the classes do not grow with n: 195 cross-checked weights on K8 and
    on K12, against 1 + var_count at each key with a nonzero w(Y, N) before."""
    calls, weight = [0], moments._weight_overlap_ok

    def counted(params, ys, ns):
        calls[0] += 1
        return weight(params, ys, ns)

    monkeypatch.setattr(moments, "_weight_overlap_ok", counted)
    for n in (8, 12):
        calls[0] = 0
        assert verify_sa(DistParams(make_clique(n), Rat(1, comb(n - 4, 2))), 1, 2).feasible
        assert calls[0] == 195


def test_on_a_twin_free_graph_every_pair_is_its_own_key():
    assert least_twins(PATH6) == []
    group, codes = _twin_group(PATH6), list(range(PATH6.var_count))
    for y, n in yn_pairs(PATH6.var_count, 2):
        key, vmap = _canonical_pair(group, y, n)
        assert (key, _code_perm(group, vmap)) == ((y, n), codes)


@pytest.mark.parametrize("size,r,orbits", [(size, 1, 5) for size in range(6, 10)]
                         + [(size, 2, 22) for size in range(6, 10)]
                         + [(6, 3, 104), (7, 3, 104)])
def test_orbit_counts_on_cliques(size, r, orbits):
    g = make_clique(size)
    group, keys = _twin_group(g), set()
    for y, n in yn_pairs(g.var_count, r):
        key, vmap = _canonical_pair(group, y, n)
        perm = _code_perm(group, vmap)
        assert sorted(perm) == list(range(g.var_count))
        assert key == (tuple(sorted(perm[c] for c in y)), tuple(sorted(perm[c] for c in n)))
        keys.add(key)
    assert len(keys) == orbits


def _searched_canonical_pair(group, y, n):
    """The key of `_canonical_pair` by its search over every order inside the
    cells for each pair, with nothing kept between pairs: the canonical form
    before it was memoised per pre-sorted image."""
    cls, members, code, ends = group[:4]
    sides, label = [[ends[c] for c in codes] for codes in (y, n)], {}
    for s, side in enumerate(sides):
        for i, j in side:
            for v in {i, j}:
                label.setdefault(v, [cls[v], 0, 0, 0, 0])[1 + s + 2 * (i != j)] += 1
    touched = sorted(label, key=label.get)
    dst = [members[c][k] for c, vs in groupby(touched, cls.__getitem__) for k, _ in enumerate(vs)]
    best = None
    for cells in product(*(permutations(vs) for _, vs in groupby(touched, label.get))):
        vmap = dict(zip(chain.from_iterable(cells), dst))
        image = tuple(tuple(sorted(code[vmap[i]][vmap[j]] for i, j in side)) for side in sides)
        best = image if best is None else min(best, image)
    return best


@pytest.mark.parametrize("name,r", [(name, r) for name in GRAPHS for r in range(3)] + [("K7", 3)])
def test_the_memoised_canonical_form_is_the_searched_one(name, r):
    g = GRAPHS[name]
    group = _twin_group(g)
    for y, n in yn_pairs(g.var_count, r):
        key, vmap = _canonical_pair(group, y, n)
        assert key == _searched_canonical_pair(group, y, n), (y, n)
        perm = _code_perm(group, vmap)
        assert sorted(perm) == list(range(g.var_count))
        assert key == (tuple(sorted(perm[c] for c in y)), tuple(sorted(perm[c] for c in n)))


def test_the_search_runs_once_per_pre_sorted_image(monkeypatch):
    g = make_clique(8)
    calls, least_image = [0], moments._least_image

    def counted(*args):
        calls[0] += 1
        return least_image(*args)

    monkeypatch.setattr(moments, "_least_image", counted)
    group = _twin_group(g)
    keys = {_canonical_pair(group, y, n)[0] for y, n in yn_pairs(g.var_count, 2)}
    assert calls[0] == len(group[4]) == len(keys) == 22


def _row_checks(monkeypatch):
    """Count `_scan_pair` calls and record the pair of each `_row_check`."""
    counts, checked = {"_scan_pair": 0}, []
    _counted(monkeypatch, hierarchy, "_scan_pair", counts)
    row_check = hierarchy._row_check

    def recorded(params, rows, y, n, wyn, w):
        checked.append((y, n))
        return row_check(params, rows, y, n, wyn, w)

    monkeypatch.setattr(hierarchy, "_row_check", recorded)
    return counts, checked


def test_rows_are_checked_once_per_orbit(monkeypatch):
    """K8 at r = 2: all 2,593 pairs are scanned and counted, but rows are
    checked at the 22 orbit keys only; at p = 1/100 the first pair fails,
    and it checks its own rows after its key's (the pair is its key)."""
    g = make_clique(8)
    counts, checked = _row_checks(monkeypatch)
    verdict = verify_sa(DistParams(g, Rat(1, comb(4, 2))), 1, 2)
    assert verdict.feasible and verdict.constraints_checked == 2593 * 101 == 261893
    assert counts["_scan_pair"] == yn_pair_count(g.var_count, 2) == 2593
    group = _twin_group(g)
    assert len(checked) == len(set(checked)) == 22
    assert all(_canonical_pair(group, *pair)[0] == pair for pair in checked)
    counts["_scan_pair"], checked[:] = 0, []
    verdict = verify_sa(DistParams(g, Rat(1, 100)), 1, 2)
    v = verdict.violated
    assert (v.constraint, v.y, v.n, verdict.constraints_checked) == ("demand", (), (), 29)
    assert counts["_scan_pair"] == 1 and checked == [((), ()), ((), ())]


@pytest.mark.parametrize("n,r,t,p", [(5, 2, 1, Rat(1, 10)), (6, 2, 5, Rat(1, 3))])
def test_a_failing_orbit_checks_the_witness_pair_itself(monkeypatch, n, r, t, p):
    checked = _row_checks(monkeypatch)[1]
    v = verify_sa(DistParams(make_clique(n), p), t, r).violated
    key = _canonical_pair(_twin_group(make_clique(n)), v.y, v.n)[0]
    assert checked[-2:] == [key, (v.y, v.n)] and key != (v.y, v.n)


def test_the_row_verdicts_are_kept_with_their_rows():
    """One params scanned at t = 1 (feasible) and then at t = 6, where the
    demand row fails, finds at t = 6 what a fresh params finds; so does a
    `verify_sap` after a `verify_sa` on one params."""
    g, p, q = make_clique(8), Rat(1, 10), Rat(1, comb(4, 2))
    params = DistParams(g, p)
    assert verify_sa(params, 1, 1).feasible
    again = verify_sa(params, 6, 1)
    assert not again.feasible and again == verify_sa(DistParams(g, p), 6, 1)
    both = DistParams(g, q)
    assert ((verify_sa(both, 1, 2), verify_sap(both, 1, 2))
            == (verify_sa(DistParams(g, q), 1, 2), verify_sap(DistParams(g, q), 1, 2)))


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
    assert v.constraint == "demand" and (v.y, v.n) == ((), (0, edge_code(g, 2, 3)))
    assert _canonical_pair(_twin_group(g), v.y, v.n)[0] == ((), (2, edge_code(g, 1, 2)))


def test_a_corrupted_representative_weight_fails_the_cross_check(monkeypatch):
    g = make_clique(6)
    p = Rat(1, comb(4, 2))
    # w({e2_3}, {v1}) belongs to no key's own (Y, N): the scan reaches it only
    # as the weight at q = e2_3 of the key ((), (v1,))
    event = ((edge_code(g, 2, 3),), (1 - 1,))
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


# -- conditioned moment matrices ----------------------------------------------


def _direct_matrix(cache, params, y, n):
    """The conditioned moment matrix with every entry from `_weight_overlap_ok`:
    the per-pair builder `build_cond_matrix` was before it built by orbit.
    `cache` keeps the entries, by event, for the matrices of one graph and p."""
    ys, ns = _disjoint_pair(params.graph, y, n)
    nvars = params.graph.var_count
    sets = [ys] + [ys if c in ys else tuple(sorted(ys + (c,))) for c in range(nvars)]

    def entry(i, j):
        union = tuple(sorted(set(sets[i]) | set(sets[j])))
        if (union, ns) not in cache:
            cache[union, ns] = Rat(_weight_overlap_ok(params, union, ns), params.den)
        return cache[union, ns]

    return SymMatrix.from_function(1 + nvars, entry)


def _oracle_check_matrix(cache, params, y, n, name):
    """`_check_matrix` on the direct matrix, factorised for every pair: the
    per-pair check the scan ran before it took one verdict per twin orbit."""
    verdict = linalg.psd_check(_direct_matrix(cache, params, y, n))
    return None if verdict.is_psd else hierarchy.Violation(name, y, n, verdict.value, ZERO)


@pytest.mark.parametrize("name", GRAPHS)
def test_relabelled_matrices_equal_the_direct_ones(name):
    g = GRAPHS[name]
    params, cache = DistParams(g, Rat(1, 7)), {}
    for y, n in yn_pairs(g.var_count, 2):
        direct = _direct_matrix(cache, params, y, n)
        assert sym_equal(build_cond_matrix(params, y, n), direct), (y, n)


def test_relabelled_matrices_are_integer_rows_over_den():
    params = DistParams(GRAPHS["K7"], Rat(1, 7))
    group = _twin_group(params.graph)
    pairs = [(y, n) for y, n in yn_pairs(params.graph.var_count, 1)
             if _canonical_pair(group, y, n)[0] != (y, n)]
    assert len(pairs) == 57 - 5  # every pair of K7 at |Y u N| <= 1 but the 5 keys
    for y, n in pairs:
        m = build_cond_matrix(params, y, n)
        assert m.den == params.den
        assert {type(x) for row in m.ints for x in row} == {int}


def _xyn_cases():
    canonical = [(n, r, Rat(1, comb(n - 2 * r, 2)))
                 for n in range(4, 10) for r in range(4) if n - 2 * r >= 2]
    return canonical + [(n, r, Rat(1, 100)) for n in range(4, 10) for r in range(4)]


@pytest.mark.parametrize("n,r,p", _xyn_cases())
def test_matrix_verdicts_equal_the_oracle(monkeypatch, n, r, p):
    g = make_clique(n)
    sample = 12 if yn_pair_count(g.var_count, r - 1) > 400 else None

    def verdicts():
        return (verify_xyn_family(DistParams(g, p), 1, r, sample=sample, seed=n),
                verify_xyn_family(DistParams(g, p), 1, r, sample=5, seed=r),
                r <= 2 and verify_sap(DistParams(g, p), 1, r))

    got = verdicts()
    monkeypatch.setattr(hierarchy, "_check_matrix", partial(_oracle_check_matrix, {}))
    assert got == verdicts()


# the paths have no twins, and the weighted star has two twin classes of leaves
OFF_CLIQUES = {"P6": PATH6, "P8": PATH8, "weighted-P4": WEIGHTED_PATH,
               "star5-two-weights": GRAPHS["star5-two-weights"]}


@pytest.mark.parametrize("name,r,p", [(name, r, p) for name in OFF_CLIQUES for r in range(3)
                                      for p in (Rat(1, 7), Rat(1, 100))])
def test_verdicts_off_the_cliques_equal_the_oracle_scans(monkeypatch, name, r, p):
    g = OFF_CLIQUES[name]

    def verdicts():
        return [verify(DistParams(g, p), 1, r)
                for verify in (verify_sa, verify_sap, verify_xyn_family)]

    got = verdicts()
    monkeypatch.setattr(hierarchy, "_scan_pair", partial(_oracle_scan_pair, {}))
    monkeypatch.setattr(hierarchy, "_check_matrix", partial(_oracle_check_matrix, {}))
    assert got == verdicts()


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_a_non_psd_orbit_names_its_first_pair(monkeypatch, fork_workers, threads):
    g = make_clique(6)
    p, m = Rat(1, 7), g.var_count
    key = ((), (2, edge_code(g, 1, 2)))
    matrix_rows = moments._matrix_rows

    def negative_at_key(params, ys, ns):
        rows = matrix_rows(params, ys, ns)
        if (ys, ns) == key:
            rows[0][0] = -rows[0][0]
        return rows

    monkeypatch.setattr(moments, "_matrix_rows", negative_at_key)
    group = _twin_group(g)
    first, (y, n) = next((k, pair) for k, pair in enumerate(yn_pairs(m, 2))
                         if _canonical_pair(group, *pair)[0] == key)
    assert (y, n) == ((), (0, edge_code(g, 2, 3))) != key
    verdict = verify_xyn_family(DistParams(g, p), 1, 3, threads=threads)
    assert not verdict.feasible and verdict.constraints_checked == first + 1
    v = verdict.violated
    assert (v.constraint, v.y, v.n) == ("xyn:psd", y, n)
    matrix = build_cond_matrix(DistParams(g, p), y, n)
    assert quadratic_form(matrix, linalg.psd_check(matrix).witness) == v.lhs < 0


def test_a_corrupted_representative_matrix_entry_fails_the_cross_check(monkeypatch):
    g = make_clique(6)
    p = Rat(1, comb(4, 2))
    group = _twin_group(g)
    e23, e45, v1 = edge_code(g, 2, 3), edge_code(g, 4, 5), 1 - 1
    assert _canonical_pair(group, (), (v1,))[0] == ((), (v1,))
    # entry (e2_3, e4_5) of the key ((), (v1,))'s matrix is w({e2_3, e4_5}, {v1}),
    # read from the weight row of ((e2_3,), (v1,))'s orbit key at the image of e4_5
    (ky, kn), vmap = _canonical_pair(group, (e23,), (v1,))
    perm = _code_perm(group, vmap)
    event = (tuple(sorted({*ky, perm[e45]})), kn)
    # no family pair's own w(Y+{q}, N) at r = 2 is that event
    assert all((tuple(sorted({*y, q})), n) != event
               for y, n in yn_pairs(g.var_count, 1) for q in range(g.var_count))
    assert verify_xyn_family(DistParams(g, p), 1, 2).feasible
    enumerate_on_off = moments._enumerate_on_off

    def off_by_one(params, on, off):
        value = enumerate_on_off(params, on, off)
        return value + 1 if (tuple(on), tuple(off)) == event else value

    monkeypatch.setattr(moments, "_enumerate_on_off", off_by_one)
    with pytest.raises(MomentMismatch, match=re.escape(f"Y={event[0]} N={event[1]}")):
        verify_xyn_family(DistParams(g, p), 1, 2)


@pytest.mark.parametrize("size,r,orbits", [(8, 2, 22), (10, 2, 22), (7, 3, 104)])
def test_matrices_evaluate_each_weight_once_per_orbit(monkeypatch, size, r, orbits):
    """The family's matrices read every weight from the weight rows of the
    pair orbits at |Y u N| <= r (the counts of `test_orbit_counts_on_cliques`):
    at most 1 + var_count cross-checked evaluations per orbit."""
    g = make_clique(size)
    calls, weight = [0], moments._weight_overlap_ok

    def counted(params, ys, ns):
        calls[0] += 1
        return weight(params, ys, ns)

    monkeypatch.setattr(moments, "_weight_overlap_ok", counted)
    assert verify_xyn_family(DistParams(g, Rat(1, 7)), 1, r).feasible
    assert 0 < calls[0] <= orbits * (1 + g.var_count)


def _memoised_keys(params, build) -> set:
    """The orbit keys `params._orbits` keeps a value of `build` for."""
    return {key for kept, key in params._orbits if kept is build}


def test_the_orbit_memo_holds_only_build_and_key_entries():
    """After a row scan and a matrix family on K6, every entry of `params._orbits`
    is (build, key) for one of the four builds, its key a twin-orbit key; a
    lookup leaves the memo as it found it."""
    g = make_clique(6)
    params = DistParams(g, Rat(1, 7))
    assert verify_sa(params, 1, 2).feasible and verify_xyn_family(params, 1, 2).feasible
    builds = {moments._weights_at, moments._matrix_rows, hierarchy._key_violation,
              hierarchy._key_is_psd}
    group = moments._group(params)
    for entry in params._orbits:
        build, key = entry
        assert build in builds and _canonical_pair(group, *key)[0] == key, entry
    assert {build for build, _ in params._orbits} == builds
    memo = dict(params._orbits)
    for y, n in yn_pairs(g.var_count, 2):
        moments._orbit_key(params, y, n)
    assert params._orbits == memo


def test_a_twin_free_graph_memoizes_each_pair_as_its_own_key(monkeypatch):
    """P8 has no twins, so its twin group is trivial: the scans keep one weight
    row and one row verdict for each pair they scan, one matrix and one PSD
    verdict for each pair of the family, each under the pair itself."""
    g = PATH8
    assert least_twins(g) == []
    sa, xyn = DistParams(g, Rat(1, 7)), DistParams(g, Rat(1, 7))
    got = verify_sa(sa, 1, 2), verify_xyn_family(xyn, 1, 2)
    pairs, v = list(yn_pairs(g.var_count, 2)), got[0].violated
    scanned = set(pairs[:pairs.index((v.y, v.n)) + 1])
    assert len(scanned) == 372
    assert _memoised_keys(sa, moments._weights_at) == scanned
    assert _memoised_keys(sa, hierarchy._key_violation) == scanned
    family = set(yn_pairs(g.var_count, 1))
    assert _memoised_keys(xyn, moments._matrix_rows) == family
    assert _memoised_keys(xyn, hierarchy._key_is_psd) == family
    group = moments._group(xyn)
    for key in _memoised_keys(xyn, moments._weights_at):
        assert _canonical_pair(group, *key)[0] == key
    monkeypatch.setattr(hierarchy, "_scan_pair", partial(_oracle_scan_pair, {}))
    monkeypatch.setattr(hierarchy, "_check_matrix", partial(_oracle_check_matrix, {}))
    assert got == (verify_sa(DistParams(g, Rat(1, 7)), 1, 2),
                   verify_xyn_family(DistParams(g, Rat(1, 7)), 1, 2))


def _counted(monkeypatch, module, name, counts):
    fn = getattr(module, name)

    def counted(*args):
        counts[name] += 1
        return fn(*args)

    monkeypatch.setattr(module, name, counted)


def test_each_twin_orbit_is_factorised_once(monkeypatch):
    """K8 at r = 2: 73 matrices are built, one per pair, and the 5 twin orbits
    they fall into are factorised once each.  `_check_matrix` looks each
    pair's key up once, outside the build, and hands it to the build and to
    the orbit verdict: 73 canonical forms outside builds, and inside them at
    most one for each of the 183 weight rows of the 5 keys' matrices.  A
    second lookup per pair made 146 outside builds."""
    counts = {"psd_check": 0, "build_cond_matrix": 0}
    _counted(monkeypatch, linalg, "psd_check", counts)
    canonical, build = moments._canonical_pair, hierarchy.build_cond_matrix
    forms, building = {True: 0, False: 0}, [False]

    def counted_canonical(*args):
        forms[building[0]] += 1
        return canonical(*args)

    def counted_build(*args):
        counts["build_cond_matrix"] += 1
        building[0] = True
        try:
            return build(*args)
        finally:
            building[0] = False

    monkeypatch.setattr(moments, "_canonical_pair", counted_canonical)
    monkeypatch.setattr(hierarchy, "build_cond_matrix", counted_build)
    assert verify_xyn_family(DistParams(make_clique(8), Rat(1, comb(4, 2))), 1, 2).feasible
    assert counts == {"psd_check": 5, "build_cond_matrix": 73}
    assert forms[False] == 73 and forms[True] <= 183


def test_a_twin_free_graph_builds_and_factorises_each_matrix_once(monkeypatch):
    """On P8 every pair is its own orbit: one build and one factorisation per
    pair, and each weight row evaluated once for all the matrices that share
    it: 5,115 evaluations, where building each matrix on its own made 7,275."""
    g = PATH8
    counts = {"psd_check": 0, "build_cond_matrix": 0, "_weight_overlap_ok": 0}
    _counted(monkeypatch, linalg, "psd_check", counts)
    _counted(monkeypatch, hierarchy, "build_cond_matrix", counts)
    _counted(monkeypatch, moments, "_weight_overlap_ok", counts)
    assert verify_xyn_family(DistParams(g, Rat(1, 7)), 1, 2).feasible
    pairs = yn_pair_count(g.var_count, 1)
    assert counts["psd_check"] == counts["build_cond_matrix"] == pairs == 31
    assert counts["_weight_overlap_ok"] == 5115
