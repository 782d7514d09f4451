import os
import pickle
import random
from functools import partial
from itertools import combinations
from math import comb

import pytest

from pvcgap import hierarchy, linalg, moments
from pvcgap.graphs import (Graph, brute_force_opt, build_pvc_lp, make_clique, make_star,
                           pvc_rows)
from pvcgap.hierarchy import (
    Violation,
    generate_sa1_lp,
    verify_sa,
    verify_sap,
    verify_xyn_family,
    yn_pair_count,
    yn_pairs,
)
from pvcgap.linalg import PsdVerdict
from pvcgap.moments import DistParams, cond_weight, moment
from pvcgap.rational import ONE, ZERO, Rat
from pvcgap.simplex import lp_solve

from conftest import PATH6, WEIGHTED_PATH


def _clique_params(n, r, t):
    p = Rat(t, comb(n - 2 * r, 2))
    g = make_clique(n)
    return g, DistParams(g, p)


def test_pair_enumeration_count_and_order():
    m, r = 9, 2
    pairs = list(yn_pairs(m, r))
    assert len(pairs) == yn_pair_count(m, r) == 1 + 9 * 2 + comb(9, 2) * 4
    assert pairs[0] == ((), ())
    # sizes ascending; within a union, Y-mask ascending
    sizes = [len(y) + len(n) for y, n in pairs]
    assert sizes == sorted(sizes)


def _record_pair(seen, _params, _t, y, n):
    seen.append((y, n))
    return None, 1


@pytest.mark.parametrize(
    "indices", [range(40, 90), [0, 1, 7, 19, 20, 64, 151], []], ids=["range", "sparse", "empty"])
def test_scan_chunk_visits_the_pairs_at_its_indices(monkeypatch, indices):
    m, r = 9, 2
    params = DistParams(make_star(4), ONE)
    assert params.graph.var_count == m
    seen = []
    monkeypatch.setattr(hierarchy, "_scan_pair", partial(_record_pair, seen))
    assert hierarchy._scan_chunk(params, 1, r, False, indices) == (None, len(indices))
    pairs = list(yn_pairs(m, r))
    assert seen == [pairs[k] for k in indices]


def test_sparse_walk_skips_to_the_far_end_of_a_large_family():
    # K14 at |Y u N| <= 3 has 1,521,731 pairs; a walk that made each one would take seconds
    m, r = 105, 3
    last = yn_pair_count(m, r) - 1
    tail = (102, 103, 104)
    assert list(yn_pairs(m, r, [0, 2 * m + 1, last - 7, last])) == [
        ((), ()), ((), (0, 1)), ((), tail), (tail, ())]


@pytest.mark.parametrize(
    "n,r,t",
    [(8, 1, 1), (10, 1, 1), (10, 2, 1), (12, 2, 2)],
)
def test_lifted_feasibility_on_cliques(n, r, t):
    assert n >= 2 * r + 2 * t + 2
    g, params = _clique_params(n, r, t)
    verdict = verify_sa(params, t, r)
    assert verdict.feasible, verdict.violated
    assert verdict.objective_value == n * params.p
    assert verdict.integrality_gap_lower_bound == Rat(comb(n - 2 * r, 2), t * n)
    assert brute_force_opt(g, t) == ONE


def test_level_zero_with_p_one_is_feasible():
    g = make_clique(6)
    verdict = verify_sa(DistParams(g, ONE), 1, 0)
    assert verdict.feasible


def test_p_zero_fails_demand_at_empty_pair():
    g = make_clique(6)
    verdict = verify_sa(DistParams(g, ZERO), 1, 1)
    assert not verdict.feasible
    v = verdict.violated
    assert v.constraint == "demand"
    assert v.y == () and v.n == ()
    assert v.lhs == ZERO and v.rhs == ONE
    assert verdict.integrality_gap_lower_bound is None


def test_a_verdict_survives_a_pickle_round_trip():
    # pool workers hand their chunk's violation back this way
    verdict = verify_sa(DistParams(make_clique(6), ZERO), 1, 1)
    assert isinstance(verdict.violated, Violation)
    assert pickle.loads(pickle.dumps(verdict)) == verdict


def test_violation_witness_reproduces_at_higher_level():
    g = make_clique(6)
    params = DistParams(g, ZERO)
    verdict = verify_sa(params, 2, 1)
    assert not verdict.feasible
    v = verdict.violated
    # re-evaluate the reported demand row by hand; it must fail identically,
    # and the same pair is scanned by every higher level
    lhs = ZERO
    for e in range(g.n, g.var_count):
        lhs += cond_weight(params, v.y + (e,), v.n)
    assert lhs == v.lhs < v.rhs == 2 * cond_weight(params, v.y, v.n)
    higher = verify_sa(params, 2, 2)
    assert not higher.feasible and higher.violated == v


@pytest.mark.parametrize("threads", [2, 3])
@pytest.mark.parametrize("p", [Rat(1, 15), ZERO, Rat(1, 100)], ids=["feasible", "p0", "p1_100"])
@pytest.mark.parametrize("verify", [verify_sa, verify_sap], ids=["sa", "sap"])
def test_threaded_run_matches_single_thread(verify, p, threads, fork_workers):
    g = make_clique(8)
    solo = verify(DistParams(g, p), 1, 1)
    multi = verify(DistParams(g, p), 1, 1, threads=threads)
    assert multi == solo


def test_plus_variant_adds_one_psd_check():
    g, params = _clique_params(8, 1, 1)
    sa = verify_sa(params, 1, 1)
    sap = verify_sap(DistParams(g, params.p), 1, 1)
    assert sap.feasible
    assert sap.constraints_checked == sa.constraints_checked + 1


def test_plus_variant_reports_a_failed_moment_matrix(monkeypatch):
    g, params = _clique_params(8, 1, 1)
    sa = verify_sa(params, 1, 1)
    monkeypatch.setattr(linalg, "psd_check", lambda _m: PsdVerdict(False, value=Rat(-1)))
    sap = verify_sap(DistParams(g, params.p), 1, 1)
    assert not sap.feasible
    assert sap.violated == hierarchy.Violation("sa+:moment-psd", (), (), Rat(-1), ZERO)
    assert sap.constraints_checked == sa.constraints_checked + 1
    assert sap.objective_value == sa.objective_value
    assert sap.integrality_gap_lower_bound is None


def test_plus_variant_accepts_p_zero_matrix_but_fails_demand():
    g = make_clique(5)
    verdict = verify_sap(DistParams(g, ZERO), 1, 1)
    assert not verdict.feasible
    assert verdict.violated.constraint == "demand"


def test_conditioned_family_exhaustive_small():
    g, params = _clique_params(8, 2, 1)
    verdict = verify_xyn_family(params, 1, 2)
    assert verdict.feasible
    assert verdict.constraints_checked == yn_pair_count(g.var_count, 1)


def test_conditioned_family_at_level_zero_is_vacuous():
    g, params = _clique_params(8, 1, 1)
    verdict = verify_xyn_family(params, 1, 0)
    assert verdict.feasible
    assert verdict.constraints_checked == 0


def _fail_at(pair, params, y, n, name):
    if (y, n) == pair:
        return hierarchy.Violation(name, y, n, Rat(-1), ZERO)
    return None


def test_sampled_family_violation_does_not_depend_on_threads(monkeypatch, fork_workers):
    g, params = _clique_params(8, 2, 1)
    m, sample, seed = g.var_count, 10, 9
    drawn = sorted(random.Random(seed).sample(range(yn_pair_count(m, 1)), sample))
    pair = list(yn_pairs(m, 1))[drawn[6]]
    monkeypatch.setattr(hierarchy, "_check_matrix", partial(_fail_at, pair))
    verdicts = [
        verify_xyn_family(DistParams(g, params.p), 1, 2, sample=sample, seed=seed, threads=k)
        for k in (1, 2, 3)
    ]
    assert verdicts[0].violated == hierarchy.Violation("xyn:psd", *pair, Rat(-1), ZERO)
    assert verdicts[0].constraints_checked == 7
    assert verdicts[1] == verdicts[0] and verdicts[2] == verdicts[0]


def test_pool_starts_no_more_workers_than_chunks(monkeypatch, fork_workers):
    started = []
    pool = hierarchy.ProcessPoolExecutor

    def recording(max_workers, initializer, initargs):
        started.append(max_workers)
        return pool(max_workers=max_workers, initializer=initializer, initargs=initargs)

    monkeypatch.setattr(hierarchy, "ProcessPoolExecutor", recording)
    monkeypatch.setattr(hierarchy, "_usable_cpus", lambda: 8)  # chunks, not CPUs, bound it here
    g = make_clique(4)
    verdict = verify_sa(DistParams(g, ONE), 1, 0, threads=3)
    assert verdict.constraints_checked == g.m + 1 + 2 * g.var_count
    assert started == []  # a level-0 scan has one pair, so one chunk: no pool
    # 21 pairs at r = 1: 11 chunks at --threads 3 (10 of 2, one of 1), 7 of 3 at --threads 2
    for threads in (3, 2):
        chunks = len(hierarchy._chunk_ranges(yn_pair_count(g.var_count, 1), threads * 4))
        assert verify_sa(DistParams(g, ONE), 1, 1, threads=threads).feasible
        assert started.pop() == min(threads, chunks - 1)
    # a sample of 3 matrices: 3 chunks of 1 at --threads 3, so 2 workers
    assert verify_xyn_family(DistParams(g, ONE), 1, 2, sample=3, threads=3).feasible
    assert started == [2]


def _pool_start(monkeypatch, threads, cpus, cost):
    """(chunks this process scanned, worker counts of the pools started) of a
    K6 r=1 `threads` scan on `cpus` usable CPUs, each chunk taking `cost` CPU
    seconds, at the default budget of 0.1 s and start-up cost of 0.03 s.
    The verdict is the serial one."""
    monkeypatch.setattr(hierarchy, "POOL_AFTER_S", 0.1)
    monkeypatch.setattr(hierarchy, "POOL_START_S", 0.03)
    monkeypatch.setattr(hierarchy, "_usable_cpus", lambda: cpus)
    clock, scanned, started = [0.0], [], []
    scan_chunk, pool = hierarchy._scan_chunk, hierarchy.ProcessPoolExecutor

    def timed(params, rows, max_size, xyn, indices):
        scanned.append(indices)
        clock[0] += cost
        return scan_chunk(params, rows, max_size, xyn, indices)

    def recording(max_workers, initializer, initargs):
        started.append(max_workers)
        return pool(max_workers=max_workers, initializer=initializer, initargs=initargs)

    monkeypatch.setattr(hierarchy, "_scan_chunk", timed)
    monkeypatch.setattr(hierarchy, "process_time", lambda: clock[0])
    monkeypatch.setattr(hierarchy, "ProcessPoolExecutor", recording)
    g, params = _clique_params(6, 1, 1)
    serial = verify_sa(DistParams(g, params.p), 1, 1)
    scanned.clear()
    assert verify_sa(DistParams(g, params.p), 1, 1, threads=threads) == serial
    return len(scanned), started  # the workers' chunks are scanned in their own memory


@pytest.mark.parametrize("threads,cost,parent_chunks,workers", [
    (2, 0.01, 8, None),  # 0.08 s in all: never past the budget
    (2, 0.0175, 8, None),  # past it after 6, when two workers would save 0.0175 s
    (2, 0.03, 4, 2),  # past it after 4, when two workers would save 0.06 s
    (2, 0.2, 1, 2),  # past it after the first chunk
    (4, 0.019, 6, 4),  # 15 chunks: past it after 6, when four workers would save 0.128 s
])
def test_the_pool_starts_once_the_budget_is_spent_if_it_saves_its_cost(
        monkeypatch, fork_workers, threads, cost, parent_chunks, workers):
    """A CPU per thread.  Once past the budget, w workers would save
    cost * (chunks left) * (1 - 1/w), and one worker nothing."""
    assert _pool_start(monkeypatch, threads, threads, cost) == (
        parent_chunks, [] if workers is None else [workers])


@pytest.mark.parametrize("cpus,cost,parent_chunks,workers", [
    (2, 0.019, 6, 2),  # as at 4 CPUs, past the budget after 6; two workers save 0.0855 s
    (1, 0.2, 15, None),  # past it after the first chunk, but one worker saves nothing
])
def test_the_pool_starts_no_more_workers_than_usable_cpus(
        monkeypatch, fork_workers, cpus, cost, parent_chunks, workers):
    """--threads 4 on fewer CPUs: w = min(threads, chunks left, usable CPUs)."""
    assert _pool_start(monkeypatch, 4, cpus, cost) == (
        parent_chunks, [] if workers is None else [workers])


def _plant(pair, scan_pair, params, rows, y, n):
    """`_scan_pair`, with a violation of row 2 planted at `pair`."""
    if (y, n) == pair:
        return hierarchy.Violation("planted", y, n, Rat(-1), ZERO), 2
    return scan_pair(params, rows, y, n)


def _where(total, threads, chunk):
    """A flat index inside chunk `chunk` of a `threads` scan over `total` items."""
    lo, hi = hierarchy._chunk_ranges(total, threads * 4)[chunk]
    return (lo + hi) // 2


@pytest.mark.parametrize("chunk", [0, 1, -1], ids=["chunk0", "chunk1", "last"])
@pytest.mark.parametrize("threads", [2, 3, 4])
def test_sa_violation_in_any_chunk_matches_serial(monkeypatch, fork_workers, threads, chunk):
    g, params = _clique_params(6, 1, 1)
    total = yn_pair_count(g.var_count, 1)
    pair = list(yn_pairs(g.var_count, 1))[_where(total, threads, chunk)]
    monkeypatch.setattr(hierarchy, "_scan_pair", partial(_plant, pair, hierarchy._scan_pair))
    serial = verify_sa(DistParams(g, params.p), 1, 1)
    assert (serial.violated.y, serial.violated.n) == pair
    assert verify_sa(DistParams(g, params.p), 1, 1, threads=threads) == serial


@pytest.mark.parametrize("chunk", [0, 1, -1], ids=["chunk0", "chunk1", "last"])
@pytest.mark.parametrize("threads", [2, 3, 4])
def test_sampled_xyn_violation_in_any_chunk_matches_serial(monkeypatch, fork_workers,
                                                           threads, chunk):
    g, params = _clique_params(8, 2, 1)
    m, sample, seed = g.var_count, 40, 3
    drawn = sorted(random.Random(seed).sample(range(yn_pair_count(m, 1)), sample))
    where = _where(sample, threads, chunk)
    pair = list(yn_pairs(m, 1))[drawn[where]]
    monkeypatch.setattr(hierarchy, "_check_matrix", partial(_fail_at, pair))
    serial = verify_xyn_family(DistParams(g, params.p), 1, 2, sample=sample, seed=seed)
    assert serial.violated == hierarchy.Violation("xyn:psd", *pair, Rat(-1), ZERO)
    assert serial.constraints_checked == where + 1
    threaded = verify_xyn_family(DistParams(g, params.p), 1, 2, sample=sample, seed=seed,
                                 threads=threads)
    assert threaded == serial


def _logged_weights(log, weights_at, params, ys, ns):
    with open(log, "a") as fh:
        fh.write(f"{os.getpid()} {ys} {ns}\n")
    return weights_at(params, ys, ns)


def test_no_process_computes_an_orbit_key_twice(monkeypatch, fork_workers, tmp_path):
    # K6 at r = 2: 883 pairs in 8 chunks at --threads 2; this process's chunk 0
    # meets 16 of the 22 keys, the 2 workers run the last 7 chunks and meet
    # keys they or the parent met before
    log = tmp_path / "weights.log"
    log.write_text("")
    logged = partial(_logged_weights, str(log), moments._weights_at)
    monkeypatch.setattr(hierarchy, "_weights_at", logged)
    monkeypatch.setattr(moments, "_weights_at", logged)
    g, params = _clique_params(6, 2, 1)
    assert verify_sa(DistParams(g, params.p), 1, 2, threads=2).feasible
    lines = log.read_text().splitlines()
    assert len(lines) == len(set(lines))
    by_pid = {}
    for line in lines:
        pid, key = line.split(" ", 1)
        by_pid.setdefault(int(pid), set()).add(key)
    parent = by_pid.pop(os.getpid())
    assert len(parent) == 16 and len(set().union(*by_pid.values())) == 22 - 16
    assert all(keys.isdisjoint(parent) for keys in by_pid.values())


def test_conditioned_family_sampling_is_seed_deterministic():
    g, params = _clique_params(8, 2, 1)
    a = verify_xyn_family(params, 1, 2, sample=5, seed=9)
    b = verify_xyn_family(DistParams(g, params.p), 1, 2, sample=5, seed=9)
    assert a.constraints_checked == b.constraints_checked == 5
    assert a.feasible and b.feasible


def test_integral_all_ones_point_passes_every_verifier():
    g = make_clique(6)
    for t in (1, 5):
        params = DistParams(g, ONE)
        assert verify_sa(params, t, 2).feasible
        assert verify_sap(DistParams(g, ONE), t, 2).feasible
        assert verify_xyn_family(DistParams(g, ONE), t, 2).feasible


def _weights_at_the_empty_pair(weights, default, _params, ys, _ns):
    return weights.get(ys, default)


# The box cases plant a weight on one code, so they run on the weighted path,
# where each code is its own stabiliser class: on K4 the scan reads one code
# of each class and copies its weight to the others.
@pytest.mark.parametrize("g,weights,default,name,lhs,rhs,checked", [
    # w(v1) + w(v2) - w(e1_2) = 1 + 1 - 5 fails the first row
    (make_clique(4), {(): 1, (4,): 5}, 1, "edge:e1_2", Rat(-3), ZERO, 1),
    # every edge weight 0 holds the edge rows and fails the demand row, 0 >= 1 * w()
    (make_clique(4), {(): 1}, 0, "demand", ZERO, ONE, 6 + 1),
    # w(e2_3) >= 0, the 6th lower box row, fails after 3 edge rows and the demand row
    # (1 - 1 + 1 >= 1)
    (WEIGHTED_PATH, {(): 1, (5,): -1}, 1, "box0:e2_3", -ONE, ZERO, 3 + 1 + 6),
    # -w(v3) >= -w(), the 3rd upper box row, fails after 3 edge rows, the demand row
    # and 7 lower box rows
    (WEIGHTED_PATH, {(): 2, (2,): 3}, 2, "box1:v3", Rat(-3), Rat(-2), 3 + 1 + 7 + 3),
], ids=["edge", "demand", "box0", "box1"])
def test_a_violation_reports_the_rows_own_name_and_sides(
        monkeypatch, g, weights, default, name, lhs, rhs, checked):
    params = DistParams(g, Rat(1, 3))
    assert g.var_name(4) == "e1_2"
    monkeypatch.setattr(moments, "_weight_overlap_ok",
                        partial(_weights_at_the_empty_pair, weights, default))
    verdict = verify_sa(params, 1, 1)
    assert verdict.violated == hierarchy.Violation(
        name, (), (), lhs / params.den, rhs / params.den)
    assert verdict.constraints_checked == checked
    assert verdict.integrality_gap_lower_bound is None


def _sa1_rows_hold(params, t) -> bool:
    """Every row of the explicit level-1 lifted LP at y_S = moment(S) / den."""
    g = params.graph
    sets = [()] + [(q,) for q in range(g.var_count)] + list(combinations(range(g.var_count), 2))
    y = [moment(params, s) for s in sets]  # y_S times den
    lp = generate_sa1_lp(g, t)
    assert len(lp.names) == len(sets)
    return all(sum((c * y[j] for j, c in coeffs), ZERO) >= rhs * params.den
               for coeffs, rhs in lp.rows)


@pytest.mark.parametrize("p", [None, Rat(1, 100)], ids=["canonical", "p1_100"])
@pytest.mark.parametrize("g", [make_clique(6), make_clique(7), make_star(4)],
                         ids=["K6", "K7", "star4"])
def test_level_one_scan_and_the_explicit_lifted_lp_agree(g, p):
    # both lift build_pvc_lp, so the scan is feasible exactly when every lifted row holds
    t, r = 1, 1
    params = DistParams(g, Rat(t, comb(g.n - 2 * r, 2)) if p is None else p)
    assert verify_sa(params, t, r).feasible == _sa1_rows_hold(params, t)


def test_rejects_bad_arguments():
    g = make_clique(5)
    params = DistParams(g, Rat(1, 3))
    with pytest.raises(ValueError):
        verify_sa(params, 1, -1)
    with pytest.raises(ValueError):
        verify_sa(params, 99, 1)


# -- explicit level-1 lifted LP ----------------------------------------------


def _dense_sa1_lp(graph, t) -> tuple:
    """(names, rows, objective) of the level-1 lifted LP with
    every row an n_vars-long coefficient tuple: the lifting loop of the
    dense row format `generate_sa1_lp` used before its rows were sparse."""
    m = graph.var_count
    n_vars = 1 + m + comb(m, 2)
    sets = [()] + [(q,) for q in range(m)] + list(combinations(range(m), 2))
    index = {s: k for k, s in enumerate(sets)}

    def var(*codes) -> int:
        return index[tuple(sorted(set(codes)))]

    rows = []
    seen = set()

    def add(coeffs: list, rhs: int) -> None:
        key = (tuple(coeffs), rhs)
        if key in seen or not any(coeffs):
            return
        seen.add(key)
        rows.append(key)

    for nz, rhs in pvc_rows(graph, t):
        for q in range(m):
            lifted = [0] * n_vars
            for j, c in nz:
                lifted[var(j, q)] += c
            lifted[var(q)] -= rhs
            add(lifted, 0)
            lifted = [0] * n_vars
            for j, c in nz:
                lifted[var(j)] += c
                lifted[var(j, q)] -= c
            lifted[0] -= rhs
            lifted[var(q)] += rhs
            add(lifted, 0)
    for sign in (1, -1):
        norm = [0] * n_vars
        norm[0] = sign
        rows.append((tuple(norm), sign))

    names = tuple(f"y({','.join(map(graph.var_name, s))})" for s in sets)
    objective = (ZERO, *graph.weights) + (ZERO,) * (m - graph.n + comb(m, 2))
    return names, tuple(rows), objective


DENSE_CASES = {
    **{f"star{n}-t{n // 2}": (make_star(n), n // 2) for n in range(4, 9)},
    **{f"K{n}-t2": (make_clique(n), 2) for n in range(4, 8)},
    "P6-t3": (PATH6, 3),
    "weighted-P4-t2": (WEIGHTED_PATH, 2),
}


@pytest.mark.parametrize("g, t", DENSE_CASES.values(), ids=DENSE_CASES)
def test_sparse_lifted_lp_is_the_dense_oracle(g, t):
    lp = generate_sa1_lp(g, t)
    dense = []
    for coeffs, rhs in lp.rows:
        row = [0] * lp.n_vars
        for j, c in coeffs:
            row[j] = c
        dense.append((tuple(row), rhs))
    assert (lp.names, tuple(dense), lp.objective) == _dense_sa1_lp(g, t)
    assert all(list(coeffs) == sorted(coeffs) for coeffs, _rhs in lp.rows)
    assert build_pvc_lp(g, t).rows == pvc_rows(g, t)


def test_lifted_lp_closes_the_star_gap():
    star = make_star(6)
    base = lp_solve(build_pvc_lp(star, 3))
    assert base.value == Rat(1, 2)
    lifted = lp_solve(generate_sa1_lp(star, 3))
    assert lifted.value == ONE


def test_lifted_lp_with_zero_demand():
    res = lp_solve(generate_sa1_lp(make_star(4), 0))
    assert res.value == ZERO


def test_lifted_lp_never_below_base_lp():
    rng = random.Random(3)
    for _ in range(6):
        n = rng.randint(2, 4)
        g = make_clique(n)
        t = rng.randint(0, g.m)
        base = lp_solve(build_pvc_lp(g, t))
        lifted = lp_solve(generate_sa1_lp(g, t))
        assert lifted.value >= base.value


def test_lifted_lp_variable_order():
    lp = generate_sa1_lp(make_star(2), 1)
    assert lp.names == (
        "y()", "y(v1)", "y(v2)", "y(v3)", "y(e1_3)", "y(e2_3)",
        "y(v1,v2)", "y(v1,v3)", "y(v1,e1_3)", "y(v1,e2_3)",
        "y(v2,v3)", "y(v2,e1_3)", "y(v2,e2_3)",
        "y(v3,e1_3)", "y(v3,e2_3)", "y(e1_3,e2_3)",
    )
    assert lp.objective == (ZERO,) + (ONE,) * 3 + (ZERO,) * 12


def test_lifted_lp_variable_cap():
    with pytest.raises(ValueError):
        generate_sa1_lp(make_clique(15), 1)  # 7,261 lifted variables, cap 5,000
