"""Acceptance suite: one test per advertised guarantee, exact tolerances.

Run `pytest -s -v tests/test_acceptance.py` to see one PASS/FAIL line per
criterion.  Every comparison is exact rational equality unless a check is
explicitly about a stated numeric window.
"""

import os
import random
import time
from itertools import combinations
from math import comb

import pytest

from pvcgap.graphs import brute_force_opt, build_pvc_lp, make_clique, make_star
from pvcgap.hierarchy import (
    generate_sa1_lp,
    verify_sa,
    verify_sap,
    verify_xyn_family,
)
from pvcgap.lasserre import (
    allones_eigenvalue_after_schur,
    build_zbar,
    lasserre1_refutes,
    level1_slack_matrix,
)
from pvcgap.linalg import psd_check
from pvcgap.moments import DistParams, build_cond_matrix, cond_weight, moment
from pvcgap.rational import ONE, ZERO, Rat
from pvcgap.sdp import build_star_sdp_solution, verify_hs_sdp
from pvcgap.simplex import lp_solve

from conftest import sym_equal, zbar_by_enumeration

THREADS = min(8, os.cpu_count() or 1)


def _report(name: str, ok: bool, detail: str = ""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


def test_01_star_lp_certifies_gap_n_over_t():
    details = []
    ok = True
    for n, t in [(4, 2), (10, 1), (10, 2), (12, 3)]:
        start = time.monotonic()
        g = make_star(n)
        res = lp_solve(build_pvc_lp(g, t))
        opt = brute_force_opt(g, t)
        elapsed = time.monotonic() - start
        good = res.value == Rat(t, n) and opt == ONE and elapsed < 1.0
        ok = ok and good
        details.append(f"(n={n},t={t}: lp={res.value}, opt={opt}, {elapsed:.2f}s)")
    _report("01 star-lp-gap", ok, " ".join(details))


def test_02_clique_lp_value_sweep():
    start = time.monotonic()
    ok = True
    for n in range(4, 11):
        g = make_clique(n)
        for t in range(1, n):
            res = lp_solve(build_pvc_lp(g, t))
            if res.value != Rat(t, n - 1):
                ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    _report("02 clique-lp-values", ok, f"42 programs in {elapsed:.2f}s")


def test_03_level1_lift_solves_the_star():
    start = time.monotonic()
    res = lp_solve(generate_sa1_lp(make_star(6), 3))
    elapsed = time.monotonic() - start
    ok = res.value == ONE and elapsed < 30.0
    _report("03 star-lifted-lp", ok, f"value={res.value} in {elapsed:.1f}s")


def test_04_sdp_star_point_feasible_demand_tight():
    ok = True
    details = []
    for n, t in [(10, 2), (20, 5)]:
        cert = verify_hs_sdp(build_star_sdp_solution(n, t))
        tn = Rat(t, n)
        good = (
            cert.verdict == "feasible"
            and cert.values["objective"]["exact"] == f"{tn.numerator}/{tn.denominator}"
            and cert.values["demand_row"]["exact"] == f"{4 * t}/1"
        )
        ok = ok and good
        details.append(f"(n={n},t={t}: {cert.verdict}, obj={cert.values['objective']['exact']})")
    _report("04 sdp-star-point", ok, " ".join(details))


GRID = [(8, 1, 1), (10, 1, 1), (12, 2, 1), (14, 2, 2)]


def _grid_params(n, r, t):
    g = make_clique(n)
    return g, DistParams(g, Rat(t, comb(n - 2 * r, 2)))


def test_05_lifted_membership_on_the_grid():
    ok = True
    details = []
    for n, r, t in GRID:
        g, params = _grid_params(n, r, t)
        threads = THREADS if n >= 12 else 1
        start = time.monotonic()
        verdict = verify_sa(params, t, r, threads=threads)
        elapsed = time.monotonic() - start
        bound = Rat(comb(n - 2 * r, 2), t * n)
        good = (
            verdict.feasible
            and verdict.integrality_gap_lower_bound == bound
            and brute_force_opt(g, t) == ONE
            and elapsed < 600.0
        )
        ok = ok and good
        details.append(f"({n},{r},{t}: gap={verdict.integrality_gap_lower_bound}, {elapsed:.0f}s)")
    _report("05 lifted-lp-membership", ok, " ".join(details))


def test_06_lifted_membership_with_psd_minor():
    ok = True
    details = []
    for n, r, t in GRID:
        g, params = _grid_params(n, r, t)
        threads = THREADS if n >= 12 else 1
        verdict = verify_sap(params, t, r, threads=threads)
        ok = ok and verdict.feasible
        details.append(f"({n},{r},{t}: {'ok' if verdict.feasible else verdict.violated})")
    _report("06 lifted-psd-membership", ok, " ".join(details))


def test_07_conditioned_matrix_family():
    g, params = _grid_params(10, 2, 1)
    start = time.monotonic()
    exhaustive = verify_xyn_family(params, 1, 2, threads=THREADS)
    t_ex = time.monotonic() - start
    g14, params14 = _grid_params(14, 3, 2)
    start = time.monotonic()
    sampled = verify_xyn_family(params14, 2, 3, sample=200, seed=0, threads=THREADS)
    t_s = time.monotonic() - start
    ok = (
        exhaustive.feasible
        and exhaustive.constraints_checked == 111
        and sampled.feasible
        and sampled.constraints_checked == 200
    )
    _report(
        "07 conditioned-family-psd",
        ok,
        f"exhaustive 111 in {t_ex:.0f}s; 200 sampled in {t_s:.0f}s",
    )


def test_08_product_weight_identities():
    rng = random.Random(1789)
    g = make_clique(8)
    params = DistParams(g, Rat(2, 9))
    codes = list(range(g.var_count))
    ok = True
    for _ in range(500):
        k = rng.randint(0, 4)
        union = rng.sample(codes, k)
        ymask = rng.randrange(1 << k)
        y = tuple(union[i] for i in range(k) if ymask >> i & 1)
        n = tuple(union[i] for i in range(k) if not ymask >> i & 1)
        total = ZERO
        for size in range(len(n) + 1):
            for sub in combinations(n, size):
                term = Rat(moment(params, y + sub), params.den)
                total = total + term if size % 2 == 0 else total - term
        if cond_weight(params, y, n) != total:
            ok = False
            break
    partitions_ok = True
    for _ in range(100):
        s = rng.sample(codes, rng.randint(0, 3))
        k = len(s)
        acc = ZERO
        for ymask in range(1 << k):
            y = tuple(s[i] for i in range(k) if ymask >> i & 1)
            n = tuple(s[i] for i in range(k) if not ymask >> i & 1)
            acc += cond_weight(params, y, n)
        if acc != ONE:
            partitions_ok = False
            break
    _report(
        "08 weight-identities",
        ok and partitions_ok,
        "500 inclusion-exclusion + 100 partition checks, all exact",
    )


def test_09_conditioned_matrices_random_sample_psd():
    rng = random.Random(451)
    g = make_clique(10)
    params = DistParams(g, Rat(1, 28))
    codes = list(range(g.var_count))
    ok = True
    for _ in range(50):
        k = rng.randint(0, 1)
        union = rng.sample(codes, k)
        ymask = rng.randrange(1 << k)
        y = tuple(union[i] for i in range(k) if ymask >> i & 1)
        n = tuple(union[i] for i in range(k) if not ymask >> i & 1)
        if not psd_check(build_cond_matrix(params, y, n)).is_psd:
            ok = False
            break
    _report("09 conditioned-psd-sample", ok, "50 matrices, exact factorizations")


def test_10a_level1_moment_sdp_rejects_the_lifted_point():
    details = []
    ok = True
    for n, r, t in [(12, 2, 1), (14, 2, 2)]:
        cert = lasserre1_refutes(n, r, t)
        eig = cert.values["allones_eigenvalue"]["exact"]
        good = cert.verdict == "refuted" and cert.witness is not None and eig.startswith("-")
        ok = ok and good
        details.append(f"({n},{r},{t}: verdict={cert.verdict}, eigenvalue={eig})")
    _report("10a demand-slack-refutation", ok, " ".join(details))


def test_10b_demand_slack_closed_form_equals_enumeration():
    ok = True
    count = 0
    for n in range(4, 13):
        for t in range(0, 4):
            for p in (ZERO, Rat(1, 7), Rat(1, 2), ONE):
                if not sym_equal(build_zbar(n, t, p), zbar_by_enumeration(n, t, p)):
                    ok = False
                count += 1
    _report("10b demand-slack-oracle", ok, f"{count} grid points, entrywise equal")


def test_10c_scaled_eigenvalue_near_reported_coefficient():
    n = 500
    p = Rat(1, n * n)
    t = p * comb(n - 4, 2)  # demand solved from the canonical relation at r = 2
    eig = allones_eigenvalue_after_schur(build_zbar(n, t, p))
    scaled = eig * n
    target = Rat(-23, 2)
    ok = abs(scaled - target) <= abs(target) * Rat(1, 10)
    _report(
        "10c demand-slack-asymptotic",
        ok,
        f"eigenvalue*n = {scaled} ~ {float(scaled):.6f}, window [-12.65, -10.35]",
    )


def test_11_edge_and_box_slack_matrices_psd():
    g = make_clique(10)
    params = DistParams(g, Rat(1, 15))
    lp = build_pvc_lp(g, 1)
    start = time.monotonic()
    ok = True
    checked = 0
    for idx, row in enumerate(lp.rows):
        if idx == g.m:  # the demand row is the one the refutation targets
            continue
        sm = level1_slack_matrix(params, row)
        if not psd_check(sm).is_psd:
            ok = False
            break
        checked += 1
    elapsed = time.monotonic() - start
    _report("11 edge-box-slack-psd", ok, f"{checked} matrices in {elapsed:.0f}s")


def test_12_soundness_of_degenerate_distributions():
    g = make_clique(6)
    ok = True
    for t in (1, 5):
        ok = ok and verify_sa(DistParams(g, ONE), t, 2).feasible
        ok = ok and verify_sap(DistParams(g, ONE), t, 2).feasible
        ok = ok and verify_xyn_family(DistParams(g, ONE), t, 2).feasible
        ok = ok and psd_check(build_zbar(6, t, ONE)).is_psd
    rejected = verify_sa(DistParams(g, ZERO), 1, 1)
    v = rejected.violated
    ok = ok and not rejected.feasible and v.constraint == "demand" and v.y == () and v.n == ()
    _report("12 degenerate-soundness", ok, "p=1 accepted everywhere; p=0 rejected at the demand row")
