import random
from math import comb

import pytest

from pvcgap import hierarchy
from pvcgap.graphs import make_clique, make_star, build_pvc_lp, brute_force_opt
from pvcgap.hierarchy import (
    generate_sa1_lp,
    verify_sa,
    verify_sap,
    verify_xyn_family,
    yn_pair_at,
    yn_pair_count,
    yn_pairs,
)
from pvcgap.linalg import PsdVerdict
from pvcgap.moments import DistParams, cond_weight
from pvcgap.rational import ONE, ZERO, Rat
from pvcgap.simplex import lp_solve


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
    for k in range(len(pairs)):
        assert yn_pair_at(m, r, k) == pairs[k]
    with pytest.raises(IndexError):
        yn_pair_at(m, r, len(pairs))


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


def test_violation_witness_reproduces_at_higher_level():
    g = make_clique(6)
    params = DistParams(g, ZERO)
    verdict = verify_sa(params, 2, 1)
    assert not verdict.feasible
    v = verdict.violated
    # re-evaluate the reported demand row by hand; it must fail identically,
    # and the same pair is scanned by every higher level
    lhs = ZERO
    for i, j in g.edges:
        lhs += cond_weight(params, v.y + (g.edge_code(i, j),), v.n)
    assert lhs == v.lhs < v.rhs == 2 * cond_weight(params, v.y, v.n)
    higher = verify_sa(params, 2, 2)
    assert not higher.feasible and higher.violated == v


@pytest.mark.parametrize("threads", [2, 3])
@pytest.mark.parametrize("p", [Rat(1, 15), ZERO, Rat(1, 100)], ids=["feasible", "p0", "p1_100"])
@pytest.mark.parametrize("verify", [verify_sa, verify_sap], ids=["sa", "sap"])
def test_threaded_run_matches_single_thread(verify, p, threads):
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
    monkeypatch.setattr(hierarchy, "psd_check", lambda _m: PsdVerdict(False, value=Rat(-1)))
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


def test_rejects_bad_arguments():
    g = make_clique(5)
    params = DistParams(g, Rat(1, 3))
    with pytest.raises(ValueError):
        verify_sa(params, 1, -1)
    with pytest.raises(ValueError):
        verify_sa(params, 99, 1)


# -- explicit level-1 lifted LP ----------------------------------------------


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
