import pytest

from pvcgap.certificates import negative_verdict
from pvcgap.graphs import make_star
from pvcgap.linalg import SymMatrix, psd_check
from pvcgap.rational import ONE, Rat
from pvcgap.sdp import GramSolution, build_star_sdp_solution, verify_hs_sdp

from conftest import with_entries


def gram_from_cover(g, t, cover) -> GramSolution:
    """Integral one-dimensional solution: v_i = v_0 inside the cover,
    -v_0 outside."""
    sign = [ONE] + [ONE if i in cover else -ONE for i in range(1, g.n + 1)]
    return GramSolution(graph=g, t=t,
                        gram=SymMatrix.from_function(g.n + 1, lambda i, j: sign[i] * sign[j]))


def test_star_inner_products():
    sol = build_star_sdp_solution(4, 2)
    center = 5
    assert sol.gram.get(0, center) == Rat(0)  # -1 + 2t/n at n=4, t=2
    assert all(sol.gram.get(a, a) == ONE for a in range(sol.graph.n + 1))
    sol = build_star_sdp_solution(10, 1)
    assert sol.gram.get(1, 11) == Rat(4, 5)
    assert sol.gram.get(0, 3) == -ONE
    assert sol.gram.get(2, 7) == ONE


def test_star_solution_requires_small_demand():
    with pytest.raises(ValueError):
        build_star_sdp_solution(4, 3)
    with pytest.raises(ValueError):
        build_star_sdp_solution(4, 0)
    build_star_sdp_solution(4, 2)  # t = n/2 is allowed


@pytest.mark.parametrize("n,t", [(4, 2), (10, 2), (10, 5), (20, 5)])
def test_star_point_is_feasible_with_gap(n, t):
    cert = verify_hs_sdp(build_star_sdp_solution(n, t))
    assert cert.verdict == "feasible"
    assert cert.values["objective"]["exact"] == f"{Rat(t, n).numerator}/{Rat(t, n).denominator}"
    assert cert.values["demand_row"]["exact"] == f"{4 * t}/1"
    assert cert.values["integral_opt"]["exact"] == "1/1"
    gap = Rat(n, t)
    assert cert.values["integrality_gap"]["exact"] == f"{gap.numerator}/{gap.denominator}"


def test_star_gram_is_psd_for_all_feasible_demands():
    for n in range(2, 21):
        for t in range(1, n // 2 + 1):
            sol = build_star_sdp_solution(n, t)
            assert psd_check(sol.gram).is_psd


def test_star_edge_slack_value():
    n, t = 12, 3
    sol = build_star_sdp_solution(n, t)
    for i in range(1, n + 1):
        s = sol.gram.get(0, i) + sol.gram.get(0, n + 1) - sol.gram.get(i, n + 1)
        assert ONE - s == 4 - Rat(4 * t, n)
        lo = sol.gram.get(0, i) + sol.gram.get(0, n + 1) + sol.gram.get(i, n + 1)
        assert lo == -ONE


def test_integral_cover_solution():
    g = make_star(5)
    sol = gram_from_cover(g, 3, {6})  # the center covers everything
    cert = verify_hs_sdp(sol)
    assert cert.verdict == "feasible"
    assert cert.values["objective"]["exact"] == "1/1"


def test_violations_are_reported_with_exact_slack():
    sol = build_star_sdp_solution(6, 2)
    bad = GramSolution(sol.graph, 6, sol.gram)  # demand too high for the point
    cert = verify_hs_sdp(bad)
    assert cert.verdict == "violated:demand"
    assert negative_verdict(cert)
    assert cert.witness["lhs"]["exact"] == "8/1"  # 4t/n * n = 8 < 24
    # corrupt a diagonal entry: caught by the unit-norm check
    g2 = with_entries(sol.gram, {(1, 1): Rat(2)})
    cert2 = verify_hs_sdp(GramSolution(sol.graph, 2, g2))
    assert cert2.verdict == "violated:unit-norm"


def test_non_psd_gram_is_caught():
    sol = build_star_sdp_solution(4, 1)
    # v1 opposite v2 but equal v3 while v2 = v3: impossible
    gram = with_entries(sol.gram, {(1, 2): Rat(-1), (1, 3): Rat(1)})
    cert = verify_hs_sdp(GramSolution(sol.graph, 1, gram))
    assert cert.verdict == "violated:gram-psd"
    assert negative_verdict(cert)


def test_gram_dimension_validation():
    sol = build_star_sdp_solution(4, 1)
    with pytest.raises(ValueError, match=r"Gram dimension must be 1 \+ vertex count"):
        GramSolution(make_star(6), 1, sol.gram)
