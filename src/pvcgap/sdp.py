"""The unit-vector SDP relaxation of partial vertex cover, in Gram form.

The relaxation lives on unit vectors v_0, v_1, ..., v_n; a solution is
represented purely by the matrix of pairwise inner products, so when
those are rational the entire feasibility check is exact even though the
vectors themselves may have irrational coordinates.  Constraints, per
edge {i, j}:

    v0.vi + v0.vj - vi.vj <= 1
    v0.vi + v0.vj + vi.vj >= -1

plus the demand row  sum over edges of (3 + v0.vi + v0.vj - vi.vj) >= 4t
and unit diagonal; objective (1/2) sum over vertices of (1 + v0.vi).

No SDP solver lives here: the module certifies concrete feasible points
(realizable exactly when the Gram matrix is PSD) and the integrality gap
they witness.
"""

from __future__ import annotations

from collections import namedtuple

from .certificates import Certificate, rational_entry
from .graphs import Graph, integral_opt, make_star
from .linalg import SymMatrix, psd_check
from .rational import ONE, ZERO, Rat


class GramSolution(namedtuple("GramSolution", "graph t gram")):
    """Inner products of a candidate vector solution, indexed by {0} u V."""

    __slots__ = ()

    def __new__(cls, graph: Graph, t: int, gram: SymMatrix):
        if gram.n != graph.n + 1:
            raise ValueError("Gram dimension must be 1 + vertex count")
        return super().__new__(cls, graph, t, gram)


def build_star_sdp_solution(n: int, t: int) -> GramSolution:
    """The fooling point on the star with n leaves: v_0 = -v_leaf, and the
    center vector tilted so the demand row is exactly tight.

    All pairwise inner products are rational; nothing irrational is ever
    materialized.  Requires 1 <= t <= n/2.
    """
    if t < 1:
        raise ValueError("need t >= 1")
    if 2 * t > n:
        raise ValueError(f"need t <= n/2, got t={t}, n={n}")
    g = make_star(n)
    center = n + 1
    tn = Rat(2 * t, n)

    def ip(a: int, b: int):  # a <= b, and the center is the last index
        if a == b:
            return ONE
        return (-ONE if a == 0 else ONE) * (1 - tn if b == center else 1)

    return GramSolution(graph=g, t=t, gram=SymMatrix.from_function(g.n + 1, ip))


def verify_hs_sdp(sol: GramSolution) -> Certificate:
    """Exact feasibility check of a Gram point, with objective and gap.

    Reports the first violated constraint with its exact slack; on
    success the certificate carries the objective value, the brute-force
    integral optimum (when the instance is small enough) and the
    integrality gap the point witnesses.
    """
    g, t = sol.graph, sol.t
    ip = sol.gram.get  # v_a . v_b; vertex indices are 1-based and 0 is v_0
    violation = None

    for a in range(g.n + 1):
        if ip(a, a) != ONE:
            violation = ("unit-norm", f"|v_{a}|^2", ip(a, a), ONE)
            break

    if violation is None:
        real = psd_check(sol.gram)
        if not real.is_psd:
            violation = ("gram-psd", "witness quadratic form", real.value, ZERO)

    demand_lhs = ZERO
    if violation is None:
        for i, j in g.edges:
            s = ip(0, i) + ip(0, j) - ip(i, j)
            if s > ONE:
                violation = ("edge-upper", f"e{i}_{j}", s, ONE)
                break
            lo = ip(0, i) + ip(0, j) + ip(i, j)
            if lo < -ONE:
                violation = ("edge-lower", f"e{i}_{j}", lo, -ONE)
                break
            demand_lhs += 3 + s
    if violation is None and demand_lhs < 4 * t:
        violation = ("demand", "sum over edges", demand_lhs, Rat(4 * t))

    objective = ZERO
    for i in range(1, g.n + 1):
        objective += (ONE + ip(0, i)) / 2

    values = {"objective": rational_entry(objective)}
    if violation is None:
        values["demand_row"] = rational_entry(demand_lhs)
        values["demand_required"] = rational_entry(Rat(4 * t))
    opt = integral_opt(g, t)
    if opt is not None:
        values["integral_opt"] = rational_entry(opt)
        if violation is None and objective > 0:
            values["integrality_gap"] = rational_entry(opt / objective)

    witness = None
    verdict = "feasible"
    if violation is not None:
        kind, where, lhs, bound = violation
        verdict = f"violated:{kind}"
        witness = {
            "kind": kind,
            "where": where,
            "lhs": rational_entry(lhs),
            "bound": rational_entry(bound),
        }
    return Certificate(
        claim="prop-2",
        params={"n": g.n, "t": t, "edges": g.m},
        verdict=verdict,
        values=values,
        witness=witness,
    )
