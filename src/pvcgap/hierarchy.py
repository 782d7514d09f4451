"""Membership verifiers for lift-and-project tightenings of the cover LP.

`verify_sa` checks the moment vector of the random-cover distribution
against every product-lifted constraint of the cover polytope up to a
given level r: for each disjoint pair (Y, N) with |Y u N| <= r it
evaluates the linearized weights w(Y u {q}, N) and tests, exactly,

    edge rows    w(Y+{i}, N) + w(Y+{j}, N) - w(Y+{e}, N) >= 0
    demand row   sum over edges of w(Y+{e}, N) >= t * w(Y, N)
    box rows     0 <= w(Y+{q}, N) <= w(Y, N)

`verify_sap` adds one exact PSD check of the conditioned moment matrix at
(Y, N) = (empty, empty); `verify_xyn_family` checks the whole family of
conditioned moment matrices with |Y u N| <= r-1 (exhaustively or on a
seeded sample), which is the executable form of the stronger SDP claim.

Pairs are enumerated by |Y u N| ascending, then by the lexicographic
order of the union as a sorted code tuple, then by Y-mask ascending
(bit i of the mask selects the i-th union element into Y).  Violation
witnesses are minimal in that order, and `constraints_checked` counts the
rows up to and including the witness, independent of worker count.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .graphs import Graph, brute_force_opt, build_pvc_lp
from .linalg import psd_check
from .moments import (
    DistParams,
    _weight_overlap_ok,
    build_cond_matrix,
    cond_weight,
    moment,
)
from .rational import ONE, ZERO
from .simplex import LinearProgram

ENUM_ORDER_FINGERPRINT = "size-asc/union-lex/ymask-asc;rows=edges,demand,box0,box1;v1"


class WorkerFailed(RuntimeError):
    """A process-pool worker died before returning its chunk."""


@dataclass(frozen=True)
class Violation:
    constraint: str
    y: tuple
    n: tuple
    lhs: object
    rhs: object


@dataclass(frozen=True)
class SaVerdict:
    feasible: bool
    violated: Violation | None
    constraints_checked: int
    objective_value: object
    integrality_gap_lower_bound: object  # None when no integral oracle applies


# -- (Y, N) pair enumeration -------------------------------------------------


def yn_pair_count(m: int, max_size: int) -> int:
    return sum(comb(m, k) << k for k in range(max_size + 1))


def yn_pairs(m: int, max_size: int):
    """All disjoint (Y, N) with |Y u N| <= max_size, in canonical order."""
    for k in range(max_size + 1):
        for union in combinations(range(m), k):
            for ymask in range(1 << k):
                y = tuple(union[i] for i in range(k) if ymask >> i & 1)
                n = tuple(union[i] for i in range(k) if not ymask >> i & 1)
                yield y, n


def _unrank_combination(m: int, k: int, rank: int) -> tuple:
    out = []
    x = 0
    for slot in range(k):
        while True:
            block = comb(m - x - 1, k - slot - 1)
            if rank < block:
                break
            rank -= block
            x += 1
        out.append(x)
        x += 1
    return tuple(out)


def yn_pair_at(m: int, max_size: int, index: int) -> tuple:
    """Pair at a flat enumeration index (for seeded sampling)."""
    if index < 0:
        raise IndexError(index)
    for k in range(max_size + 1):
        block = comb(m, k) << k
        if index < block:
            subset_rank, ymask = divmod(index, 1 << k)
            union = _unrank_combination(m, k, subset_rank)
            y = tuple(union[i] for i in range(k) if ymask >> i & 1)
            n = tuple(union[i] for i in range(k) if not ymask >> i & 1)
            return y, n
        index -= block
    raise IndexError(index)


# -- the per-pair constraint scan --------------------------------------------


def _scan_pair(params: DistParams, t: int, y: tuple, n: tuple):
    """(violation or None, rows checked) for one lifted multiplier pair."""
    g = params.graph
    n_rows = g.m + 1 + 2 * g.var_count
    wyn = cond_weight(params, y, n)
    if wyn == 0:
        # every weight below is squeezed into [0, 0]; nothing can fail
        return None, n_rows
    nset = set(n)
    w = []
    for q in range(g.var_count):
        if q in nset:
            w.append(ZERO)
        else:
            w.append(_weight_overlap_ok(params, tuple(sorted(set(y) | {q})), n))
    checked = 0
    for i, j in g.edges:
        lhs = w[g.vertex_code(i)] + w[g.vertex_code(j)] - w[g.edge_code(i, j)]
        checked += 1
        if lhs < 0:
            return Violation(f"edge:e{i}_{j}", y, n, lhs, ZERO), checked
    demand = ZERO
    for i, j in g.edges:
        demand += w[g.edge_code(i, j)]
    checked += 1
    if demand < t * wyn:
        return Violation("demand", y, n, demand, t * wyn), checked
    for q in range(g.var_count):
        checked += 1
        if w[q] < 0:
            return Violation(f"box0:{g.var_name(q)}", y, n, w[q], ZERO), checked
    for q in range(g.var_count):
        checked += 1
        if w[q] > wyn:
            return Violation(f"box1:{g.var_name(q)}", y, n, w[q], wyn), checked
    return None, checked


def _objective_and_gap(graph: Graph, t: int, params: DistParams):
    objective = ZERO
    for i in range(1, graph.n + 1):
        objective += graph.weights[i - 1] * moment(params, (graph.vertex_code(i),))
    gap = None
    if objective > 0 and graph.n <= 24:
        gap = brute_force_opt(graph, t) / objective
    return objective, gap


def _validate(graph: Graph, t: int, r: int, params: DistParams) -> None:
    if r < 0:
        raise ValueError("level r must be nonnegative")
    if not 0 <= t <= graph.m:
        raise ValueError("need 0 <= t <= |E|")
    if params.graph != graph:
        raise ValueError("params were built for a different graph")


# -- the first-failure scan driver ------------------------------------------


def _scan_chunk(job):
    """(first violation or None, items checked up to it) over flat pair indices.

    An item is one lifted multiplier pair (its rows count) or, for the
    `xyn` family, one conditioned moment matrix (it counts once).
    Top level so it pickles for pool workers.
    """
    params, t, max_size, xyn, indices = job
    m = params.graph.var_count
    checked = 0
    for flat in indices:
        y, n = yn_pair_at(m, max_size, flat)
        if xyn:
            verdict = psd_check(build_cond_matrix(params, y, n).matrix)
            violation = None if verdict.is_psd else Violation("xyn:psd", y, n, verdict.value, ZERO)
            c = 1
        else:
            violation, c = _scan_pair(params, t, y, n)
        checked += c
        if violation is not None:
            return violation, checked
    return None, checked


def _chunk_ranges(total: int, pieces: int):
    step = max(1, (total + pieces - 1) // pieces)
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def _first_failure(params: DistParams, t: int, max_size: int, indices, xyn: bool, threads: int):
    """Scan `indices` in order and stop at the first violation.

    With threads > 1 the indices are split into ordered chunks run by a
    process pool; the counts of whole chunks before the first failing one
    are added to its own count, so the result is the serial one for any
    worker count: rows (or matrices) up to and including the first
    violation in canonical order.
    """
    if threads <= 1:
        return _scan_chunk((params, t, max_size, xyn, indices))
    # chunks carry params with an empty memo rather than pickling the caller's
    fresh = DistParams(params.graph, params.p, params.support_cap)
    jobs = [
        (fresh, t, max_size, xyn, indices[lo:hi])
        for lo, hi in _chunk_ranges(len(indices), threads * 4)
    ]
    checked = 0
    try:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            for violation, c in pool.map(_scan_chunk, jobs):
                checked += c
                if violation is not None:
                    pool.shutdown(cancel_futures=True)  # drop chunks not yet started
                    return violation, checked
    except BrokenProcessPool as exc:
        raise WorkerFailed(f"a worker process died during the scan: {exc}") from exc
    return None, checked


def _verdict(graph: Graph, t: int, params: DistParams, violation, checked: int) -> SaVerdict:
    objective, gap = _objective_and_gap(graph, t, params)
    return SaVerdict(
        feasible=violation is None,
        violated=violation,
        constraints_checked=checked,
        objective_value=objective,
        integrality_gap_lower_bound=gap if violation is None else None,
    )


# -- public verifiers ---------------------------------------------------------


def verify_sa(graph: Graph, t: int, r: int, params: DistParams, threads: int = 1) -> SaVerdict:
    """Exact level-r product-lifting feasibility of the moment vector."""
    _validate(graph, t, r, params)
    indices = range(yn_pair_count(graph.var_count, r))
    return _verdict(graph, t, params, *_first_failure(params, t, r, indices, False, threads))


def verify_sap(graph: Graph, t: int, r: int, params: DistParams, threads: int = 1) -> SaVerdict:
    """verify_sa plus the PSD test of the unconditioned moment matrix minor."""
    sa = verify_sa(graph, t, r, params, threads=threads)
    if not sa.feasible:
        return sa
    cm = build_cond_matrix(params, (), ())
    verdict = psd_check(cm.matrix)
    checked = sa.constraints_checked + 1
    if verdict.is_psd:
        return SaVerdict(True, None, checked, sa.objective_value, sa.integrality_gap_lower_bound)
    vio = Violation("sa+:moment-psd", (), (), verdict.value, ZERO)
    return SaVerdict(False, vio, checked, sa.objective_value, None)


def verify_xyn_family(
    graph: Graph,
    t: int,
    r: int,
    params: DistParams,
    sample: int | None = None,
    seed: int = 0,
    threads: int = 1,
) -> SaVerdict:
    """PSD check of every conditioned moment matrix with |Y u N| <= r-1.

    `sample` draws that many pairs without replacement using the given
    seed; pass None for the exhaustive family.  At r = 0 the family is
    empty and the verdict is trivially feasible.
    """
    _validate(graph, t, r, params)
    indices = range(yn_pair_count(graph.var_count, r - 1))
    if sample is not None and sample < len(indices):
        indices = sorted(random.Random(seed).sample(indices, sample))
    return _verdict(graph, t, params, *_first_failure(params, t, r - 1, indices, True, threads))


# -- explicit level-1 lifted LP ----------------------------------------------

SA1_VARIABLE_CAP = 5000


def generate_sa1_lp(graph: Graph, t: int, cap: int = SA1_VARIABLE_CAP) -> LinearProgram:
    """Materialize the level-1 lifted LP over set variables of size <= 2.

    Each cover-LP row is multiplied by x_q and by (1 - x_q) for every
    q in V u E and linearized with idempotent unions (y_{A u {q}}).
    Exact duplicate rows are kept once; the normalization rows pinning
    the empty-set variable to 1 come last.  Objective: sum of vertex
    weights times the singleton vertex variables, minimized.
    """
    m = graph.var_count
    n_vars = 1 + m + m * (m - 1) // 2
    if n_vars > cap:
        raise ValueError(f"lifted LP needs {n_vars} variables, cap is {cap}")

    def single(q: int) -> int:
        return 1 + q

    def pair(a: int, b: int) -> int:
        if a > b:
            a, b = b, a
        return 1 + m + a * (2 * m - a - 1) // 2 + (b - a - 1)

    def union_idx(a: int, b: int) -> int:
        return single(a) if a == b else pair(a, b)

    base = build_pvc_lp(graph, t)
    rows = []
    seen = set()

    def add(coeffs: list, rhs) -> None:
        key = (tuple(coeffs), rhs)
        if key in seen or all(c == 0 for c in coeffs):
            return
        seen.add(key)
        rows.append(key)

    for coeffs, rhs in base.rows:
        nz = [(j, c) for j, c in enumerate(coeffs) if c != 0]
        for q in range(m):
            lifted = [ZERO] * n_vars
            for j, c in nz:
                lifted[union_idx(j, q)] += c
            lifted[single(q)] -= rhs
            add(lifted, ZERO)
            lifted = [ZERO] * n_vars
            for j, c in nz:
                lifted[single(j)] += c
                lifted[union_idx(j, q)] -= c
            lifted[0] -= rhs
            lifted[single(q)] += rhs
            add(lifted, ZERO)

    norm = [ZERO] * n_vars
    norm[0] = ONE
    rows.append((tuple(norm), ONE))
    norm = [ZERO] * n_vars
    norm[0] = -ONE
    rows.append((tuple(norm), -ONE))

    names = ["y()"]
    names += [f"y({graph.var_name(q)})" for q in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            names.append(f"y({graph.var_name(a)},{graph.var_name(b)})")
    objective = [ZERO] * n_vars
    for i in range(1, graph.n + 1):
        objective[single(graph.vertex_code(i))] = graph.weights[i - 1]
    return LinearProgram(
        names=tuple(names),
        rows=tuple(rows),
        objective=tuple(objective),
        direction="min",
    )
