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
(bit i of the mask selects the i-th union element into Y).  `yn_pairs` is
the one producer of that order: the serial scan, each `--threads` chunk
and the seeded `xyn` sample name pairs by their flat index in it, and a
scan reads them from one walk of the generator, which skips the unions
that hold none of them.  Violation witnesses are
minimal in that order, and `constraints_checked` counts the rows up to
and including the witness, independent of worker count.  The fingerprint
of this order, `certificates.ENUM_ORDER_FINGERPRINT`, is stamped into
every certificate.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from itertools import combinations, islice
from math import comb

from .graphs import Graph, build_pvc_lp, integral_opt
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


def yn_pairs(m: int, max_size: int, indices=None):
    """Disjoint (Y, N) with |Y u N| <= max_size in canonical order; only the
    pairs at the sorted flat `indices`, if given.  Unions holding none of
    them are skipped inside `combinations`, so a sparse walk stays cheap."""
    wanted = iter(range(yn_pair_count(m, max_size)) if indices is None else indices)
    flat = next(wanted, None)
    first = 0  # flat index of the first pair with |Y u N| = k
    for k in range(max_size + 1):
        size = comb(m, k) << k
        unions, at = combinations(range(m), k), 0  # at: unions of size k taken so far
        while flat is not None and flat < first + size:
            u, ymask = divmod(flat - first, 1 << k)
            if u >= at:
                union, at = next(islice(unions, u - at, None)), u + 1
            yield (tuple(union[i] for i in range(k) if ymask >> i & 1),
                   tuple(union[i] for i in range(k) if not ymask >> i & 1))
            flat = next(wanted, None)
        first += size


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


def _check_matrix(params: DistParams, y: tuple, n: tuple, name: str):
    """Violation `name` unless the conditioned moment matrix at (Y, N) is PSD."""
    verdict = psd_check(build_cond_matrix(params, y, n))
    return None if verdict.is_psd else Violation(name, y, n, verdict.value, ZERO)


def _validate(params: DistParams, t: int, r: int) -> None:
    if r < 0:
        raise ValueError("level r must be nonnegative")
    if not 0 <= t <= params.graph.m:
        raise ValueError("need 0 <= t <= |E|")


# -- the first-failure scan driver ------------------------------------------


def _scan_chunk(job):
    """(first violation or None, items checked up to it) over flat pair indices.

    The indices are sorted; one walk of `yn_pairs` yields the pair at each.
    An item is one lifted multiplier pair (its rows count) or, for the
    `xyn` family, one conditioned moment matrix (it counts once).
    Top level so it pickles for pool workers.
    """
    params, t, max_size, xyn, indices = job
    checked = 0
    for y, n in yn_pairs(params.graph.var_count, max_size, indices):
        if xyn:
            violation, c = _check_matrix(params, y, n, "xyn:psd"), 1
        else:
            violation, c = _scan_pair(params, t, y, n)
        checked += c
        if violation is not None:
            return violation, checked
    return None, checked


def _chunk_ranges(total: int, pieces: int):
    step = max(1, (total + pieces - 1) // pieces)
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


# the most pool workers a scan may ask for: the pool forks them all at its first submit
MAX_THREADS = 64


def _first_failure(params: DistParams, t: int, max_size: int, indices, xyn: bool, threads: int):
    """Scan `indices` in order and stop at the first violation.

    With threads > 1 the indices are split into ordered chunks run by a
    process pool of at most one worker per chunk; the counts of whole
    chunks before the first failing one are added to its own count, so
    the result is the serial one for any worker count: rows (or matrices)
    up to and including the first violation in canonical order.
    """
    if threads <= 1 or not indices:
        return _scan_chunk((params, t, max_size, xyn, indices))
    # chunks carry params with an empty memo rather than pickling the caller's
    fresh = DistParams(params.graph, params.p)
    jobs = [
        (fresh, t, max_size, xyn, indices[lo:hi])
        for lo, hi in _chunk_ranges(len(indices), threads * 4)
    ]
    checked = 0
    try:
        with ProcessPoolExecutor(max_workers=min(threads, len(jobs))) as pool:
            try:
                for violation, c in pool.map(_scan_chunk, jobs):
                    checked += c
                    if violation is not None:
                        return violation, checked
            finally:  # on a violation or an interrupt, drop chunks not yet started
                pool.shutdown(cancel_futures=True)
    except BrokenProcessPool as exc:
        raise WorkerFailed(f"a worker process died during the scan: {exc}") from exc
    return None, checked


def _verdict(params: DistParams, t: int, violation, checked: int) -> SaVerdict:
    """The verdict; a feasible one also gets the gap bound opt / objective."""
    g = params.graph
    objective = ZERO
    for i in range(1, g.n + 1):
        objective += g.weights[i - 1] * moment(params, (g.vertex_code(i),))
    opt = integral_opt(g, t) if violation is None and objective > 0 else None
    gap = None if opt is None else opt / objective
    return SaVerdict(violation is None, violation, checked, objective, gap)


# -- public verifiers ---------------------------------------------------------


def _sa_scan(params: DistParams, t: int, r: int, threads: int):
    _validate(params, t, r)
    indices = range(yn_pair_count(params.graph.var_count, r))
    return _first_failure(params, t, r, indices, False, threads)


def verify_sa(params: DistParams, t: int, r: int, threads: int = 1) -> SaVerdict:
    """Exact level-r product-lifting feasibility of the moment vector."""
    return _verdict(params, t, *_sa_scan(params, t, r, threads))


def verify_sap(params: DistParams, t: int, r: int, threads: int = 1) -> SaVerdict:
    """verify_sa plus the PSD test of the unconditioned moment matrix minor."""
    violation, checked = _sa_scan(params, t, r, threads)
    if violation is None:
        violation, checked = _check_matrix(params, (), (), "sa+:moment-psd"), checked + 1
    return _verdict(params, t, violation, checked)


def verify_xyn_family(
    params: DistParams,
    t: int,
    r: int,
    sample: int | None = None,
    seed: int = 0,
    threads: int = 1,
) -> SaVerdict:
    """PSD check of every conditioned moment matrix with |Y u N| <= r-1.

    `sample` draws that many pairs without replacement using the given
    seed; pass None for the exhaustive family.  At r = 0 the family is
    empty and the verdict is trivially feasible.
    """
    _validate(params, t, r)
    indices = range(yn_pair_count(params.graph.var_count, r - 1))
    if sample is not None and sample < len(indices):
        indices = sorted(random.Random(seed).sample(indices, sample))
    return _verdict(params, t, *_first_failure(params, t, r - 1, indices, True, threads))


# -- explicit level-1 lifted LP ----------------------------------------------

SA1_VARIABLE_CAP = 5000


def generate_sa1_lp(graph: Graph, t: int) -> LinearProgram:
    """Materialize the level-1 lifted LP over set variables of size <= 2.

    Each cover-LP row is multiplied by x_q and by (1 - x_q) for every
    q in V u E and linearized with idempotent unions (y_{A u {q}}).
    Exact duplicate rows are kept once; the normalization rows pinning
    the empty-set variable to 1 come last.  Objective: sum of vertex
    weights times the singleton vertex variables, minimized.
    """
    m = graph.var_count
    n_vars = 1 + m + comb(m, 2)
    if n_vars > SA1_VARIABLE_CAP:
        raise ValueError(f"lifted LP needs {n_vars} variables, cap is {SA1_VARIABLE_CAP}")
    sets = [()] + [(q,) for q in range(m)] + list(combinations(range(m), 2))
    index = {s: k for k, s in enumerate(sets)}

    def var(*codes) -> int:
        return index[tuple(sorted(set(codes)))]

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
                lifted[var(j, q)] += c
            lifted[var(q)] -= rhs
            add(lifted, ZERO)
            lifted = [ZERO] * n_vars
            for j, c in nz:
                lifted[var(j)] += c
                lifted[var(j, q)] -= c
            lifted[0] -= rhs
            lifted[var(q)] += rhs
            add(lifted, ZERO)

    norm = [ZERO] * n_vars
    norm[0] = ONE
    rows.append((tuple(norm), ONE))
    norm = [ZERO] * n_vars
    norm[0] = -ONE
    rows.append((tuple(norm), -ONE))

    names = tuple(f"y({','.join(map(graph.var_name, s))})" for s in sets)
    objective = [ZERO] * n_vars
    for i in range(1, graph.n + 1):
        objective[var(graph.vertex_code(i))] = graph.weights[i - 1]
    return LinearProgram(names=names, rows=tuple(rows), objective=tuple(objective))
