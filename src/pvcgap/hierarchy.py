"""Membership verifiers for lift-and-project tightenings of the cover LP.

`verify_sa` checks the moment vector of the random-cover distribution
against every product-lifted constraint of the cover polytope up to a
given level r.  The rows are `graphs.pvc_rows`, the sparse integer form
of the LP that `graphs.build_pvc_lp` builds, in its order and under its
row names: for each disjoint pair (Y, N) with |Y u N| <= r it evaluates the
linearized weights w(Y u {q}, N) and tests, exactly, every row
sum_j c_j x_j >= rhs in its lifted form

    sum_j c_j w(Y+{j}, N) >= rhs * w(Y, N)

Relabelling equal-weight twin vertices maps the graph, the distribution
and so every weight onto itself.  The weights of a pair are computed, and
cross-checked, once per orbit of that group and relabelled for the other
pairs of the orbit: 22 orbits on K_n at r = 2, for any n.

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
from itertools import chain, combinations, groupby, islice, permutations, product
from math import comb

from .graphs import Graph, check_demand, integral_opt, least_twins, pvc_rows, twin_swaps
from .linalg import psd_check
from .moments import DistParams, _weight_overlap_ok, build_cond_matrix, moment
from .rational import ZERO, Rat
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


def _twin_group(g: Graph) -> tuple:
    """(twin class of each vertex, members of each class (none but for its
    least vertex), code table with vertex codes on its diagonal, ends of each
    code).  A vertex's least twin, from `least_twins`, is the least of its class.
    """
    cls = list(range(g.n))
    for a, b in least_twins(g):
        cls[b - 1] = a - 1
    ends = [(v, v) for v in range(g.n)] + [(i - 1, j - 1) for i, j in g.edges]
    code = [[None] * g.n for _ in range(g.n)]
    for c, (i, j) in enumerate(ends):
        code[i][j] = code[j][i] = c
    return cls, [[w for w in range(g.n) if cls[w] == v] for v in range(g.n)], code, ends


def _canonical_pair(group: tuple, y: tuple, n: tuple) -> tuple:
    """(key, perm): the least image (Y', N') of the pair when its touched
    vertices, sorted by (twin class, signature), go to the least members of
    their class in every order inside each cell of equal (class, signature),
    and that relabelling of the V u E codes.  A signature counts: in Y, in N,
    incident Y-edges, incident N-edges.
    """
    cls, members, code, ends = group
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
        if best is None or image < best:
            best, best_map = image, vmap
    # the untouched vertices of each class, in order, take its other members
    free = (v for vs in members for v in vs if v not in dst)
    perm = dict(zip((v for vs in members for v in vs if v not in label), free)) | best_map
    return best, [code[perm[i]][perm[j]] for i, j in ends]


def _pair_weights(params: DistParams, y: tuple, n: tuple) -> tuple:
    """(w(Y, N), [w(Y+{q}, N) for every code q], or None if w(Y, N) = 0), times
    `params.den`: `_weight_overlap_ok` computes them once per twin orbit, at
    its key, into `params._orbit_weights` (which keeps the twin group under
    None), and the orbit's other pairs relabel them: w(Y+{q}, N) = w_key[perm[q]].
    """
    memo = params._orbit_weights
    memo[None] = memo.get(None) or _twin_group(params.graph)
    key, perm = _canonical_pair(memo[None], y, n)
    if key not in memo:
        (ys, ns), wyn = key, _weight_overlap_ok(params, *key)
        memo[key] = wyn, [0 if q in ns else _weight_overlap_ok(params, tuple(sorted({*ys, q})), ns)
                          for q in range(params.graph.var_count)] if wyn else None
    wyn, w = memo[key]
    return (wyn, w) if w is None or key == (y, n) else (wyn, [w[q] for q in perm])


def _scan_pair(params: DistParams, rows: tuple, y: tuple, n: tuple):
    """(violation or None, rows checked) for one lifted multiplier pair.

    Row sum_j c_j x_j >= rhs is checked as sum_j c_j w(Y+{j}, N) >=
    rhs * w(Y, N).  The weights are integers over `params.den`; a
    violation's two sides are rebuilt as rationals.
    """
    wyn, w = _pair_weights(params, y, n)
    if wyn == 0:
        # every weight below is squeezed into [0, 0]; nothing can fail
        return None, len(rows)
    for k, (name, coeffs, rhs) in enumerate(rows, 1):
        lhs = 0
        for j, c in coeffs:
            lhs += c * w[j]
        if lhs < rhs * wyn:
            return Violation(name, y, n, Rat(lhs, params.den), Rat(rhs * wyn, params.den)), k
    return None, len(rows)


def _check_matrix(params: DistParams, y: tuple, n: tuple, name: str):
    """Violation `name` unless the conditioned moment matrix at (Y, N) is PSD."""
    verdict = psd_check(build_cond_matrix(params, y, n))
    return None if verdict.is_psd else Violation(name, y, n, verdict.value, ZERO)


def _validate(params: DistParams, t: int, r: int) -> None:
    if r < 0:
        raise ValueError("level r must be nonnegative")
    check_demand(params.graph, t)


# -- the first-failure scan driver ------------------------------------------


def _scan_chunk(job):
    """(first violation or None, items checked up to it) over flat pair indices.

    The indices are sorted; one walk of `yn_pairs` yields the pair at each.
    An item is one lifted multiplier pair (its rows count) or, for the
    `xyn` family, one conditioned moment matrix (it counts once).
    Top level so it pickles for pool workers.
    """
    params, rows, max_size, xyn, indices = job
    checked = 0
    for y, n in yn_pairs(params.graph.var_count, max_size, indices):
        if xyn:
            violation, c = _check_matrix(params, y, n, "xyn:psd"), 1
        else:
            violation, c = _scan_pair(params, rows, y, n)
        checked += c
        if violation is not None:
            return violation, checked
    return None, checked


def _chunk_ranges(total: int, pieces: int):
    step = max(1, (total + pieces - 1) // pieces)
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


# the most pool workers a scan may ask for: the pool forks them all at its first submit
MAX_THREADS = 64


def _first_failure(params: DistParams, rows, max_size: int, indices, xyn: bool, threads: int):
    """Scan `indices` in order and stop at the first violation.

    With threads > 1 the indices are split into ordered chunks run by a
    process pool of at most one worker per chunk; the counts of whole
    chunks before the first failing one are added to its own count, so
    the result is the serial one for any worker count: rows (or matrices)
    up to and including the first violation in canonical order.
    """
    if threads <= 1 or not indices:
        return _scan_chunk((params, rows, max_size, xyn, indices))
    # chunks carry params with an empty memo rather than pickling the caller's
    fresh = DistParams(params.graph, params.p)
    jobs = [
        (fresh, rows, max_size, xyn, indices[lo:hi])
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
    """The verdict; a feasible one also gets the gap bound opt / objective.

    The objective is the cover LP's: the vertex weights, on vertex codes.
    """
    g = params.graph
    objective = sum((w * moment(params, (q,)) for q, w in enumerate(g.weights)), ZERO) / params.den
    opt = integral_opt(g, t) if violation is None and objective > 0 else None
    gap = None if opt is None else opt / objective
    return SaVerdict(violation is None, violation, checked, objective, gap)


# -- public verifiers ---------------------------------------------------------


def _sa_scan(params: DistParams, t: int, r: int, threads: int):
    _validate(params, t, r)
    indices = range(yn_pair_count(params.graph.var_count, r))
    return _first_failure(params, pvc_rows(params.graph, t), r, indices, False, threads)


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
    return _verdict(params, t, *_first_failure(params, (), r - 1, indices, True, threads))


# -- explicit level-1 lifted LP ----------------------------------------------

SA1_VARIABLE_CAP = 5000


def generate_sa1_lp(graph: Graph, t: int) -> LinearProgram:
    """Materialize the level-1 lifted LP over set variables of size <= 2.

    Each cover-LP row is multiplied by x_q and by (1 - x_q) for every
    q in V u E and linearized with idempotent unions (y_{A u {q}}).
    Exact duplicate rows are kept once; the normalization rows pinning
    the empty-set variable to 1 come last.  Rows are in integers.  The
    objective is the cover LP's vertex weights, on the singleton
    variables.  The program carries the `graphs.twin_swaps` of the graph,
    lifted to the set variables, as its generators, so `lp_solve` solves
    it on their orbits (on the star: 10 variable orbits and 46 row orbits
    for every n >= 4).
    """
    m = graph.var_count
    n_vars = 1 + m + comb(m, 2)
    if n_vars > SA1_VARIABLE_CAP:
        raise ValueError(f"lifted LP needs {n_vars} variables, cap is {SA1_VARIABLE_CAP}")
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

    for _, nz, rhs in pvc_rows(graph, t):
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

    norm = [0] * n_vars
    norm[0] = 1
    rows.append((tuple(norm), 1))
    norm = [0] * n_vars
    norm[0] = -1
    rows.append((tuple(norm), -1))

    names = tuple(f"y({','.join(map(graph.var_name, s))})" for s in sets)
    objective = (ZERO, *graph.weights) + (ZERO,) * (m - graph.n + comb(m, 2))  # as `sets`
    generators = tuple(tuple(index[tuple(sorted(swap[q] for q in s))] for s in sets)
                       for swap in twin_swaps(graph))
    return LinearProgram(names=names, rows=tuple(rows), objective=objective,
                         generators=generators)
