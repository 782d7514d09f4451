"""Membership verifiers for lift-and-project tightenings of the cover LP.

`verify_sa` checks the moment vector of the random-cover distribution
against every product-lifted constraint of the cover polytope up to a
given level r.  The rows are `graphs.pvc_rows` in their order, the rows of
`graphs.build_pvc_lp` and those `generate_sa1_lp` lifts with `graphs.lift`:
one sparse row format, named (`graphs.row_name`) only when a row fails.
For each disjoint pair (Y, N) with |Y u N| <= r it evaluates the
linearized weights w(Y u {q}, N) and tests, exactly, every row
sum_j c_j x_j >= rhs in its lifted form

    sum_j c_j w(Y+{j}, N) >= rhs * w(Y, N)

which is `graphs.lift` of the row at (Y, N) summed over the moments, read
off the pair's weights.

`moments` computes each pair's weights and conditioned moment matrix once
per twin-vertex orbit of (Y, N) pairs and relabels them for the orbit's
other pairs (on a twin-free graph each pair is its own orbit).  A
relabelling maps the rows onto themselves and a matrix onto a symmetric
permutation of itself, so the pairs of an orbit share one row verdict and
one PSD verdict.  Each scan keeps the keys of the orbits that have passed:
a pair whose key is among them passes, its rows (or its one matrix)
counted.  Any other pair checks itself, its own rows on its own weights or
the LDL^T of its own matrix, and its key joins them if it holds.  So rows
are checked and matrices factorised at the first pair of each orbit the
scan meets, and the first pair of a failing orbit fails with its own
witness and count.  A matrix is built for every pair.

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

A scan is cut into threads * 4 ordered chunks, which this process scans
in turn.  It rents before it buys ("ski rental", Karlin et al. 1988): a
pool of more than one worker starts, for the chunks left, only once this
process has spent `POOL_AFTER_S` seconds of CPU time on them, and only if,
at its rate so far, the workers would save at least the pool's start-up
cost `POOL_START_S`.  Each worker, one per usable CPU at most, keeps the
scan's check (its params, memo and passed keys) for all its chunks.  A
short or one-worker scan never loads the pool, and chunks count in order,
so no certificate depends on the budget or the worker count.
`ProcessPoolExecutor` is imported on first use, and `_first_failure` reads
it and both constants from this module at call time, so a class put in its
place (a test's forking pool, a tracer's timed one) is the one the scan
starts.  `linalg` and `simplex` load likewise, in the matrix checks and the
lifted LP, so `sa` needs neither.
"""

from __future__ import annotations

import os
import random
from collections import namedtuple
from functools import partial
from itertools import combinations, islice
from math import comb
from time import process_time

from .graphs import Graph, check_demand, integral_opt, lift, pvc_rows, row_name
from .moments import DistParams, _orbit_key, _pair_weights, build_cond_matrix, moment
from .rational import ZERO, Rat


class WorkerFailed(OSError):
    """A process-pool worker died before returning its chunk."""


def __getattr__(name: str):
    """`ProcessPoolExecutor`, imported and kept here on first use."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


Violation = namedtuple("Violation", "constraint y n lhs rhs")

# integrality_gap_lower_bound is None when no integral oracle applies
SaVerdict = namedtuple("SaVerdict", "feasible violated constraints_checked objective_value "
                       "integrality_gap_lower_bound")


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
        splits = [[[i for i in range(k) if (ymask >> i & 1) == side] for side in (1, 0)]
                  for ymask in range(1 << k)]  # (Y positions, N positions) of each Y-mask
        while flat is not None and flat < first + size:
            u, ymask = divmod(flat - first, 1 << k)
            if u >= at:
                union, at = next(islice(unions, u - at, None)), u + 1
            ys, ns = splits[ymask]
            yield tuple(map(union.__getitem__, ys)), tuple(map(union.__getitem__, ns))
            flat = next(wanted, None)
        first += size


# -- the per-pair constraint scan --------------------------------------------


def _row_check(params: DistParams, rows: tuple, y: tuple, n: tuple, wyn: int, w):
    """(violation, rows checked up to it) at the pair's first failing row on its
    weights, or None if every row holds.

    Row sum_j c_j x_j >= rhs is checked as sum_j c_j w(Y+{j}, N) >=
    rhs * w(Y, N).  The weights are integers over `params.den`; a
    violation's two sides are rebuilt as rationals, and only the failing
    row is named, by `graphs.row_name`.
    """
    if wyn == 0:
        # every weight below is squeezed into [0, 0]; nothing can fail
        return None
    for k, (coeffs, rhs) in enumerate(rows, 1):
        lhs = 0
        for j, c in coeffs:
            lhs += c * w[j]
        if lhs < rhs * wyn:
            return Violation(row_name(params.graph, k - 1), y, n,
                             Rat(lhs, params.den), Rat(rhs * wyn, params.den)), k
    return None


def _scan_pair(params: DistParams, rows: tuple, passed: set, y: tuple, n: tuple):
    """(violation or None, rows checked) for one lifted multiplier pair.

    A pair whose twin-orbit key is in `passed` passes with all its rows
    counted: a twin relabelling maps the rows onto themselves.  Any other
    pair checks its own rows on its own weights (`_row_check`), so a failing
    orbit's first pair fails with its own witness and count; a pair that
    holds adds its key to `passed`.
    """
    key = _orbit_key(params, y, n)[0]
    if key not in passed:
        failed = _row_check(params, rows, y, n, *_pair_weights(params, y, n))
        if failed is not None:
            return failed
        passed.add(key)
    return None, len(rows)


def _check_matrix(params: DistParams, passed: set, name: str, y: tuple, n: tuple):
    """(violation `name`, or None if the moment matrix conditioned on (Y, N) is PSD; 1).

    The matrix is built for every pair, on the orbit key looked up here.  It
    is a symmetric permutation of the key's, so a pair whose key is in
    `passed` is PSD; any other pair factorises its own matrix, and adds its
    key to `passed` if it is PSD.
    """
    from .linalg import psd_check

    found = _orbit_key(params, y, n)
    matrix = build_cond_matrix(params, y, n, found)
    if found[0] not in passed:
        verdict = psd_check(matrix)
        if not verdict.is_psd:
            return Violation(name, y, n, verdict.value, ZERO), 1
        passed.add(found[0])
    return None, 1


def _validate(params: DistParams, t: int, r: int) -> None:
    if r < 0:
        raise ValueError("level r must be nonnegative")
    check_demand(params.graph, t)


# -- the first-failure scan driver ------------------------------------------


def _scan_chunk(check, m: int, max_size: int, indices):
    """(first violation or None, items checked up to it) over flat pair indices.

    One walk of `yn_pairs` over m codes yields the pair at each sorted index;
    `check(y, n)` gives its (violation or None, items counted).
    """
    checked = 0
    for y, n in yn_pairs(m, max_size, indices):
        violation, c = check(y, n)
        checked += c
        if violation is not None:
            return violation, checked
    return None, checked


# A pool's start-up cost in seconds: importing `concurrent.futures` (16-20 ms)
# and starting and stopping its workers (11-12 ms at two), on a 2-CPU x86-64 VM.
POOL_START_S = 0.03
# CPU seconds a threaded scan spends in this process before its pool may start.
# The first chunks fill the orbit memo, so a rate read off a few of them
# overstates what is left; short scans stay here.  CPU time, since time spent
# waiting for a busy CPU is no time a pool wins back.
POOL_AFTER_S = 0.1

_worker = None  # a pool worker's `_scan_chunk`, bound by its initializer for all its chunks


def _start_worker(scan) -> None:
    global _worker
    _worker = scan


def _worker_chunk(indices):
    """`_scan_chunk` in a pool worker, on the scan it started with."""
    return _worker(indices)


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _chunk_ranges(total: int, pieces: int):
    step = max(1, (total + pieces - 1) // pieces)
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def _first_failure(check, m: int, max_size: int, indices, threads: int):
    """Scan `indices` with `check` in order and stop at the first violation.

    The indices are split into threads * 4 ordered chunks.  This process
    scans them in turn until one fails, or until it has spent `POOL_AFTER_S`
    CPU seconds on them and a pool would save at least its start-up cost
    `POOL_START_S`: if the chunks left would take this process `rest` at its
    rate so far, w = min(threads, chunks left, usable CPUs) > 1 workers, a
    CPU each, save rest * (1 - 1/w).  The pool of w workers then takes the
    chunks left, each worker keeping the check (its params, the orbit memo
    and the `passed` keys this process filled) for all its chunks.
    The counts of whole chunks before the first failing one are added to its
    own count, so the result is the serial one for any worker count and
    budget: rows (or matrices) up to and including the first violation in
    canonical order.
    """
    scan = partial(_scan_chunk, check, m, max_size)
    chunks = [indices[lo:hi] for lo, hi in _chunk_ranges(len(indices), threads * 4)]
    checked, start, cpus = 0, process_time(), _usable_cpus()
    for k, chunk in enumerate(chunks):
        spent = process_time() - start
        if k and spent >= POOL_AFTER_S:
            workers = min(threads, len(chunks) - k, cpus)
            rest = spent * (len(chunks) - k) / k  # at the rate of the k chunks scanned
            if workers > 1 and rest * (1 - 1 / workers) >= POOL_START_S:
                chunks = chunks[k:]
                break
        violation, c = scan(chunk)
        checked += c
        if violation is not None:
            return violation, checked
    else:
        return None, checked
    from concurrent.futures.process import BrokenProcessPool

    pool_class = globals().get("ProcessPoolExecutor") or __getattr__("ProcessPoolExecutor")
    try:
        with pool_class(max_workers=workers, initializer=_start_worker, initargs=(scan,)) as pool:
            try:
                for violation, c in pool.map(_worker_chunk, chunks):
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
    m = params.graph.var_count
    check = partial(_scan_pair, params, pvc_rows(params.graph, t), set())
    return _first_failure(check, m, r, range(yn_pair_count(m, r)), threads)


def verify_sa(params: DistParams, t: int, r: int, threads: int = 1) -> SaVerdict:
    """Exact level-r product-lifting feasibility of the moment vector."""
    return _verdict(params, t, *_sa_scan(params, t, r, threads))


def verify_sap(params: DistParams, t: int, r: int, threads: int = 1) -> SaVerdict:
    """verify_sa plus the PSD test of the unconditioned moment matrix minor."""
    violation, checked = _sa_scan(params, t, r, threads)
    if violation is None:
        violation, c = _check_matrix(params, set(), "sa+:moment-psd", (), ())
        checked += c
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
    m = params.graph.var_count
    indices = range(yn_pair_count(m, r - 1))
    if sample is not None and sample < len(indices):
        indices = sorted(random.Random(seed).sample(indices, sample))
    check = partial(_check_matrix, params, set(), "xyn:psd")
    return _verdict(params, t, *_first_failure(check, m, r - 1, indices, threads))


# -- explicit level-1 lifted LP ----------------------------------------------

SA1_VARIABLE_CAP = 5000


def generate_sa1_lp(graph: Graph, t: int) -> LinearProgram:
    """Materialize the level-1 lifted LP over set variables of size <= 2.

    Each `pvc_rows` row is multiplied by x_q and by (1 - x_q) for every
    q in V u E and linearized by `graphs.lift`, at (Y, N) = ({q}, {}) and
    ({}, {q}).  Each lifted row is sparse like its source row, its nonzero
    entries sorted by variable; exact duplicate rows are kept once and rows
    with no nonzero entry are dropped.  The normalization rows pinning the
    empty-set variable to 1 come last.  Rows are in integers.  The
    objective is the cover LP's vertex weights, on the singleton
    variables.  `lp_solve` finds the program's symmetry classes itself:
    on the star, 10 variable classes and 46 row classes for every n >= 4.
    """
    from .simplex import LinearProgram

    m = graph.var_count
    n_vars = 1 + m + comb(m, 2)
    if n_vars > SA1_VARIABLE_CAP:
        raise ValueError(f"lifted LP needs {n_vars} variables, cap is {SA1_VARIABLE_CAP}")
    sets = [()] + [(q,) for q in range(m)] + list(combinations(range(m), 2))
    index = {s: k for k, s in enumerate(sets)}
    rows, seen = [], set()
    for source in pvc_rows(graph, t):
        for q in range(m):
            for lifted in (lift(source, (q,), ()), lift(source, (), (q,))):
                row = (tuple(sorted((index[s], c) for s, c in lifted.items())), 0)
                if row[0] and row not in seen:
                    seen.add(row)
                    rows.append(row)
    rows += [(((0, 1),), 1), (((0, -1),), -1)]

    objective = (ZERO, *graph.weights) + (ZERO,) * (m - graph.n + comb(m, 2))  # as `sets`
    return LinearProgram(tuple(rows), objective)
