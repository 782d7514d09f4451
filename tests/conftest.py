import multiprocessing
import random
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from itertools import combinations

import pytest

from pvcgap import hierarchy, simplex
from pvcgap.graphs import Graph
from pvcgap.lasserre import covered_edges
from pvcgap.linalg import SymMatrix
from pvcgap.moments import _weight_overlap_ok
from pvcgap.rational import ONE, ZERO, Rat, as_rational

# a path with four distinct weights: no symmetry at all
WEIGHTED_PATH = Graph(4, ((1, 2), (2, 3), (3, 4)), weights=(Rat(3), Rat(1), Rat(2), Rat(1, 2)))
PATH6 = Graph(6, tuple((i, i + 1) for i in range(1, 6)))


@pytest.fixture
def fork_workers(monkeypatch):
    """Fork the scan's pool workers, so they inherit what a test patched into `hierarchy`,
    and start the pool right after the first chunk, so a short scan still reaches it."""
    fork = multiprocessing.get_context("fork")
    monkeypatch.setattr(hierarchy, "ProcessPoolExecutor",
                        partial(ProcessPoolExecutor, mp_context=fork))
    monkeypatch.setattr(hierarchy, "POOL_AFTER_S", 0)
    monkeypatch.setattr(hierarchy, "POOL_START_S", 0)


def weights_per_code(params, y, n):
    """w(Y, N) and every w(Y+{q}, N), each from `_weight_overlap_ok`, code by
    code and pair by pair: the oracle of `moments._weights_at`, which computes
    one weight per stabiliser class of q, and of the scan's per-orbit weights."""
    wyn = _weight_overlap_ok(params, y, n)
    if wyn == 0:
        return 0, None
    return wyn, [0 if q in n else _weight_overlap_ok(params, tuple(sorted({*y, q})), n)
                 for q in range(params.graph.var_count)]


def rand_rational(rng: random.Random, lo: int = -3, hi: int = 3, max_den: int = 6):
    return Rat(rng.randint(lo, hi), rng.randint(1, max_den))


def sym_from_rows(rows) -> SymMatrix:
    """A SymMatrix from a full square array; raises if it is not symmetric."""
    n = len(rows)
    vals = [[as_rational(x) for x in row] for row in rows]
    if any(len(row) != n for row in vals):
        raise ValueError("not a square array")
    for i in range(n):
        for j in range(i, n):
            if vals[i][j] != vals[j][i]:
                raise ValueError(f"asymmetric at ({i},{j})")
    return SymMatrix.from_function(n, lambda i, j: vals[i][j])


def sym_rows(m: SymMatrix) -> list:
    """The full square of m's entries as `Rat`s."""
    return [[Rat(x, m.den) for x in row] for row in m.ints]


def sym_equal(a: SymMatrix, b: SymMatrix) -> bool:
    """Equal entries, whatever the two denominators."""
    return a.n == b.n and all(x * b.den == y * a.den
                              for ra, rb in zip(a.ints, b.ints) for x, y in zip(ra, rb))


def edge_code(g: Graph, i: int, j: int) -> int:
    """The LP variable code of edge {i, j}: n plus its rank in `g.edges`."""
    return g.n + g.edges.index((min(i, j), max(i, j)))


def with_entries(m: SymMatrix, changes: dict) -> SymMatrix:
    """A copy of m with entries (i, j) and (j, i) set to each value in `changes`."""
    rows = sym_rows(m)
    for (i, j), value in changes.items():
        rows[i][j] = rows[j][i] = as_rational(value)
    return sym_from_rows(rows)


def dot(a, b):
    return sum((x * y for x, y in zip(a, b)), ZERO)


def solve_square(a_rows, b):
    """Exact Gaussian elimination; None when the system is singular."""
    n = len(b)
    m = [list(row) + [rhs] for row, rhs in zip(a_rows, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = ONE / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [v - f * p for v, p in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def vertex_enumeration_min(lp):
    """Minimum of the objective over all polyhedron vertices, or None if no
    feasible vertex exists.  Sound oracle for bounded (boxed) programs.
    The sparse rows are densified here, for `solve_square`."""
    n = lp.n_vars
    rows = []
    for coeffs, rhs in lp.rows:
        dense = [ZERO] * n
        for j, c in coeffs:
            dense[j] = c
        rows.append((dense, rhs))
    best = None
    for subset in combinations(range(lp.n_rows), n):
        a = [rows[i][0] for i in subset]
        b = [rows[i][1] for i in subset]
        x = solve_square(a, b)
        if x is None:
            continue
        if all(dot(coeffs, x) >= rhs for coeffs, rhs in rows):
            value = dot(lp.objective, x)
            if best is None or value < best:
                best = value
    return best


def equitable_classes(lp):
    """`lp_solve`'s (variable classes, row classes) of lp, checked to partition
    the variables and the rows and to be equitable: the rows of a row class
    share one rhs and one coefficient sum over each variable class, and the
    variables of a variable class share one objective value and one
    coefficient sum over each row class."""
    var_classes, row_classes = simplex._equitable_classes(
        lp, [as_rational(c) for c in lp.objective])
    var_class = {j: k for k, cls in enumerate(var_classes) for j in cls}
    row_class = {i: r for r, cls in enumerate(row_classes) for i in cls}
    assert sorted(var_class) == list(range(lp.n_vars))
    assert sorted(row_class) == list(range(lp.n_rows))
    projection = [[0] * len(var_classes) for _ in range(lp.n_rows)]
    column_sums = [[0] * len(row_classes) for _ in range(lp.n_vars)]
    for i, (coeffs, _rhs) in enumerate(lp.rows):
        for j, a in coeffs:
            projection[i][var_class[j]] += a
            column_sums[j][row_class[i]] += a
    for cls in row_classes:
        assert len({lp.rows[i][1] for i in cls}) == 1
        assert len({tuple(projection[i]) for i in cls}) == 1
    for cls in var_classes:
        assert len({as_rational(lp.objective[j]) for j in cls}) == 1
        assert len({tuple(column_sums[j]) for j in cls}) == 1
    return var_classes, row_classes


_ENUMERATION_MAX_N = 20


def zbar_by_enumeration(n: int, t, p) -> SymMatrix:
    """The demand-slack minor by summing slack * indicator-outer-product over all
    2^n vertex subsets; independent oracle for `lasserre.build_zbar`."""
    if n > _ENUMERATION_MAX_N:
        raise ValueError(f"enumeration capped at n <= {_ENUMERATION_MAX_N}")
    if n < 2:
        raise ValueError("need n >= 2")
    p = as_rational(p)
    t = as_rational(t)
    q = ONE - p
    upper = [[ZERO] * (n + 1) for _ in range(n + 1)]  # entries (i, j), i <= j
    for mask in range(1 << n):
        a = mask.bit_count()
        w = p**a * q ** (n - a) * (covered_edges(n, a) - t)
        if w == 0:
            continue
        idx = [0] + [v + 1 for v in range(n) if mask >> v & 1]
        for ii, i in enumerate(idx):
            for j in idx[ii:]:
                upper[i][j] += w
    return SymMatrix.from_function(n + 1, lambda i, j: upper[i][j])
