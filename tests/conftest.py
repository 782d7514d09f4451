import multiprocessing
import random
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from itertools import combinations

import pytest

from pvcgap import hierarchy
from pvcgap.rational import ONE, ZERO, Rat


@pytest.fixture
def fork_workers(monkeypatch):
    """Fork the scan's pool workers, so they inherit what a test patched into `hierarchy`."""
    fork = multiprocessing.get_context("fork")
    monkeypatch.setattr(hierarchy, "ProcessPoolExecutor",
                        partial(ProcessPoolExecutor, mp_context=fork))


def rand_rational(rng: random.Random, lo: int = -3, hi: int = 3, max_den: int = 6):
    return Rat(rng.randint(lo, hi), rng.randint(1, max_den))


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
    feasible vertex exists.  Sound oracle for bounded (boxed) programs."""
    n = lp.n_vars
    best = None
    for subset in combinations(range(lp.n_rows), n):
        a = [lp.rows[i][0] for i in subset]
        b = [lp.rows[i][1] for i in subset]
        x = solve_square(a, b)
        if x is None:
            continue
        if all(dot(coeffs, x) >= rhs for coeffs, rhs in lp.rows):
            value = dot(lp.objective, x)
            if best is None or value < best:
                best = value
    return best
