"""Graphs, polytope variables, the t-PVC relaxation, and integral oracles.

Vertices are 1-based; the star built by `make_star(n)` has its center at
vertex n+1.  LP variables are indexed by V then E: vertex i gets code
i-1, the k-th edge in lexicographic order gets code n+k.  That order is
part of the certificate format and must not change.  `pvc_rows` gives the
t-PVC rows in the one sparse format the scan, the LPs and the simplex
share, unnamed: `row_name` names a row from its index when it fails.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate, combinations
from math import comb

from .rational import ONE, ZERO, Rat, as_rational


class Graph(namedtuple("Graph", "n edges weights")):
    """Simple undirected graph with nonnegative rational vertex weights (default 1).

    The tuple (n, edges, weights), edges sorted and weights rational: it
    compares and hashes by them, and they cannot be reassigned."""

    __slots__ = ()

    def __new__(cls, n: int, edges: tuple, weights: tuple = ()):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        seen = set()
        for e in edges:
            i, j = e
            if not (1 <= i < j <= n):
                raise ValueError(f"bad edge {e}: need 1 <= i < j <= n")
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
        if not weights:
            weights = (ONE,) * n
        else:
            if len(weights) != n:
                raise ValueError("need one weight per vertex")
            weights = tuple(as_rational(w) for w in weights)
            if min(weights) < 0:
                raise ValueError(f"vertex weights must be nonnegative, got {min(weights)}")
        return super().__new__(cls, n, tuple(sorted(edges)), weights)

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def var_count(self) -> int:
        return self.n + self.m

    # -- variable codes: vertices 0..n-1, then edges n..n+m-1 ---------------

    def is_vertex_code(self, code: int) -> bool:
        return 0 <= code < self.n

    def code_endpoints(self, code: int) -> tuple:
        """Endpoint vertex codes of an edge code."""
        i, j = self.edges[code - self.n]
        return (i - 1, j - 1)

    def var_name(self, code: int) -> str:
        if self.is_vertex_code(code):
            return f"v{code + 1}"
        i, j = self.edges[code - self.n]
        return f"e{i}_{j}"


MAX_GRAPH_SIZE = 10**6  # most vertices, and most edges, of a graph pvcgap builds


def _check_size(what: str, n: int, m: int) -> None:
    """Refuse a graph past MAX_GRAPH_SIZE before anything of it is built."""
    if max(n, m) > MAX_GRAPH_SIZE:
        raise ValueError(f"{what} has {n} vertices and {m} edges (cap {MAX_GRAPH_SIZE} each)")


def make_clique(n: int) -> Graph:
    """Complete unweighted graph on n vertices."""
    if n < 1:
        raise ValueError("clique needs n >= 1")
    _check_size(f"K_{n}", n, comb(n, 2))
    return Graph(n, tuple(combinations(range(1, n + 1), 2)))


def make_star(n: int) -> Graph:
    """Star with n leaves 1..n and center n+1, so n+1 vertices and n edges."""
    if n < 1:
        raise ValueError("star needs n >= 1")
    _check_size(f"the star with {n} leaves", n + 1, n)
    return Graph(n + 1, tuple((i, n + 1) for i in range(1, n + 1)))


def least_twins(g: Graph) -> list:
    """(a, b) for each vertex b with an equal-weight twin a < b, with the least
    such a.  Vertices a and b are twins when N(a) - {b} = N(b) - {a}; twins
    of equal weight form classes, so a is the least vertex of b's class.
    """
    nbrs = [set() for _ in range(g.n + 1)]
    for i, j in g.edges:
        nbrs[i].add(j)
        nbrs[j].add(i)
    least = [(next((a for a in range(1, b) if g.weights[a - 1] == g.weights[b - 1]
                    and nbrs[a] - {b} == nbrs[b] - {a}), None), b) for b in range(1, g.n + 1)]
    return [(a, b) for a, b in least if a is not None]


# -- graph text format ------------------------------------------------------
#
#   n m
#   i j          (exactly m edge lines)
#   w i value    (optional vertex-weight lines; value is a nonnegative integer or 'a/b')
#
# '#' starts a comment; blank lines are skipped.  Each vertex has at most
# one 'w' line; unlisted vertices keep weight 1.  The 'w' tag keeps an edge
# line past a header that undercounts the edges from being read as a weight.


def _ints(fields: list, count: int, line: str, shape: str) -> tuple:
    """`count` integer fields of a graph-file line, or an error naming the line."""
    try:
        if len(fields) == count:
            return tuple(map(int, fields))
    except ValueError:
        pass
    raise ValueError(f"{shape}, got {line!r}")


def parse_graph(text: str) -> Graph:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise ValueError("empty graph file")
    n, m = _ints(lines[0].split(), 2, lines[0], "header must be 'n m'")
    if m < 0:
        raise ValueError(f"edge count must be >= 0, got {m}")
    _check_size("the graph file", n, m)
    if len(lines) < 1 + m:
        raise ValueError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for line in lines[1 : 1 + m]:
        i, j = _ints(line.split(), 2, line, "edge line must be 'i j'")
        if i == j:
            raise ValueError(f"self-loop {i}")
        edges.append((min(i, j), max(i, j)))
    weights = [ONE] * n
    weighted = set()
    for line in lines[1 + m :]:
        parts = line.split()
        if len(parts) != 3 or parts[0] != "w":
            raise ValueError(
                f"line {line!r} is not a vertex-weight line 'w i value' "
                f"(the header declares m={m} edge lines)"
            )
        (i,) = _ints(parts[1:2], 1, line, "vertex-weight line must be 'w i value'")
        if not 1 <= i <= n:
            raise ValueError(f"vertex-weight line for unknown vertex {i}")
        if i in weighted:
            raise ValueError(f"a second vertex-weight line for vertex {i}")
        weighted.add(i)
        try:
            weights[i - 1] = as_rational(parts[2])
        except ValueError as exc:
            raise ValueError(f"{exc}, in {line!r}") from None
        if weights[i - 1] < 0:
            raise ValueError(f"vertex weights must be nonnegative, got {line!r}")
    return Graph(n, tuple(edges), tuple(weights))


def load_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


# -- the t-partial-vertex-cover relaxation ----------------------------------


def check_demand(g: Graph, t: int) -> None:
    """Refuse a demand t outside 0..|E|, for which t-PVC has no integral cover."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t > g.m:
        raise ValueError(f"t={t} exceeds edge count {g.m}: integrally infeasible")


def pvc_rows(g: Graph, t: int) -> tuple:
    """The rows sum_j c_j x_j >= rhs of the t-PVC relaxation over V u E.

    Each row is (((j, c) for each c != 0), rhs) in integers, the
    `LinearProgram` row.  Row order (fixed, part of the certificate
    format): one row per edge, the demand row, all lower box rows
    x_q >= 0, all upper box rows -x_q >= -1.  `row_name` names a row.
    """
    check_demand(g, t)
    rows = [(((i - 1, 1), (j - 1, 1), (e, -1)), 0) for e, (i, j) in enumerate(g.edges, g.n)]
    rows.append((tuple((e, 1) for e in range(g.n, g.var_count)), t))
    rows += [(((q, 1),), 0) for q in range(g.var_count)]
    rows += [(((q, -1),), -1) for q in range(g.var_count)]
    return tuple(rows)


def row_name(g: Graph, k: int) -> str:
    """The certificate name of row k of `pvc_rows`: edge:e1_2, demand, box0:v1 or box1:e1_2."""
    if k < g.m:
        return f"edge:{g.var_name(g.n + k)}"
    if k == g.m:
        return "demand"
    box, q = divmod(k - g.m - 1, g.var_count)
    return f"box{box}:{g.var_name(q)}"


def expand(ys, ns) -> dict:
    """{Y u T: (-1)^|T|} over T subset of N, sorted code tuples: prod_{Y} x_y
    prod_{N} (1 - x_n) as signed monomials; {} if Y and N overlap (0 on 0-1 points)."""
    if not set(ys).isdisjoint(ns):
        return {}
    terms = {tuple(sorted(set(ys))): 1}
    for n in ns:
        terms.update({tuple(sorted((*s, n))): -sign for s, sign in terms.items()})
    return terms


def lift(row: tuple, ys, ns) -> dict:
    """{S: coefficient} of the row times prod_{Y} x_y prod_{N} (1 - x_n), linearized.

    `row` is a `LinearProgram.rows` row (((j, c_j), ...), rhs); each S is a
    sorted code tuple standing for y_S, the product of the x's in S (Sherali
    & Adams 1990).  The lifted row reads sum coefficient * y_S >= 0: over the
    monomials Y u T of `expand`, sum (-1)^|T| (sum_j c_j y(Y u T u {j}) - rhs
    y(Y u T)), with zero coefficients dropped.  Overlapping Y and N give {}.
    """
    coeffs, rhs = row
    lifted = {}
    for base, sign in expand(ys, ns).items():
        lifted[base] = lifted.get(base, 0) - sign * rhs
        for j, c in coeffs:
            s = base if j in base else tuple(sorted((*base, j)))
            lifted[s] = lifted.get(s, 0) + sign * c
    return {s: c for s, c in lifted.items() if c}


def build_pvc_lp(g: Graph, t: int) -> LinearProgram:
    """The rows of `pvc_rows` as an LP; minimize the vertex weights."""
    from .simplex import LinearProgram

    return LinearProgram(pvc_rows(g, t), g.weights + (ZERO,) * g.m)


# -- brute-force integral oracle --------------------------------------------

BRUTE_FORCE_MAX_N = 24  # largest n the exhaustive oracle accepts


def brute_force_witness(g: Graph, t: int) -> tuple:
    """(minimum weight, one optimal vertex set) by exhaustive enumeration.

    Subsets are walked by size.  None of `size` or more vertices weighs
    less than the `size` least weights together, so the walk ends once that
    floor reaches the best weight found: at the first cover found, with
    unit weights.
    """
    if g.n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force capped at n <= {BRUTE_FORCE_MAX_N}, got n = {g.n}")
    check_demand(g, t)
    vertex_masks = [0] * g.n
    for k, (i, j) in enumerate(g.edges):
        vertex_masks[i - 1] |= 1 << k
        vertex_masks[j - 1] |= 1 << k
    best = best_set = None
    for size, floor in enumerate(accumulate(sorted(g.weights), initial=ZERO)):
        if best is not None and floor >= best:
            break
        for subset in combinations(range(g.n), size):
            covered = 0
            for v in subset:
                covered |= vertex_masks[v]
            if covered.bit_count() >= t:
                weight = sum((g.weights[v] for v in subset), ZERO)
                if best is None or weight < best:
                    best, best_set = weight, subset
                    if weight == floor:  # then the next size stops the walk
                        break
    return best, frozenset(v + 1 for v in best_set)


def brute_force_opt(g: Graph, t: int):
    """Exact integral optimum of t-PVC on g."""
    return brute_force_witness(g, t)[0]


def integral_opt(g: Graph, t: int):
    """Exact integral optimum of t-PVC on g, or None when no oracle covers g:
    brute force up to BRUTE_FORCE_MAX_N vertices, and past it, on the
    unit-weight n-clique, the least k with C(n,2) - C(n-k,2) >= t edges.
    """
    if g.n <= BRUTE_FORCE_MAX_N:
        return brute_force_opt(g, t)
    if g.m == comb(g.n, 2) and all(w == 1 for w in g.weights):
        return Rat(next(k for k in range(g.n + 1) if g.m - comb(g.n - k, 2) >= t))
    return None
