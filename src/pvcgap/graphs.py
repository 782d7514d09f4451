"""Graphs, polytope variables, the t-PVC relaxation, and integral oracles.

Vertices are 1-based; the star built by `make_star(n)` has its center at
vertex n+1.  LP variables are indexed by V then E: vertex i gets code
i-1, the k-th edge in lexicographic order gets code n+k.  That order is
part of the certificate format and must not change.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations
from math import comb

from .rational import ONE, ZERO, Rat, as_rational
from .simplex import LinearProgram


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with nonnegative rational vertex weights (default 1)."""

    n: int
    edges: tuple
    weights: tuple = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        seen = set()
        for e in self.edges:
            i, j = e
            if not (1 <= i < j <= self.n):
                raise ValueError(f"bad edge {e}: need 1 <= i < j <= n")
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
        if list(self.edges) != sorted(self.edges):
            object.__setattr__(self, "edges", tuple(sorted(self.edges)))
        if not self.weights:
            object.__setattr__(self, "weights", (ONE,) * self.n)
        else:
            if len(self.weights) != self.n:
                raise ValueError("need one weight per vertex")
            object.__setattr__(
                self, "weights", tuple(as_rational(w) for w in self.weights)
            )
            if min(self.weights) < 0:
                raise ValueError(f"vertex weights must be nonnegative, got {min(self.weights)}")
        object.__setattr__(
            self, "_edge_rank", {e: k for k, e in enumerate(self.edges)}
        )

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def var_count(self) -> int:
        return self.n + self.m

    # -- variable codes: vertices 0..n-1, then edges n..n+m-1 ---------------

    def vertex_code(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValueError(f"no vertex {i}")
        return i - 1

    def edge_code(self, i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        rank = self._edge_rank.get((i, j))
        if rank is None:
            raise ValueError(f"no edge {{{i},{j}}}")
        return self.n + rank

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

    def var_names(self) -> list:
        return [self.var_name(c) for c in range(self.var_count)]


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


def twin_swaps(g: Graph) -> tuple:
    """Swaps of equal-weight twin vertices, as permutations of the V u E codes:
    for each pair (a, b) of `least_twins`, a with b and each edge {a, c} with
    {b, c}.  On the star these are the swaps of leaf 1 with each other leaf.
    """
    swaps = []
    for a, b in least_twins(g):
        image = {a: b, b: a}
        perm = list(range(g.n))
        perm[a - 1], perm[b - 1] = b - 1, a - 1
        perm += [g.edge_code(image.get(i, i), image.get(j, j)) for i, j in g.edges]
        swaps.append(tuple(perm))
    return tuple(swaps)


# -- graph text format ------------------------------------------------------
#
#   n m
#   i j          (exactly m edge lines)
#   w i value    (optional vertex-weight lines; value is a nonnegative integer or 'a/b')
#
# '#' starts a comment; blank lines are skipped.  Unlisted vertices keep
# weight 1.  The 'w' tag keeps an edge line past a header that undercounts
# the edges from being read as a weight.


def parse_graph(text: str) -> Graph:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise ValueError("empty graph file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"header must be 'n m', got {lines[0]!r}")
    n, m = int(head[0]), int(head[1])
    if m < 0:
        raise ValueError(f"edge count must be >= 0, got {m}")
    _check_size("the graph file", n, m)
    if len(lines) < 1 + m:
        raise ValueError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for line in lines[1 : 1 + m]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"edge line must be 'i j', got {line!r}")
        i, j = int(parts[0]), int(parts[1])
        if i == j:
            raise ValueError(f"self-loop {i}")
        edges.append((min(i, j), max(i, j)))
    weights = [ONE] * n
    for line in lines[1 + m :]:
        parts = line.split()
        if len(parts) != 3 or parts[0] != "w":
            raise ValueError(
                f"line {line!r} is not a vertex-weight line 'w i value' "
                f"(the header declares m={m} edge lines)"
            )
        i = int(parts[1])
        if not 1 <= i <= n:
            raise ValueError(f"vertex-weight line for unknown vertex {i}")
        weights[i - 1] = as_rational(parts[2])
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

    Each row is (name, ((j, c) for each c != 0), rhs) in integers.  Row
    order (fixed, part of the certificate format): one row per edge, the
    demand row, all lower box rows x_q >= 0, all upper box rows -x_q >= -1.
    """
    check_demand(g, t)
    names = g.var_names()
    rows = [(f"edge:{names[e]}", ((i - 1, 1), (j - 1, 1), (e, -1)), 0)
            for e, (i, j) in enumerate(g.edges, g.n)]
    rows.append(("demand", tuple((e, 1) for e in range(g.n, g.var_count)), t))
    rows += [(f"box0:{v}", ((q, 1),), 0) for q, v in enumerate(names)]
    rows += [(f"box1:{v}", ((q, -1),), -1) for q, v in enumerate(names)]
    return tuple(rows)


def build_pvc_lp(g: Graph, t: int) -> LinearProgram:
    """The rows of `pvc_rows` as a dense LP; minimize the vertex weights."""
    rows = []
    for _, coeffs, rhs in pvc_rows(g, t):
        dense = [ZERO] * g.var_count
        for j, c in coeffs:
            dense[j] = Rat(c)
        rows.append((tuple(dense), Rat(rhs)))
    return LinearProgram(
        names=tuple(g.var_names()),
        rows=tuple(rows),
        objective=g.weights + (ZERO,) * g.m,
    )


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
