"""Exact moments of the random-cover distribution.

The underlying experiment: every vertex joins the solution independently
with probability p, and an edge counts as covered exactly when one of its
endpoints joined.  One kernel, `_enumerate_on_off`, computes the
probability that a set of vertex/edge variables is all ones while another
set is all zeros, by enumerating the Bernoulli assignments of their
support closure (the vertices mentioned, plus endpoints of mentioned
edges); that keeps everything rational and independently checkable.  A
moment is the kernel with nothing required off, memoized per params.

`cond_weight` evaluates the linearized product weight
w(Y, N) = sum over T subset of N of (-1)^|T| * moment(Y u T)
two ways on every call: by that inclusion-exclusion sum over memoized
moments, and by a direct run of the kernel on the event "all of Y on, all
of N off".  The two must agree exactly; the equality is asserted at
runtime so the identity behind the verifier is re-proved on every use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import Graph
from .linalg import SymMatrix
from .rational import ZERO, Rat, as_rational

DEFAULT_SUPPORT_CAP = 26


class SupportTooLarge(ValueError):
    """The support closure of a requested moment exceeds the safety cap."""


class MomentMismatch(AssertionError):
    """Inclusion-exclusion and direct enumeration disagreed (a bug)."""


@dataclass(frozen=True, eq=True)
class DistParams:
    """Graph plus inclusion probability p in [0, 1]."""

    graph: Graph
    p: object
    support_cap: int = DEFAULT_SUPPORT_CAP
    _memo: dict = field(default_factory=dict, compare=False, repr=False, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "p", as_rational(self.p))
        if not (0 <= self.p <= 1):
            raise ValueError(f"p must lie in [0, 1], got {self.p}")


def canonical_set(graph: Graph, items) -> tuple:
    """Sorted duplicate-free tuple of variable codes."""
    codes = sorted(set(items))
    for c in codes:
        if not 0 <= c < graph.var_count:
            raise ValueError(f"variable code {c} out of range")
    return tuple(codes)


def _closure(graph: Graph, codes) -> tuple:
    """(vertex closure, edge code list): vertices mentioned or incident."""
    verts = set()
    edges = []
    for c in codes:
        if graph.is_vertex_code(c):
            verts.add(c)
        else:
            a, b = graph.code_endpoints(c)
            verts.add(a)
            verts.add(b)
            edges.append((a, b))
    return verts, edges


def _enumerate_on_off(params: DistParams, on, off) -> object:
    """P[all of `on` are one and all of `off` are zero], by enumeration."""
    g = params.graph
    verts_on, edges_on = _closure(g, on)
    verts_off, edges_off = _closure(g, off)
    verts = verts_on | verts_off
    if len(verts) > params.support_cap:
        raise SupportTooLarge(
            f"support closure has {len(verts)} vertices (cap {params.support_cap})"
        )
    forced1 = {c for c in on if g.is_vertex_code(c)}
    forced0 = {c for c in off if g.is_vertex_code(c)}
    for a_, b_ in edges_off:  # an edge stays off only if both endpoints do
        forced0.add(a_)
        forced0.add(b_)
    if forced1 & forced0:
        return ZERO
    free = sorted(verts - forced1 - forced0)
    pos = {v: k for k, v in enumerate(free)}
    need_cover = []
    for a_, b_ in edges_on:
        if a_ in forced1 or b_ in forced1:
            continue
        if a_ in forced0 and b_ in forced0:
            return ZERO
        mask = 0
        if a_ in pos:
            mask |= 1 << pos[a_]
        if b_ in pos:
            mask |= 1 << pos[b_]
        need_cover.append(mask)
    nf = len(free)
    counts = [0] * (nf + 1)
    for assign in range(1 << nf):
        if all(assign & m for m in need_cover):
            counts[assign.bit_count()] += 1
    # with p = a/b the probability is an integer over b^|support|; sum in integers
    a, b = params.p.numerator, params.p.denominator
    acc = sum(cnt * a**k * (b - a) ** (nf - k) for k, cnt in enumerate(counts) if cnt)
    return Rat(a ** len(forced1) * (b - a) ** len(forced0) * acc, b ** len(verts))


def moment(params: DistParams, a) -> object:
    """Probability that every variable in `a` is one.  Memoized per params."""
    key = canonical_set(params.graph, a)
    memo = params._memo
    value = memo.get(key)
    if value is None:
        value = memo[key] = _enumerate_on_off(params, key, ())
    return value


def cond_weight(params: DistParams, y, n) -> object:
    """Linearized weight w(Y, N), with its probability reading re-checked.

    Rejects overlapping Y and N.  Returns the exact rational value.
    """
    g = params.graph
    ys = canonical_set(g, y)
    ns = canonical_set(g, n)
    if set(ys) & set(ns):
        raise ValueError("Y and N must be disjoint")
    return _weight_overlap_ok(params, ys, ns)


def _weight_overlap_ok(params: DistParams, ys: tuple, ns: tuple) -> object:
    """w(Y, N) extended to overlapping arguments (telescopes to zero)."""
    if set(ys) & set(ns):
        return ZERO
    total = ZERO
    k = len(ns)
    for mask in range(1 << k):
        t = tuple(ns[i] for i in range(k) if mask >> i & 1)
        term = moment(params, ys + t)
        total = total + term if mask.bit_count() % 2 == 0 else total - term
    direct = _enumerate_on_off(params, ys, ns)
    if total != direct:
        raise MomentMismatch(
            f"inclusion-exclusion {total} != enumeration {direct} at Y={ys} N={ns}"
        )
    return total


@dataclass(frozen=True)
class CondMomentMatrix:
    """Conditioned second-moment matrix over {empty} u singletons of V u E.

    Index 0 stands for the empty set; index 1+c for the singleton {c}.
    Entry (A, B) equals w(Y u A u B, N), so the matrix is symmetric by
    construction and positive semidefinite whenever the weights come from
    a genuine distribution over 0-1 assignments.
    """

    y: tuple
    n: tuple
    matrix: SymMatrix

    @property
    def dim(self) -> int:
        return self.matrix.n


def build_cond_matrix(params: DistParams, y, n) -> CondMomentMatrix:
    g = params.graph
    ys = canonical_set(g, y)
    ns = canonical_set(g, n)
    if set(ys) & set(ns):
        raise ValueError("Y and N must be disjoint")
    nvars = g.var_count
    sets = [ys]
    for c in range(nvars):
        if c in ys:
            sets.append(ys)
        else:
            merged = tuple(sorted(ys + (c,)))
            sets.append(merged)
    cache: dict = {}

    def weight_of(union: tuple):
        w = cache.get(union)
        if w is None:
            w = _weight_overlap_ok(params, union, ns)
            cache[union] = w
        return w

    def entry(i: int, j: int):
        union = tuple(sorted(set(sets[i]) | set(sets[j])))
        return weight_of(union)

    matrix = SymMatrix.from_function(1 + nvars, entry)
    return CondMomentMatrix(y=ys, n=ns, matrix=matrix)
