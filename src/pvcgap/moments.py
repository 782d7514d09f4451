"""Exact moments of the random-cover distribution.

The underlying experiment: every vertex joins the solution independently
with probability p, and an edge counts as covered exactly when one of its
endpoints joined.  One kernel, `_enumerate_on_off`, computes the
probability that a set of vertex/edge variables is all ones while another
set is all zeros, by enumerating the Bernoulli assignments of their
support closure (the vertices mentioned, plus endpoints of mentioned
edges); that keeps everything rational and independently checkable.  A
moment is the kernel with nothing required off, memoized per params.

Inside this module every probability is an integer over one denominator,
`DistParams.den`.  With p = a/b an event on a support of s vertices has
probability (integer) / b^s, and no support exceeds min(n, SUPPORT_CAP)
vertices, so den = b^min(n, SUPPORT_CAP) serves every moment and weight
of the graph.  Sums, differences and comparisons then run on Python
integers with no normalisation; a `Rat` is built only where a value
leaves the layer (`cond_weight` and matrix entries here, violation
values in `hierarchy`).

`cond_weight` evaluates the linearized product weight
w(Y, N) = sum over T subset of N of (-1)^|T| * moment(Y u T)
two ways on every call: by that inclusion-exclusion sum over memoized
moments, and by a direct run of the kernel on the event "all of Y on, all
of N off".  The two must agree exactly; the equality is checked at
runtime so the identity behind the verifier is re-proved on every use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import Graph
from .linalg import SymMatrix
from .rational import Rat, as_rational

SUPPORT_CAP = 26  # most vertices a moment's support closure may span


class SupportTooLarge(ValueError):
    """The support closure of a requested moment exceeds the safety cap."""


class MomentMismatch(AssertionError):
    """Inclusion-exclusion and direct enumeration disagreed (a bug)."""


@dataclass(frozen=True, eq=True)
class DistParams:
    """Graph plus inclusion probability p in [0, 1].

    `den` is the common denominator of every moment of the graph: the
    memo and the kernels hold probabilities as integers over it.
    `_orbit_weights` is the memo of `hierarchy._pair_weights`.
    """

    graph: Graph
    p: object
    _memo: dict = field(default_factory=dict, compare=False, repr=False, hash=False)
    _orbit_weights: dict = field(default_factory=dict, compare=False, repr=False, hash=False)
    den: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "p", as_rational(self.p))
        if not (0 <= self.p <= 1):
            raise ValueError(f"p must lie in [0, 1], got {self.p}")
        object.__setattr__(self, "den", self.p.denominator ** min(self.graph.n, SUPPORT_CAP))


def canonical_set(graph: Graph, items) -> tuple:
    """Sorted duplicate-free tuple of variable codes."""
    codes = sorted(set(items))
    limit = graph.var_count
    for c in codes:
        if not 0 <= c < limit:
            raise ValueError(f"variable code {c} out of range")
    return tuple(codes)


def _disjoint_pair(graph: Graph, y, n) -> tuple:
    """(Y, N) as canonical sets; overlapping Y and N are rejected."""
    ys, ns = canonical_set(graph, y), canonical_set(graph, n)
    if set(ys) & set(ns):
        raise ValueError("Y and N must be disjoint")
    return ys, ns


def _enumerate_on_off(params: DistParams, on, off) -> int:
    """P[all of `on` are one and all of `off` are zero] times `params.den`,
    by enumeration over the free vertices of the support closure."""
    g = params.graph
    forced1, forced0, edges_on = set(), set(), []
    for c in on:
        if g.is_vertex_code(c):
            forced1.add(c)
        else:
            edges_on.append(g.code_endpoints(c))
    for c in off:  # an edge stays off only if both endpoints do
        forced0.update((c,) if g.is_vertex_code(c) else g.code_endpoints(c))
    verts = forced1 | forced0
    for e in edges_on:
        verts.update(e)
    if len(verts) > SUPPORT_CAP:
        raise SupportTooLarge(f"support closure has {len(verts)} vertices (cap {SUPPORT_CAP})")
    if forced1 & forced0:
        return 0
    free = sorted(verts - forced1 - forced0)
    bit = {v: 1 << k for k, v in enumerate(free)}
    need_cover = set()  # for each on-edge not yet covered, the bits of its free endpoints
    for a_, b_ in edges_on:
        if a_ in forced1 or b_ in forced1:
            continue
        mask = bit.get(a_, 0) | bit.get(b_, 0)
        if not mask:
            return 0
        need_cover.add(mask)
    nf = len(free)
    assigns = range(1 << nf)
    for m in need_cover:
        assigns = [x for x in assigns if x & m]
    counts = [0] * (nf + 1)
    for x in assigns:
        counts[x.bit_count()] += 1
    # with p = a/b the probability is an integer over b^|support|; scale it to den
    a, b = params.p.numerator, params.p.denominator
    acc = sum(cnt * a**k * (b - a) ** (nf - k) for k, cnt in enumerate(counts) if cnt)
    return a ** len(forced1) * (b - a) ** len(forced0) * acc * (params.den // b ** len(verts))


def moment(params: DistParams, a) -> int:
    """Probability that every variable in `a` is one, times `params.den`.

    Memoized per params.
    """
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
    return Rat(_weight_overlap_ok(params, *_disjoint_pair(params.graph, y, n)), params.den)


def _weight_overlap_ok(params: DistParams, ys: tuple, ns: tuple) -> int:
    """w(Y, N) times `params.den`, extended to overlapping arguments
    (telescopes to zero)."""
    if set(ys) & set(ns):
        return 0
    total = 0
    k = len(ns)
    for mask in range(1 << k):
        t = tuple(ns[i] for i in range(k) if mask >> i & 1)
        term = moment(params, ys + t)
        total = total + term if mask.bit_count() % 2 == 0 else total - term
    direct = _enumerate_on_off(params, ys, ns)
    if total != direct:
        raise MomentMismatch(
            f"inclusion-exclusion {Rat(total, params.den)} != "
            f"enumeration {Rat(direct, params.den)} at Y={ys} N={ns}"
        )
    return total


def build_cond_matrix(params: DistParams, y, n) -> SymMatrix:
    """Conditioned second-moment matrix over {empty} u singletons of V u E.

    Index 0 stands for the empty set; index 1+c for the singleton {c}.
    Entry (A, B) equals w(Y u A u B, N), so the matrix is symmetric by
    construction and positive semidefinite whenever the weights come from
    a genuine distribution over 0-1 assignments.
    """
    ys, ns = _disjoint_pair(params.graph, y, n)
    nvars = params.graph.var_count
    sets = [ys] + [ys if c in ys else tuple(sorted(ys + (c,))) for c in range(nvars)]
    cache: dict = {}

    def entry(i: int, j: int):
        union = tuple(sorted(set(sets[i]) | set(sets[j])))
        if union not in cache:
            cache[union] = Rat(_weight_overlap_ok(params, union, ns), params.den)
        return cache[union]

    return SymMatrix.from_function(1 + nvars, entry)
