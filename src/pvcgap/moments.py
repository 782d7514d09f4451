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
integers with no normalisation.  The conditioned moment matrices leave
the layer in the same form, integer rows over `den`; a `Rat` is built
only for `cond_weight` here and for violation values in `hierarchy`.

`cond_weight` evaluates the linearized product weight
w(Y, N) = sum over T subset of N of (-1)^|T| * moment(Y u T)
two ways on every call: by that inclusion-exclusion sum over memoized
moments (the terms `graphs.expand` gives), and by a direct run of the kernel
on the event "all of Y on, all of N off".  The two must agree exactly; the
equality is checked at runtime so the identity behind the verifier is
re-proved on every use.

Relabelling twin vertices maps (Y, N) pairs onto each other and keeps their
weights, so `_weights_at` evaluates them once per orbit (on K_n 5, 22 and 104
at |Y u N| <= 1, 2, 3, for any n); a conditioned moment matrix stacks its rows:
row {a} at (Y, N) is that of (Y u {a}, N), zeros for a in N or an empty event.
An orbit's key is its least pair under those relabellings (`_canonical_pair`),
kept per first-appearance image (each vertex, in the pair's order, to the least
unused member of its class).  A new image's key is searched once per pre-sorted
image: on K8, 25 new images and 22 searches for the 2,593 pairs at r = 2, and
179 and 115 for the 59,713 at r = 3.
A lookup (`_orbit_key`) adds nothing to `params._orbits`: `build_cond_matrix`
takes the one its caller made as `found`.  The verdicts are each scan's own (`hierarchy`).
At a key, w(Y+{q}, N) is computed once per stabiliser class of q: permuting
the twins (Y, N) does not touch fixes the pair, so the codes it maps onto
each other share one weight: on K_n at r = 2 the 22 keys compute 195
cross-checked weights, for any n.
"""

from __future__ import annotations

from itertools import chain, groupby, permutations, product

from .graphs import Graph, expand, least_twins
from .rational import Rat, as_rational

SUPPORT_CAP = 26  # most vertices a moment's support closure may span


class SupportTooLarge(ValueError):
    """The support closure of a requested moment exceeds the safety cap."""


class MomentMismatch(AssertionError):
    """Inclusion-exclusion and direct enumeration disagreed (a bug)."""


class DistParams:
    """Graph plus inclusion probability p in [0, 1].

    `den` is the common denominator of every moment of the graph: the
    memo and the kernels hold probabilities as integers over it.
    `_group` is the graph's `_twin_group`; `_orbits`, the memo of `_key_value`,
    holds the `_weights_at` and `_matrix_rows` of each twin-orbit key met.
    """

    def __init__(self, graph: Graph, p):
        self.graph, self.p = graph, as_rational(p)
        if not (0 <= self.p <= 1):
            raise ValueError(f"p must lie in [0, 1], got {self.p}")
        self.den = self.p.denominator ** min(graph.n, SUPPORT_CAP)
        self._memo, self._orbits, self._group = {}, {}, None


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
    """w(Y, N) times `params.den` over the `graphs.expand` terms; overlapping arguments
    give 0 both ways (no terms, and the kernel zeroes a code forced both on and off)."""
    total = sum(sign * moment(params, s) for s, sign in expand(ys, ns).items())
    direct = _enumerate_on_off(params, ys, ns)
    if total != direct:
        raise MomentMismatch(
            f"inclusion-exclusion {Rat(total, params.den)} != "
            f"enumeration {Rat(direct, params.den)} at Y={ys} N={ns}"
        )
    return total


# -- twin-vertex orbits of (Y, N) pairs ------------------------------------


def _twin_group(g: Graph) -> tuple:
    """(twin class of each vertex, members of each class (none but for its
    least vertex), code table with vertex codes on its diagonal, ends of each
    code, the `_canonical_pair` memo of images' keys).  A vertex's least twin,
    from `least_twins`, is the least of its class.
    """
    cls = list(range(g.n))
    for a, b in least_twins(g):
        cls[b - 1] = a - 1
    ends = [(v, v) for v in range(g.n)] + [(i - 1, j - 1) for i, j in g.edges]
    code = [[None] * g.n for _ in range(g.n)]
    for c, (i, j) in enumerate(ends):
        code[i][j] = code[j][i] = c
    return cls, [[w for w in range(g.n) if cls[w] == v] for v in range(g.n)], code, ends, {}


def _image(group: tuple, sides: list, vmap: dict) -> tuple:
    """Each side's codes, given by their ends, relabelled by `vmap` and sorted."""
    code = group[2]
    return tuple(tuple(sorted(code[vmap[i]][vmap[j]] for i, j in side)) for side in sides)


def _least_image(group: tuple, image: tuple, cells: list) -> tuple:
    """(least image, map of its vertices onto the least one's) over every order of
    the image's vertices inside each cell, the orders mapped onto the cells in turn."""
    sides, dst = [[group[3][c] for c in codes] for codes in image], [*chain.from_iterable(cells)]
    best = None
    for order in product(*map(permutations, cells)):
        vmap = dict(zip(chain.from_iterable(order), dst))
        least = _image(group, sides, vmap)
        if best is None or least < best:
            best, best_map = least, vmap
    return best, best_map


def _canonical_pair(group: tuple, y: tuple, n: tuple) -> tuple:
    """(key, fmap, relabel): the pair's twin-orbit key, `fmap` of its vertices onto its
    first-appearance image, and `relabel` of the image's onto the key's (`_code_perm`
    composes them).  The image takes each vertex, met in Y's codes, then N's, end by end,
    to the least unused member of its twin class: a twin relabelling, so it is a pair of the
    orbit.  The memo keeps each image's key and `relabel`; `_labelled_key` finds new ones."""
    cls, members, code, ends, memo = group
    fmap, used = {}, {}
    for c in chain(y, n):
        for v in ends[c]:
            if v not in fmap:
                k = used[cls[v]] = used.get(cls[v], -1) + 1
                fmap[v] = members[cls[v]][k]
    image = (tuple([code[fmap[i]][fmap[j]] for i, j in map(ends.__getitem__, y)]),
             tuple([code[fmap[i]][fmap[j]] for i, j in map(ends.__getitem__, n)]))
    found = memo.get(image)
    if found is None:
        found = memo[image] = _labelled_key(group, *image)
    return found[0], fmap, found[1]


def _labelled_key(group: tuple, y: tuple, n: tuple) -> tuple:
    """(key, vmap): the least image (Y', N') of the pair when its touched
    vertices, sorted by (twin class, signature), go to the least members of
    their class in every order inside each cell of equal (class, signature),
    and that map of the touched vertices.  A signature counts: in Y, in N,
    incident Y-edges, incident N-edges.

    The pair is first mapped in its own order inside the cells.  That
    pre-sorted image fixes the cells, so the search over the cells' orders
    (`_least_image`) runs once per pre-sorted image, kept in the twin group's
    memo, and a later pair with that image reads it.
    """
    cls, members, _, ends, searched = group
    sides, label = [[ends[c] for c in codes] for codes in (y, n)], {}
    for s, side in enumerate(sides):
        for i, j in side:
            for v in {i, j}:
                label.setdefault(v, [cls[v], 0, 0, 0, 0])[1 + s + 2 * (i != j)] += 1
    touched = sorted(label, key=label.get)
    dst = [members[c][k] for c, vs in groupby(touched, cls.__getitem__) for k, _ in enumerate(vs)]
    vmap = dict(zip(touched, dst))
    image = _image(group, sides, vmap)
    if image not in searched:
        cells = [[vmap[v] for v in vs] for _, vs in groupby(touched, label.get)]
        searched[image] = _least_image(group, image, cells)
    key, relabel = searched[image]
    return key, {v: relabel[w] for v, w in vmap.items()}


def _code_perm(group: tuple, fmap: dict, relabel: dict) -> list:
    """The relabelling of the V u E codes by a `_canonical_pair`'s maps, composed: the
    untouched vertices of each class, in order, take its other members."""
    _, members, code, ends, _ = group
    vmap = {v: relabel[w] for v, w in fmap.items()}
    dst = set(vmap.values())
    free = (w for vs in members for w in vs if w not in dst)
    perm = dict(zip((v for vs in members for v in vs if v not in vmap), free)) | vmap
    return [code[perm[i]][perm[j]] for i, j in ends]


def _group(params: DistParams) -> tuple:
    """The `_twin_group` of the params' graph, built once into `params._group`."""
    if params._group is None:
        params._group = _twin_group(params.graph)
    return params._group


def _orbit_key(params: DistParams, ys: tuple, ns: tuple) -> tuple:
    """(key, fmap, relabel): `_canonical_pair` of the pair under the twin group."""
    return _canonical_pair(_group(params), ys, ns)


def _key_value(params: DistParams, build, key: tuple):
    """build(params, *key), once per twin-orbit key into `params._orbits` under (build, key)."""
    memo = params._orbits
    if (build, key) not in memo:
        memo[build, key] = build(params, *key)
    return memo[build, key]


def _weights_at(params: DistParams, ys: tuple, ns: tuple) -> tuple:
    """(w(Y, N), [w(Y+{q}, N) for each code q] or None if w(Y, N) = 0) times den.

    w(Y+{q}, N) is computed once per stabiliser class of q: permuting the
    untouched members of a twin class fixes (Y, N), so it takes q to a code
    of equal weight.  A class is q's two ends, each the vertex itself if
    (Y, N) touches it and its twin class if not, with a vertex/edge flag.
    """
    wyn = _weight_overlap_ok(params, ys, ns)
    if not wyn:
        return wyn, None
    cls, _, _, ends, _ = _group(params)
    touched = {v for c in chain(ys, ns) for v in ends[c]}
    side = [(True, v) if v in touched else (False, cls[v]) for v in range(params.graph.n)]
    by_class, w = {}, []
    for q, (i, j) in enumerate(ends):
        key = (i == j, *sorted((side[i], side[j])))
        if key not in by_class:
            by_class[key] = (0 if q in ns else
                             _weight_overlap_ok(params, tuple(sorted({*ys, q})), ns))
        w.append(by_class[key])
    return wyn, w


def _pair_weights(params: DistParams, y: tuple, n: tuple) -> tuple:
    """`_weights_at` the pair, once per twin orbit: the orbit's other pairs
    relabel its key's weights, w(Y+{q}, N) = w_key[perm[q]], perm the
    `_code_perm` of their `_orbit_key`."""
    key, *maps = _orbit_key(params, y, n)
    wyn, w = _key_value(params, _weights_at, key)
    return (wyn, w) if w is None else (wyn, [w[q] for q in _code_perm(_group(params), *maps)])


def _matrix_rows(params: DistParams, ys: tuple, ns: tuple) -> list:
    """Rows of the conditioned moment matrix at a twin-orbit key (Y, N), over den: weight rows
    [w, *w_q] of the key and each (Y u {a}, N) (Laurent 2003), zeros for a in N or empty events."""
    m = params.graph.var_count

    def row(wyn, w) -> list:
        return [0] * (1 + m) if w is None else [wyn, *w]

    first = row(*_key_value(params, _weights_at, (ys, ns)))
    return [first] + [[0] * (1 + m) if a in ns else first if a in ys else
                      row(*_pair_weights(params, tuple(sorted((*ys, a))), ns)) for a in range(m)]


def build_cond_matrix(params: DistParams, y, n, found=None) -> SymMatrix:
    """Conditioned second-moment matrix over {empty} u singletons of V u E.

    Index 0 stands for the empty set; index 1+c for the singleton {c}.
    Entry (A, B) equals w(Y u A u B, N), so the matrix is symmetric by
    construction and positive semidefinite whenever the weights come from
    a genuine distribution over 0-1 assignments.  Its entries are the
    `_matrix_rows` weight rows over `params.den` (zero rows for a in N and
    empty events) at its twin orbit's key; the orbit's other pairs take
    M[i][j] = M_key[pi(i)][pi(j)], pi(0) = 0 and pi(1+c) = 1+perm[c], perm
    the `_code_perm` of the pair's `_orbit_key` (`found`, if already looked up).
    """
    from .linalg import SymMatrix, check_size

    ys, ns = _disjoint_pair(params.graph, y, n)
    check_size(1 + params.graph.var_count)  # over its size cap, refused before any entry
    key, *maps = found or _orbit_key(params, ys, ns)
    rows = _key_value(params, _matrix_rows, key)
    pi = [0, *(1 + c for c in _code_perm(_group(params), *maps))]
    return SymMatrix(params.den, [list(map(rows[a].__getitem__, pi)) for a in pi])
