"""Level-1 moment-slack analysis of the demand constraint on cliques.

For the clique on n vertices under the random-cover distribution, the
demand constraint's level-1 slack moment matrix restricted to vertex
subsets of size <= 1 has a closed form: with

    S_k      = C(k,2) (2p - p^2) - t      (expected slack on a k-clique)
    C(n, a)  = binom(a,2) + a (n - a)     (edges covered by a vertices)

the entry at (I, J) equals p^|I u J| (S_{n-|I u J|} + C(n, |I u J|)).
`build_zbar` materializes that matrix.  `level1_slack_matrix` builds the
slack matrix of any row from enumerated moments, each entry the row lifted
by `graphs.lift`; the demand row's leading (n+1)-square minor is
`build_zbar`'s matrix, and the tests check that entrywise.

The matrix has constant diagonal and constant off-diagonal blocks, so
after one Schur step at the empty-set entry the all-ones vector is an
eigenvector; `allones_eigenvalue_after_schur` returns that eigenvalue
exactly (and re-derives it from the actual Schur complement's row sums).
A negative value certifies that the matrix is not PSD, i.e. that the
level-1 moment SDP rejects the random-cover solution at those
parameters.
"""

from __future__ import annotations

from math import comb

from .certificates import Certificate, rational_entry
from .linalg import SymMatrix, psd_check, schur_complement
from .rational import Rat, as_rational, rational_str


def covered_edges(n: int, a: int) -> int:
    """Edges of the n-clique covered by choosing a vertices."""
    if not 0 <= a <= n:
        raise ValueError(f"need 0 <= a <= n, got a={a}, n={n}")
    return comb(a, 2) + a * (n - a)


def expected_slack(n: int, t, p):
    """C(n,2)(2p - p^2) - t: expected demand slack on the n-clique."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    p = as_rational(p)
    t = as_rational(t)
    return comb(n, 2) * (2 * p - p * p) - t


def build_zbar(n: int, t, p) -> SymMatrix:
    """(n+1)x(n+1) slack minor over {empty} u vertex singletons, closed form.

    t is normally an integer demand; a rational t is accepted so the
    asymptotic regime (p pinned first, t solved from it) stays expressible.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    p = as_rational(p)
    t = as_rational(t)
    by_size = [p**u * (expected_slack(n - u, t, p) + covered_edges(n, u)) for u in (0, 1, 2)]
    return SymMatrix.from_function(n + 1, lambda i, j: by_size[len({i, j} - {0})])


def allones_eigenvalue_after_schur(zbar: SymMatrix):
    """Eigenvalue of the Schur complement (at the empty entry) along all-ones.

    Reads S_n, alpha and beta off the entries of a `build_zbar` matrix and
    demands a positive pivot S_n.  The closed-form value is cross-checked
    against the row sums of the actual Schur complement, which must all be
    equal for this matrix.
    """
    sn = zbar.get(0, 0)
    if sn <= 0:
        raise ValueError(f"Schur pivot S_n = {sn} is not positive")
    n, alpha, beta = zbar.n - 1, zbar.get(0, 1), zbar.get(1, 2)
    eig = alpha + (n - 1) * beta - n * alpha * alpha / sn
    sc = schur_complement(zbar)
    sums = {sum(row) for row in sc.ints}  # times sc.den
    if sums != {eig * sc.den}:
        raise AssertionError("all-ones direction is not an eigenvector")
    return eig


# -- generic level-1 slack moment matrices -----------------------------------


def level1_slack_matrix(params, row) -> SymMatrix:
    """Slack moment matrix of one sparse LP row over {empty} u singletons of V u E.

    `row` is (((q, a_q), ...), rhs), a `graphs.pvc_rows` row.  Entry (A, B)
    is the row lifted by x_{A u B} (`graphs.lift` at (Y, N) = (A u B, {})),
    sum_S c_S * moment(S) = sum_q a_q * moment(A u B u {q}) - rhs * moment(A u B).
    Built from enumerated moments, so it works for any row, not only ones
    with a closed form.  `params` is a `moments.DistParams`; `graphs` and
    `moments` are imported here, so the `lasserre` command loads neither.
    """
    from .graphs import lift
    from .moments import moment

    sets = [()] + [(q,) for q in range(params.graph.var_count)]

    def entry(i: int, j: int):
        lifted = lift(row, sets[i] + sets[j], ())
        return Rat(sum(c * moment(params, s) for s, c in lifted.items()), params.den)

    return SymMatrix.from_function(len(sets), entry)


# -- the refutation check -----------------------------------------------------


def lasserre1_refutes(n: int, r: int, t: int) -> Certificate:
    """Build the demand-slack minor at p = t / C(n-2r, 2) and PSD-check it.

    Verdict 'refuted' means the matrix is not PSD, so the level-1 moment
    SDP rejects the level-r random-cover solution at these parameters;
    the certificate then carries both an explicit negative-direction
    witness vector and the all-ones Schur eigenvalue.
    """
    if n < 2 * r + 2 * t + 2:
        raise ValueError("need n >= 2r + 2t + 2")
    if r < 0 or t < 1:
        raise ValueError("need r >= 0 and t >= 1")
    p = Rat(t) / comb(n - 2 * r, 2)
    zbar = build_zbar(n, t, p)
    verdict = psd_check(zbar)
    eig = allones_eigenvalue_after_schur(zbar)
    if eig < 0 and verdict.is_psd:
        raise AssertionError("negative eigenvalue on a PSD matrix")
    values = {
        "schur_pivot": rational_entry(zbar.get(0, 0)),
        "allones_eigenvalue": rational_entry(eig),
    }
    witness = None
    if not verdict.is_psd:
        witness = {
            "kind": "negative-direction",
            "vector": [rational_str(v) for v in verdict.witness],
            "quadratic_form": rational_entry(verdict.value),
        }
    return Certificate(
        claim="lemma-8",
        params={"n": n, "r": r, "t": t, "p": rational_entry(p)},
        verdict="refuted" if not verdict.is_psd else "not-refuted",
        values=values,
        witness=witness,
    )
