"""Dense symmetric rational matrices and exact PSD certification.

A `SymMatrix` is one positive integer `den` and full square integer rows
`ints`, entry (i, j) being ints[i][j] / den: the one form every producer
writes and the elimination reads.  `get` builds one entry's `Rat` for readers.

PSD testing runs an LDL^T factorization without pivoting.  A symmetric
rational matrix is positive semidefinite exactly when the elimination
succeeds with every diagonal pivot nonnegative, where a zero pivot is
admissible only if its entire remaining row vanishes.  On failure the
checker returns a rational witness vector v with v^T M v < 0, so a
negative verdict is independently checkable by one quadratic-form
evaluation.

The elimination runs on Python integers: each working row is a list of
integer numerators over one positive row denominator, starting from
the input row over its least denominator (one gcd of `den` and the
row).  The trailing block left by each step is symmetric, so only its
upper triangle is kept current, and nothing reads an entry below the
diagonal of a working row.  With pivot p / d_k > 0 in row k, row i's
multiplier is a / p, read from row k as a = A_k[i] (over d_k); row i
is updated on its columns j >= i alone, to (p d_k A_i - a d_i A_k)
over d_i d_k p, and one gcd of the denominator and the row then brings
the row back to lowest terms.  That keeps the integers about as small
as the rationals themselves without normalising every entry, and does
half the updates of a step on both triangles.

Indices i - 1 and i are twins when the transposition (i-1 i) fixes the
matrix: their rows agree off {i - 1, i} and their diagonals are equal.
Every step whose pivot is neither index keeps that, since the update is
symmetric in the two.  `_twins` links each index to its predecessor
once, on the input, when the two are twins (twins that are not
neighbours stay unlinked), and a row whose linked predecessor is still
below the pivot takes its update by copying the predecessor's: its
diagonal, then its entries past i, brought to lowest terms by the same
one gcd.  Each working row is its unique lowest-terms value, so every
row, row denominator and L entry is the one the row's own update gives.
The twins that pay for the copy, the `lasserre` minor's vertex rows and
the star Gram's leaves, are consecutive.

Whole-matrix fraction-free (Bareiss) elimination was measured and
rejected: its entries are minors of the input, which grow in bits with
every step.  On the level-1 slack minor of the 120-clique (`lasserre
--n 120 --r 1 --t 1`: 121 x 121, first negative pivot at index 63)
Bareiss took 2.62 s of CPU, `Fraction` elimination 2.90 s, the row-gcd
form on both triangles 0.40 s, on the upper triangle 0.22 s, and with
one update per twin class and the witness lifted on integers 0.015 s
(0.14 s at n = 300, against 2.5 s; best of 3 to 7, Python 3.11, one
core of a 2-CPU x86-64 VM).  The witness is solved from the L factor
over one common denominator and then rebuilt as rationals, like the
pivots, so the verdict is the one the rational elimination gives.
`schur_complement` is the first step of the same elimination,
`_eliminate_below` at index 0, with the upper triangle mirrored into the
lower.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, lcm

from .rational import ONE, ZERO, Rat, as_rational, integral

MAX_ENTRIES = 10**6  # distinct entries, n (n + 1) / 2, a SymMatrix may hold


def check_size(n: int) -> None:
    """Refuse an n x n matrix past the cap, before anything is allocated."""
    if n < 1:
        raise ValueError("matrix dimension must be positive")
    size = n * (n + 1) // 2
    if size > MAX_ENTRIES:
        raise ValueError(f"a {n}x{n} matrix has {size} entries (cap {MAX_ENTRIES})")


class SymMatrix:
    """Symmetric matrix of exact rationals: entry (i, j) is ints[i][j] / den.

    `ints` holds the full square of integer rows and `den` is positive;
    the matrix is never changed once built.
    """

    __slots__ = ("n", "den", "ints")

    def __init__(self, den: int, ints: list):
        check_size(len(ints))
        if den < 1:
            raise ValueError(f"denominator must be positive, got {den}")
        if list(map(list, zip(*ints))) != ints:
            raise ValueError("not a symmetric square array")
        self.n, self.den, self.ints = len(ints), den, ints

    def get(self, i: int, j: int):
        return Rat(self.ints[i][j], self.den)

    @classmethod
    def from_function(cls, n: int, fn) -> "SymMatrix":
        """Entries (i, j), i <= j, from fn, over their least common
        denominator and mirrored; refused past the cap before fn runs."""
        check_size(n)
        den, upper = integral([as_rational(fn(i, j)) for i in range(n) for j in range(i, n)])
        ints, start = [], 0
        for i in range(n):
            ints.append([r[i] for r in ints] + upper[start:start + n - i])
            start += n - i
        return cls(den, ints)


# Outcome of an exact PSD check.  When `is_psd`, `pivots` lists the
# nonnegative LDL^T pivots in elimination order.  Otherwise `witness` is a
# rational vector with `value` = witness^T M witness < 0, exactly.
PsdVerdict = namedtuple("PsdVerdict", "is_psd pivots witness value", defaults=(None,) * 3)


def quadratic_form(m: SymMatrix, v) -> object:
    """v^T M v, exact: v scaled to integers once, summed in integers."""
    if len(v) != m.n:
        raise ValueError("vector length does not match matrix dimension")
    scale, ints = integral(v)
    nz = [(j, x) for j, x in enumerate(ints) if x]
    total = sum(x * sum(m.ints[i][j] * y for j, y in nz) for i, x in nz)
    return Rat(total, m.den * scale * scale)


def _lift_through_factor(lcols: dict, top: int, n: int, support: dict) -> list:
    # Solve L^T v = z for the partial unit-lower factor; z supported on
    # `support` (indices <= top).  Coordinates above `top` stay zero.
    # L entries are stored as (row, numerator, denominator), one
    # denominator per column.  v is integer numerators over one
    # denominator, raised only by the factor a column's sum needs.
    den, nums = integral(list(support.values()))
    v = [0] * n
    for i, x in zip(support, nums):
        v[i] = x
    for i in range(top, -1, -1):
        col = lcols.get(i)
        s = sum(a * v[l] for l, a, _p in col) if col else 0
        if s:
            p = col[0][2]
            g = gcd(s, p)  # v[i] -= s / p, exact once v is over den * p / g
            if p > g:
                v = [x * (p // g) for x in v]
                den *= p // g
            v[i] -= s // g
    return [Rat(x, den) for x in v]


def _negative(m: SymMatrix, v: list) -> PsdVerdict:
    """The negative verdict with witness v, once v^T M v < 0 is checked."""
    val = quadratic_form(m, v)
    if not val < 0:  # an explicit check: it must survive python -O
        raise AssertionError(f"witness gives v^T M v = {val}, not negative")
    return PsdVerdict(False, witness=tuple(v), value=val)


def _least_rows(m: SymMatrix) -> tuple:
    """(dens, w): fresh working rows, row i of m being w[i] / dens[i] in lowest terms."""
    gs = [gcd(m.den, *row) for row in m.ints]
    return [m.den // g for g in gs], [[x // g for x in row] for row, g in zip(m.ints, gs)]


def _twins(m: SymMatrix) -> list:
    """prev[i]: i - 1 when the transposition (i-1 i) fixes m, else -1."""
    rows = m.ints
    return [-1] + [i - 1 if a[i - 1] == b[i] and a[:i - 1] == b[:i - 1] and a[i + 1:] == b[i + 1:]
                   else -1 for i, a, b in zip(range(1, m.n), rows, rows[1:])]


def _eliminate_below(w: list, dens: list, k: int, prev: list) -> list:
    """Eliminate pivot k (w[k][k] > 0) from the rows below it, in place, on
    their upper triangle only; the L column as (row, numerator, denominator).

    A row linked to its predecessor j (its twin, by `_twins`) copies j's
    just-updated row when j is past k."""
    wk, dk = w[k], dens[k]
    p = wk[k]
    col = []
    for i in range(k + 1, len(w)):
        a = wk[i]
        if a == 0:
            continue
        col.append((i, a, p))
        j = prev[i]
        if j > k:
            # (i j) fixes the trailing block: row i from column i on is
            # j's diagonal, then j's entries past i, over d_j; the gcd
            # below takes it to the lowest terms the update would give
            wj = w[j]
            new = [wj[j]] + wj[i + 1:]
            den = dens[j]
        else:
            # row_i -= (a / p) row_k on columns >= i, a read from row k: the
            # numerators p d_k A_i - a d_i A_k over d_i d_k p, after dividing
            # p d_k and a d_i by their gcd
            di = dens[i]
            u, v = p * dk, a * di
            g = gcd(u, v)
            u, v = u // g, v // g
            new = [u * x - v * y for x, y in zip(w[i][i:], wk[i:])]
            den = di * dk * p // g
        g = gcd(den, *new)
        if g > 1:
            new = [x // g for x in new]
            den //= g
        w[i][i:] = new
        dens[i] = den
    return col


def psd_check(m: SymMatrix) -> PsdVerdict:
    """Exact PSD verdict for a symmetric rational matrix.

    Total on its domain: every symmetric rational matrix gets either a
    nonnegative pivot list or a strict rational counterexample vector.
    """
    n = m.n
    dens, w = _least_rows(m)
    prev = _twins(m)
    lcols: dict[int, list] = {}
    pivots = []
    for k in range(n):
        wk, dk = w[k], dens[k]
        p = wk[k]
        if p < 0:
            return _negative(m, _lift_through_factor(lcols, k, n, {k: ONE}))
        if p == 0:
            bad = next((j for j in range(k + 1, n) if wk[j] != 0), None)
            if bad is not None:
                # 2x2 block [[0, c], [c, beta]] is indefinite; pick z with
                # z^T (block) z = -1 and lift it back through L^T.
                c = Rat(wk[bad], dk)
                beta = Rat(w[bad][bad], dens[bad])
                u = -(beta + ONE) / (2 * c)
                return _negative(m, _lift_through_factor(lcols, bad, n, {k: u, bad: ONE}))
            pivots.append(ZERO)
            continue
        pivots.append(Rat(p, dk))
        col = _eliminate_below(w, dens, k, prev)
        if col:
            lcols[k] = col
    return PsdVerdict(True, pivots=tuple(pivots))


def schur_complement(m: SymMatrix) -> SymMatrix:
    """The first LDL^T step: eliminate index 0 as `psd_check` does, giving
    M'(i,j) = m(i,j) - m(i,0) m(0,j) / m(0,0) on the indices past 0.

    Requires a strictly positive pivot; then m is PSD iff M' is.
    """
    d = m.get(0, 0)
    if d <= 0:
        raise ValueError(f"pivot must be positive, got {d}")
    if m.n == 1:
        raise ValueError("cannot take the Schur complement of a 1x1 matrix")
    dens, w = _least_rows(m)
    _eliminate_below(w, dens, 0, _twins(m))
    den = lcm(*dens[1:])
    ints = []  # row i of M' is w[1 + i], current from column 1 + i on: mirror the rest
    for i, (r, d) in enumerate(zip(w[1:], dens[1:])):
        ints.append([row[i] for row in ints] + [x * (den // d) for x in r[1 + i:]])
    return SymMatrix(den, ints)
