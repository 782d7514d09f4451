"""Dense symmetric rational matrices and exact PSD certification.

PSD testing runs an LDL^T factorization without pivoting.  A symmetric
rational matrix is positive semidefinite exactly when the elimination
succeeds with every diagonal pivot nonnegative, where a zero pivot is
admissible only if its entire remaining row vanishes.  On failure the
checker returns a rational witness vector v with v^T M v < 0, so a
negative verdict is independently checkable by one quadratic-form
evaluation.

The elimination runs on Python integers: each working row is a list of
integer numerators over one positive row denominator, starting from
`rational.integral` of the input row.  Eliminating with
pivot row k (pivot P / d_k > 0) maps row i to (P A_i - a_ik A_k) over
d_i P, and one gcd of the denominator and the row then brings the row
back to lowest terms.  That keeps the integers about as small as the
rationals themselves without normalising every entry.  Whole-matrix
fraction-free (Bareiss) elimination was measured and rejected: its
entries are minors of the input, which grow in bits with every step.  On
the level-1 slack minor of the 120-clique (`lasserre --n 120 --r 1 --t
1`) Bareiss took 2.17 s of CPU, `Fraction` elimination 2.22 s and the
row-gcd form 0.27 s (Python 3.11, one core of a 2-CPU x86-64 VM).
Pivots, the L factor needed for a witness and the witness itself are
rebuilt as rationals, so the verdict is the one the rational elimination
gives.  `schur_complement` is the first step of the same elimination:
`_eliminate_below` at index 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .rational import ONE, ZERO, Rat, as_rational, integral

MAX_ENTRIES = 10**6  # packed entries a SymMatrix may hold


class SymMatrix:
    """Symmetric matrix of exact rationals, packed upper-triangle storage."""

    __slots__ = ("n", "_e")

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("matrix dimension must be positive")
        size = n * (n + 1) // 2
        if size > MAX_ENTRIES:
            raise ValueError(f"a {n}x{n} matrix has {size} entries (cap {MAX_ENTRIES})")
        self.n = n
        self._e = [ZERO] * size

    def _idx(self, i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        return i * self.n - i * (i + 1) // 2 + j

    def get(self, i: int, j: int):
        return self._e[self._idx(i, j)]

    def set(self, i: int, j: int, value) -> None:
        self._e[self._idx(i, j)] = as_rational(value)

    @classmethod
    def from_function(cls, n: int, fn) -> "SymMatrix":
        """Fill entries (i, j), i <= j, from fn; symmetry is by construction."""
        m = cls(n)
        for i in range(n):
            for j in range(i, n):
                m._e[m._idx(i, j)] = as_rational(fn(i, j))
        return m

    def rows(self) -> list:
        """Row i is column i of the rows above it, then its slice of the packed storage."""
        n, e = self.n, self._e
        rows, start = [], 0
        for i in range(n):
            rows.append([r[i] for r in rows] + e[start:start + n - i])
            start += n - i
        return rows

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SymMatrix)
            and self.n == other.n
            and self._e == other._e
        )

    def __repr__(self) -> str:
        if self.n <= 6:
            return f"SymMatrix({self.rows()!r})"
        return f"SymMatrix(n={self.n})"


@dataclass(frozen=True)
class PsdVerdict:
    """Outcome of an exact PSD check.

    When `is_psd`, `pivots` lists the nonnegative LDL^T pivots in
    elimination order.  Otherwise `witness` is a rational vector with
    `value` = witness^T M witness < 0, exactly.
    """

    is_psd: bool
    pivots: tuple | None = None
    witness: tuple | None = None
    value: object = None


def quadratic_form(m: SymMatrix, v) -> object:
    """v^T M v, exact."""
    if len(v) != m.n:
        raise ValueError("vector length does not match matrix dimension")
    total = ZERO
    for i, vi in enumerate(v):
        if vi == 0:
            continue
        acc = ZERO
        for j, vj in enumerate(v):
            if vj != 0:
                acc += m.get(i, j) * vj
        total += vi * acc
    return total


def _lift_through_factor(lcols: dict, top: int, n: int, support: dict) -> list:
    # Solve L^T v = z for the partial unit-lower factor; z supported on
    # `support` (indices <= top).  Coordinates above `top` stay zero.
    # L entries are stored as (row, numerator, denominator).
    v = [ZERO] * n
    for i in range(top, -1, -1):
        acc = support.get(i, ZERO)
        col = lcols.get(i)
        if col is not None:
            for l, num, den in col:
                if l <= top and v[l] != 0:
                    acc -= Rat(num, den) * v[l]
        v[i] = acc
    return v


def _negative(m: SymMatrix, v: list) -> PsdVerdict:
    """The negative verdict with witness v, once v^T M v < 0 is checked."""
    val = quadratic_form(m, v)
    if not val < 0:  # an explicit check: it must survive python -O
        raise AssertionError(f"witness gives v^T M v = {val}, not negative")
    return PsdVerdict(False, witness=tuple(v), value=val)


def _eliminate_below(w: list, dens: list, k: int) -> list:
    """Eliminate pivot k (w[k][k] > 0) from the columns past k of the rows
    below it, in place; the L column as (row, numerator, denominator)."""
    wk, dk = w[k], dens[k]
    p = wk[k]
    tail = wk[k + 1:]
    col = []
    for i in range(k + 1, len(w)):
        wi = w[i]
        a = wi[k]
        if a == 0:
            continue
        # row_i -= f row_k with f = (a / d_i) / (p / d_k): the new
        # numerators are p A_i - a A_k over d_i p, after dividing p and a
        # by their gcd
        g = gcd(p, a)
        pg, ag = p // g, a // g
        col.append((i, a * dk, dens[i] * p))
        new = [pg * x - ag * y for x, y in zip(wi[k + 1:], tail)]
        den = dens[i] * pg
        g = gcd(den, *new)
        if g > 1:
            new = [x // g for x in new]
            den //= g
        wi[k + 1:] = new
        dens[i] = den
    return col


def psd_check(m: SymMatrix) -> PsdVerdict:
    """Exact PSD verdict for a symmetric rational matrix.

    Total on its domain: every symmetric rational matrix gets either a
    nonnegative pivot list or a strict rational counterexample vector.
    """
    n = m.n
    dens, w = map(list, zip(*map(integral, m.rows())))  # row i is w[i] / dens[i]
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
        col = _eliminate_below(w, dens, k)
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
    dens, w = map(list, zip(*map(integral, m.rows())))  # row i is w[i] / dens[i]
    _eliminate_below(w, dens, 0)
    return SymMatrix.from_function(m.n - 1, lambda i, j: Rat(w[i + 1][j + 1], dens[i + 1]))
