"""Exact rational LP solving with dual certificates.

`LinearProgram` holds a conified 0-1 polytope in a fixed normal form:
every constraint row reads  sum_j c_j x_j >= rhs, variables are free
(bounds are rows like any other), and the objective is minimized.  A row
is sparse, ((j, c_j) for each c_j != 0, rhs): the rows `graphs.pvc_rows`
returns, so the scan, the LPs and the simplex share one row format and
nothing is densified before the tableau.

`lp_solve` solves the program on the classes of its coarsest equitable
partition, found by colour refinement (Grohe, Kersting, Mladenov and
Selman, ESA 2014; Bodi, Herr and Joswig, Math. Program. 137, 2013): the
rows of a class share their rhs and the multiset of their coefficients
on each variable class, the variables of a class their objective value
and the multiset of their coefficients in each row class.  Symmetry
orbits are such a partition, so twins reduce without being named.  The
class program has one variable per variable class and one row per row
class, the class's first row with its coefficients summed over each
variable class; on singleton classes it is the program itself.  A
two-phase primal simplex over the rationals solves it on one tableau.
Phase 1 carries both objective rows, so phase 2 continues from the
phase-1 basis; after phase 1 the artificial columns and the phase-1 row
are cut away.  Each row is scaled to integers by `rational.integral` and
the tableau is kept in integers, each row over its own denominator (the
basis determinant at the last pivot that changed it), so a pivot does no
gcd work and skips every row with a 0 in the pivot column.  It pivots by
Dantzig's rule and falls back to Bland's rule only after a degenerate
stall, so it is deterministic and terminates on every input.

The class optimum is expanded back (x_j is the value of j's class, and
each row-class multiplier is spread evenly over the rows of its class)
and re-verified exactly on the full program before it is returned:
primal feasibility, dual sign, complementary slackness, stationarity and
strong duality.  On an equitable partition the spread dual is
stationary, so a wrong aggregation raises instead of returning a wrong
value.  An infeasible or unbounded program raises ValueError: every
program pvcgap builds has an optimum.

As a presolve step, rows of the shape a*x_j >= 0 (a > 0) are absorbed as
variable nonnegativity; their multipliers are read from the reduced cost
of x_j, so the reported certificate always covers the original row list.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain
from math import prod

from .rational import ZERO, Rat, as_rational, integral

_PIVOT_CAP = 5_000_000  # the Bland fallback terminates; this guards against bugs


class LinearProgram(namedtuple("LinearProgram", "names rows objective")):
    """Minimize objective . x subject to every row.

    `rows` is ((((j, c_j), ...), rhs), ...): each row means sum_j c_j x_j >= rhs.
    """

    __slots__ = ()

    def __new__(cls, names: tuple, rows: tuple, objective: tuple):
        nv = len(names)
        if len(objective) != nv:
            raise ValueError("objective length != variable count")
        for k, (coeffs, _rhs) in enumerate(rows):
            if len({j for j, c in coeffs if c != 0 and 0 <= j < nv}) != len(coeffs):
                raise ValueError(f"row {k} needs distinct variables in 0..{nv - 1}, each c != 0")
        return super().__new__(cls, names, rows, objective)

    @property
    def n_vars(self) -> int:
        return len(self.names)

    @property
    def n_rows(self) -> int:
        return len(self.rows)


# the minimum value, a primal optimum and one dual multiplier per row
LpResult = namedtuple("LpResult", "value primal dual")


class _Tableau:
    """Integer simplex tableau with one denominator per row (after Edmonds).

    Every entry is an integer: the true tableau value times its row's
    denominator, `dens[i]` for row i and `obj_dens[k]` for objective row k.
    That denominator is `d`, the absolute determinant of the basis in the
    row-scaled integer program that `_solve` builds, as it was at the last
    pivot that changed the row.  Times the current d, every true entry is
    an integer, a minor of the starting integer matrix (Edmonds'
    fraction-free tableau).  A pivot on (r, s) first brings row r to the
    current d (R*d/D_r, exact since the result is such a minor) and, if
    p = R[s] < 0 (only when artificials are pivoted out), negates it.  It
    leaves every row with R_i[s] = 0 alone, since its true values do not
    change.  It sets each other row to (p*R_i - R_i[s]*R) / D_i, exact
    because the result is the Edmonds entry over the new basis (when
    p = D_i, only where R is nonzero), and makes p the new d and the
    denominator of row r and of every row it changed.  Positive scales keep
    every sign and every ratio within a row, so the rules below read the
    integers directly and compare rows by cross-multiplying.

    Entering rule: Dantzig (most negative reduced cost, smallest index on
    ties) while the objective moves, falling back to Bland's smallest-index
    rule whenever a run of degenerate pivots stalls and staying there until
    the objective strictly improves.  Deterministic, and terminating: a
    hypothetical cycle would keep the objective constant, so the walk would
    be under Bland's rule, which admits no cycle.
    """

    def __init__(self, rows, objs, basis, d):
        self.rows = rows          # each: list of column values + [rhs]
        self.objs = objs          # reduced-cost rows, each + [-(objective value)]
        self.basis = basis        # basis[i] = column index basic in row i
        self.d = d
        self.dens = [d] * len(rows)
        self.obj_dens = [d] * len(objs)

    def pivot(self, row_i: int, col_j: int) -> None:
        prow, d, den = self.rows[row_i], self.d, self.dens[row_i]
        if den != d:
            prow[:] = [v * d // den for v in prow]
        p = prow[col_j]
        if p < 0:
            prow[:] = [-v for v in prow]
            p = -p
        nz = [k for k, v in enumerate(prow) if v]
        for rows, dens in ((self.rows, self.dens), (self.objs, self.obj_dens)):
            for i, r in enumerate(rows):
                f = r[col_j]
                if f == 0 or r is prow:
                    continue
                den = dens[i]
                if p == den:
                    for k in nz:
                        r[k] -= f * prow[k] // p
                else:
                    r[:] = [(p * a - f * b) // den for a, b in zip(r, prow)]
                    dens[i] = p
        self.dens[row_i] = self.d = p
        self.basis[row_i] = col_j

    def step(self, k: int, bland: bool) -> bool:
        """One simplex step over every column of objective row k; False once optimal."""
        obj = self.objs[k]
        cols = range(len(obj) - 1)
        if bland:
            enter = next((j for j in cols if obj[j] < 0), None)
        else:  # the first most negative reduced cost
            enter = min(cols, key=obj.__getitem__, default=None)
            if enter is not None and obj[enter] >= 0:
                enter = None
        if enter is None:
            return False
        # ratio test, rhs/entry cross-multiplied; ties go to the smallest basic column
        basis = self.basis
        best_row = None
        for i, r in enumerate(self.rows):
            a = r[enter]
            if a > 0:
                if best_row is not None:
                    mine, best = r[-1] * best_a, best_b * a
                    if mine > best or mine == best and basis[i] > basis[best_row]:
                        continue
                best_row, best_a, best_b = i, a, r[-1]
        if best_row is None:
            raise ValueError("the linear program is unbounded")
        self.pivot(best_row, enter)
        return True

    def run(self, k: int) -> None:
        """Pivot on objective row k until it is optimal."""
        obj, dens = self.objs[k], self.obj_dens
        stall_limit = max(64, len(self.rows))
        bland = False
        stalled = 0
        last, last_den = obj[-1], dens[k]
        for _ in range(_PIVOT_CAP):
            if not self.step(k, bland):
                return
            if obj[-1] * last_den != last * dens[k]:
                last, last_den = obj[-1], dens[k]
                bland = False
                stalled = 0
            else:
                stalled += 1
                if stalled >= stall_limit:
                    bland = True
        raise RuntimeError("pivot cap exceeded; this should be unreachable")


def lp_solve(lp: LinearProgram) -> LpResult:
    """Solve exactly on the classes of `_equitable_classes`, then re-verify on `lp`.

    Deterministic (fixed pivot rules, fixed column layout).  Raises
    ValueError when the program is infeasible or unbounded.
    """
    c = [as_rational(x) for x in lp.objective]
    var_classes, row_classes = _equitable_classes(lp, c)
    class_of = [0] * lp.n_vars
    for k, cls in enumerate(var_classes):
        for j in cls:
            class_of[j] = k
    rows = []
    for cls in row_classes:
        coeffs, rhs = lp.rows[cls[0]]
        summed = {}
        for j, a in coeffs:
            summed[class_of[j]] = summed.get(class_of[j], 0) + a
        rows.append(([(k, a) for k, a in summed.items() if a], rhs))
    z, u = _solve(rows, [sum(c[j] for j in cls) for cls in var_classes])
    x = [z[k] for k in class_of]
    dual = [ZERO] * lp.n_rows
    for cls, uk in zip(row_classes, u):
        for i in cls:
            dual[i] = uk / len(cls)
    return _optimal_result(lp, c, x, dual)


def _equitable_classes(lp: LinearProgram, c: list) -> tuple:
    """(variable classes, row classes) of the coarsest equitable partition.

    Colour refinement: variables start coloured by their objective value
    and rows by their rhs.  Each round colours every row by its rhs and
    the multiset of (variable colour, coefficient) of its entries, then
    every variable by its colour and the multiset of (row colour,
    coefficient) of its column, until a round splits no variable class.
    Each class is ascending; classes are listed by least member.
    """
    cols = [[] for _ in range(lp.n_vars)]
    for i, (coeffs, _rhs) in enumerate(lp.rows):
        for j, a in coeffs:
            cols[j].append((i, a))
    var_colour, n_var = _recolour(c)
    while True:
        row_colour, n_row = _recolour(
            (rhs, tuple(sorted((var_colour[j], a) for j, a in coeffs))) for coeffs, rhs in lp.rows)
        split, n_split = _recolour(
            (var_colour[j], tuple(sorted((row_colour[i], a) for i, a in col)))
            for j, col in enumerate(cols))
        if n_split == n_var:
            return _cells(var_colour, n_var), _cells(row_colour, n_row)
        var_colour, n_var = split, n_split


def _recolour(signatures) -> tuple:
    """(one colour per signature, numbered by first occurrence; colour count)."""
    ids = {}
    colours = [ids.setdefault(sig, len(ids)) for sig in signatures]
    return colours, len(ids)


def _cells(colours: list, n: int) -> list:
    """The n classes of `colours` (numbered by first occurrence), each ascending."""
    cells = [[] for _ in range(n)]
    for k, colour in enumerate(colours):
        cells[colour].append(k)
    return cells


def _solve(rows: list, c: list) -> tuple:
    """(primal, one multiplier per row) of min c . x over the sparse `rows`."""
    nv = len(c)

    # presolve: absorb a*x_j >= 0 (a > 0) rows as variable nonnegativity
    absorber = {}  # var -> (original row index, coefficient)
    solver_rows = []  # (original row index, coeffs, rhs)
    for idx, (coeffs, rhs) in enumerate(rows):
        if rhs == 0 and len(coeffs) == 1 and coeffs[0][1] > 0:
            j, a = coeffs[0]
            absorber.setdefault(j, (idx, a))
            continue  # duplicates are redundant; dual stays 0
        solver_rows.append((idx, coeffs, rhs))

    # column layout: structural (split when free), then surplus, then artificials
    col_var = []  # (var index, sign)
    pos_col = []  # pos_col[j] = column of x_j with sign +1
    for j in range(nv):
        pos_col.append(len(col_var))
        col_var.append((j, 1))
        if j not in absorber:
            col_var.append((j, -1))
    n_struct = len(col_var)
    m = len(solver_rows)
    n_art = sum(1 for _idx, _coeffs, rhs in solver_rows if rhs > 0)
    n_cols = n_struct + m + n_art

    # Each row is sign-normalised to a nonnegative rhs; rows with rhs > 0
    # get an artificial basic column, the others their surplus column.  The
    # tableau is this rational tableau times d, the product of the least
    # scales that make each row integral (the starting basis determinant
    # of the scaled rows; 1 for integer data), so it pivots exactly as the
    # rational one would.  The objective is scaled to integers by
    # obj_scale, which no pivot rule sees; the multipliers divide it out.
    scaled = [integral([a for _j, a in coeffs] + [rhs]) for _idx, coeffs, rhs in solver_rows]
    d = prod(scale for scale, _ints in scaled)
    obj_scale, c_int = integral(c)
    obj1 = [0] * (n_cols + 1)  # phase 1: minimize the artificial sum
    obj2 = [0] * (n_cols + 1)
    for k, (j, sign) in enumerate(col_var):
        obj2[k] = c_int[j] * sign * d
    tab_rows = []
    basis = []
    art_col = n_struct + m
    for i, ((_idx, coeffs, _rhs), (scale, ints)) in enumerate(zip(solver_rows, scaled)):
        s = 1 if ints[-1] > 0 else -1
        f = s * (d // scale)
        row = [0] * (n_cols + 1)
        for (j, _a), v in zip(coeffs, ints):
            row[pos_col[j]] = v * f
            if j not in absorber:
                row[pos_col[j] + 1] = -v * f
        row[n_struct + i] = -s * d
        row[-1] = ints[-1] * f
        if s > 0:
            for k, v in enumerate(row):
                obj1[k] -= v
            row[art_col] = d
            basis.append(art_col)
            art_col += 1
        else:
            basis.append(n_struct + i)
        tab_rows.append(row)

    # the starting basis costs nothing in phase 2, so obj2 starts priced out
    tab = _Tableau(tab_rows, [obj1, obj2], basis, d)
    if n_art:
        tab.run(0)  # bounded below by 0
        if obj1[-1] != 0:  # a positive artificial sum is left
            raise ValueError("the linear program is infeasible")
    del tab.objs[0], tab.obj_dens[0]
    _drop_artificials(tab, n_struct + m)
    tab.run(0)
    x = _primal_from_tableau(tab, col_var, nv)
    dual = _multipliers(tab, obj_scale, len(rows), solver_rows, n_struct, absorber,
                        pos_col)
    return x, dual


def _drop_artificials(tab: _Tableau, keep_cols: int) -> None:
    """Pivot basic artificials out, then cut their columns from every row.

    Every solver row has its own surplus column, so the columns kept have
    full row rank and each such row has a nonzero entry among them.
    """
    for i in range(len(tab.rows)):
        if tab.basis[i] >= keep_cols:
            r = tab.rows[i]
            tab.pivot(i, next(k for k in range(keep_cols) if r[k] != 0))
    for r in chain(tab.rows, tab.objs):
        del r[keep_cols:-1]


def _primal_from_tableau(tab: _Tableau, col_var, nv: int) -> list:
    x = [ZERO] * nv
    for r, den, b in zip(tab.rows, tab.dens, tab.basis):
        if b < len(col_var):
            j, sign = col_var[b]
            x[j] += sign * Rat(r[-1], den)
    return x


def _multipliers(tab, obj_scale, n_rows, solver_rows, n_struct, absorber, pos_col):
    """One optimal dual multiplier per row given to `_solve`, read from the final objective.

    A solver row's multiplier is the reduced cost of its surplus column; an
    absorbed a*x_j >= 0 row's is the reduced cost of x_j divided by a.
    Reduced costs are divided by obj_scale.
    """
    obj, scale = tab.objs[0], tab.obj_dens[0] * obj_scale
    u = [ZERO] * n_rows
    for i, (idx, _coeffs, _rhs) in enumerate(solver_rows):
        u[idx] = Rat(obj[n_struct + i], scale)
    for j, (idx, a) in absorber.items():
        u[idx] = Rat(obj[pos_col[j]], scale) / a
    return u


def _optimal_result(lp, c, x, dual):
    # certify before reporting: feasibility, stationarity, complementary
    # slackness and strong duality must all hold exactly, checked in integers
    # on integer rows with x[j] = xs[j] / x_scale, dual[i] = us[i] / u_scale
    (x_scale, xs), (u_scale, us), (c_scale, cs) = map(integral, (x, dual, c))
    value = sum(cj * xj for cj, xj in zip(cs, xs))  # times c_scale * x_scale
    dual_value = 0  # times u_scale
    lhs = [0] * lp.n_vars  # sum_i dual[i] * row i, by variable, times u_scale
    for (coeffs, rhs), u in zip(lp.rows, us):
        if u < 0:
            raise RuntimeError("negative dual multiplier")
        slack = sum(a * xs[j] for j, a in coeffs) - rhs * x_scale  # times x_scale
        if slack < 0:
            raise RuntimeError("reported primal violates a row")
        if u != 0:
            if slack != 0:
                raise RuntimeError("complementary slackness failed")
            dual_value += u * rhs
            for j, a in coeffs:
                lhs[j] += a * u
    if [v * c_scale for v in lhs] != [cj * u_scale for cj in cs]:
        raise RuntimeError("dual stationarity failed")
    if dual_value * c_scale * x_scale != value * u_scale:
        raise RuntimeError("strong duality failed")
    return LpResult(Rat(value, c_scale * x_scale), tuple(x), tuple(dual))
