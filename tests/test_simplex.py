import random
from itertools import combinations

import pytest

from pvcgap import simplex
from pvcgap.graphs import Graph, build_pvc_lp, make_star
from pvcgap.hierarchy import generate_sa1_lp
from pvcgap.rational import ONE, ZERO, Rat
from pvcgap.simplex import LinearProgram, lp_solve

from conftest import EdmondsTableau, equitable_classes, rand_rational, vertex_enumeration_min

PER_ROW = simplex._Tableau


def _lp(rows, objective):
    """The LP of sparse rows (((j, c), ...), rhs) and a dense objective."""
    n = len(objective)
    return LinearProgram(
        names=tuple(f"x{k}" for k in range(n)),
        rows=tuple((tuple((j, Rat(c)) for j, c in coeffs), Rat(r)) for coeffs, r in rows),
        objective=tuple(Rat(c) for c in objective),
    )


def test_single_variable_interval():
    lp = LinearProgram(
        names=("x",),
        rows=((((0, Rat(1)),), Rat(3, 7)), (((0, Rat(-1)),), Rat(-1))),
        objective=(Rat(1),),
    )
    res = lp_solve(lp)
    assert res.value == Rat(3, 7)
    assert res.primal == (Rat(3, 7),)


@pytest.mark.parametrize(
    "rows",
    [
        # x >= 2 and -x >= -1 cannot both hold
        [(((0, 1),), 2), (((0, -1),), -1)],
        # x >= 0 is absorbed as a sign constraint
        [(((0, 1),), 0), (((0, -1),), 1)],
        # 2x >= 0 and y >= 0 are absorbed; x + y <= -1 and x - y >= -5 remain
        [(((0, 2),), 0), (((1, 1),), 0), (((0, -1), (1, -1)), 1), (((0, 1), (1, -1)), -5)],
    ],
    ids=["bounds", "absorbed-nonneg", "absorbed-pair"],
)
def test_infeasible_program_raises(rows):
    n = 1 + max(j for coeffs, _rhs in rows for j, _c in coeffs)
    with pytest.raises(ValueError, match="infeasible"):
        lp_solve(_lp(rows, [0] * n))


def test_unbounded_program_raises():
    with pytest.raises(ValueError, match="unbounded"):
        lp_solve(_lp([(((0, 1),), 0), (((1, 1),), 0)], [-1, 0]))


@pytest.mark.parametrize(
    "rows, objective, value, dual",
    [
        # 3y >= 0 binds with multiplier 1/3: its reduced cost 1 is divided by a = 3
        ([(((0, 2),), 0), (((1, 3),), 0), (((0, 1), (1, 1)), 1)], [1, 2], 1,
         (0, Rat(1, 3), 1)),
        # both absorbed rows (2x >= 0, y >= 0) bind with nonzero multipliers
        ([(((0, 2),), 0), (((1, 1),), 0), (((0, -1), (1, -1)), -1)], [3, 1], 0,
         (Rat(3, 2), 1, 0)),
    ],
    ids=["absorbed-a3", "absorbed-pair"],
)
def test_absorbed_row_multipliers_divide_by_their_coefficient(rows, objective, value,
                                                              dual):
    res = lp_solve(_lp(rows, objective))
    assert res.value == value
    assert res.dual == tuple(Rat(u) for u in dual)


def test_free_variables_are_supported():
    # min x + y with x + y >= -3, no sign constraints
    lp = _lp([(((0, 1), (1, 1)), -3)], [1, 1])
    res = lp_solve(lp)
    assert res.value == Rat(-3)


def test_degenerate_equalities_via_opposing_rows():
    lp = _lp([(((0, 1), (1, 1)), 1), (((0, -1), (1, -1)), -1), (((0, 1),), 0), (((1, 1),), 0)],
             [2, 3])
    res = lp_solve(lp)
    assert res.value == Rat(2)


def test_duals_satisfy_exact_optimality_conditions():
    lp = _lp(
        [(((0, 1), (1, 2)), 2), (((0, 3), (1, 1)), 3), (((0, 1),), 0), (((1, 1),), 0)],
        [2, 1],
    )
    res = lp_solve(lp)
    y = res.dual
    assert all(u >= 0 for u in y)
    for j in range(lp.n_vars):
        column = sum(u * dict(coeffs).get(j, 0) for u, (coeffs, _rhs) in zip(y, lp.rows))
        assert column == lp.objective[j]
    assert sum(y[i] * lp.rows[i][1] for i in range(lp.n_rows)) == res.value
    for i, (coeffs, rhs) in enumerate(lp.rows):
        slack = sum((c * res.primal[j] for j, c in coeffs), ZERO) - rhs
        assert slack >= 0
        assert y[i] == 0 or slack == 0


@pytest.mark.parametrize("primal, dual, message", [
    ((Rat(4, 5), Rat(1, 2)), (Rat(1, 5), Rat(3, 5), 0, 0), "primal violates a row"),
    ((Rat(4, 5), Rat(3, 5)), (Rat(1, 5), Rat(3, 5), -1, 0), "negative dual multiplier"),
    ((Rat(4, 5), Rat(3, 5)), (Rat(1, 5), Rat(3, 5), 1, 0), "complementary slackness"),
    ((Rat(4, 5), Rat(3, 5)), (Rat(2, 5), Rat(6, 5), 0, 0), "dual stationarity"),
])
def test_the_exact_rechecks_refuse_a_corrupted_optimum(primal, dual, message):
    # the optimum is x = (4/5, 3/5) with dual (1/5, 3/5, 0, 0); strong duality
    # follows from the other four checks, so no corruption reaches it alone
    lp = _lp([(((0, 1), (1, 2)), 2), (((0, 3), (1, 1)), 3), (((0, 1),), 0), (((1, 1),), 0)],
             [2, 1])
    res = lp_solve(lp)
    assert simplex._optimal_result(lp, list(lp.objective), list(res.primal), list(res.dual)) == res
    with pytest.raises(RuntimeError, match=message):
        simplex._optimal_result(lp, list(lp.objective), list(primal), list(dual))


def _random_boxed_programs():
    """130 seeded random programs, each boxed by -1 <= x_j <= 1."""
    rng = random.Random(424242)
    for trial in range(130):
        n = rng.randint(5, 6) if trial >= 120 else rng.randint(1, 4)
        k = rng.randint(1, 4)
        rows = []
        for _ in range(k):
            coeffs = ((j, rand_rational(rng, -2, 2, 3)) for j in range(n))
            rows.append((tuple((j, c) for j, c in coeffs if c), rand_rational(rng, -3, 3, 2)))
        for j in range(n):  # box: -1 <= x_j <= 1 keeps everything bounded
            rows.append((((j, ONE),), -ONE))
            rows.append((((j, -ONE),), -ONE))
        objective = tuple(rand_rational(rng, -2, 2, 3) for _ in range(n))
        yield LinearProgram(
            names=tuple(f"x{j}" for j in range(n)),
            rows=tuple(rows),
            objective=objective,
        )


def test_matches_vertex_enumeration_on_random_boxed_programs():
    for lp in _random_boxed_programs():
        expected = vertex_enumeration_min(lp)
        if expected is None:
            with pytest.raises(ValueError, match="infeasible"):
                lp_solve(lp)
        else:
            assert lp_solve(lp).value == expected


def test_classes_are_equitable_on_random_boxed_programs():
    for lp in _random_boxed_programs():
        equitable_classes(lp)


def _random_cover_lps():
    """The cover LPs of seeded random graphs at `lp-star`'s (n, m, t)."""
    for n, m, t in ((14, 24, 8), (16, 30, 10), (18, 36, 12)):
        edges = random.Random(f"cover-{n}-{m}").sample(list(combinations(range(1, n + 1), 2)), m)
        yield build_pvc_lp(Graph(n, tuple(edges)), t)


PROGRAMS = {
    "boxed": _random_boxed_programs,
    "star6-sa1": lambda: [generate_sa1_lp(make_star(6), 3)],
    "cover": _random_cover_lps,
}


class _Twin(PER_ROW):
    """The per-row tableau, checked after each pivot against an `EdmondsTableau`
    copy driven through the same pivot.  `_solve` cuts the artificial columns
    and the phase-1 row from this tableau only, so rows compare on the columns
    both keep, and objective rows from the last."""

    def __init__(self, rows, objs, basis, d):
        super().__init__(rows, objs, basis, d)
        self.oracle = EdmondsTableau([list(r) for r in rows], [list(r) for r in objs],
                                     list(basis), d)

    def _rows(self) -> list:
        return list(zip(self.rows + self.objs, self.dens + self.obj_dens))

    def pivot(self, row_i: int, col_j: int) -> None:
        kept = [(k, r, list(r), den) for k, (r, den) in enumerate(self._rows()) if r[col_j] == 0]
        super().pivot(row_i, col_j)
        oracle = self.oracle
        oracle.pivot(row_i, col_j)
        d, rows = self.d, self._rows()
        assert d == oracle.d and self.basis == oracle.basis
        for (r, den), o in zip(rows, oracle.rows + oracle.objs[-len(self.objs):]):
            width = len(r) - 1
            assert [v * d for v in r] == [v * den for v in o[:width] + o[-1:]]
        for k, r, before, den in kept:
            assert rows[k][0] is r and r == before and rows[k][1] == den


def _solve_on(monkeypatch, tableau, lp) -> tuple:
    """(LpResult or the ValueError's message, the pivots made) of `lp_solve` on
    `tableau`; a pivot made under Bland's rule is marked "bland"."""
    pivots = []

    class Counted(tableau):
        bland = False

        def step(self, k, bland):
            self.bland = bland
            return super().step(k, bland)

        def pivot(self, row_i, col_j):
            pivots.append((row_i, col_j, "bland") if self.bland else (row_i, col_j))
            super().pivot(row_i, col_j)

    monkeypatch.setattr(simplex, "_Tableau", Counted)
    try:
        result = lp_solve(lp)
    except ValueError as exc:
        result = str(exc)
    return result, pivots


@pytest.mark.parametrize("programs", sorted(PROGRAMS))
def test_each_pivot_matches_the_one_denominator_oracle(programs, monkeypatch):
    # each row times d equals the oracle's row times the row's denominator, and
    # a row with a 0 in the pivot column is kept as it was
    pivots = sum(len(_solve_on(monkeypatch, _Twin, lp)[1]) for lp in PROGRAMS[programs]())
    assert pivots > 0


@pytest.mark.parametrize("programs", sorted(PROGRAMS))
def test_lp_solve_matches_a_solve_on_the_oracle_tableau(programs, monkeypatch):
    # the same value, primal and dual (or the same refusal) after the same pivots
    for lp in PROGRAMS[programs]():
        assert _solve_on(monkeypatch, PER_ROW, lp) == _solve_on(monkeypatch, EdmondsTableau, lp)


def test_a_cycling_program_falls_back_to_bland_as_the_oracle_does(monkeypatch):
    # Beale's example (1955) cycles under Dantzig's rule; x4 = 1/3 lifts the
    # objective off 0, so its degenerate pivots keep the objective's value
    # while they change its row's denominator
    lp = _lp([(((0, Rat(-1, 4)), (1, 8), (2, 1), (3, -9)), 0),
              (((0, Rat(-1, 2)), (1, 12), (2, Rat(1, 2)), (3, -3)), 0),
              (((2, -1),), -1), (((4, 3),), 1), (((4, -3),), -1)]
             + [(((j, 1),), 0) for j in range(4)],
             [Rat(-3, 4), 20, Rat(-1, 2), 6, 1])
    result, pivots = _solve_on(monkeypatch, PER_ROW, lp)
    assert (result, pivots) == _solve_on(monkeypatch, EdmondsTableau, lp)
    assert result.value == Rat(-5, 4) + Rat(1, 3)
    assert len(pivots) > 64 and any(len(pivot) == 3 for pivot in pivots)


@pytest.mark.parametrize(
    "coeffs",
    [((2, Rat(1)),), ((-1, Rat(1)),), ((0, Rat(1)), (0, Rat(2))), ((0, Rat(1)), (1, ZERO))],
    ids=["past-the-last-variable", "negative-variable", "repeated-variable",
         "zero-coefficient"],
)
def test_row_entries_are_validated(coeffs):
    # a repeated or zero entry would also make `_equitable_classes` tell equal rows apart
    with pytest.raises(ValueError, match="row 1 needs distinct variables"):
        LinearProgram(names=("x", "y"), rows=((((0, ONE),), ZERO), (coeffs, ZERO)),
                      objective=(ONE, ONE))


def test_objective_length_is_validated():
    with pytest.raises(ValueError, match="objective length != variable count"):
        LinearProgram(names=("x", "y"), rows=(), objective=(ONE,))
