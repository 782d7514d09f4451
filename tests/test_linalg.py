import os
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations
from math import comb, gcd

import numpy as np
import pytest

from pvcgap import linalg
from pvcgap.graphs import make_clique
from pvcgap.hierarchy import yn_pairs
from pvcgap.lasserre import build_zbar
from pvcgap.linalg import PsdVerdict, SymMatrix, psd_check, quadratic_form, schur_complement
from pvcgap.moments import DistParams, build_cond_matrix
from pvcgap.rational import ONE, ZERO, Rat
from pvcgap.sdp import build_star_sdp_solution

from conftest import rand_rational, sym_equal, sym_from_rows, sym_rows

_SRC = os.path.dirname(os.path.dirname(linalg.__file__))
_TESTS = os.path.dirname(os.path.abspath(__file__))


# -- the rational LDL^T that psd_check replaced, kept as its oracle ----------


def _reference_lift(lcols: dict, top: int, n: int, support: dict) -> list:
    v = [ZERO] * n
    for i in range(top, -1, -1):
        acc = support.get(i, ZERO)
        col = lcols.get(i)
        if col is not None:
            for l, f in col:
                if l <= top and v[l] != 0:
                    acc -= f * v[l]
        v[i] = acc
    return v


def _reference_psd_check(m: SymMatrix, branches: Counter) -> PsdVerdict:
    """LDL^T on rationals, entry by entry; `branches` counts the exits taken."""
    n = m.n
    w = [[m.get(i, j) for j in range(n)] for i in range(n)]
    lcols: dict[int, list] = {}
    pivots = []
    for k in range(n):
        d = w[k][k]
        if d < 0:
            branches["negative pivot"] += 1
            v = _reference_lift(lcols, k, n, {k: ONE})
            val = quadratic_form(m, v)
            assert val < 0
            return PsdVerdict(False, witness=tuple(v), value=val)
        if d == 0:
            bad = next((j for j in range(k + 1, n) if w[k][j] != 0), None)
            if bad is not None:
                branches["zero pivot, nonzero row"] += 1
                c = w[k][bad]
                beta = w[bad][bad]
                u = -(beta + ONE) / (2 * c)
                v = _reference_lift(lcols, bad, n, {k: u, bad: ONE})
                val = quadratic_form(m, v)
                assert val < 0
                return PsdVerdict(False, witness=tuple(v), value=val)
            branches["zero pivot, zero row"] += 1
            pivots.append(d)
            continue
        pivots.append(d)
        wk = w[k]
        col_entries = []
        nz = [j for j in range(k + 1, n) if wk[j] != 0]
        for i in range(k + 1, n):
            wik = w[i][k]
            if wik == 0:
                continue
            f = wik / d
            col_entries.append((i, f))
            wi = w[i]
            for j in nz:
                wi[j] -= f * wk[j]
        if col_entries:
            lcols[k] = col_entries
    return PsdVerdict(True, pivots=tuple(pivots))


def _assert_same_verdicts(matrices) -> Counter:
    branches = Counter()
    for m in matrices:
        assert psd_check(m) == _reference_psd_check(m, branches)
    return branches


def test_identity_is_psd():
    v = psd_check(sym_from_rows([[1, 0], [0, 1]]))
    assert v.is_psd
    assert v.pivots == (Rat(1), Rat(1))


@pytest.mark.parametrize("n", range(1, 8))
def test_rows_read_every_entry_where_get_does(n):
    # distinct entries, so a slice off by one in either triangle shows
    m = SymMatrix.from_function(n, lambda i, j: Rat(100 * i + j + 1, 7))
    assert sym_rows(m) == [[m.get(i, j) for j in range(n)] for i in range(n)]


def test_huge_matrix_is_refused_before_allocating():
    def entry(i, j):
        raise AssertionError("an entry was computed before the size check")

    with pytest.raises(ValueError, match="1000405 entries"):
        SymMatrix.from_function(1414, entry)  # 1414 * 1415 / 2 just exceeds the cap of 10**6


def test_indefinite_2x2_gets_exact_witness():
    m = sym_from_rows([[1, 2], [2, 1]])
    v = psd_check(m)
    assert not v.is_psd
    assert v.value < 0
    assert quadratic_form(m, v.witness) == v.value
    # the classic direction works too: (1, -1) gives 1 - 4 + 1 = -2
    assert quadratic_form(m, (Rat(1), Rat(-1))) == Rat(-2)


def test_zero_pivot_with_nonzero_row_is_rejected():
    m = sym_from_rows([[0, 1], [1, 0]])
    v = psd_check(m)
    assert not v.is_psd
    assert quadratic_form(m, v.witness) == v.value < 0


def test_zero_pivot_with_zero_row_is_fine():
    m = sym_from_rows([[0, 0], [0, 3]])
    v = psd_check(m)
    assert v.is_psd
    assert v.pivots == (Rat(0), Rat(3))


def test_rank_one_rational_matrix_is_psd():
    u = [Rat(3, 7), Rat(-2), Rat(1, 2), Rat(0), Rat(5, 3)]
    m = SymMatrix.from_function(5, lambda i, j: u[i] * u[j])
    assert psd_check(m).is_psd


def test_random_psd_verdicts_match_quadratic_form_samples():
    rng = random.Random(20240817)
    for _ in range(60):
        n = rng.randint(1, 6)
        # random symmetric matrix, then shift a few to be PSD by squaring
        raw = [[rand_rational(rng) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.5:
            m = SymMatrix.from_function(
                n, lambda i, j: sum(raw[i][k] * raw[j][k] for k in range(n))
            )
        else:
            m = SymMatrix.from_function(
                n, lambda i, j: raw[i][j] + raw[j][i]
            )
        v = psd_check(m)
        if v.is_psd:
            for _ in range(50):
                vec = [rand_rational(rng) for _ in range(n)]
                assert quadratic_form(m, vec) >= 0
        else:
            assert quadratic_form(m, v.witness) == v.value < 0


def test_psd_matrix_survives_1000_random_directions():
    rng = random.Random(1000003)
    raw = [[rand_rational(rng) for _ in range(6)] for _ in range(6)]
    m = SymMatrix.from_function(
        6, lambda i, j: sum(raw[i][k] * raw[j][k] for k in range(6))
    )
    assert psd_check(m).is_psd
    for _ in range(1000):
        vec = [rand_rational(rng, -4, 4, 7) for _ in range(6)]
        assert quadratic_form(m, vec) >= 0


def test_psd_verdict_agrees_with_float_eigenvalues():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(2, 7)
        raw = [[rand_rational(rng) for _ in range(n)] for _ in range(n)]
        sym = SymMatrix.from_function(n, lambda i, j: raw[i][j] + raw[j][i])
        verdict = psd_check(sym)
        eigs = np.linalg.eigvalsh(
            np.array([[float(sym.get(i, j)) for j in range(n)] for i in range(n)])
        )
        if eigs.min() > 1e-9:
            assert verdict.is_psd
        if eigs.min() < -1e-9:
            assert not verdict.is_psd


def test_schur_complement_formula_cases():
    assert sym_rows(schur_complement(sym_from_rows([[1, 1], [1, 1]]))) == [[Rat(0)]]
    assert sym_rows(schur_complement(sym_from_rows([[2, 1], [1, 2]]))) == [[Rat(3, 2)]]
    with pytest.raises(ValueError):
        schur_complement(sym_from_rows([[0, 1], [1, 2]]))
    with pytest.raises(ValueError):
        schur_complement(sym_from_rows([[-1, 0], [0, 2]]))


def test_schur_complement_preserves_psd_verdict():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(2, 6)
        raw = [[rand_rational(rng) for _ in range(n)] for _ in range(n)]
        m = SymMatrix.from_function(
            n, lambda i, j: sum(raw[i][k] * raw[j][k] for k in range(n))
            + (Rat(rng.randint(0, 1)) if i == j else Rat(0))
        )
        if m.get(0, 0) <= 0:
            continue
        reduced = schur_complement(m)
        assert psd_check(m).is_psd == psd_check(reduced).is_psd


def _reference_schur(m: SymMatrix) -> SymMatrix:
    """The rational formula schur_complement had before it became an LDL^T step."""
    d = m.get(0, 0)
    return SymMatrix.from_function(
        m.n - 1, lambda i, j: m.get(i + 1, j + 1) - m.get(i + 1, 0) * m.get(0, j + 1) / d)


def test_schur_complement_is_the_rational_formula():
    rng = random.Random(4242)
    matrices = [build_zbar(12, 1, Rat(1, 45))]
    while len(matrices) < 80:
        n = rng.randint(2, 7)
        raw = [[Rat(0) if rng.random() < 0.3 else rand_rational(rng, -5, 5, 9)
                for _ in range(n)] for _ in range(n)]
        m = SymMatrix.from_function(n, lambda i, j: raw[i][j] + raw[j][i])
        if m.get(0, 0) > 0:
            matrices.append(m)
    for m in matrices:
        assert sym_equal(schur_complement(m), _reference_schur(m))


def test_schur_complement_of_rows_with_different_least_denominators():
    m = sym_from_rows([[Rat(2, 3), Rat(1, 5), Rat(-1, 7)],
                       [Rat(1, 5), Rat(1, 11), Rat(2, 13)],
                       [Rat(-1, 7), Rat(2, 13), Rat(3, 17)]])
    assert len(set(linalg._least_rows(m)[0])) == 3
    assert sym_equal(schur_complement(m), _reference_schur(m))


def test_the_elimination_reads_only_the_upper_triangle(monkeypatch):
    # the trailing block stays symmetric, so only its upper triangle is kept
    # current: junk below the diagonal of the working rows may reach no
    # verdict and no Schur step
    matrices = _random_matrices(random.Random(909), 300)
    matrices += _random_matrices(random.Random(6061), 300)
    want = [psd_check(m) for m in matrices]
    schur = [_reference_schur(m) for m in matrices if m.n > 1 and m.get(0, 0) > 0]
    zbar = build_zbar(60, 1, Rat(1, comb(58, 2)))
    rng, least_rows = random.Random(31), linalg._least_rows

    def scrambled(m):
        dens, w = least_rows(m)
        for i, row in enumerate(w):
            row[:i] = [rng.randint(-10**6, 10**6) for _ in range(i)]
        return dens, w

    monkeypatch.setattr(linalg, "_least_rows", scrambled)
    assert [psd_check(m) for m in matrices] == want
    assert all(map(sym_equal, [schur_complement(m) for m in matrices
                                if m.n > 1 and m.get(0, 0) > 0], schur))
    _assert_same_verdicts([zbar])
    assert sym_equal(schur_complement(zbar), _reference_schur(zbar))


def test_asymmetric_input_is_rejected():
    with pytest.raises(ValueError):
        sym_from_rows([[1, 2], [3, 1]])


def _random_matrices(rng: random.Random, count: int) -> list:
    """Sparse symmetric matrices: indefinite ones, full-rank Gram matrices
    and singular (rank-deficient) Gram matrices, a third of each."""

    def sparse_entry():
        return Rat(0) if rng.random() < 0.4 else rand_rational(rng, -4, 4, 5)

    matrices = []
    for _ in range(count):
        n = rng.randint(1, 7)
        raw = [[sparse_entry() for _ in range(n)] for _ in range(n)]
        kind = rng.randrange(3)
        if kind == 0:  # indefinite in general
            fn = lambda i, j: raw[i][j] + raw[j][i]
        else:  # a Gram matrix, rank-deficient when kind == 2
            rank = n if kind == 1 else rng.randint(0, n - 1)
            fn = lambda i, j: sum((raw[i][k] * raw[j][k] for k in range(rank)), Rat(0))
        matrices.append(SymMatrix.from_function(n, fn))
    return matrices


def test_verdicts_equal_the_rational_ldlt_on_every_branch():
    branches = _assert_same_verdicts(_random_matrices(random.Random(909), 300))
    assert set(branches) == {"negative pivot", "zero pivot, zero row", "zero pivot, nonzero row"}


def test_verdicts_do_not_depend_on_the_representation():
    # the same values over k times the denominator: the rows start the
    # elimination in the same lowest terms, so every output is the same
    rng = random.Random(6061)
    matrices = _random_matrices(rng, 300)
    assert set(_assert_same_verdicts(matrices)) == {
        "negative pivot", "zero pivot, zero row", "zero pivot, nonzero row"}
    for m in matrices:
        k = rng.randint(2, 40)
        twin = SymMatrix(k * m.den, [[k * x for x in row] for row in m.ints])
        assert sym_equal(twin, m) and sym_equal(m, twin)
        assert psd_check(twin) == psd_check(m)
        if m.n > 1 and m.get(0, 0) > 0:
            s, s_twin = schur_complement(m), schur_complement(twin)
            assert (s_twin.den, s_twin.ints) == (s.den, s.ints)
    assert not sym_equal(SymMatrix(2, [[1]]), SymMatrix(1, [[1]]))


def test_quadratic_form_is_the_rational_double_sum():
    # integer rows over a composite den: the entries reduce to mixed denominators
    rng = random.Random(1618)
    for _ in range(200):
        n = rng.randint(1, 7)
        den = rng.choice([1, 6, 60, 360])
        ints = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                ints[i][j] = ints[j][i] = rng.choice([0, rng.randint(-900, 900)])
        v = [rng.choice([0, ZERO, rng.randint(-3, 3), rand_rational(rng, -4, 4, 9)])
             for _ in range(n)]
        expected = sum((v[i] * Rat(ints[i][j], den) * v[j] for i in range(n) for j in range(n)),
                       ZERO)
        assert quadratic_form(SymMatrix(den, ints), v) == expected


def test_verdicts_equal_the_rational_ldlt_on_the_xyn_k8_family():
    params = DistParams(make_clique(8), Rat(1, comb(4, 2)))
    pairs = list(yn_pairs(params.graph.var_count, 1))
    assert len(pairs) == 73
    _assert_same_verdicts(build_cond_matrix(params, y, n) for y, n in pairs)


@pytest.mark.parametrize("n, r, t", [(12, 2, 1), (13, 2, 1), (44, 1, 1)])
def test_verdicts_equal_the_rational_ldlt_on_slack_minors(n, r, t):
    zbar = build_zbar(n, t, Rat(t, comb(n - 2 * r, 2)))
    _assert_same_verdicts([zbar])


# -- twin rows: the kernel without them, kept as its oracle --------------------


def _plain_eliminate_below(w: list, dens: list, k: int) -> list:
    """`linalg._eliminate_below` before twin rows: every row takes its own update."""
    wk, dk = w[k], dens[k]
    p = wk[k]
    col = []
    for i in range(k + 1, len(w)):
        a = wk[i]
        if a == 0:
            continue
        col.append((i, a, p))
        wi, di = w[i], dens[i]
        u, v = p * dk, a * di
        g = gcd(u, v)
        u, v = u // g, v // g
        new = [u * x - v * y for x, y in zip(wi[i:], wk[i:])]
        den = di * dk * p // g
        g = gcd(den, *new)
        if g > 1:
            new = [x // g for x in new]
            den //= g
        wi[i:] = new
        dens[i] = den
    return col


def _brute_force_twins(m: SymMatrix) -> set:
    """Pairs i < j whose transposition fixes m, entry by entry."""
    n, a = m.n, m.ints
    pairs = set()
    for i, j in combinations(range(n), 2):
        swap = list(range(n))
        swap[i], swap[j] = j, i
        if all(a[swap[r]][swap[c]] == a[r][c] for r in range(n) for c in range(n)):
            pairs.add((i, j))
    return pairs


def _quotient_matrices(rng: random.Random, count: int, shuffle: bool = True) -> list:
    """Symmetric matrices constant on the blocks of a partition into classes of
    1-5 indices, shuffled (so twins are mostly apart) or, with `shuffle` off,
    each class a run of consecutive indices: indefinite ones, Gram
    matrices of one vector per class plus a diagonal shift, and the same
    without the shift (so whole classes repeat one row)."""

    def entry():
        return Rat(0) if rng.random() < 0.4 else rand_rational(rng, -4, 4, 5)

    matrices = []
    for _ in range(count):
        sizes = [rng.randint(1, 5) for _ in range(rng.randint(1, 4))]
        cls = [c for c, size in enumerate(sizes) for _ in range(size)]
        if shuffle:
            rng.shuffle(cls)
        q, kind = len(sizes), rng.randrange(3)
        if kind == 0:  # indefinite in general
            raw = [[entry() for _ in range(q)] for _ in range(q)]
            diag = [entry() for _ in range(q)]
            fn = lambda i, j: diag[cls[i]] if i == j else raw[cls[i]][cls[j]] + raw[cls[j]][cls[i]]
        else:
            vecs = [[entry() for _ in range(q)] for _ in range(q)]
            shift = [rng.choice([Rat(0), Rat(1), Rat(1, 3)]) if kind == 1 else Rat(0)
                     for _ in range(q)]
            fn = lambda i, j: (sum((x * y for x, y in zip(vecs[cls[i]], vecs[cls[j]])), Rat(0))
                               + (shift[cls[i]] if i == j else 0))
        matrices.append(SymMatrix.from_function(len(cls), fn))
    return matrices


def _circulants(rng: random.Random, count: int) -> list:
    """Symmetric circulants of size 5-8, indices shuffled: every row has the same
    diagonal and the same sorted entries, yet no two rows are twins."""
    matrices = []
    for _ in range(count):
        n = rng.randint(5, 8)
        first = [rand_rational(rng, 1, 9, 1) for _ in range(n // 2 + 1)]
        first[0] = Rat(rng.choice([0, 2, 40]))  # zero, indefinite or PSD diagonal
        perm = list(range(n))
        rng.shuffle(perm)
        matrices.append(SymMatrix.from_function(
            n, lambda i, j: first[min((perm[i] - perm[j]) % n, (perm[j] - perm[i]) % n)]))
    return matrices


def _assert_steps_equal(m: SymMatrix, events: Counter) -> None:
    """Run the twin kernel and `_plain_eliminate_below` side by side, as
    `psd_check` does, comparing every working row's upper slice, every row
    denominator and the L column after each step; `events` counts the exits
    and the twin cases met."""
    n, prev = m.n, linalg._twins(m)
    twinned = {i for i, j in enumerate(prev) if j >= 0} | {j for j in prev if j >= 0}
    dens, w = linalg._least_rows(m)
    plain_dens, plain_w = linalg._least_rows(m)
    for k in range(n):
        p = w[k][k]
        if p < 0:
            events["negative pivot in a class" if k in twinned else "negative pivot"] += 1
            return
        if p == 0:
            bad = next((j for j in range(k + 1, n) if w[k][j] != 0), None)
            if bad is not None:
                events["zero pivot, bad index a twin" if bad in twinned
                       else "zero pivot, nonzero row"] += 1
                return
            continue
        events["copied rows"] += sum(1 for i in range(k + 1, n) if prev[i] > k and w[k][i])
        events["zero multiplier across a class"] += any(
            prev[i] > k and w[k][i] == 0 == w[k][prev[i]] for i in range(k + 1, n))
        assert linalg._eliminate_below(w, dens, k, prev) == _plain_eliminate_below(
            plain_w, plain_dens, k)
        assert dens == plain_dens
        assert all(w[i][i:] == plain_w[i][i:] for i in range(k + 1, n))
    events["psd"] += 1


def _twin_test_matrices() -> list:
    params = DistParams(make_clique(8), Rat(1, comb(4, 2)))
    matrices = [build_cond_matrix(params, y, n) for y, n in yn_pairs(params.graph.var_count, 1)]
    matrices += [build_zbar(n, t, Rat(t, comb(n - 2 * r, 2)))
                 for n, r, t in [(12, 2, 1), (13, 2, 1), (44, 1, 1), (120, 1, 1)]]
    return matrices + [build_star_sdp_solution(6, 3).gram]


def test_twin_rows_take_the_plain_update_step_by_step():
    rng = random.Random(2424)
    random_set = (_quotient_matrices(rng, 400) + _circulants(rng, 60)
                  + _quotient_matrices(rng, 200, shuffle=False))
    events = Counter()
    for m in random_set:
        _assert_steps_equal(m, events)
    assert {"negative pivot in a class", "zero pivot, bad index a twin",
            "zero multiplier across a class", "psd"} <= {e for e, c in events.items() if c}
    assert events["copied rows"] > 0
    structured = _twin_test_matrices()
    for m in structured:
        _assert_steps_equal(m, events)
    _assert_same_verdicts(random_set + structured)
    for m in random_set + structured:
        if m.n > 1 and m.get(0, 0) > 0:
            assert sym_equal(schur_complement(m), _reference_schur(m))


def test_a_row_is_linked_to_its_predecessor_exactly_when_they_are_twins():
    rng = random.Random(5151)
    matrices = _quotient_matrices(rng, 200) + _circulants(rng, 40) + _random_matrices(rng, 100)
    matrices += _quotient_matrices(rng, 100, shuffle=False)
    linked = 0
    for m in matrices:
        twins = _brute_force_twins(m)
        assert linalg._twins(m) == [i - 1 if (i - 1, i) in twins else -1 for i in range(m.n)]
        linked += any((i - 1, i) in twins for i in range(1, m.n))
    assert linked > 250
    # 1, 2 and 3 are twins; 0 differs from them at one entry, (0, 4)
    twins = [[2, 1, 1, 1, 0], [1, 2, 1, 1, 0], [1, 1, 2, 1, 0], [1, 1, 1, 2, 0], [0, 0, 0, 0, 3]]
    assert linalg._twins(sym_from_rows(twins)) == [-1, 0, 1, 2, -1]
    near = [row[:] for row in twins]
    near[0][4] = near[4][0] = 1
    assert linalg._twins(sym_from_rows(near)) == [-1, -1, 1, 2, -1]
    # a 5-cycle: equal diagonals and sorted rows, no twins
    cycle = [[2 if i == j else 1 if (i - j) % 5 in (1, 4) else 0 for j in range(5)]
             for i in range(5)]
    assert linalg._twins(sym_from_rows(cycle)) == [-1] * 5
    # 0 and 2 are twins, but not neighbours: no link
    apart = [[2, 1, 0], [1, 3, 1], [0, 1, 2]]
    assert (0, 2) in _brute_force_twins(sym_from_rows(apart))
    assert linalg._twins(sym_from_rows(apart)) == [-1, -1, -1]
    # rows 0 and 1 equal off the diagonal, diagonals different: no link
    unequal = [[1, 1, 2], [1, 3, 2], [2, 2, 4]]
    assert linalg._twins(sym_from_rows(unequal)) == [-1, -1, -1]


@pytest.mark.parametrize("n, r, t", [(12, 2, 1), (13, 2, 1), (120, 1, 1)])
def test_every_vertex_row_of_a_slack_minor_is_linked_to_the_one_before(n, r, t):
    zbar = build_zbar(n, t, Rat(t, comb(n - 2 * r, 2)))
    assert linalg._twins(zbar) == [-1, -1] + list(range(1, n))


def test_every_leaf_of_the_star_gram_after_the_first_is_linked():
    # index 0 is v_0, 1-6 the leaves and 7 the center
    assert linalg._twins(build_star_sdp_solution(6, 3).gram) == [-1, -1, 1, 2, 3, 4, 5, -1]


@pytest.mark.parametrize("rows", [[[1, 2], [2, 1]], [[0, 1], [1, 0]]])
def test_witness_check_survives_python_optimize(rows):
    # a witness whose form is not negative must raise even under python -O
    code = (
        "import pvcgap.linalg as la\n"
        "from conftest import sym_from_rows\n"
        "la.quadratic_form = lambda m, v: 0\n"
        f"la.psd_check(sym_from_rows({rows!r}))\n"
    )
    path = [_SRC, _TESTS, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert "AssertionError: witness gives v^T M v = 0, not negative" in proc.stderr
