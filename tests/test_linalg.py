import random

import numpy as np
import pytest

from pvcgap.linalg import SymMatrix, psd_check, quadratic_form, schur_complement
from pvcgap.rational import Rat

from conftest import rand_rational


def test_identity_is_psd():
    v = psd_check(SymMatrix.from_rows([[1, 0], [0, 1]]))
    assert v.is_psd
    assert v.pivots == (Rat(1), Rat(1))


def test_huge_matrix_is_refused_before_allocating():
    with pytest.raises(ValueError, match="1000405 entries"):
        SymMatrix(1414)  # 1414 * 1415 / 2 just exceeds the cap of 10**6


def test_indefinite_2x2_gets_exact_witness():
    m = SymMatrix.from_rows([[1, 2], [2, 1]])
    v = psd_check(m)
    assert not v.is_psd
    assert v.value < 0
    assert quadratic_form(m, v.witness) == v.value
    # the classic direction works too: (1, -1) gives 1 - 4 + 1 = -2
    assert quadratic_form(m, (Rat(1), Rat(-1))) == Rat(-2)


def test_zero_pivot_with_nonzero_row_is_rejected():
    m = SymMatrix.from_rows([[0, 1], [1, 0]])
    v = psd_check(m)
    assert not v.is_psd
    assert quadratic_form(m, v.witness) == v.value < 0


def test_zero_pivot_with_zero_row_is_fine():
    m = SymMatrix.from_rows([[0, 0], [0, 3]])
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
    assert schur_complement(SymMatrix.from_rows([[1, 1], [1, 1]]), 0).rows() == [[Rat(0)]]
    assert schur_complement(SymMatrix.from_rows([[2, 1], [1, 2]]), 0).rows() == [[Rat(3, 2)]]
    with pytest.raises(ValueError):
        schur_complement(SymMatrix.from_rows([[0, 1], [1, 2]]), 0)
    with pytest.raises(ValueError):
        schur_complement(SymMatrix.from_rows([[-1, 0], [0, 2]]), 0)


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
        reduced = schur_complement(m, 0)
        assert psd_check(m).is_psd == psd_check(reduced).is_psd


def test_asymmetric_input_is_rejected():
    with pytest.raises(ValueError):
        SymMatrix.from_rows([[1, 2], [3, 1]])
