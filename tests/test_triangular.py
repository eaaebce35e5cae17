"""Back-substitution eigendecomposition and the closed path-sum formulas."""

import random
from fractions import Fraction

import pytest

from carleman import RepeatedEigenvalueError, parse_system
from carleman.embedding import MonomialBasis, build_transition
from carleman.linalg import identity, mat_mul
from carleman.scalars import Mode
from carleman.triangular import decompose

from conftest import random_upper_triangular
from oracles import (chain_sum_eigenvector_entry, chain_sum_inverse_entry,
                     dense, invert_unit_triangular, power_from_decomposition,
                     sparse)

F = Fraction

COUPLED_TILDE = [
    [F(1), F(0), F(0), F(0), F(0), F(0)],
    [F(0), F(2), F(0), F(87), F(67), F(13)],
    [F(0), F(0), F(3), F(-212), F(-164), F(-32)],
    [F(0), F(0), F(0), F(4), F(0), F(0)],
    [F(0), F(0), F(0), F(0), F(6), F(0)],
    [F(0), F(0), F(0), F(0), F(0), F(9)],
]


def logistic_matrix():
    system, _ = parse_system("vars: u\nu[i] = 2*u[i-1] - 2*u[i-1]^2\n",
                             Mode.EXACT)
    return dense(build_transition(system, MonomialBasis(1, 3)).rows)


# -- decomposition goldens ---------------------------------------------------------


def test_logistic_modal_entries():
    spec = decompose(sparse(logistic_matrix()), Mode.EXACT)
    assert spec.eigenvalues == (F(1), F(2), F(4), F(8))
    p = dense(spec.modal)
    assert all(p[j][j] == 1 for j in range(4))
    assert p[1][2] == F(-1)     # 1/(1-r) at r=2
    assert p[2][3] == F(-2)     # 2/(1-r)
    assert p[1][3] == F(2, 3)   # 2/(r^3-r^2-r+1)


def test_coupled_modal_and_inverse_entries():
    spec = decompose(sparse(COUPLED_TILDE), Mode.EXACT)
    p, q = dense(spec.modal), dense(spec.modal_inv)
    assert p[1][3] == F(87, 2) and p[2][3] == F(-212)
    assert p[1][4] == F(67, 4) and p[2][4] == F(-164, 3)
    assert p[1][5] == F(13, 7) and p[2][5] == F(-16, 3)
    assert q[1][3] == F(-87, 2) and q[2][3] == F(212)
    assert q[1][4] == F(-67, 4) and q[2][4] == F(164, 3)
    assert q[1][5] == F(-13, 7) and q[2][5] == F(16, 3)


def test_modal_reconstructs_matrix():
    spec = decompose(sparse(COUPLED_TILDE), Mode.EXACT)
    n = len(spec.eigenvalues)
    diag = [[spec.eigenvalues[r] if r == c else F(0) for c in range(n)]
            for r in range(n)]
    product = mat_mul(dense(spec.modal),
                      mat_mul(diag, dense(spec.modal_inv)))
    assert product == COUPLED_TILDE


def test_modal_columns_are_eigenvectors():
    matrix = logistic_matrix()
    spec = decompose(sparse(matrix), Mode.EXACT)
    modal = dense(spec.modal)
    n = len(spec.eigenvalues)
    for j in range(n):
        column = [modal[r][j] for r in range(n)]
        image = [sum(matrix[r][c] * column[c] for c in range(n))
                 for r in range(n)]
        assert image == [spec.eigenvalues[j] * x for x in column]


def test_decompose_rejects_non_triangular():
    bad = [[F(1), F(0)], [F(1), F(2)]]
    with pytest.raises(ValueError):
        decompose(sparse(bad), Mode.EXACT)


def test_decompose_rejects_repeated_diagonal():
    bad = [[F(2), F(1), F(0)],
           [F(0), F(3), F(1)],
           [F(0), F(0), F(2)]]
    with pytest.raises(RepeatedEigenvalueError) as err:
        decompose(sparse(bad), Mode.EXACT)
    assert err.value.collisions == ((0, 2, F(2)),)


@pytest.mark.parametrize("mode", [Mode.EXACT, Mode.FLOAT])
def test_repeated_diagonal_reports_pairs_in_position_order(mode):
    values = [2, 5, 2, 7, 5, 2, 7]
    diagonal = [{i: mode.from_fraction(F(v))} for i, v in enumerate(values)]
    with pytest.raises(RepeatedEigenvalueError) as err:
        decompose(diagonal, mode)
    pairs = [(a, b) for a in range(7) for b in range(a + 1, 7)
             if values[a] == values[b]]
    assert [(a, b) for a, b, _ in err.value.collisions] == pairs
    assert [v for _, _, v in err.value.collisions] == [
        mode.from_fraction(F(values[a])) for a, _ in pairs]
    if mode is Mode.EXACT:
        assert str(err.value) == (
            "repeated diagonal entries: positions 0 and 2 share 2, "
            "positions 0 and 5 share 2, positions 1 and 4 share 5, "
            "positions 2 and 5 share 2 (and 1 more)")


def test_float_decomposition_tracks_exact():
    exact = decompose(sparse(logistic_matrix()), Mode.EXACT)
    float_rows = [[complex(x) for x in row] for row in logistic_matrix()]
    approx = decompose(sparse(float_rows), Mode.FLOAT)
    approx_modal = dense(approx.modal, Mode.FLOAT)
    exact_modal = dense(exact.modal)
    for r in range(4):
        for c in range(4):
            assert abs(approx_modal[r][c] - complex(exact_modal[r][c])) < 1e-12


# -- inversion ---------------------------------------------------------------------


def test_invert_unit_triangular_round_trip():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(1, 7)
        matrix = random_upper_triangular(rng, n)
        inverse = dense(invert_unit_triangular(sparse(matrix), Mode.EXACT))
        assert mat_mul(matrix, inverse) == identity(n, Mode.EXACT)


# -- closed path-sum formulas ------------------------------------------------------


def test_chain_sums_match_back_substitution():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(2, 8)
        matrix = random_upper_triangular(rng, n)
        modal = dense(decompose(sparse(matrix), Mode.EXACT).modal)
        inverse = dense(invert_unit_triangular(sparse(matrix), Mode.EXACT))
        for b in range(n):
            for a in range(b + 1, n):
                assert chain_sum_eigenvector_entry(matrix, b, a, Mode.EXACT) \
                    == modal[b][a]
            for m in range(b, n):
                assert chain_sum_inverse_entry(matrix, b, m, Mode.EXACT) \
                    == inverse[b][m]


def test_chain_sum_golden_three_by_three():
    # direct hop 3/(6-1) plus the path through the middle entry:
    # 2*5 / ((1-6)(4-6)) = 1, so the entry is 3/5 + 1 = 8/5
    matrix = [[F(1), F(2), F(3)],
              [F(0), F(4), F(5)],
              [F(0), F(0), F(6)]]
    modal = dense(decompose(sparse(matrix), Mode.EXACT).modal)
    assert modal[0][2] == chain_sum_eigenvector_entry(
        matrix, 0, 2, Mode.EXACT)
    assert modal[0][2] == F(8, 5)


# -- powers ------------------------------------------------------------------------


def test_power_from_decomposition():
    matrix = logistic_matrix()
    spec = decompose(sparse(matrix), Mode.EXACT)
    stepped = identity(4, Mode.EXACT)
    for i in range(5):
        assert power_from_decomposition(spec, i) == stepped
        stepped = mat_mul(stepped, matrix)
