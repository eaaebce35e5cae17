"""The sparse forward substitution against the dense loops it replaced.

decompose solves, in both modes, the rows of P^-1 reachable from the
requested rows of P from T as left eigenvectors, and only the requested
rows of P from P^-1. The dense oracle computes every column of P as a
right eigenvector and inverts P. Exact values do not depend on the
route, so the solved rows must equal the oracle with ==; float rows sum
in another order and must lie within FLOAT_TOL of it, scaled by the
row's largest magnitude. The rows of P nobody asked for, and the unreachable rows of
P^-1, must be empty. The exact route adds its products as integers and
makes one Fraction per entry, so no Fraction addition or multiplication
may run inside it; nor in exact build_transition, nor in the pullback's
C' and G'[j].
"""

import random
from fractions import Fraction

import pytest

import carleman.solver
import carleman.triangular
from carleman import SolveOptions, parse_system, solve
from carleman.embedding import MonomialBasis, build_transition
from carleman.scalars import Mode
from carleman.solver import _integer_row
from carleman.triangular import decompose

from oracles import (dense, dense_invert_triangular, dense_modal,
                     invert_unit_triangular, reachable, sparse)
from test_integer_core_oracle import pullback_args

F = Fraction

LOGISTIC = "vars: u\nu[i] = 2*u[i-1] - 2*u[i-1]^2\n"
TRI3 = ("vars: x, y, z\n"
        "x[i] = 2*x[i-1] + y[i-1]^2\n"
        "y[i] = 3*y[i-1] + x[i-1]*z[i-1]\n"
        "z[i] = 5*z[i-1] + x[i-1]^2\n")
COUPLED = (
    "vars: u, v\n"
    "u[i] = 8*u[i-1] + 10*v[i-1] + u[i-1]^2 + 3*u[i-1]*v[i-1] + v[i-1]^2\n"
    "v[i] = -3*u[i-1] - 3*v[i-1] + u[i-1]^2 - u[i-1]*v[i-1] + v[i-1]^2\n")
COUPLED_A = [[1, 2], [-3, -5]]
COUPLED_TILDE = [
    [F(1), F(0), F(0), F(0), F(0), F(0)],
    [F(0), F(2), F(0), F(87), F(67), F(13)],
    [F(0), F(0), F(3), F(-212), F(-164), F(-32)],
    [F(0), F(0), F(0), F(4), F(0), F(0)],
    [F(0), F(0), F(0), F(0), F(6), F(0)],
    [F(0), F(0), F(0), F(0), F(0), F(9)],
]


# float cells of decompose against the dense oracle, scaled by max(1, the
# largest |x| in the oracle's row). The worst measured is 2.4e-14 on the
# transition matrices and 1.3e-13 on the random complex ones, where a
# cell's own magnitude would not do: P from P^-1 carries the error of
# terms up to 8e4 into cells near 1 (2.0e-12 relative to the cell)
FLOAT_TOL = 1e-12


def assert_same_cells(got_rows, expected, mode):
    """Sparse rows equal the dense matrix: == on every exact cell, float
    cells within FLOAT_TOL, nothing stored that is zero and columns
    ascending."""
    got = dense(got_rows, mode)
    if mode is Mode.EXACT:
        assert got == expected
    else:
        assert len(got) == len(expected)
        for got_row, row in zip(got, expected):
            scale = FLOAT_TOL * max([1.0] + [abs(x) for x in row])
            assert all(abs(g - x) <= scale for g, x in zip(got_row, row))
    for row in got_rows:
        assert all(x != 0 for x in row.values())
        assert list(row) == sorted(row)


def check_against_oracle(matrix, mode):
    """matrix is dense; decompose its sparse form and compare."""
    spec = decompose(sparse(matrix), mode)
    modal = dense_modal(matrix, mode)
    assert spec.eigenvalues == tuple(matrix[i][i] for i in range(len(matrix)))
    assert_same_cells(spec.modal, modal, mode)
    assert_same_cells(spec.modal_inv, dense_invert_triangular(modal, mode),
                      mode)


def transition(text, order, mode):
    system, _ = parse_system(text, mode)
    rows = build_transition(system, MonomialBasis(system.k, order)).rows
    return dense(rows, mode)


@pytest.mark.parametrize("mode", [Mode.EXACT, Mode.FLOAT])
@pytest.mark.parametrize("order", range(3, 9))
def test_logistic_matches_dense_oracle(mode, order):
    check_against_oracle(transition(LOGISTIC, order, mode), mode)


@pytest.mark.parametrize("mode", [Mode.EXACT, Mode.FLOAT])
@pytest.mark.parametrize("order", range(1, 7))
def test_tri3_matches_dense_oracle(mode, order):
    check_against_oracle(transition(TRI3, order, mode), mode)


@pytest.mark.parametrize("mode", [Mode.EXACT, Mode.FLOAT])
def test_coupled_tilde_matches_dense_oracle(mode):
    matrix = [[mode.from_fraction(x) for x in row] for row in COUPLED_TILDE]
    check_against_oracle(matrix, mode)


def random_sparse_upper(rng, n, density, mode):
    """Upper-triangular with distinct diagonal and few nonzeros above it.
    Float entries are complex with real and imaginary parts drawn from
    small rationals, signed zeros included."""
    def scalar(allow_zero=True):
        while True:
            value = F(rng.randint(-7, 7), rng.randint(1, 5))
            if allow_zero or value:
                break
        if mode is Mode.EXACT:
            return value
        imag = rng.choice((0.0, -0.0, float(F(rng.randint(-3, 3), 4))))
        return complex(float(value), imag)

    diagonal = []
    while len(diagonal) < n:
        value = scalar(allow_zero=False)
        if all(abs(value - d) > 1e-3 for d in diagonal):
            diagonal.append(value)
    matrix = [[mode.zero] * n for _ in range(n)]
    for b in range(n):
        matrix[b][b] = diagonal[b]
        for c in range(b + 1, n):
            if rng.random() < density:
                matrix[b][c] = scalar()
    return matrix


@pytest.mark.parametrize("mode", [Mode.EXACT, Mode.FLOAT])
def test_random_sparse_matrices_match_dense_oracle(mode):
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(1, 24)
        density = rng.choice((0.05, 0.15, 0.4))
        check_against_oracle(random_sparse_upper(rng, n, density, mode), mode)


@pytest.mark.parametrize("mode", [Mode.EXACT, Mode.FLOAT])
def test_inverse_of_general_diagonal_matches_dense_oracle(mode):
    rng = random.Random(43)
    for _ in range(40):
        matrix = random_sparse_upper(rng, rng.randint(1, 20), 0.2, mode)
        assert_same_cells(invert_unit_triangular(sparse(matrix), mode),
                          dense_invert_triangular(matrix, mode), mode)


def check_requested_rows(matrix, rows, mode):
    """decompose(rows=...) against the dense oracle: the requested rows of
    modal equal, every other row empty; modal_inv equals the oracle on
    the rows reachable from rows and is empty elsewhere, so the matrix is
    also checked whole with rows=None."""
    spec = decompose(sparse(matrix), mode, rows=rows)
    modal = dense_modal(matrix, mode)
    inverse = dense_invert_triangular(modal, mode)
    check_against_oracle(matrix, mode)
    reached = reachable(sparse(matrix), rows)
    inverse = [row if j in reached else [mode.zero] * len(row)
               for j, row in enumerate(inverse)]
    assert_same_cells(spec.modal_inv, inverse, mode)
    assert len(spec.modal) == len(matrix)
    kept = [row if r in rows else [mode.zero] * len(row)
            for r, row in enumerate(modal)]
    assert_same_cells(spec.modal, kept, mode)


@pytest.mark.parametrize("mode", [Mode.EXACT, Mode.FLOAT])
@pytest.mark.parametrize("order", range(3, 9))
def test_logistic_requested_rows_match_dense_oracle(mode, order):
    check_requested_rows(transition(LOGISTIC, order, mode), [1], mode)


@pytest.mark.parametrize("mode", [Mode.EXACT, Mode.FLOAT])
@pytest.mark.parametrize("order", range(1, 7))
def test_tri3_requested_rows_match_dense_oracle(mode, order):
    check_requested_rows(transition(TRI3, order, mode), [1, 2, 3], mode)


@pytest.mark.parametrize("mode", [Mode.EXACT, Mode.FLOAT])
def test_coupled_tilde_requested_rows_match_dense_oracle(mode):
    matrix = [[mode.from_fraction(x) for x in row] for row in COUPLED_TILDE]
    check_requested_rows(matrix, [1, 2], mode)


@pytest.mark.parametrize("mode", [Mode.EXACT, Mode.FLOAT])
def test_random_requested_rows_match_dense_oracle(mode):
    rng = random.Random(47)
    for _ in range(40):
        n = rng.randint(1, 24)
        matrix = random_sparse_upper(rng, n, rng.choice((0.05, 0.15, 0.4)),
                                     mode)
        rows = sorted(rng.sample(range(n), rng.randint(0, min(n, 4))))
        check_requested_rows(matrix, rows, mode)


@pytest.mark.parametrize("mode", [Mode.EXACT, Mode.FLOAT])
def test_requested_rows_must_exist(mode):
    matrix = sparse([[mode.from_fraction(x) for x in row]
                     for row in COUPLED_TILDE])
    for rows in ([6], [-1], [0, 9]):
        with pytest.raises(ValueError):
            decompose(matrix, mode, rows=rows)


# eigenvalues 1/7 and -3/5: their products have mixed signs and
# denominators 7^a 5^b, so lambda_j - lambda_l is often negative and never
# dyadic
NON_DYADIC = ("vars: x, y\n"
              "x[i] = 1/7*x[i-1] + y[i-1]^2\n"
              "y[i] = -3/5*y[i-1] + x[i-1]*y[i-1] + x[i-1]^2\n")


@pytest.mark.parametrize("order", range(2, 7))
def test_non_dyadic_mixed_sign_spectrum_matches_dense_oracle(order):
    matrix = transition(NON_DYADIC, order, Mode.EXACT)
    check_against_oracle(matrix, Mode.EXACT)
    check_requested_rows(matrix, [1, 2], Mode.EXACT)


def test_random_non_dyadic_diagonals_match_dense_oracle():
    diagonal = [F(1, 7), F(-3, 5), F(2, 9), F(-11, 13), F(5, 3), F(-1, 11),
                F(7, 17), F(-13, 6)]
    rng = random.Random(53)
    for _ in range(30):
        n = rng.randint(2, len(diagonal))
        matrix = random_sparse_upper(rng, n, rng.choice((0.2, 0.5, 0.9)),
                                     Mode.EXACT)
        for b, value in enumerate(rng.sample(diagonal, n)):
            matrix[b][b] = value
        check_against_oracle(matrix, Mode.EXACT)
        check_requested_rows(matrix, sorted(rng.sample(range(n), min(n, 3))),
                             Mode.EXACT)


def test_sums_that_cancel_to_zero_are_not_stored():
    # with lambda = (1/7, -3/5, 2/3): P^-1[0][2] is (T[0][2] + y[1] T[1][2])
    # / (1/7 - 2/3) with y[1] = 35/26, so T[0][2] = -35 cancels it; P[0][2]
    # is (T[0][1] v[1] + T[0][2]) / (2/3 - 1/7) with v[1] = 390/19
    for t02, position in ((F(-35), "modal_inv"), (F(-390, 19), "modal")):
        matrix = [[F(1, 7), F(1), t02], [F(0), F(-3, 5), F(26)],
                  [F(0), F(0), F(2, 3)]]
        oracle = dense_modal(matrix, Mode.EXACT)
        if position == "modal_inv":
            oracle = dense_invert_triangular(oracle, Mode.EXACT)
        assert oracle[0][2] == 0 and oracle[0][1] != 0
        check_against_oracle(matrix, Mode.EXACT)
        check_requested_rows(matrix, [0], Mode.EXACT)
        spec = decompose(sparse(matrix), Mode.EXACT, rows=[0])
        assert 2 not in getattr(spec, position)[0]
        assert 1 in getattr(spec, position)[0]


def test_unreached_rows_are_empty_in_both_modes():
    # rows 1..3 of the graded basis are x, y and z; from them T reaches
    # 27 of the 56 monomials of degree at most 5
    for mode in (Mode.EXACT, Mode.FLOAT):
        matrix = sparse(transition(TRI3, 5, mode))
        spec = decompose(matrix, mode, rows=[1, 2, 3])
        reached = reachable(matrix, [1, 2, 3])
        assert [r for r, row in enumerate(spec.modal) if row] == [1, 2, 3]
        assert {j for j, row in enumerate(spec.modal_inv) if row} == reached
        assert len(matrix) == 56 and len(reached) == 27


def test_exact_core_runs_no_fraction_arithmetic(monkeypatch):
    # every sum is formed from integer products over one lcm, and each
    # stored entry is one Fraction built from integers; the cell products
    # of _exp_sum_tables are not part of this core
    counts = {}

    def counting(name):
        original = getattr(Fraction, name)

        def wrapper(*args):
            counts[name] = counts.get(name, 0) + 1
            return original(*args)
        return wrapper

    tri3, _ = parse_system(TRI3, Mode.EXACT)
    basis = MonomialBasis(3, 9)
    matrix = sparse(transition(TRI3, 9, Mode.EXACT))
    rows = [(F(1, 3), _integer_row({(1, 0): F(2, 3), (0, 1): F(-5, 7)})),
            (F(2, 3), _integer_row({(0, 1): F(5, 14), (1, 1): F(1)}))]
    coupled, _ = parse_system(COUPLED, Mode.EXACT)
    args = pullback_args(coupled, 8, {"matrix": COUPLED_A})
    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        monkeypatch.setattr(Fraction, name, counting(name))
    assert F(1, 2) * F(2, 3) + F(1) == F(4, 3) and counts
    counts.clear()
    transition_rows = build_transition(tri3, basis).rows
    spec = decompose(matrix, Mode.EXACT, rows=[1, 2, 3])
    combined = carleman.solver._combination(rows, Mode.EXACT)
    c_rows, column = carleman.solver._pullback(*args)
    # the rows of P^-1 the tables read: the support of C'
    columns = [column(j) for j in sorted(set().union(*c_rows))]
    assert counts == {}
    monkeypatch.undo()
    # the (0, 1) entry cancels and is not stored
    assert combined == {(1, 0): F(2, 9), (1, 1): F(2, 3)}
    # the entries are checked against the dense oracle above, and T and
    # the pullback against the Fraction routes elsewhere; here each
    # stage must have run in full
    assert dense(transition_rows) == dense(matrix)
    assert sum(map(len, spec.modal_inv)) > 2 * len(matrix)
    assert all(spec.modal[r] for r in (1, 2, 3))
    assert all(c_rows) and all(columns)


def test_exact_decompose_leaves_unreachable_rows_empty():
    # rows 1..3 of the graded basis are x, y and z; from them T reaches
    # 106 of the 220 monomials of degree at most 9
    matrix = transition(TRI3, 9, Mode.EXACT)
    spec = decompose(sparse(matrix), Mode.EXACT, rows=[1, 2, 3])
    reached = reachable(sparse(matrix), [1, 2, 3])
    empty = [j for j, row in enumerate(spec.modal_inv) if not row]
    assert len(matrix) == 220 and len(reached) == 106
    assert empty == [j for j in range(220) if j not in reached]
    assert len(empty) == 114


@pytest.mark.parametrize("mode", [Mode.EXACT, Mode.FLOAT])
def test_solve_requests_only_the_variable_rows(monkeypatch, mode):
    requested = []

    def recording(matrix, mode, rows=None):
        requested.append(rows)
        return decompose(matrix, mode, rows=rows)

    monkeypatch.setattr(carleman.solver, "decompose", recording)
    system, names = parse_system(TRI3, mode)
    solve(system, SolveOptions(order=3, mode=mode), names=names)
    # rows 1..3 of the graded basis are x, y and z
    assert requested == [[1, 2, 3]]
