"""Exact dense linear algebra kernels."""

import random
from fractions import Fraction

import pytest

from carleman import SingularMatrixError
from carleman.linalg import (
    char_poly, identity, is_upper_triangular, mat_inverse, mat_mul, mat_vec,
    max_abs, nullspace,
)
from carleman.scalars import Mode

from conftest import random_fraction
from oracles import determinant


def frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_identity_and_mat_vec():
    eye = identity(3, Mode.EXACT)
    assert eye[0] == [1, 0, 0] and eye[2][2] == 1
    v = [Fraction(1), Fraction(2), Fraction(3)]
    assert mat_vec(eye, v) == v


def test_mat_mul_golden():
    a = frac_matrix([[1, 2], [-3, -5]])
    b = frac_matrix([[-5, -2], [3, 1]])
    assert mat_mul(a, b) == identity(2, Mode.EXACT)


def test_inverse_golden():
    a = frac_matrix([[1, 2], [-3, -5]])
    assert mat_inverse(a, Mode.EXACT) == frac_matrix([[-5, -2], [3, 1]])


def test_inverse_random_round_trip():
    rng = random.Random(42)
    done = 0
    while done < 25:
        n = rng.randint(1, 5)
        a = [[random_fraction(rng) for _ in range(n)] for _ in range(n)]
        if determinant(a, Mode.EXACT) == 0:
            continue
        inv = mat_inverse(a, Mode.EXACT)
        assert mat_mul(a, inv) == identity(n, Mode.EXACT)
        assert mat_mul(inv, a) == identity(n, Mode.EXACT)
        done += 1


def test_inverse_rejects_singular():
    with pytest.raises(SingularMatrixError):
        mat_inverse(frac_matrix([[1, 2], [2, 4]]), Mode.EXACT)


def test_determinant_golden():
    assert determinant(frac_matrix([[1, 2], [-3, -5]]), Mode.EXACT) == 1
    assert determinant(frac_matrix([[8, 10], [-3, -3]]), Mode.EXACT) == 6


def test_char_poly_companion():
    # x^2 - x - 1 for the Fibonacci companion matrix
    a = frac_matrix([[1, 1], [1, 0]])
    p = char_poly(a, Mode.EXACT)
    assert p.terms == {(2,): Fraction(1), (1,): Fraction(-1),
                       (0,): Fraction(-1)}


def test_char_poly_matches_cofactor_expansion():
    rng = random.Random(3)
    for _ in range(20):
        a = [[random_fraction(rng) for _ in range(3)] for _ in range(3)]
        p = char_poly(a, Mode.EXACT)
        tr = a[0][0] + a[1][1] + a[2][2]
        minors = (
            a[1][1] * a[2][2] - a[1][2] * a[2][1]
            + a[0][0] * a[2][2] - a[0][2] * a[2][0]
            + a[0][0] * a[1][1] - a[0][1] * a[1][0])
        det = determinant(a, Mode.EXACT)
        assert p.terms.get((3,), 0) == 1
        assert p.terms.get((2,), Fraction(0)) == -tr
        assert p.terms.get((1,), Fraction(0)) == minors
        assert p.terms.get((0,), Fraction(0)) == -det


def test_char_poly_roots_on_triangular():
    a = frac_matrix([[2, 7, 0], [0, 3, -1], [0, 0, 9]])
    p = char_poly(a, Mode.EXACT)
    for lam in (2, 3, 9):
        assert p.evaluate([Fraction(lam)]) == 0


def test_nullspace_eigenvector():
    # eigenvector of [[8,10],[-3,-3]] at eigenvalue 2
    shifted = frac_matrix([[6, 10], [-3, -5]])
    basis = nullspace(shifted)
    assert len(basis) == 1
    v = basis[0]
    assert mat_vec(shifted, v) == [Fraction(0), Fraction(0)]


def test_nullspace_full_rank_is_empty():
    assert nullspace(frac_matrix([[1, 0], [0, 1]])) == []


def test_float_nullspace_zeroes_residue():
    # singular but for about 1e-13: the first entry of its null vector is
    # residue of that size, below the pivot threshold, so it is exactly 0
    nearly = [[2j, 1e-13 + 0j, 0j], [1 + 0j, 3e-13j, 0j], [0j, 1 + 0j, -1 + 0j]]
    assert nullspace(nearly, Mode.FLOAT) == [[0, 1, 1]]
    assert nullspace([[1 + 0j, 2j], [3 + 0j, 4 + 0j]], Mode.FLOAT) == []


def test_is_upper_triangular():
    assert is_upper_triangular(frac_matrix([[1, 5], [0, 2]]))
    assert not is_upper_triangular(frac_matrix([[1, 0], [3, 2]]))
    noisy = [[1.0, 0.5], [1e-12, 2.0]]
    assert not is_upper_triangular(noisy)
    assert is_upper_triangular(noisy, tol=1e-10)


def test_max_abs():
    assert max_abs(frac_matrix([[1, -7], [3, 2]])) == 7
    assert max_abs([]) == 0.0
