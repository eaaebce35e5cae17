"""Monomial basis layout and transition-matrix assembly."""

import random
from fractions import Fraction
from math import comb

import pytest

from carleman import ArityError, SizeLimitError, parse_system
from carleman.embedding import (
    MonomialBasis, basis_size, build_transition, monomials_of_degree,
)
from carleman.linalg import mat_mul
from carleman.poly import Poly, univariate_coeffs
from carleman.scalars import Mode

from conftest import random_fraction, random_triangular_system
from oracles import (dense, kron_index_monomial, matrix_power,
                     multinomial_entry)

F = Fraction


def load(text, mode=Mode.EXACT):
    system, _ = parse_system(text, mode)
    return system


LOGISTIC = load("vars: u\nu[i] = 2*u[i-1] - 2*u[i-1]^2\n")


# -- basis layout ----------------------------------------------------------------


def test_basis_size_is_binomial():
    for k in range(1, 4):
        for order in range(0, 6):
            assert basis_size(k, order) == comb(order + k, k)


def test_basis_size_limit():
    assert basis_size(11, 10) == comb(21, 11)  # counting alone is fine
    with pytest.raises(SizeLimitError):
        MonomialBasis(11, 10)


def test_monomials_of_degree_order():
    assert list(monomials_of_degree(2, 2)) == [(2, 0), (1, 1), (0, 2)]
    assert list(monomials_of_degree(3, 1)) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_basis_order_two_vars():
    basis = MonomialBasis(2, 2)
    assert basis.monomials == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert len(basis) == 6
    assert basis.index_of((1, 1)) == 4


def test_basis_index_of_rejects_foreign_monomials():
    basis = MonomialBasis(2, 2)
    with pytest.raises(ArityError):
        basis.index_of((3, 0))
    with pytest.raises(ArityError):
        basis.index_of((1, 0, 0))


def test_kron_index_enumeration():
    # the stacked tensor coordinates are redundant: 4 and 5 coincide
    got = [kron_index_monomial(2, i) for i in range(7)]
    assert got == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (1, 1), (0, 2)]


def test_kron_index_covers_basis():
    # every basis monomial appears among the tensor coordinates
    basis = MonomialBasis(2, 3)
    block_total = sum(2 ** s for s in range(0, 4))  # 1 + 2 + 4 + 8
    seen = {kron_index_monomial(2, i) for i in range(block_total)}
    assert seen == set(basis.monomials)


# -- multinomial entries -----------------------------------------------------------


def test_multinomial_entry_base_cases():
    coeffs = [F(0), F(2), F(-2)]  # logistic rhs
    assert multinomial_entry(coeffs, 0, 0) == 1
    assert multinomial_entry(coeffs, 0, 3) == 0
    assert multinomial_entry(coeffs, 1, 1) == 2
    assert multinomial_entry(coeffs, 1, 2) == -2


def test_multinomial_entry_matches_powers_up_to_eight():
    rng = random.Random(21)
    for _ in range(6):
        degree = rng.randint(1, 3)
        poly = Poly(1, {(e,): random_fraction(rng)
                        for e in range(degree + 1)})
        poly = Poly(1, {m: c for m, c in poly.terms.items() if c != 0})
        if poly.is_zero():
            continue
        coeffs = univariate_coeffs(poly)
        for a in range(9):
            power = poly.pow_truncated(a)
            for b in range(9):
                assert multinomial_entry(coeffs, a, b) == \
                    power.terms.get((b,), F(0))


# -- transition matrices -----------------------------------------------------------


def test_logistic_transition_golden():
    basis = MonomialBasis(1, 3)
    matrix = build_transition(LOGISTIC, basis)
    assert dense(matrix.rows) == [
        [F(1), F(0), F(0), F(0)],
        [F(0), F(2), F(-2), F(0)],
        [F(0), F(0), F(4), F(-8)],
        [F(0), F(0), F(0), F(8)],
    ]
    assert matrix.is_triangular
    assert matrix.diagonal() == [F(1), F(2), F(4), F(8)]


def test_coupled_transformed_transition_golden():
    text = (
        "vars: u, v\n"
        "u[i] = 2*u[i-1] + 87*u[i-1]^2 + 67*u[i-1]*v[i-1] + 13*v[i-1]^2\n"
        "v[i] = 3*v[i-1] - 212*u[i-1]^2 - 164*u[i-1]*v[i-1] - 32*v[i-1]^2\n")
    matrix = build_transition(load(text), MonomialBasis(2, 2))
    assert dense(matrix.rows) == [
        [F(1), F(0), F(0), F(0), F(0), F(0)],
        [F(0), F(2), F(0), F(87), F(67), F(13)],
        [F(0), F(0), F(3), F(-212), F(-164), F(-32)],
        [F(0), F(0), F(0), F(4), F(0), F(0)],
        [F(0), F(0), F(0), F(0), F(6), F(0)],
        [F(0), F(0), F(0), F(0), F(0), F(9)],
    ]
    assert matrix.is_triangular


def test_row_zero_is_the_constant_functional():
    rng = random.Random(13)
    system = random_triangular_system(rng)
    basis = MonomialBasis(system.k, 3)
    rows = dense(build_transition(system, basis).rows)
    assert rows[0][0] == 1
    assert all(x == 0 for x in rows[0][1:])


def test_rows_expand_monomial_images():
    # row a holds the coefficients of (image of basis monomial a), truncated
    system = LOGISTIC
    basis = MonomialBasis(1, 3)
    rows = dense(build_transition(system, basis).rows)
    image = system.polys[0].pow_truncated(2, max_degree=3)
    for b, mono in enumerate(basis.monomials):
        assert rows[2][b] == image.terms.get(mono, F(0))


def test_nonzero_constant_breaks_triangularity():
    system = load("vars: u\nu[i] = 1 + u[i-1]^2\n")
    matrix = build_transition(system, MonomialBasis(1, 2))
    assert not matrix.is_triangular


def test_build_transition_requires_depth_one():
    system = load("vars: u\nu[i] = u[i-1] + u[i-2]\n")
    with pytest.raises(ArityError):
        build_transition(system, MonomialBasis(2, 2))


def test_build_transition_checks_variable_count():
    with pytest.raises(ArityError):
        build_transition(LOGISTIC, MonomialBasis(2, 2))


def test_matrix_power_matches_repeated_multiplication():
    basis = MonomialBasis(1, 3)
    matrix = build_transition(LOGISTIC, basis)
    rows = dense(matrix.rows)
    cube = mat_mul(rows, mat_mul(rows, rows))
    assert matrix_power(matrix, 3) == cube
    eye = matrix_power(matrix, 0)
    assert eye == [[F(1) if r == c else F(0) for c in range(4)]
                   for r in range(4)]


def test_to_json_shape():
    basis = MonomialBasis(1, 2)
    matrix = build_transition(load("vars: u\nu[i] = 2*u[i-1]\n"), basis)
    payload = matrix.to_json()
    assert payload["k"] == 1 and payload["N"] == 2
    assert payload["basis"] == [[0], [1], [2]]
    assert payload["rows"][1] == ["0", "2", "0"]


# -- triangular closure ------------------------------------------------------------


def test_truncation_closure_on_random_family():
    rng = random.Random(31)
    for _ in range(8):
        system = random_triangular_system(rng)
        small = build_transition(system, MonomialBasis(system.k, 3))
        large = build_transition(system, MonomialBasis(system.k, 5))
        m = len(small.rows)
        assert [row[:m] for row in dense(large.rows)[:m]] == dense(small.rows)
        power_small = matrix_power(small, 3)
        power_large = matrix_power(large, 3)
        assert [row[:m] for row in power_large[:m]] == power_small
