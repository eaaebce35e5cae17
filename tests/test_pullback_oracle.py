"""The pullback to original coordinates against two oracles.

solver._assemble builds each original-coordinate cell with one term per
eigenvalue, sum_j C[p][j] * G[j][m] * lambda_j^i. oracles.fold_pullback
rebuilds the same tables from the solution's transformed tables by
carrying each shifted-coordinate cell onto the original monomials and
adding one ExpSum at a time. In exact mode the two must agree cell for
cell with ==, and the package's cells must come in grlex order. Float
sums depend on their order, so a float solution is checked against the
exact solution of the same rational system instead: the same cells, the
same number of terms, nearly equal bases, and every coefficient within
FLOAT_TOL of the cell's largest exact coefficient (at least 1).
"""

import random
from fractions import Fraction

import pytest

from carleman import SolveOptions, parse_system, solve
from carleman.poly import Poly, grlex_key
from carleman.scalars import Mode, nearly_equal, sort_key
from carleman.systems import PolySystem, TransformParams, apply_affine

from conftest import random_triangular_system
from oracles import fold_pullback

F = Fraction

COUPLED = (
    "vars: u, v\n"
    "u[i] = 8*u[i-1] + 10*v[i-1] + u[i-1]^2 + 3*u[i-1]*v[i-1] + v[i-1]^2\n"
    "v[i] = -3*u[i-1] - 3*v[i-1] + u[i-1]^2 - u[i-1]*v[i-1] + v[i-1]^2\n")
COUPLED_A = [[1, 2], [-3, -5]]
# linear part with eigenvalues 2 and 3 once flattened
DEPTH_TWO = "vars: u\nu[i] = 5*u[i-1] - 6*u[i-2] + u[i-1]^2\n"
MODES = [Mode.EXACT, Mode.FLOAT]
# float coefficients come out within 1.5e-11 of exact ones on these cases
FLOAT_TOL = 1e-9


def in_mode(system: PolySystem, mode: Mode) -> PolySystem:
    polys = tuple(Poly(system.k, {m: mode.from_fraction(c)
                                  for m, c in p.terms.items()})
                  for p in system.polys)
    return PolySystem(k=system.k, depth=system.depth, polys=polys, mode=mode)


def assert_matches_oracles(build, mode):
    """build(mode) solves one rational system in the given mode."""
    solution = build(mode)
    assert not solution.transform.is_identity()
    if mode is Mode.FLOAT:
        assert_near_exact(solution, build(Mode.EXACT))
        return
    expected = fold_pullback(solution)
    assert len(solution.tables) == len(expected)
    for got, want in zip(solution.tables, expected):
        assert got == want
        assert list(got) == sorted(got, key=grlex_key)


def assert_near_exact(solution, exact):
    assert len(solution.tables) == len(exact.tables)
    for got, want in zip(solution.tables, exact.tables):
        assert list(got) == list(want)
        for mono, exact_sum in want.items():
            assert len(got[mono].terms) == len(exact_sum.terms)
            scale = max(1, max(abs(c) for _, c in exact_sum.terms))
            expected = sorted(((complex(b), complex(c))
                               for b, c in exact_sum.terms),
                              key=lambda bc: sort_key(bc[0]))
            for (base, coeff), (exact_base, exact_coeff) in zip(
                    got[mono].terms, expected):
                assert nearly_equal(base, exact_base)
                assert abs(coeff - exact_coeff) <= FLOAT_TOL * scale


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("order", range(2, 9))
def test_coupled_matches_fold(mode, order):
    def build(mode):
        system, names = parse_system(COUPLED, mode)
        return solve(system, SolveOptions(order=order, mode=mode,
                                          matrix=COUPLED_A), names)
    assert_matches_oracles(build, mode)


def unimodular(rng: random.Random, k: int = 2):
    """A product of three shears I + s e_r e_c^T, so det A = 1."""
    a = [[F(int(r == c)) for c in range(k)] for r in range(k)]
    for _ in range(3):
        s = F(rng.choice((1, -1, 2, -2)))
        if k == 2:
            r, c = (0, 1) if rng.random() < 0.5 else (1, 0)
        else:
            r, c = rng.sample(range(k), 2)
        for row in a:
            row[c] += s * row[r]
    return a


def conjugated_system(tri: PolySystem, a) -> PolySystem:
    """tri written in the coordinates A^-1 y, so that matrix=A finds tri
    again."""
    zeros = [F(0)] * tri.k
    a_inv = TransformParams.create(a, zeros, Mode.EXACT).matrix_inv
    return apply_affine(tri, TransformParams.create(a_inv, zeros, Mode.EXACT))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", range(6))
def test_random_conjugated_systems_match_fold(mode, seed):
    # tri is triangular; the solver must find it again through matrix=A
    rng = random.Random(seed)
    tri = random_triangular_system(rng, k=2)
    a = unimodular(rng)
    conjugated = conjugated_system(tri, a)
    assert_matches_oracles(
        lambda mode: solve(in_mode(conjugated, mode),
                           SolveOptions(order=5, mode=mode, matrix=a)), mode)


def test_seeded_conjugated_systems_match_fold():
    # one seeded loop over k = 2 and 3 and orders 2-5 pins the exact
    # pullback sums (C' = A^-1 C and G'[j]) cell for cell with ==
    rng = random.Random(11)
    for _ in range(20):
        k = rng.choice((2, 3))
        a = unimodular(rng, k)
        system = conjugated_system(random_triangular_system(rng, k=k), a)
        order = rng.randint(2, 5)
        assert_matches_oracles(lambda mode: solve(
            system, SolveOptions(order=order, mode=mode, matrix=a)), Mode.EXACT)


@pytest.mark.parametrize("mode", MODES)
def test_depth_two_system_matches_fold(mode):
    def build(mode):
        system, names = parse_system(DEPTH_TWO, mode)
        return solve(system, SolveOptions(order=5, mode=mode), names)
    assert_matches_oracles(build, mode)


@pytest.mark.parametrize("mode", MODES)
def test_shift_plus_matrix_matches_fold(mode):
    # the coupled sample moved so that its fixed point sits at (1, -2)
    fixed = [F(1), F(-2)]
    coupled, names = parse_system(COUPLED, Mode.EXACT)
    moved = apply_affine(coupled, TransformParams.create(
        [[F(1), F(0)], [F(0), F(1)]], [-x for x in fixed], Mode.EXACT))
    def build(mode):
        solution = solve(in_mode(moved, mode),
                         SolveOptions(order=5, mode=mode, shift=fixed,
                                      matrix=COUPLED_A), names)
        assert any(x != 0 for x in solution.offsets)
        return solution
    assert_matches_oracles(build, mode)
