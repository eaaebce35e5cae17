"""The pullback to original coordinates against its fold oracle.

solver._assemble sums each original-coordinate cell in a running
accumulator and puts it in canonical form once. oracles.fold_pullback
rebuilds the same tables from the solution's transformed tables by adding
one ExpSum at a time. The two must agree cell for cell: with == in exact
mode, and with the same repr of every base and coefficient in float mode,
cells in the same insertion order in both.
"""

import random
from fractions import Fraction

import pytest

from carleman import SolveOptions, parse_system, solve
from carleman.poly import Poly
from carleman.scalars import Mode
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


def in_mode(system: PolySystem, mode: Mode) -> PolySystem:
    polys = tuple(Poly(system.k, {m: mode.from_fraction(c)
                                  for m, c in p.terms.items()})
                  for p in system.polys)
    return PolySystem(k=system.k, depth=system.depth, polys=polys, mode=mode)


def assert_matches_fold(solution):
    assert not solution.transform.is_identity()
    expected = fold_pullback(solution)
    assert len(solution.tables) == len(expected)
    for got, want in zip(solution.tables, expected):
        assert list(got) == list(want)
        if solution.mode is Mode.EXACT:
            assert got == want
        else:
            for mono in want:
                assert ([(repr(b), repr(c)) for b, c in got[mono].terms]
                        == [(repr(b), repr(c)) for b, c in want[mono].terms])


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("order", range(2, 9))
def test_coupled_matches_fold(mode, order):
    system, names = parse_system(COUPLED, mode)
    solution = solve(system, SolveOptions(order=order, mode=mode,
                                          matrix=COUPLED_A), names)
    assert_matches_fold(solution)


def unimodular(rng: random.Random):
    a = [[F(1), F(0)], [F(0), F(1)]]
    for _ in range(3):
        s = F(rng.choice((1, -1, 2, -2)))
        shear = ([[F(1), s], [F(0), F(1)]] if rng.random() < 0.5
                 else [[F(1), F(0)], [s, F(1)]])
        a = [[sum(a[r][t] * shear[t][c] for t in range(2)) for c in range(2)]
             for r in range(2)]
    return a


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", range(6))
def test_random_conjugated_systems_match_fold(mode, seed):
    # tri is triangular; the solver must find it again through matrix=A
    rng = random.Random(seed)
    tri = random_triangular_system(rng, k=2)
    a = unimodular(rng)
    a_inv = TransformParams.create(a, [F(0), F(0)], Mode.EXACT).matrix_inv
    conjugated = apply_affine(tri, TransformParams.create(
        a_inv, [F(0), F(0)], Mode.EXACT))
    solution = solve(in_mode(conjugated, mode),
                     SolveOptions(order=5, mode=mode, matrix=a))
    assert_matches_fold(solution)


@pytest.mark.parametrize("mode", MODES)
def test_depth_two_system_matches_fold(mode):
    system, names = parse_system(DEPTH_TWO, mode)
    solution = solve(system, SolveOptions(order=5, mode=mode), names)
    assert_matches_fold(solution)


@pytest.mark.parametrize("mode", MODES)
def test_shift_plus_matrix_matches_fold(mode):
    # the coupled sample moved so that its fixed point sits at (1, -2)
    fixed = [F(1), F(-2)]
    coupled, names = parse_system(COUPLED, Mode.EXACT)
    moved = apply_affine(coupled, TransformParams.create(
        [[F(1), F(0)], [F(0), F(1)]], [-x for x in fixed], Mode.EXACT))
    solution = solve(in_mode(moved, mode),
                     SolveOptions(order=5, mode=mode, shift=fixed,
                                  matrix=COUPLED_A), names)
    assert any(x != 0 for x in solution.offsets)
    assert_matches_fold(solution)
