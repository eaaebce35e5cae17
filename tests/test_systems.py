"""System-level transforms: shifts, affine changes, admissibility, depth."""

import random
from fractions import Fraction

import pytest

from carleman import (
    ArityError, NotShiftedError, SingularMatrixError, TransformParams,
    TriangularizationError, apply_affine, check_shift_admissible,
    fixed_points, parse_system,
)
from carleman.linalg import is_upper_triangular, mat_vec
from carleman.poly import Poly
from carleman.scalars import Mode
from carleman.systems import PolySystem, reduce_depth, triangularize_linear

from conftest import random_triangular_system
from oracles import apply_point

F = Fraction

LOGISTIC = "vars: u\nu[i] = 2*u[i-1] - 2*u[i-1]^2\n"
CUBIC = "vars: u\nu[i] = u[i-1]^3 + 2*u[i-1]^2 + u[i-1]\n"
COUPLED = (
    "vars: u, v\n"
    "u[i] = 8*u[i-1] + 10*v[i-1] + u[i-1]^2 + 3*u[i-1]*v[i-1] + v[i-1]^2\n"
    "v[i] = -3*u[i-1] - 3*v[i-1] + u[i-1]^2 - u[i-1]*v[i-1] + v[i-1]^2\n")


def load(text, mode=Mode.EXACT):
    system, _ = parse_system(text, mode)
    return system


# -- PolySystem basics -----------------------------------------------------------


def test_polysystem_validation():
    p = Poly(1, {(1,): F(1)})
    with pytest.raises(ArityError):
        PolySystem(k=2, depth=1, polys=(p,), mode=Mode.EXACT)
    with pytest.raises(ArityError):
        PolySystem(k=1, depth=2, polys=(p,), mode=Mode.EXACT)  # width 2 needed
    with pytest.raises(ArityError):
        PolySystem(k=1, depth=1, polys=(Poly(1, {(1,): complex(1)}),),
                   mode=Mode.EXACT)


def test_constant_and_linear_views():
    system = load("vars: u, v\nu[i] = 3 + v[i-1]\nv[i] = u[i-1]*v[i-1]\n")
    assert system.constant_vector() == [F(3), F(0)]
    assert system.linear_matrix() == [[F(0), F(1)], [F(0), F(0)]]
    assert max(p.degree() for p in system.polys) == 2


# -- depth reduction -------------------------------------------------------------


def test_reduce_depth_identity_when_flat():
    system = load(LOGISTIC)
    assert reduce_depth(system) is system


def test_reduce_depth_fibonacci():
    system = load("vars: u\nu[i] = u[i-1] + u[i-2]\n")
    reduced = reduce_depth(system)
    assert reduced.k == 2 and reduced.depth == 1
    assert reduced.polys[0].terms == {(1, 0): F(1), (0, 1): F(1)}
    assert reduced.polys[1].terms == {(1, 0): F(1)}
    assert reduced.linear_matrix() == [[F(1), F(1)], [F(1), F(0)]]


def test_reduce_depth_keeps_nonlinear_terms():
    system = load("vars: u\nu[i] = 2*u[i-1] + 3*u[i-2] + u[i-1]*u[i-2]\n")
    reduced = reduce_depth(system)
    assert reduced.polys[0].terms == {
        (1, 0): F(2), (0, 1): F(3), (1, 1): F(1)}


# -- affine transforms -----------------------------------------------------------


def inverse_params(params):
    """The coordinate change back: z = matrix_inv (z' + matrix offset)."""
    neg_ab = [-x for x in mat_vec(params.matrix, list(params.offset))]
    return TransformParams.create(
        [list(r) for r in params.matrix_inv], neg_ab, params.mode)


def test_transform_params_inverse_round_trip():
    params = TransformParams.create(
        [[F(1), F(2)], [F(-3), F(-5)]], [F(1), F(-1)], Mode.EXACT)
    point = [F(2), F(7)]
    pulled = mat_vec(params.matrix_inv, apply_point(params, point))
    assert [x + b for x, b in zip(pulled, params.offset)] == point
    inv = inverse_params(params)
    assert apply_point(inv, apply_point(params, point)) == point


def test_transform_params_rejects_singular():
    with pytest.raises(SingularMatrixError):
        TransformParams.create([[F(1), F(2)], [F(2), F(4)]],
                               [F(0), F(0)], Mode.EXACT)


def test_shift_moves_fixed_point_to_origin():
    system = load(CUBIC)
    params = TransformParams.shift([F(-2)], Mode.EXACT)
    shifted = apply_affine(system, params)
    assert shifted.polys[0].terms == {(3,): F(1), (2,): F(-4), (1,): F(5)}
    assert shifted.constant_vector() == [F(0)]


def test_affine_change_of_coordinates_golden():
    system = load(COUPLED)
    params = TransformParams.create(
        [[F(1), F(2)], [F(-3), F(-5)]], [F(0), F(0)], Mode.EXACT)
    moved = apply_affine(system, params)
    assert moved.polys[0].terms == {
        (1, 0): F(2), (2, 0): F(87), (1, 1): F(67), (0, 2): F(13)}
    assert moved.polys[1].terms == {
        (0, 1): F(3), (2, 0): F(-212), (1, 1): F(-164), (0, 2): F(-32)}


def test_affine_transform_inverts():
    system = load(COUPLED)
    params = TransformParams.create(
        [[F(1), F(2)], [F(-3), F(-5)]], [F(4), F(-1)], Mode.EXACT)
    there = apply_affine(system, params)
    back = apply_affine(there, inverse_params(params))
    assert back == system


def test_affine_conjugates_the_dynamics():
    # stepping then transforming equals transforming then stepping
    system = load(COUPLED)
    params = TransformParams.create(
        [[F(2), F(4)], [F(-3), F(-5)]], [F(1), F(2)], Mode.EXACT)
    moved = apply_affine(system, params)
    for point in ([F(1, 3), F(-1, 2)], [F(0), F(2)]):
        stepped = [p.evaluate(point) for p in system.polys]
        lhs = apply_point(params, stepped)
        rhs = [p.evaluate(apply_point(params, point)) for p in moved.polys]
        assert lhs == rhs


# -- fixed points ----------------------------------------------------------------


def test_fixed_points_cubic():
    assert fixed_points(load(CUBIC)) == [[F(-2)], [F(0)]]


def test_fixed_points_logistic():
    assert fixed_points(load(LOGISTIC)) == [[F(0)], [F(1, 2)]]


def test_fixed_points_origin_for_zero_constant_two_vars():
    system = load(COUPLED)
    points = fixed_points(system)
    assert [F(0), F(0)] in points


def test_fixed_points_float_univariate():
    system = load(LOGISTIC, Mode.FLOAT)
    points = fixed_points(system)
    assert len(points) == 2
    flat = sorted(p[0].real for p in points)
    assert abs(flat[0]) < 1e-9 and abs(flat[1] - 0.5) < 1e-9


def test_fixed_points_float_newton_two_vars():
    system = load(COUPLED, Mode.FLOAT)
    points = fixed_points(system)
    assert any(max(abs(c) for c in p) < 1e-8 for p in points)
    for p in points:
        residual = max(abs(poly.evaluate(p) - p[j])
                       for j, poly in enumerate(system.polys))
        assert residual < 1e-8


# -- admissibility ---------------------------------------------------------------


def test_admissible_logistic_origin():
    report = check_shift_admissible(load(LOGISTIC), max_power=3)
    assert report.passed
    assert report.eigenvalues == (F(2),)
    assert report.collisions == ()


def test_admissibility_needs_zero_constant():
    with pytest.raises(NotShiftedError):
        check_shift_admissible(load("vars: u\nu[i] = 1 + u[i-1]^2\n"),
                               max_power=2)


def test_admissibility_rejects_nilpotent_shift():
    # shifting the logistic map to its other fixed point kills the linear term
    system = load(LOGISTIC)
    shifted = apply_affine(system, TransformParams.shift([F(1, 2)], Mode.EXACT))
    report = check_shift_admissible(shifted, max_power=3)
    assert not report.passed
    assert report.collisions


def test_admissibility_root_of_unity_advisory():
    system = load("vars: u\nu[i] = -1*u[i-1] + u[i-1]^2\n")
    report = check_shift_admissible(system, max_power=2)
    assert not report.passed
    assert any("root of unity" in note for note in report.advisories)


def test_admissibility_describe_mentions_products():
    report = check_shift_admissible(load(LOGISTIC), max_power=3)
    text = report.describe()
    assert "PASS" in text


# -- triangularization -----------------------------------------------------------


def test_triangular_input_needs_no_work():
    system = load(LOGISTIC)
    same, params = triangularize_linear(system)
    assert params.is_identity()
    assert same == system


def test_eigenvector_route_exact():
    system = load(COUPLED)
    moved, params = triangularize_linear(system)
    assert params.matrix == ((F(-5), F(-10)), (F(6), F(10)))
    assert apply_affine(system, params) == moved
    assert moved.linear_matrix() == [[F(2), F(0)], [F(0), F(3)]]


def test_triangularize_rejects_irrational_exact():
    system = load("vars: u\nu[i] = u[i-1] + u[i-2]\n")
    with pytest.raises(TriangularizationError):
        triangularize_linear(reduce_depth(system))


def test_triangularize_rejects_defective():
    text = "vars: u, v\nu[i] = 2*u[i-1] + v[i-1]\nv[i] = -1*u[i-1] + 4*v[i-1]\n"
    with pytest.raises(TriangularizationError):
        triangularize_linear(load(text))


def test_triangularize_float_eigenvectors():
    system = reduce_depth(load("vars: u\nu[i] = u[i-1] + u[i-2]\n", Mode.FLOAT))
    moved, params = triangularize_linear(system)
    lin = moved.linear_matrix()
    assert is_upper_triangular(lin, tol=1e-9)
    phi = (1 + 5 ** 0.5) / 2
    eigs = sorted(abs(lin[j][j]) for j in range(2))
    assert abs(eigs[0] - (phi - 1)) < 1e-9
    assert abs(eigs[1] - phi) < 1e-9


def test_triangularize_float_lower_triangular_part():
    # the eigenvector for -1/3 has a first entry of float residue, which
    # must come back as zero rather than be scaled up to a huge basis
    system = load("vars: u, v\nu[i] = -2/3*u[i-1] + u[i-1]^2\n"
                  "v[i] = 3/2*u[i-1] - 1/3*v[i-1] + v[i-1]^2\n", Mode.FLOAT)
    moved, params = triangularize_linear(system)
    assert is_upper_triangular(moved.linear_matrix())
    assert all(abs(x) <= 10 for row in params.matrix for x in row)
    assert all(abs(x) <= 10 for row in params.matrix_inv for x in row)


def test_triangularize_preserves_spectrum_exact():
    rng = random.Random(9)
    for _ in range(10):
        system = random_triangular_system(rng)
        same, params = triangularize_linear(system)
        assert params.is_identity() and same == system
