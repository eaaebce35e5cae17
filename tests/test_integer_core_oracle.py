"""The integer embedding and pullback against the Fraction routes they
replaced.

Exact build_transition forms each row of T from the integer polynomials
d * f_s and makes one Fraction per entry over d^degree; the exact pullback
expands every basis monomial from the images scaled the same way and sums
C' and each G'[j] as integers over one denominator. oracles keeps the old
routes: fraction_build_transition, compose_expansions and
lcm_sum_pullback. Exact values must agree with ==, keys in the same
order, and a whole exact solution, swapped onto the oracles, must print
the same JSON. Float mode forms its products from poly.product_table in
another order than the oracles' powers, so float rows keep the keys in
the same order with every entry within TRANSITION_TOL of the oracle's
(relative, scaled by at least 1), and a float solution swapped onto the
oracles keeps its refusals, cells and term counts, with every base (a
diagonal entry of T) within TRANSITION_TOL relative and every
coefficient within SOLUTION_TOL relative. Those float systems carry
their exact twins, so wherever a twin solves, both sides are the
rounding of an exact solve.
"""

import dataclasses
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import carleman.solver
from carleman import SolveOptions, parse_system, solve
from carleman.embedding import MonomialBasis, build_transition
from carleman.errors import CarlemanError
from carleman.linalg import mat_vec
from carleman.poly import Poly, affine_images
from carleman.scalars import Mode
from carleman.systems import TransformParams, apply_affine
from carleman.solver import _expansions, _pullback, resolve_transform
from carleman.triangular import decompose

from conftest import random_triangular_system
from oracles import (compose_expansions, fraction_build_transition,
                     lcm_sum_decompose, lcm_sum_pullback, reachable)
from test_pullback_oracle import conjugated_system, in_mode

F = Fraction

SAMPLES = Path(__file__).resolve().parent.parent / "docs" / "samples"
TRI3 = ("vars: x, y, z\n"
        "x[i] = 2*x[i-1] + y[i-1]^2\n"
        "y[i] = 3*y[i-1] + x[i-1]*z[i-1]\n"
        "z[i] = 5*z[i-1] + x[i-1]^2\n")
COUPLED_A = [[1, 2], [-3, -5]]
ORDERS = range(2, 10)
# float entries of T came out within 2.7e-14 of the oracle's (relative,
# scaled by at least 1), float bases within 3.1e-16 relative and float
# solution coefficients within 4.4e-8 relative
TRANSITION_TOL = 1e-12
SOLUTION_TOL = 1e-6


def random_order(rng, system):
    """An order in ORDERS; k = 3 random systems stop at 6, where a solve
    already takes about 0.2 s."""
    return rng.choice(ORDERS if system.k < 3 else range(2, 7))


def named_cases():
    """(label, exact system, solve options): the two samples, tri3 and
    coupled with A."""
    coupled = (SAMPLES / "coupled_quadratic.rec").read_text()
    for label, text, options in (
            ("logistic", (SAMPLES / "logistic_r2.rec").read_text(), {}),
            ("coupled", coupled, {}),
            ("tri3", TRI3, {}),
            ("coupled-A", coupled, {"matrix": COUPLED_A})):
        yield label, parse_system(text, Mode.EXACT)[0], options


def random_cases(seed, count):
    """Triangular systems. Every other one is conjugated by a product of
    rational shears A and moved so that its fixed point sits at a
    rational B; solved with matrix=A and shift=B, its pullback images
    have fractional coefficients."""
    rng = random.Random(seed)
    for index in range(count):
        if index % 2 == 0:
            yield f"random-{index}", random_triangular_system(rng), {}
            continue
        k = rng.choice((2, 3))
        a = [[F(int(r == c)) for c in range(k)] for r in range(k)]
        for _ in range(3):
            r, c = rng.sample(range(k), 2)
            s = rng.choice((F(1, 2), F(-2, 3), F(3, 4), F(-3)))
            for row in a:
                row[c] += s * row[r]
        fixed = [rng.choice((F(0), F(1, 2), F(-5, 3))) for _ in range(k)]
        system = conjugated_system(random_triangular_system(rng, k), a)
        moved = apply_affine(system, TransformParams.create(
            [[F(int(r == c)) for c in range(k)] for r in range(k)],
            [-x for x in fixed], Mode.EXACT))
        yield f"random-{index}-AB", moved, {"matrix": a, "shift": fixed}


def same_items(got, want):
    """== on every value, keys in the same order."""
    assert list(got.items()) == list(want.items())


def same_map(got, want):
    """== on every value, in any key order."""
    assert got == want


def check_transition(system, order, mode, options):
    opts = SolveOptions(order=order, mode=mode, **options)
    _, transformed, _ = resolve_transform(in_mode(system, mode), opts)
    basis = MonomialBasis(transformed.k, order)
    got = build_transition(transformed, basis).rows
    want = fraction_build_transition(transformed, basis).rows
    assert len(got) == len(want)
    for row, oracle in zip(got, want):
        if mode is Mode.EXACT:
            same_items(row, oracle)
            continue
        assert list(row) == list(oracle)
        for key, x in row.items():
            assert abs(x - oracle[key]) <= TRANSITION_TOL * max(
                1, abs(oracle[key]))


def pullback_args(system, order, options):
    """_pullback's arguments for the exact solve of system, or None when
    its transform is the identity and no pullback runs."""
    opts = SolveOptions(order=order, **options)
    _, transformed, combined = resolve_transform(system, opts)
    if combined.is_identity():
        return None
    basis = MonomialBasis(transformed.k, order)
    var_rows = [basis.index_of(tuple(int(t == q) for t in range(basis.k)))
                for q in range(basis.k)]
    spectral = decompose(build_transition(transformed, basis).rows,
                         Mode.EXACT, rows=var_rows)
    a_rows = combined.matrix
    images = affine_images(a_rows,
                           [-x for x in mat_vec(a_rows, combined.offset)])
    return (images, combined.matrix_inv,
            [spectral.modal[r] for r in var_rows], spectral.modal_inv,
            basis.monomials, Mode.EXACT)


def check_pullback(system, order, options):
    """Exact E_l, C' and every G'[j] against the Fraction route. The keys
    of E_l, and so of G'[j], come in the order their products formed them.
    Without an offset in the images that order is the oracle's, so they
    must match with keys in the same order. With an offset, product_table
    forms the terms in another order than the oracle's powers (the solver
    sorts every cell into grlex order anyway), so those two compare as
    maps."""
    args = pullback_args(system, order, options)
    if args is None:
        return False
    images, monomials = args[0], args[4]
    constant = (0,) * len(images)
    same = same_map if any(constant in image.terms for image in images) \
        else same_items
    for (terms, den), oracle in zip(
            _expansions(images, monomials, Mode.EXACT),
            compose_expansions(images, monomials, Mode.EXACT)):
        same({m: Fraction(c, den) for m, c in terms.items()}, oracle)
    c_rows, column = _pullback(*args)
    oracle_rows, oracle_column = lcm_sum_pullback(*args)
    for row, oracle in zip(c_rows, oracle_rows):
        same_items(row, oracle)
    for j in range(len(args[3])):
        same(column(j), oracle_column(j))
    return True


def check_decompose(system, order, options):
    """Exact decompose of T with the variable rows requested against
    lcm_sum_decompose: every row of P^-1 reachable from them and every
    requested row of P equal, every other row of P^-1 empty; with
    rows=None, all of P^-1 equal. Returns the number of unreachable
    rows."""
    opts = SolveOptions(order=order, **options)
    _, transformed, _ = resolve_transform(system, opts)
    basis = MonomialBasis(transformed.k, order)
    var_rows = [basis.index_of(tuple(int(t == q) for t in range(basis.k)))
                for q in range(basis.k)]
    matrix = build_transition(transformed, basis).rows
    want_modal, want_inv = lcm_sum_decompose(matrix, var_rows)
    spec = decompose(matrix, Mode.EXACT, rows=var_rows)
    reached = reachable(matrix, var_rows)
    for j, (row, oracle) in enumerate(zip(spec.modal_inv, want_inv)):
        same_items(row, oracle if j in reached else {})
    for row, oracle in zip(spec.modal, want_modal):
        same_items(row, oracle)
    for row, oracle in zip(decompose(matrix, Mode.EXACT).modal_inv, want_inv):
        same_items(row, oracle)
    return len(matrix) - len(reached)


def assert_near_solution(got, want):
    """Two float solution JSON texts (or refusals): the same refusal, or
    the same fields and cells with the same term counts, every base
    within TRANSITION_TOL and every coefficient within SOLUTION_TOL of
    the oracle's, relative."""
    if not want.startswith("{"):
        assert got == want
        return
    got, want = json.loads(got), json.loads(want)
    assert got.keys() == want.keys()
    for key in got:
        if key not in ("variables", "transformed"):
            assert got[key] == want[key]
            continue
        for entry, want_entry in zip(got[key], want[key], strict=True):
            assert entry.keys() == want_entry.keys()
            assert {k: v for k, v in entry.items() if k != "terms"} == \
                {k: v for k, v in want_entry.items() if k != "terms"}
            assert [t["monomial"] for t in entry["terms"]] == \
                [t["monomial"] for t in want_entry["terms"]]
            for term, want_term in zip(entry["terms"], want_entry["terms"]):
                for t, o in zip(term["expsum"], want_term["expsum"],
                                strict=True):
                    for field, tol in (("base", TRANSITION_TOL),
                                       ("coeff", SOLUTION_TOL)):
                        got_x, want_x = complex(*t[field]), complex(*o[field])
                        assert abs(got_x - want_x) <= tol * abs(want_x)


def solution_json(system, order, mode, options):
    """A solve's JSON text, or its refusal; a float system carries its
    exact twin, as parse_system gives it."""
    moved = in_mode(system, mode)
    if mode is Mode.FLOAT:
        moved = dataclasses.replace(moved, exact=system)
    try:
        solution = solve(moved, SolveOptions(order=order, mode=mode, **options))
    except CarlemanError as exc:
        return f"{type(exc).__name__}: {exc}"
    return json.dumps(solution.to_json())


@pytest.mark.parametrize("order", ORDERS)
def test_named_cases_match_fraction_routes(order):
    pulled = 0
    for _, system, options in named_cases():
        for mode in (Mode.EXACT, Mode.FLOAT):
            check_transition(system, order, mode, options)
        pulled += check_pullback(system, order, options)
    # the coupled sample (eigenvector basis) and coupled with A
    assert pulled == 2


def test_random_systems_match_fraction_routes():
    rng = random.Random(5)
    pulled = 0
    for _, system, options in random_cases(12, 16):
        order = random_order(rng, system)
        for mode in (Mode.EXACT, Mode.FLOAT):
            check_transition(system, order, mode, options)
        pulled += check_pullback(system, order, options)
    assert pulled == 8


@pytest.mark.parametrize("order", ORDERS)
def test_named_cases_decompose_matches_lcm_sum_route(order):
    cut = [check_decompose(system, order, options)
           for _, system, options in named_cases()]
    # the constant row is never reachable; tri3 leaves others too
    assert min(cut) >= 1 and cut[2] > 1


def test_random_systems_decompose_matches_lcm_sum_route():
    rng = random.Random(5)
    cut = sum(check_decompose(system, random_order(rng, system), options)
              for _, system, options in random_cases(12, 16))
    assert cut > 16


@pytest.mark.parametrize("mode", [Mode.EXACT, Mode.FLOAT])
def test_solutions_match_fraction_routes(monkeypatch, mode):
    rng = random.Random(7)
    cases = list(named_cases()) + list(random_cases(13, 8))
    plan = [(case, order) for case in cases[:4] for order in ORDERS]
    plan += [(case, random_order(rng, case[1])) for case in cases[4:]]
    got = [solution_json(system, order, mode, options)
           for (_, system, options), order in plan]
    monkeypatch.setattr(carleman.solver, "build_transition",
                        fraction_build_transition)
    monkeypatch.setattr(carleman.solver, "_pullback", lcm_sum_pullback)
    want = [solution_json(system, order, mode, options)
            for (_, system, options), order in plan]
    if mode is Mode.EXACT:
        assert got == want
    else:
        for text, oracle in zip(got, want):
            assert_near_solution(text, oracle)
    # most cases solve; the others must refuse alike
    assert sum(text.startswith("{") for text in got) > len(plan) // 2


@pytest.mark.parametrize("mode", [Mode.EXACT, Mode.FLOAT])
def test_one_product_per_basis_monomial(monkeypatch, mode):
    # T and every E_l come from one product table: one mul_truncated per
    # non-constant basis monomial (per-slot powers took 588 for tri3)
    system = parse_system(TRI3, mode)[0]
    basis = MonomialBasis(3, 9)
    images = affine_images([[mode.one * x for x in row]
                            for row in ([1, 2, 0], [0, 1, -3], [1, 0, 1])],
                           [mode.one * x for x in (F(1, 2), 0, -2)])
    calls = []
    multiply = Poly.mul_truncated

    def counting(self, other, max_degree=None):
        calls.append(max_degree)
        return multiply(self, other, max_degree)

    monkeypatch.setattr(Poly, "mul_truncated", counting)
    build_transition(system, basis)
    assert len(calls) == len(basis) - 1 == 219
    calls.clear()
    _expansions(images, basis.monomials, mode)
    assert len(calls) == len(basis) - 1
