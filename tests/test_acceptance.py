"""Acceptance gate: nine end-to-end behaviors the package must exhibit.

One test per criterion. Every numeric comparison is bit-exact unless the
criterion states a float tolerance, wall-clock budgets are asserted where
stated, and each test prints a single summary line (visible with -s).
"""

import random
import time
from fractions import Fraction

import pytest

from carleman.embedding import MonomialBasis, build_transition
from carleman.errors import ParseError, RepeatedEigenvalueError
from carleman.parser import parse_system, pretty_print
from carleman.scalars import Mode
from carleman.solver import (SolveOptions, history_to_reduced_state,
                             resolve_transform, solve, verify)
from carleman.systems import TransformParams, apply_affine, reduce_depth
from carleman.triangular import decompose

from conftest import (random_dsl_system, random_triangular_system,
                      random_upper_triangular)
from oracles import (chain_sum_eigenvector_entry, chain_sum_inverse_entry,
                     dense, invert_unit_triangular, iterate_symbolic,
                     matrix_power, power_from_decomposition, sparse)

F = Fraction

CUBIC = "vars: u\nu[i] = u[i-1]^3 + 2*u[i-1]^2 + u[i-1]\n"
COUPLED = (
    "vars: u, v\n"
    "u[i] = 8*u[i-1] + 10*v[i-1] + u[i-1]^2 + 3*u[i-1]*v[i-1] + v[i-1]^2\n"
    "v[i] = -3*u[i-1] - 3*v[i-1] + u[i-1]^2 - u[i-1]*v[i-1] + v[i-1]^2\n")

COUPLED_TILDE = [
    [F(1), F(0), F(0), F(0), F(0), F(0)],
    [F(0), F(2), F(0), F(87), F(67), F(13)],
    [F(0), F(0), F(3), F(-212), F(-164), F(-32)],
    [F(0), F(0), F(0), F(4), F(0), F(0)],
    [F(0), F(0), F(0), F(0), F(6), F(0)],
    [F(0), F(0), F(0), F(0), F(0), F(9)],
]


def report(number: int, detail: str) -> None:
    print(f"ACCEPTANCE {number}: PASS ({detail})")


def coeffs_at(table, i):
    """Evaluate a {monomial: ExpSum} table at step i, dropping zeros."""
    out = {}
    for mono, es in table.items():
        value = es.evaluate(i)
        if value != 0:
            out[mono] = value
    return out


def assert_tables_match(got: dict, expected: dict) -> None:
    for key in set(got) | set(expected):
        assert got.get(key, 0) == expected.get(key, 0), key


def test_acceptance_1_shift_transform():
    start = time.perf_counter()
    system, names = parse_system(CUBIC, Mode.EXACT)
    shifted = apply_affine(system, TransformParams.shift([F(-2)], Mode.EXACT))
    text = pretty_print(shifted, names)
    assert text == "vars: u\nu[i] = u[i-1]^3 - 4*u[i-1]^2 + 5*u[i-1]\n"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"shift d=-2 reproduces the transformed cubic exactly, "
              f"{elapsed:.3f}s")


@pytest.mark.parametrize("r", [F(2), F(3), F(1, 2)], ids=["2", "3", "1/2"])
def test_acceptance_2_logistic_family(r):
    start = time.perf_counter()
    text = f"vars: u\nu[i] = {r}*u[i-1] - {r}*u[i-1]^2\n"
    system, names = parse_system(text, Mode.EXACT)
    solution = solve(system, SolveOptions(order=3, mode=Mode.EXACT),
                     names=names)
    table = solution.tables[0]
    denom3 = r ** 3 - r ** 2 - r + 1
    for i in range(9):
        assert table[(1,)].evaluate(i) == r ** i
        assert table[(2,)].evaluate(i) == (r ** i - r ** (2 * i)) / (r - 1)
        assert table[(3,)].evaluate(i) == (
            2 * r * r ** i - 2 * (r + 1) * r ** (2 * i) + 2 * r ** (3 * i)
        ) / denom3
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, f"logistic r={r}: f1, f2, f3 bit-exact for i=0..8, "
              f"{elapsed:.3f}s")


def test_acceptance_3_coupled_quadratic_end_to_end():
    start = time.perf_counter()
    system, names = parse_system(COUPLED, Mode.EXACT)
    matrix_a = [[F(1), F(2)], [F(-3), F(-5)]]
    opts = SolveOptions(order=2, mode=Mode.EXACT, matrix=matrix_a)

    # (a) coefficient arrays of the transformed system
    _reduced, transformed, _params = resolve_transform(system, opts)
    assert transformed.polys[0].terms == {
        (1, 0): F(2), (2, 0): F(87), (1, 1): F(67), (0, 2): F(13)}
    assert transformed.polys[1].terms == {
        (0, 1): F(3), (2, 0): F(-212), (1, 1): F(-164), (0, 2): F(-32)}

    # (b) the 6x6 reduced transition matrix
    transition = build_transition(transformed, MonomialBasis(2, 2))
    assert dense(transition.rows) == COUPLED_TILDE

    # (c) modal matrix: same columns as the reference decomposition up to
    # the column scalings (1, 1, 1, 2, 12, 21), and P D P^-1 == T
    reference_p = [
        [F(1), F(0), F(0), F(0), F(0), F(0)],
        [F(0), F(1), F(0), F(87), F(201), F(39)],
        [F(0), F(0), F(1), F(-424), F(-656), F(-112)],
        [F(0), F(0), F(0), F(2), F(0), F(0)],
        [F(0), F(0), F(0), F(0), F(12), F(0)],
        [F(0), F(0), F(0), F(0), F(0), F(21)],
    ]
    ratios = (F(1), F(1), F(1), F(2), F(12), F(21))
    spec = decompose(transition.rows, Mode.EXACT)
    modal = dense(spec.modal)
    for j, ratio in enumerate(ratios):
        for b in range(6):
            assert reference_p[b][j] == ratio * modal[b][j]
    reconstructed = power_from_decomposition(spec, 1)
    assert reconstructed == COUPLED_TILDE

    # (d) transformed-coordinate coefficient functions
    solution = solve(system, opts, names=names)
    t0, t1 = solution.transformed
    for i in range(7):
        assert t0[(1, 0)].evaluate(i) == F(2) ** i
        assert t0[(2, 0)].evaluate(i) == F(87, 2) * (F(4) ** i - F(2) ** i)
        assert t0[(1, 1)].evaluate(i) == F(67, 4) * (F(6) ** i - F(2) ** i)
        assert t0[(0, 2)].evaluate(i) == F(13, 7) * (F(9) ** i - F(2) ** i)
        assert t1[(0, 1)].evaluate(i) == F(3) ** i
        assert t1[(2, 0)].evaluate(i) == -212 * (F(4) ** i - F(3) ** i)
        assert t1[(1, 1)].evaluate(i) == F(-164, 3) * (F(6) ** i - F(3) ** i)
        assert t1[(0, 2)].evaluate(i) == F(-16, 3) * (F(9) ** i - F(3) ** i)

    # (e) all ten original-coordinate coefficient functions
    formulas = {
        (0, (1, 0)): lambda i: 6 * F(3) ** i - 5 * F(2) ** i,
        (0, (0, 1)): lambda i: 10 * (F(3) ** i - F(2) ** i),
        (0, (2, 0)): lambda i: (F(87, 7) * F(9) ** i - F(307, 4) * F(6) ** i
                                + F(413, 2) * F(4) ** i - 192 * F(3) ** i
                                + F(1395, 28) * F(2) ** i),
        (0, (1, 1)): lambda i: (F(290, 7) * F(9) ** i - F(3377, 12) * F(6) ** i
                                + 826 * F(4) ** i - F(2440, 3) * F(3) ** i
                                + F(6365, 28) * F(2) ** i),
        (0, (0, 2)): lambda i: (F(725, 21) * F(9) ** i - F(1535, 6) * F(6) ** i
                                + 826 * F(4) ** i - F(2608, 3) * F(3) ** i
                                + F(3705, 14) * F(2) ** i),
        (1, (1, 0)): lambda i: -3 * (F(3) ** i - F(2) ** i),
        (1, (0, 1)): lambda i: -(5 * F(3) ** i - 6 * F(2) ** i),
        (1, (2, 0)): lambda i: (F(15, 7) * F(9) ** i + F(53, 4) * F(6) ** i
                                - F(163, 2) * F(4) ** i + 96 * F(3) ** i
                                - F(837, 28) * F(2) ** i),
        (1, (1, 1)): lambda i: (F(50, 7) * F(9) ** i + F(583, 12) * F(6) ** i
                                - 326 * F(4) ** i + F(1220, 3) * F(3) ** i
                                - F(3819, 28) * F(2) ** i),
        (1, (0, 2)): lambda i: (F(125, 21) * F(9) ** i + F(265, 6) * F(6) ** i
                                - 326 * F(4) ** i + F(1304, 3) * F(3) ** i
                                - F(2223, 14) * F(2) ** i),
    }
    for (p, mono), formula in formulas.items():
        for i in range(7):
            assert solution.tables[p][mono].evaluate(i) == formula(i), \
                (p, mono, i)

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(3, f"coupled quadratic: arrays, matrix, modal columns, and all "
              f"ten coefficient functions bit-exact, {elapsed:.2f}s")


def test_acceptance_4_closed_form_equals_oracle():
    start = time.perf_counter()
    rng = random.Random(4)
    count = 100
    for _ in range(count):
        system = random_triangular_system(rng)
        order = rng.randint(2, 5)
        solution = solve(system, SolveOptions(order=order, mode=Mode.EXACT,
                                              shift="none"))
        for i in range(5):
            oracle = iterate_symbolic(system, i, max_degree=order)
            for p in range(system.k):
                assert_tables_match(coeffs_at(solution.tables[p], i),
                                    dict(oracle[p].terms))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(4, f"{count} random triangular systems match the symbolic oracle "
              f"bit-exactly for i=0..4, {elapsed:.1f}s")


def test_acceptance_5_depth_reduction():
    start = time.perf_counter()

    # exact depth-2 solve at order 1 (higher orders hit (-1)^2 = 1^0)
    system, names = parse_system(
        "vars: u\nu[i] = 2*u[i-1] + 3*u[i-2] + u[i-1]*u[i-2]\n", Mode.EXACT)
    solution = solve(system, SolveOptions(order=1, mode=Mode.EXACT),
                     names=names)
    assert solution.names == ("u", "u_m1")
    reduced = reduce_depth(system)
    for i in range(6):
        oracle = iterate_symbolic(reduced, i, max_degree=1)
        for p in range(2):
            assert_tables_match(coeffs_at(solution.tables[p], i),
                                dict(oracle[p].terms))

    # float Fibonacci against the radical formula
    fib_sys, fib_names = parse_system("vars: u\nu[i] = u[i-1] + u[i-2]\n",
                                      Mode.FLOAT)
    fib = solve(fib_sys, SolveOptions(order=2, mode=Mode.FLOAT),
                names=fib_names)
    state = history_to_reduced_state(fib_sys, [1.0, 1.0])
    sqrt5 = 5.0 ** 0.5
    phi, psi = (1 + sqrt5) / 2, (1 - sqrt5) / 2
    for i in range(21):
        expected = (phi ** (i + 1) - psi ** (i + 1)) / sqrt5
        got = 1.0 if i == 0 else fib.evaluate(i - 1, state)[0]
        assert abs(got - expected) < 1e-9, i
    elapsed = time.perf_counter() - start
    report(5, f"depth-2 oracle exact for i=0..5 and Fibonacci within 1e-9 "
              f"for i<=20, {elapsed:.2f}s")


def test_acceptance_6_back_substitution_vs_chain_sums():
    start = time.perf_counter()
    rng = random.Random(6)
    count = 200
    for _ in range(count):
        n = rng.randint(2, 8)
        matrix = random_upper_triangular(rng, n)
        modal = dense(decompose(sparse(matrix), Mode.EXACT).modal)
        inverse = dense(invert_unit_triangular(sparse(matrix), Mode.EXACT))
        for b in range(n):
            assert modal[b][b] == 1
            for a in range(b + 1, n):
                assert chain_sum_eigenvector_entry(matrix, b, a, Mode.EXACT) \
                    == modal[b][a]
            for m in range(b, n):
                assert chain_sum_inverse_entry(matrix, b, m, Mode.EXACT) \
                    == inverse[b][m]
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(6, f"{count} random triangular matrices: back substitution equals "
              f"the chain-sum formulas entrywise, {elapsed:.1f}s")


def test_acceptance_7_truncation_closure():
    start = time.perf_counter()
    rng = random.Random(7)
    for _ in range(30):
        system = random_triangular_system(rng)
        order = rng.randint(1, 3)
        small = build_transition(system, MonomialBasis(system.k, order))
        large = build_transition(system, MonomialBasis(system.k, order + 2))
        m = len(small.rows)
        assert [row[:m] for row in dense(large.rows)[:m]] == dense(small.rows)
        for i in (2, 3):
            small_power = matrix_power(small, i)
            large_power = matrix_power(large, i)
            assert [row[:m] for row in large_power[:m]] == small_power
    elapsed = time.perf_counter() - start
    report(7, f"top-left blocks at orders N and N+2 coincide, and so do "
              f"their powers, {elapsed:.1f}s")


def test_acceptance_8_admissibility_gate():
    system, names = parse_system(CUBIC, Mode.EXACT)
    with pytest.raises(RepeatedEigenvalueError) as exc:
        solve(system, SolveOptions(order=2, mode=Mode.EXACT, shift="none"),
              names=names)
    assert ((0,), (1,), F(1)) in exc.value.collisions

    shifted = solve(system, SolveOptions(order=2, mode=Mode.EXACT,
                                         shift=[F(-2)]), names=names)
    assert shifted.transform.offset == (F(-2),)
    assert shifted.transformed[0][(1,)].evaluate(1) == 5
    assert verify(shifted, system).passed
    report(8, "unshifted cubic rejected with the structured collision list; "
              "d=-2 (eigenvalue 5) passes")


def test_acceptance_9_parser_round_trips_and_diagnostics():
    start = time.perf_counter()
    rng = random.Random(9)
    count = 500
    for _ in range(count):
        text = random_dsl_system(rng)
        system, names = parse_system(text, Mode.EXACT)
        printed = pretty_print(system, names)
        reparsed, renames = parse_system(printed, Mode.EXACT)
        assert renames == names
        assert [p.terms for p in reparsed.polys] == [p.terms for p in
                                                     system.polys]
        assert pretty_print(reparsed, renames) == printed

    cubic, _ = parse_system(CUBIC, Mode.EXACT)
    assert cubic.polys[0].terms == {(3,): F(1), (2,): F(2), (1,): F(1)}
    coupled, _ = parse_system(COUPLED, Mode.EXACT)
    assert coupled.polys[0].terms == {
        (1, 0): F(8), (0, 1): F(10), (2, 0): F(1), (1, 1): F(3), (0, 2): F(1)}
    assert coupled.polys[1].terms == {
        (1, 0): F(-3), (0, 1): F(-3), (2, 0): F(1), (1, 1): F(-1),
        (0, 2): F(1)}

    bad_inputs = [
        "u[i] = u[i-1]\n",                          # missing vars header
        "vars: u\nu[i] = w[i-1]\n",                 # undeclared variable
        "vars: u\nu[i] = u[i-0]\n",                 # lag must be >= 1
        "vars: u\nu[i] = u[i]\n",                   # unlagged reference
        "vars: u\nu[i] = u[i-1]^x\n",               # non-integer exponent
        "vars: u\nu[i] = u[i-1]\nu[i] = u[i-1]\n",  # duplicate equation
        "vars: u, v\nu[i] = v[i-1]\n",              # missing equation
        "vars: u\nu[i] = u[i-1]/u[i-1]\n",          # division
        "vars: i\ni[i] = i[i-1]\n",                 # reserved index name
        "vars: u, u\nu[i] = u[i-1]\n",              # duplicate declaration
        "vars: u\nu[i] = 2u[i-1]\n",                # implicit multiplication
        "vars: u\nu[i] = 1/0\n",                    # zero denominator
        "vars: u\nu[i] = -u[i-1]\n",                # sign allowed on numbers only
    ]
    for text in bad_inputs:
        with pytest.raises(ParseError) as err:
            parse_system(text, Mode.EXACT)
        span = err.value.span
        assert span is not None, text
        assert span.line >= 1 and span.column >= 1, text
        assert span.end >= span.start, text
    elapsed = time.perf_counter() - start
    report(9, f"{count} round-trips, both reference systems, and "
              f"{len(bad_inputs)} diagnostic paths with spans, {elapsed:.1f}s")
