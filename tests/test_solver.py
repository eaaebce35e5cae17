"""End-to-end solving: closed forms, verification, evaluation."""

import json
import math
import random
from fractions import Fraction

import pytest

import carleman.solver
from carleman import (
    ArityError, CarlemanError, ExpSum, RepeatedEigenvalueError,
    ShiftNotFoundError, SolveOptions, eval_direct, history_to_reduced_state,
    oracle_iterate_symbolic, parse_system, solve, verify,
)
from carleman.scalars import Mode
from carleman.solver import (ClosedFormSolution, reduced_variable_names,
                             resolve_shift)
from carleman.systems import reduce_depth

from conftest import random_triangular_system
from oracles import expsum_add, expsum_scaled

F = Fraction

LOGISTIC_TEXT = "vars: u\nu[i] = {r}*u[i-1] - {r}*u[i-1]^2\n"
CUBIC = "vars: u\nu[i] = u[i-1]^3 + 2*u[i-1]^2 + u[i-1]\n"
COUPLED = (
    "vars: u, v\n"
    "u[i] = 8*u[i-1] + 10*v[i-1] + u[i-1]^2 + 3*u[i-1]*v[i-1] + v[i-1]^2\n"
    "v[i] = -3*u[i-1] - 3*v[i-1] + u[i-1]^2 - u[i-1]*v[i-1] + v[i-1]^2\n")
MATRIX_A = [[F(1), F(2)], [F(-3), F(-5)]]


def load(text, mode=Mode.EXACT):
    return parse_system(text, mode)


def logistic(r, mode=Mode.EXACT):
    return load(LOGISTIC_TEXT.format(r=r), mode)


# -- exponential sums --------------------------------------------------------------


def test_expsum_merges_repeated_bases():
    es = ExpSum.from_terms(Mode.EXACT, [(F(2), F(1)), (F(2), F(3))])
    assert es.terms == ((F(2), F(4)),)


def test_expsum_drops_zero_coefficients():
    es = ExpSum.from_terms(Mode.EXACT, [(F(2), F(1)), (F(2), F(-1))])
    assert es.is_zero()
    assert es.evaluate(5) == F(0)


def test_expsum_merges_equal_bases_built_differently():
    es = ExpSum.from_terms(Mode.EXACT, [(F(4, 2), F(1)), (F(3), F(5)),
                                        (F(2), F(2)), (F(6, 2), F(1, 2))])
    assert es.terms == ((F(2), F(3)), (F(3), F(11, 2)))


def test_expsum_drops_a_cancelled_coefficient_and_keeps_the_rest():
    es = ExpSum.from_terms(Mode.EXACT, [(F(3), F(1, 2)), (F(2), F(1)),
                                        (F(3), F(-1, 2))])
    assert es.terms == ((F(2), F(1)),)


# expsum_scaled and expsum_add are the arithmetic of oracles.fold_pullback,
# the exact-mode reference for the pullback


def test_expsum_scaled_by_zero_is_zero():
    es = ExpSum.from_terms(Mode.EXACT, [(F(2), F(1)), (F(-1, 3), F(7))])
    assert expsum_scaled(es, F(0)).is_zero()
    assert expsum_scaled(es, F(0)) == ExpSum(Mode.EXACT, ())


@pytest.mark.parametrize("factor", [F(1), F(-1), F(3, 7), F(-12)])
def test_expsum_scaled_stays_canonical(factor):
    es = ExpSum.from_terms(Mode.EXACT, [(F(5), F(-2, 3)), (F(-3), F(1)),
                                        (F(1, 2), F(4))])
    expected = ExpSum.from_terms(Mode.EXACT,
                                 [(b, c * factor) for b, c in es.terms])
    assert expsum_scaled(es, factor) == expected
    assert [b for b, _ in expsum_scaled(es, factor).terms] == [
        F(-3), F(1, 2), F(5)]


def test_expsum_evaluate():
    es = ExpSum.from_terms(Mode.EXACT, [(F(2), F(1)), (F(4), F(-1))])
    assert [es.evaluate(i) for i in range(4)] == \
        [F(0), F(-2), F(-12), F(-56)]
    with pytest.raises(ValueError):
        es.evaluate(-1)


def test_expsum_render_goldens():
    two = ExpSum.from_terms(Mode.EXACT, [(F(2), F(1))])
    assert two.render() == "2^i"
    diff = ExpSum.from_terms(Mode.EXACT, [(F(2), F(1)), (F(4), F(-1))])
    assert diff.render() == "2^i - 4^i"
    third = ExpSum.from_terms(
        Mode.EXACT, [(F(2), F(4, 3)), (F(4), F(-2)), (F(8), F(2, 3))])
    assert third.render() == "4/3*2^i - 2*4^i + 2/3*8^i"
    unit_base = ExpSum.from_terms(Mode.EXACT, [(F(1), F(-2)), (F(3), F(1, 2))])
    assert unit_base.render() == "-2 + 1/2*3^i"
    negative_base = ExpSum.from_terms(Mode.EXACT, [(F(-3), F(1))])
    assert negative_base.render() == "(-3)^i"
    fraction_base = ExpSum.from_terms(Mode.EXACT, [(F(1, 2), F(5))])
    assert fraction_base.render() == "5*(1/2)^i"
    assert ExpSum(Mode.EXACT, ()).render() == "0"


def test_expsum_algebra():
    a = ExpSum.from_terms(Mode.EXACT, [(F(2), F(1))])
    b = ExpSum.from_terms(Mode.EXACT, [(F(2), F(2)), (F(3), F(1))])
    total = expsum_add(a, b)
    assert total.terms == ((F(2), F(3)), (F(3), F(1)))
    assert expsum_scaled(a, F(-1)).terms == ((F(2), F(-1)),)
    with pytest.raises(CarlemanError):
        expsum_add(a, ExpSum.from_terms(Mode.FLOAT, [(complex(2), complex(1))]))


def test_expsum_float_merging():
    es = ExpSum.from_terms(
        Mode.FLOAT, [(complex(2), complex(1)), (complex(2 + 1e-13), complex(1))])
    assert len(es.terms) == 1
    assert abs(es.terms[0][1] - 2) < 1e-9


def test_expsum_json_round_trip():
    es = ExpSum.from_terms(Mode.EXACT, [(F(2), F(4, 3)), (F(1, 2), F(-1))])
    assert ExpSum.from_json(Mode.EXACT, es.to_json()) == es
    ef = ExpSum.from_terms(Mode.FLOAT, [(complex(0, 1), complex(2.5))])
    assert ExpSum.from_json(Mode.FLOAT, ef.to_json()) == ef


# -- options -----------------------------------------------------------------------


def test_options_validation():
    with pytest.raises(CarlemanError):
        SolveOptions(order=0)
    with pytest.raises(CarlemanError):
        SolveOptions(shift="sideways")
    system, names = logistic(F(2))
    solution = solve(system, SolveOptions(order=2), names=names)
    with pytest.raises(CarlemanError, match="max_power must be >= 0"):
        verify(solution, system, max_power=-1)


# -- logistic map closed forms -----------------------------------------------------


@pytest.mark.parametrize("r", [F(2), F(3), F(1, 2)])
def test_logistic_coefficient_functions(r):
    system, names = logistic(r)
    solution = solve(system, SolveOptions(order=3), names=names)
    table = solution.tables[0]
    f1 = ExpSum.from_terms(Mode.EXACT, [(r, F(1))])
    f2 = ExpSum.from_terms(
        Mode.EXACT, [(r, F(1) / (r - 1)), (r * r, F(-1) / (r - 1))])
    denom = r ** 3 - r ** 2 - r + 1
    f3 = ExpSum.from_terms(Mode.EXACT, [
        (r, 2 * r / denom), (r * r, -2 * (r + 1) / denom),
        (r ** 3, 2 / denom)])
    for i in range(9):
        assert table[(1,)].evaluate(i) == f1.evaluate(i)
        assert table[(2,)].evaluate(i) == f2.evaluate(i)
        assert table[(3,)].evaluate(i) == f3.evaluate(i)


def test_logistic_r2_rendered_forms():
    system, names = logistic(F(2))
    solution = solve(system, SolveOptions(order=3), names=names)
    table = solution.tables[0]
    assert table[(1,)].render() == "2^i"
    assert table[(2,)].render() == "2^i - 4^i"
    assert table[(3,)].render() == "4/3*2^i - 2*4^i + 2/3*8^i"


def test_render_text_logistic():
    system, names = logistic(F(2))
    solution = solve(system, SolveOptions(order=3), names=names)
    text = solution.render_text()
    assert "u[i] = (2^i)*u[0] + (2^i - 4^i)*u[0]^2" in text


# -- coupled system end-to-end -----------------------------------------------------


def coupled_solution(matrix=MATRIX_A, order=2):
    system, names = load(COUPLED)
    return system, solve(system, SolveOptions(order=order, matrix=matrix),
                         names=names)


def test_coupled_transformed_tables():
    _, solution = coupled_solution()
    t = solution.transformed
    assert t[0][(1, 0)].terms == ((F(2), F(1)),)
    assert t[0][(2, 0)].terms == ((F(2), F(-87, 2)), (F(4), F(87, 2)))
    assert t[0][(1, 1)].terms == ((F(2), F(-67, 4)), (F(6), F(67, 4)))
    assert t[0][(0, 2)].terms == ((F(2), F(-13, 7)), (F(9), F(13, 7)))
    assert t[1][(0, 1)].terms == ((F(3), F(1)),)
    assert t[1][(2, 0)].terms == ((F(3), F(212)), (F(4), F(-212)))
    assert t[1][(1, 1)].terms == ((F(3), F(164, 3)), (F(6), F(-164, 3)))
    assert t[1][(0, 2)].terms == ((F(3), F(16, 3)), (F(9), F(-16, 3)))


def test_coupled_original_linear_rows():
    _, solution = coupled_solution()
    table = solution.tables
    assert table[0][(1, 0)].terms == ((F(2), F(-5)), (F(3), F(6)))
    assert table[0][(0, 1)].terms == ((F(2), F(-10)), (F(3), F(10)))
    assert table[1][(1, 0)].terms == ((F(2), F(3)), (F(3), F(-3)))
    assert table[1][(0, 1)].terms == ((F(2), F(6)), (F(3), F(-5)))


def test_coupled_verifies_in_original_coordinates():
    system, solution = coupled_solution()
    report = verify(solution, system, max_power=5)
    assert report.passed
    assert report.coordinates == "original"
    assert report.max_discrepancy == 0


def test_transform_invariance_under_row_scaling():
    # a row-scaled transform matrix changes nothing in original coordinates
    _, base = coupled_solution()
    _, scaled = coupled_solution(matrix=[[F(2), F(4)], [F(-3), F(-5)]])
    assert scaled.tables == base.tables
    assert scaled.offsets == base.offsets


def test_auto_transform_matches_explicit():
    # with no matrix supplied the solver finds its own eigenvector basis
    system, names = load(COUPLED)
    solution = solve(system, SolveOptions(order=2), names=names)
    _, explicit = coupled_solution()
    assert solution.tables == explicit.tables


# -- shifts ------------------------------------------------------------------------


def test_auto_shift_picks_admissible_fixed_point():
    system, names = load(CUBIC)
    solution = solve(system, SolveOptions(order=3), names=names)
    assert solution.offsets == (F(-2),)
    report = verify(solution, system)
    assert report.passed and report.coordinates == "transformed"


def test_resolve_shift_trail_records_rejection():
    system, _ = load(CUBIC)
    offset, trail = resolve_shift(system, SolveOptions(order=3))
    assert offset == [F(-2)]
    assert len(trail) == 2
    assert trail[0].offset == (F(0),) and not trail[0].chosen
    assert trail[1].offset == (F(-2),) and trail[1].chosen


def test_shift_none_rejected_when_collisions_exist():
    system, names = load(CUBIC)
    with pytest.raises(RepeatedEigenvalueError) as err:
        solve(system, SolveOptions(order=3, shift="none"), names=names)
    assert err.value.collisions


def test_shift_none_rejected_on_nonzero_constant():
    system, names = load("vars: u\nu[i] = 1 + 2*u[i-1]\n")
    with pytest.raises(CarlemanError) as err:
        solve(system, SolveOptions(order=2, shift="none"), names=names)
    assert "shifting is disabled" in str(err.value)


def test_no_admissible_fixed_point():
    system, names = load("vars: u\nu[i] = 2*u[i-1] + 3*u[i-2] + u[i-1]*u[i-2]\n")
    with pytest.raises(ShiftNotFoundError):
        solve(system, SolveOptions(order=2), names=names)


def test_explicit_shift_of_depth_two_system_is_replicated():
    # a depth-2 fixed point is a constant trajectory: one k-long offset
    text = "vars: u\nu[i] = 1/2*u[i-1] + 1/4*u[i-2] + u[i-1]*u[i-2] - 1/8\n"
    system, names = load(text)
    fixed = F(1, 2)
    value = F(1, 2) * fixed + F(1, 4) * fixed + fixed * fixed - F(1, 8)
    assert value == fixed
    solution = solve(system, SolveOptions(order=2, shift=[fixed]),
                     names=names)
    assert solution.offsets == (fixed, fixed)
    assert verify(solution, system).passed


# -- identity and consistency ------------------------------------------------------


def test_closed_form_is_identity_at_step_zero():
    system, names = load(CUBIC)
    solution = solve(system, SolveOptions(order=4), names=names)
    for z0 in (F(0), F(1, 3), F(-2), F(7, 5)):
        assert solution.evaluate(0, [z0]) == [z0]


def test_one_step_matches_the_map():
    system, names = load(COUPLED)
    solution = solve(system, SolveOptions(order=2, matrix=MATRIX_A),
                     names=names)
    for z0 in ([F(1, 5), F(-1, 7)], [F(0), F(1, 2)]):
        stepped = [p.evaluate(z0) for p in system.polys]
        assert solution.evaluate(1, z0) == stepped


def test_linear_systems_are_exact_at_any_step():
    text = "vars: u, v\nu[i] = 2*u[i-1] + v[i-1]\nv[i] = 3*v[i-1]\n"
    system, names = load(text)
    solution = solve(system, SolveOptions(order=1), names=names)
    z0 = [F(1, 3), F(-2)]
    assert solution.evaluate(9, z0) == eval_direct(system, 9, z0)


# -- oracle ------------------------------------------------------------------------


def test_oracle_iterate_logistic():
    system, _ = logistic(F(2))
    assert oracle_iterate_symbolic(system, 0)[0].terms == {(1,): F(1)}
    assert oracle_iterate_symbolic(system, 1)[0].terms == \
        {(1,): F(2), (2,): F(-2)}
    assert oracle_iterate_symbolic(system, 2)[0].terms == \
        {(1,): F(4), (2,): F(-12), (3,): F(16), (4,): F(-8)}


def test_oracle_truncation_respects_grading():
    system, _ = logistic(F(2))
    full = oracle_iterate_symbolic(system, 3)
    cut = oracle_iterate_symbolic(system, 3, max_degree=3)
    for mono, coeff in cut[0].terms.items():
        assert coeff == full[0].terms[mono]
    assert all(sum(m) <= 3 for m in cut[0].terms)


def test_closed_form_matches_oracle_truncated():
    rng = random.Random(77)
    for _ in range(12):
        system = random_triangular_system(rng)
        order = rng.randint(2, 4)
        solution = solve(system, SolveOptions(order=order, shift="none"))
        for i in range(4):
            step = oracle_iterate_symbolic(system, i, max_degree=order)
            for p in range(system.k):
                keys = set(step[p].terms) | set(solution.tables[p])
                for mono in keys:
                    expected = step[p].terms.get(mono, F(0))
                    entry = solution.tables[p].get(mono)
                    got = entry.evaluate(i) if entry is not None else F(0)
                    assert got == expected


# -- verification ------------------------------------------------------------------


def test_verify_reports_per_step_rows():
    system, names = logistic(F(2))
    solution = solve(system, SolveOptions(order=3), names=names)
    report = verify(solution, system, max_power=4)
    assert report.passed
    assert report.steps == 4
    text = report.describe()
    assert "i=0: PASS" in text and "result: PASS" in text
    payload = report.to_json()
    assert payload["passed"] is True


def test_failing_verify_names_its_worst_row():
    # float coefficients of the coupled sample lose digits to cancellation;
    # rounded once from the exact solve, they pass at order 4 and fail at 6
    system, names = load(COUPLED, Mode.FLOAT)
    solution = solve(system, SolveOptions(order=6, mode=Mode.FLOAT,
                                          matrix=MATRIX_A), names)
    report = verify(solution, system)
    assert not report.passed
    worst = max((r for r in report.rows if not r.ok),
                key=lambda r: r.error / max(1.0, abs(r.expected)))
    relative = worst.error / max(1.0, abs(worst.expected))
    last = report.describe().splitlines()[-1]
    assert last == (
        f"result: FAIL (max discrepancy {report.max_discrepancy:.3g}; "
        f"worst failing row: {worst.variable} {tuple(worst.monomial)} at "
        f"i={worst.step}, error {worst.error:.3g}, relative {relative:.3g})")
    # the largest absolute error sits on a passing row
    assert report.max_discrepancy > worst.error


def test_verify_flags_tampered_solution():
    system, names = logistic(F(2))
    solution = solve(system, SolveOptions(order=3), names=names)
    broken_table = dict(solution.tables[0])
    broken_table[(2,)] = ExpSum.from_terms(
        Mode.EXACT, [(b, 2 * c) for b, c in broken_table[(2,)].terms])
    tampered = ClosedFormSolution(
        names=solution.names, offsets=solution.offsets,
        tables=(broken_table,), transformed=solution.transformed,
        transform=solution.transform, order=solution.order,
        mode=solution.mode)
    report = verify(tampered, system)
    assert not report.passed
    failing = [row for row in report.rows if not row.ok]
    assert failing and all(row.monomial == (2,) for row in failing)
    assert "FAIL" in report.describe()


def test_verify_float_tolerance():
    system, names = logistic(F(2), Mode.FLOAT)
    solution = solve(system, SolveOptions(order=3, mode=Mode.FLOAT),
                     names=names)
    report = verify(solution, system)
    assert report.passed
    assert report.max_discrepancy < 1e-10


# -- depth reduction ---------------------------------------------------------------


def test_depth_two_quadratic_against_oracle():
    text = "vars: u\nu[i] = 2*u[i-1] + 3*u[i-2] + u[i-1]*u[i-2]\n"
    system, names = load(text)
    solution = solve(system, SolveOptions(order=1), names=names)
    assert solution.names == ("u", "u_m1")
    reduced = reduce_depth(system)
    for i in range(6):
        step = oracle_iterate_symbolic(reduced, i, max_degree=1)
        for p in range(reduced.k):
            for mono, coeff in step[p].terms.items():
                entry = solution.tables[p].get(mono)
                got = entry.evaluate(i) if entry is not None else F(0)
                assert got == coeff


def test_depth_two_rejects_higher_order():
    text = "vars: u\nu[i] = 2*u[i-1] + 3*u[i-2] + u[i-1]*u[i-2]\n"
    system, names = load(text)
    with pytest.raises(RepeatedEigenvalueError):
        solve(system, SolveOptions(order=2, shift="none"), names=names)


def test_fibonacci_against_binet():
    system, names = load("vars: u\nu[i] = u[i-1] + u[i-2]\n", Mode.FLOAT)
    solution = solve(system, SolveOptions(order=2, mode=Mode.FLOAT),
                     names=names)
    phi = (1 + math.sqrt(5)) / 2
    psi = (1 - math.sqrt(5)) / 2
    state = history_to_reduced_state(system, [0.0, 1.0])
    for i in range(1, 21):
        binet = (phi ** i - psi ** i) / math.sqrt(5)
        value = solution.evaluate(i - 1, state)[0]
        assert abs(value - binet) < 1e-9


def test_reduced_variable_names():
    system, _ = load("vars: a, b\na[i] = b[i-2]\nb[i] = a[i-1]\n")
    assert reduced_variable_names(system, ["a", "b"]) == \
        ("a", "b", "a_m1", "b_m1")
    assert reduced_variable_names(system, ["a", "b", "c", "d"]) == \
        ("a", "b", "c", "d")


# -- direct evaluation -------------------------------------------------------------


def test_eval_direct_fibonacci():
    system, _ = load("vars: u\nu[i] = u[i-1] + u[i-2]\n")
    assert eval_direct(system, 10, [F(1), F(1)]) == [F(89)]
    assert eval_direct(system, 0, [F(1), F(1)]) == [F(1)]


def test_eval_direct_logistic():
    system, _ = logistic(F(2))
    assert eval_direct(system, 2, [F(1, 4)]) == [F(15, 32)]


def test_eval_direct_validates_history():
    system, _ = load("vars: u\nu[i] = u[i-1] + u[i-2]\n")
    with pytest.raises(ArityError):
        eval_direct(system, 3, [F(1)])
    with pytest.raises(ValueError):
        eval_direct(system, -1, [F(1), F(1)])


def test_history_to_reduced_state_order():
    system, _ = load("vars: u\nu[i] = u[i-1] + u[i-2]\n")
    # newest block first: state for the reduced system at original step 1
    assert history_to_reduced_state(system, [F(5), F(7)]) == [F(7), F(5)]


# -- truncation error --------------------------------------------------------------


def test_logistic_truncation_defect_bound():
    system, names = logistic(F(2), Mode.FLOAT)
    solution = solve(system, SolveOptions(order=6, mode=Mode.FLOAT),
                     names=names)
    z0 = 1.0 / 1024.0
    closed = solution.evaluate(3, [z0])[0]
    direct = eval_direct(system, 3, [z0])[0]
    assert abs(closed - direct) <= 2.0 ** -60


def test_logistic_truncation_defect_exact_value():
    system, names = logistic(F(2))
    solution = solve(system, SolveOptions(order=6), names=names)
    closed = solution.evaluate(3, [F(1, 1024)])[0]
    direct = eval_direct(system, 3, [F(1, 1024)])[0]
    # the discarded tail is O(z0^7): 2^-61 - 2^-73 on the nose
    assert direct - closed == F(4095, 2 ** 73)


# -- serialization -----------------------------------------------------------------


def test_solution_json_round_trip():
    system, names = load(CUBIC)
    solution = solve(system, SolveOptions(order=3), names=names)
    payload = solution.to_json()
    assert payload["order"] == 3 and payload["mode"] == "exact"
    assert payload["variables"][0]["name"] == "u"
    assert payload["transform"]["B"] == ["-2"]
    back = ClosedFormSolution.from_json(payload)
    assert back == solution


def test_solution_json_round_trip_float():
    system, names = logistic(F(2), Mode.FLOAT)
    solution = solve(system, SolveOptions(order=3, mode=Mode.FLOAT),
                     names=names)
    back = ClosedFormSolution.from_json(solution.to_json())
    assert back == solution


K2_FLOAT = ("vars: u, v\n"
            "u[i] = -39*u[i-1]^2 + 95/2*u[i-1]*v[i-1] - 29/2*v[i-1]^2"
            " - 27*u[i-1] + 15*v[i-1]\n"
            "v[i] = -52*u[i-1]^2 + 62*u[i-1]*v[i-1] - 37/2*v[i-1]^2"
            " - 44*u[i-1] + 25*v[i-1]\n")


def test_stored_float_solution_keeps_every_term():
    # the rounded exact sums hold terms that ExpSum.from_terms's
    # coefficient drop removes; read back without them, this solution
    # fails verify where the one written passes
    system, names = parse_system(K2_FLOAT, Mode.FLOAT)
    solution = solve(system, SolveOptions(order=7, mode=Mode.FLOAT), names)
    assert any(ExpSum.from_terms(Mode.FLOAT, list(s.terms)) != s
               for table in solution.tables for s in table.values())
    back = ClosedFormSolution.from_json(
        json.loads(json.dumps(solution.to_json())))
    assert back == solution
    report = verify(back, system)
    assert report.passed
    assert report.describe() == verify(solution, system).describe()


def test_solution_from_json_tolerates_missing_transformed_when_unshifted():
    system, names = logistic(F(2))
    solution = solve(system, SolveOptions(order=3), names=names)
    payload = solution.to_json()
    del payload["transformed"]
    back = ClosedFormSolution.from_json(payload)
    assert back.tables == solution.tables


def test_solution_from_json_requires_transformed_when_shifted():
    system, names = load(CUBIC)
    solution = solve(system, SolveOptions(order=3), names=names)
    payload = solution.to_json()
    del payload["transformed"]
    with pytest.raises(CarlemanError):
        ClosedFormSolution.from_json(payload)


def test_solution_from_json_rejects_garbage():
    with pytest.raises(CarlemanError):
        ClosedFormSolution.from_json({"variables": "nope"})


# -- mode handling -----------------------------------------------------------------


def test_mode_mismatch_is_an_error():
    system, names = logistic(F(2))
    with pytest.raises(CarlemanError):
        solve(system, SolveOptions(order=3, mode=Mode.FLOAT), names=names)


# float systems with no rational fixed point or spectrum stay on the float
# route: an irrational fixed point, eigenvalues 1/2 +- i, and the golden
# ratio phi with psi = -1/phi
IRRATIONAL_FIXED_POINT = "vars: u\nu[i] = 1/2*u[i-1] + u[i-1]^2 - 1/10\n"
ROTATION = ("vars: u, v\n"
            "u[i] = 1/2*u[i-1] - v[i-1] + u[i-1]^2\n"
            "v[i] = u[i-1] + 1/2*v[i-1] + u[i-1]*v[i-1]\n")
FIB_FLOAT = "vars: u\nu[i] = u[i-1] + u[i-2] + 1/10*u[i-1]^2\n"


@pytest.mark.parametrize("text", [IRRATIONAL_FIXED_POINT, ROTATION, FIB_FLOAT])
@pytest.mark.parametrize("order", range(2, 9))
def test_float_solutions_pass_their_own_verify(monkeypatch, text, order):
    def refuse(solution):
        raise AssertionError("an exact twin solved")

    monkeypatch.setattr(carleman.solver, "_rounded", refuse)
    system, names = load(text, Mode.FLOAT)
    opts = SolveOptions(order=order, mode=Mode.FLOAT)
    if text == FIB_FLOAT and order >= 4:
        # (phi psi)^2 = 1: the products collide from order 4 at both
        # fixed points
        with pytest.raises(CarlemanError):
            solve(system, opts, names)
        return
    report = verify(solve(system, opts, names), system)
    assert report.passed, report.describe()


@pytest.mark.parametrize("order", [2, 4, 6, 8])
def test_float_coupled_is_the_exact_solve_rounded(order):
    exact_system, names = load(COUPLED)
    system, _ = load(COUPLED, Mode.FLOAT)
    exact = solve(exact_system, SolveOptions(order=order, matrix=MATRIX_A),
                  names)
    got = solve(system, SolveOptions(order=order, mode=Mode.FLOAT,
                                     matrix=MATRIX_A), names)

    def rounded(values):
        return tuple(complex(float(x)) for x in values)

    assert got.mode is Mode.FLOAT and got.order == order
    assert got.offsets == rounded(exact.offsets)
    assert got.transform.matrix == tuple(map(rounded, exact.transform.matrix))
    assert got.transform.matrix_inv == tuple(
        map(rounded, exact.transform.matrix_inv))
    for tables, want in ((got.tables, exact.tables),
                         (got.transformed, exact.transformed)):
        for table, exact_table in zip(tables, want, strict=True):
            assert table.keys() == exact_table.keys()
            for mono, exact_sum in exact_table.items():
                # bases are distinct integers: nothing merges or drops
                assert sorted(table[mono].terms, key=lambda t: t[0].real) == [
                    rounded(term) for term in exact_sum.terms]
