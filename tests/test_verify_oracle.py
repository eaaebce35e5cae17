"""verify() against its Fraction oracle.

Exact verify iterates the oracle as integer lists indexed by basis
position over one shared denominator and evaluates the closed form from
a table of integer powers.
oracles.fraction_verify is the loop it replaced: Fraction polynomials and
ExpSum.evaluate. The two reports must agree row for row: with == on every
expected and got value in exact mode. Float verify forms the oracle's
products from poly.product_table, fraction_verify by one power_compose
per equation, so their float sums round in another order: the rows, the
repr of every got value, every ok flag and the verdict must agree, and
every expected value, every row's error and the max discrepancy must be
within FLOAT_TOL of the oracle's (relative, scaled by at least 1).
"""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest

import carleman.solver
from carleman import SolveOptions, parse_system, solve, verify
from carleman.scalars import Mode
from carleman.solver import ClosedFormSolution, _oracle_start, _oracle_step

from conftest import random_triangular_system
from oracles import fraction_verify
from test_pullback_oracle import COUPLED, COUPLED_A, DEPTH_TWO, in_mode
from test_solution_load import SHIFTED

TRI3 = ("vars: x, y, z\n"
        "x[i] = 2*x[i-1] + y[i-1]^2\n"
        "y[i] = 3*y[i-1] + x[i-1]*z[i-1]\n"
        "z[i] = 5*z[i-1] + x[i-1]^2\n")
LOGISTIC = "vars: u\nu[i] = 7/2*u[i-1] - 7/2*u[i-1]^2\n"
MODES = [Mode.EXACT, Mode.FLOAT]
# float expected values came out within 6.5e-16 of fraction_verify's,
# row errors within 2.3e-15 and max discrepancies within 5.2e-16
FLOAT_TOL = 1e-12


def assert_same_exact_report(got, want):
    assert got.describe() == want.describe()
    assert got.to_json() == want.to_json()
    assert got.rows == want.rows
    for row in got.rows:
        assert type(row.expected) is Fraction
        assert type(row.got) is Fraction
    assert got.max_discrepancy == want.max_discrepancy


def assert_same_reports(solution, system):
    order = solution.order
    for max_power in (0, order, order + 3):
        got = verify(solution, system, max_power=max_power)
        want = fraction_verify(solution, system, max_power=max_power)
        assert (got.passed, got.coordinates, got.steps) == \
            (want.passed, want.coordinates, want.steps)
        assert len(got.rows) == len(want.rows)
        if solution.mode is Mode.EXACT:
            assert got.passed
            assert_same_exact_report(got, want)
        else:
            for row, oracle in zip(got.rows, want.rows):
                assert (row.step, row.variable, row.monomial, repr(row.got),
                        row.ok) == (oracle.step, oracle.variable,
                                    oracle.monomial, repr(oracle.got),
                                    oracle.ok)
                # error is |expected - got| with got unchanged, so it moves
                # by at most what expected moves
                scale = FLOAT_TOL * max(1, abs(oracle.expected))
                assert abs(row.expected - oracle.expected) <= scale
                assert abs(row.error - oracle.error) <= scale
            assert abs(got.max_discrepancy - want.max_discrepancy) <= \
                FLOAT_TOL * max([1] + [abs(r.expected) for r in want.rows])


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("order", range(1, 10))
def test_tri3_matches_fraction_verify(mode, order):
    system, names = parse_system(TRI3, mode)
    solution = solve(system, SolveOptions(order=order, mode=mode), names)
    assert_same_reports(solution, system)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("order", range(2, 11))
def test_coupled_matches_fraction_verify(mode, order):
    system, names = parse_system(COUPLED, mode)
    solution = solve(system, SolveOptions(order=order, mode=mode,
                                          matrix=COUPLED_A), names)
    assert_same_reports(solution, system)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", range(6))
def test_random_triangular_systems_match_fraction_verify(mode, seed):
    system = in_mode(random_triangular_system(random.Random(seed)), mode)
    solution = solve(system, SolveOptions(order=4, mode=mode))
    assert_same_reports(solution, system)


@pytest.mark.parametrize("mode", MODES)
def test_depth_two_system_matches_fraction_verify(mode):
    system, names = parse_system(DEPTH_TWO, mode)
    solution = solve(system, SolveOptions(order=5, mode=mode), names)
    assert_same_reports(solution, system)


@pytest.mark.parametrize("mode", MODES)
def test_logistic_in_original_coordinates_matches_fraction_verify(mode):
    system, names = parse_system(LOGISTIC, mode)
    solution = solve(system, SolveOptions(order=6, mode=mode, shift="none"),
                     names)
    assert solution.transform.is_identity()
    assert_same_reports(solution, system)


@pytest.mark.parametrize("mode", MODES)
def test_stored_solution_matches_fraction_verify(mode):
    system, names = parse_system(COUPLED, mode)
    solution = solve(system, SolveOptions(order=5, mode=mode,
                                          matrix=COUPLED_A), names)
    stored = ClosedFormSolution.from_json(
        json.loads(json.dumps(solution.to_json())))
    assert_same_reports(stored, system)


def test_tampered_solution_fails_like_fraction_verify():
    system, names = parse_system(COUPLED, Mode.EXACT)
    data = solve(system, SolveOptions(order=4, matrix=COUPLED_A),
                 names).to_json()
    data["variables"][1]["terms"][2]["expsum"][0]["coeff"] = "5/7"
    stored = ClosedFormSolution.from_json(data)
    got = verify(stored, system, max_power=6)
    assert not got.passed
    assert got.rows == fraction_verify(stored, system, max_power=6).rows


def delete_cell(entries):
    del entries[1]["terms"][3]


def add_cell(entries):
    # a monomial of degree <= 4, the order, whose coefficient is always 0
    terms = entries[0]["terms"]
    present = {tuple(term["monomial"]) for term in terms}
    mono = next(m for m in itertools.product(range(5), repeat=3)
                if sum(m) <= 4 and m not in present)
    terms.append({"monomial": list(mono),
                  "expsum": [{"base": "2", "coeff": "1"}]})


def add_cell_outside_basis(entries):
    # a monomial of degree 5, one past the order: the oracle truncates
    # there, so the list oracle has no position for it. The cell is 0 at
    # i = 0 and fails from i = 1 on
    entries[0]["terms"].append({"monomial": [2, 2, 1], "expsum": [
        {"base": "2", "coeff": "1"}, {"base": "3", "coeff": "-1"}]})


def reverse_cells(entries):
    for entry in entries:
        entry["terms"].reverse()


@pytest.mark.parametrize("tamper, passes", [
    (delete_cell, False), (add_cell, False), (add_cell_outside_basis, False),
    (reverse_cells, True)],
    ids=["deleted-cell", "extra-cell", "outside-basis-cell", "reversed-cells"])
def test_tampered_rows_match_fraction_verify(tamper, passes):
    # the rows walk each table's grlex order when the oracle's monomials
    # are in the table (extra or reordered cells) and sort the union
    # when one is missing (a deleted cell)
    system, names = parse_system(TRI3, Mode.EXACT)
    data = solve(system, SolveOptions(order=4), names).to_json()
    tamper(data["variables"])
    stored = ClosedFormSolution.from_json(data)
    for max_power in (0, 4, 7):
        got = verify(stored, system, max_power=max_power)
        assert got.coordinates == "original"
        if max_power:
            assert got.passed == passes
        assert_same_exact_report(
            got, fraction_verify(stored, system, max_power=max_power))


def test_stored_order_past_the_basis_limit_matches_fraction_verify():
    # k = 3 at order 120 has more than BASIS_SIZE_LIMIT monomials, so the
    # exact oracle has no list basis and steps as integer polynomials
    system, names = parse_system(TRI3, Mode.EXACT)
    data = solve(system, SolveOptions(order=2), names).to_json()
    data["order"] = 120
    stored = ClosedFormSolution.from_json(data)
    assert _oracle_start(system, stored.order).monomials is None
    got = verify(stored, system, max_power=3)
    assert not got.passed
    assert_same_exact_report(
        got, fraction_verify(stored, system, max_power=3))


@pytest.mark.parametrize("text, matrix", [
    (TRI3, None), (COUPLED, COUPLED_A), (SHIFTED, None)],
    ids=["tri3", "coupled-A", "shifted"])
def test_passing_verify_sorts_each_table_once(monkeypatch, text, matrix):
    system, names = parse_system(text, Mode.EXACT)
    solution = solve(system, SolveOptions(order=6, matrix=matrix), names)
    calls = []
    original = carleman.solver.grlex_key

    def counting(mono):
        calls.append(mono)
        return original(mono)
    monkeypatch.setattr(carleman.solver, "grlex_key", counting)
    report = verify(solution, system, max_power=8)
    assert report.passed
    assert report.coordinates == ("transformed" if text is SHIFTED
                                  else "original")
    tables = (solution.transformed if text is SHIFTED else solution.tables)
    assert 0 < len(calls) <= sum(len(table) for table in tables)


FRACTIONAL = ("vars: u, v\n"
              "u[i] = 1/2*u[i-1] + 2/3*v[i-1]^2\n"
              "v[i] = 1/3*v[i-1] + 3/4*u[i-1]*v[i-1] - 5/6*u[i-1]^2\n")


@pytest.mark.parametrize("max_degree", [4, None])
@pytest.mark.parametrize("text", [LOGISTIC, FRACTIONAL])
def test_oracle_keeps_the_least_shared_denominator(text, max_degree):
    # no factor is left common to the denominator and every numerator, so
    # the denominator is the lcm of the reduced coefficient denominators;
    # with no cutoff the numerators are polynomials, with one basis lists
    system, _ = parse_system(text, Mode.EXACT)
    state = _oracle_start(system, max_degree)
    for _ in range(5):
        state = _oracle_step(state)
        coefficients = [c for terms in state.terms() for c in terms.values()]
        assert all(type(c) is int for c in coefficients)
        assert math.gcd(state.denominator, *coefficients) == 1
        assert state.denominator == math.lcm(
            *(Fraction(c, state.denominator).denominator
              for c in coefficients))
