"""The solver's contract in exact mode: each solve either refuses with a
CarlemanError, which the CLI maps to exit 2, or returns a solution that
passes its own verify.

The systems are random triangular ones, whose eigenvalues are signed
prime powers, and three inputs whose coefficients the rational-root
search refuses by size: two long ones, and one with 6720 divisors.
"""

import random

import pytest

from carleman import CarlemanError, SolveOptions, parse_system, solve, verify
from carleman.errors import SizeLimitError
from carleman.scalars import Mode

from conftest import random_triangular_system

LONG_COEFFICIENTS = [
    "vars: u\nu[i] = 0.123456789012345*u[i-1]^2 + 1/2*u[i-1] + 1/10\n",
    "vars: u\nu[i] = 1000000000000000003*u[i-1]^2 + 1\n",
    "vars: u\nu[i] = 963761198400*u[i-1]^2 + 963761198400\n",
]


def outcome(system, order):
    """The refusal's type, or None for a solution that verifies."""
    try:
        solution = solve(system, SolveOptions(order=order))
    except CarlemanError as exc:
        return type(exc)
    report = verify(solution, system)
    assert report.passed, report.describe()
    return None


@pytest.mark.parametrize("order", range(2, 7))
def test_exact_solve_refuses_or_verifies(order):
    rng = random.Random(order)
    systems = [random_triangular_system(rng) for _ in range(40)]
    assert [outcome(system, order) for system in systems] == [None] * 40
    long = [parse_system(text, Mode.EXACT)[0] for text in LONG_COEFFICIENTS]
    assert [outcome(system, order) for system in long] == [SizeLimitError] * 3
