"""Closed-form solutions of polynomial recurrences via truncated
linearization onto a monomial basis.

Typical use:

    from carleman import Mode, SolveOptions, parse_system, solve, verify

    system, names = parse_system("vars: u\\nu[i] = 2*u[i-1] - 2*u[i-1]^2\\n",
                                 Mode.EXACT)
    solution = solve(system, SolveOptions(order=3), names=names)
    print(solution.render_text())
    assert verify(solution, system).passed
"""

from .embedding import MonomialBasis, build_transition
from .errors import (ArityError, CarlemanError, NonPolynomialError,
                     NotShiftedError, ParseError, RepeatedEigenvalueError,
                     ShiftNotFoundError, SingularMatrixError, SizeLimitError,
                     TriangularizationError, ZeroPolynomialError)
from .parser import parse_system
from .scalars import Mode
from .solver import (ExpSum, SolveOptions, eval_direct,
                     history_to_reduced_state, oracle_iterate_symbolic, solve,
                     verify)
from .systems import (TransformParams, apply_affine, check_shift_admissible,
                      fixed_points)
from .triangular import decompose

__version__ = "0.1.0"

# the README's Library section documents these; everything else is
# imported from its submodule
__all__ = [
    "ArityError", "CarlemanError", "ExpSum", "Mode", "MonomialBasis",
    "NonPolynomialError", "NotShiftedError", "ParseError",
    "RepeatedEigenvalueError", "ShiftNotFoundError", "SingularMatrixError",
    "SizeLimitError", "SolveOptions", "TransformParams",
    "TriangularizationError", "ZeroPolynomialError", "apply_affine",
    "build_transition", "check_shift_admissible", "decompose", "eval_direct",
    "fixed_points", "history_to_reduced_state", "oracle_iterate_symbolic",
    "parse_system", "solve", "verify",
]
