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

from .embedding import (CarlemanMatrix, MonomialBasis, basis_size,
                        build_transition, kron_index_monomial,
                        multinomial_entry)
from .errors import (ArityError, CarlemanError, NonPolynomialError,
                     NotShiftedError, ParseError, RepeatedEigenvalueError,
                     ShiftNotFoundError, SingularMatrixError, SizeLimitError,
                     SourceSpan, TriangularizationError, ZeroPolynomialError)
from .parser import parse, parse_system, pretty_print
from .poly import Monomial, Poly, grlex_key, total_degree
from .scalars import Mode, Scalar, format_scalar
from .solver import (ClosedFormSolution, ExpSum, SolveOptions,
                     VerificationReport, eval_direct, history_to_reduced_state,
                     oracle_iterate_symbolic, reduced_variable_names,
                     resolve_shift, resolve_transform, solve, verify)
from .systems import (AdmissibilityReport, CoeffArrays, PolySystem,
                      TransformParams, apply_affine, check_shift_admissible,
                      fixed_points, reduce_depth, triangularize_linear)
from .triangular import (SpectralDecomposition, decompose,
                         invert_unit_triangular)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport", "ArityError", "CarlemanError", "CarlemanMatrix",
    "ClosedFormSolution", "CoeffArrays", "ExpSum", "Mode", "Monomial",
    "MonomialBasis", "NonPolynomialError", "NotShiftedError", "ParseError",
    "Poly", "PolySystem", "RepeatedEigenvalueError", "Scalar",
    "ShiftNotFoundError", "SingularMatrixError", "SizeLimitError",
    "SolveOptions", "SourceSpan", "SpectralDecomposition",
    "TransformParams", "TriangularizationError", "VerificationReport",
    "ZeroPolynomialError", "apply_affine", "basis_size", "build_transition",
    "check_shift_admissible", "decompose", "eval_direct", "fixed_points",
    "format_scalar", "grlex_key", "history_to_reduced_state",
    "invert_unit_triangular", "kron_index_monomial", "multinomial_entry",
    "oracle_iterate_symbolic", "parse", "parse_system", "pretty_print",
    "reduce_depth", "reduced_variable_names", "resolve_shift",
    "resolve_transform", "solve", "total_degree", "triangularize_linear",
    "verify",
]
