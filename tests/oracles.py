"""Dense reference implementations the package no longer ships.

The package keeps T, P and P^-1 as sparse rows ({column: value}, zeros
absent). The functions here are the textbook dense loops the sparse back
substitution replaced, kept as oracles: for the same input they must give
the same P and P^-1 cell for cell, float bits included. dense() and
sparse() convert between the two layouts for tests written against dense
lists.
"""

from typing import Dict, List, Sequence

from carleman.linalg import Matrix, identity, mat_mul
from carleman.scalars import Mode, Scalar


def dense(rows: Sequence[Dict[int, Scalar]], mode: Mode = Mode.EXACT) -> Matrix:
    """Square list-of-lists matrix from sparse rows."""
    out = [[mode.zero] * len(rows) for _ in rows]
    for r, row in enumerate(rows):
        for c, value in row.items():
            out[r][c] = value
    return out


def sparse(matrix: Sequence[Sequence[Scalar]]) -> List[Dict[int, Scalar]]:
    """Sparse rows holding the nonzero entries of a dense matrix."""
    return [{c: x for c, x in enumerate(row) if x != 0} for row in matrix]


def dense_modal(matrix: Matrix, mode: Mode) -> Matrix:
    """Unit upper-triangular eigenvector matrix by the dense O(n^3) back
    substitution: column a solves (T - T[a][a]) v = 0 with v[a] = 1."""
    n = len(matrix)
    diagonal = [matrix[i][i] for i in range(n)]
    modal = identity(n, mode)
    for a in range(n):
        for b in range(a - 1, -1, -1):
            acc = mode.zero
            for c in range(b + 1, a + 1):
                if matrix[b][c] != 0:
                    acc = acc + matrix[b][c] * modal[c][a]
            modal[b][a] = acc / (diagonal[a] - diagonal[b])
    return modal


def dense_invert_triangular(matrix: Matrix, mode: Mode) -> Matrix:
    """Inverse of an upper-triangular matrix by dense back substitution."""
    n = len(matrix)
    out = identity(n, mode)
    for m in range(n):
        out[m][m] = mode.one / matrix[m][m]
        for b in range(m - 1, -1, -1):
            acc = mode.zero
            for j in range(b + 1, m + 1):
                if matrix[b][j] != 0:
                    acc = acc + matrix[b][j] * out[j][m]
            out[b][m] = -acc / matrix[b][b]
    return out


def power_from_decomposition(spec, exponent: int) -> Matrix:
    """Reassemble T^exponent as modal * diag(eigs^exponent) * modal_inv."""
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    n = spec.size
    modal = dense(spec.modal, spec.mode)
    scaled = [[modal[r][c] * spec.eigenvalues[c] ** exponent
               for c in range(n)] for r in range(n)]
    return mat_mul(scaled, dense(spec.modal_inv, spec.mode))
