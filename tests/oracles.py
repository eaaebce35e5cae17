"""Reference implementations the package no longer ships.

The package keeps T, P and P^-1 as sparse rows ({column: value}, zeros
absent). The dense functions here are the textbook loops the sparse back
substitution replaced, kept as oracles: for the same input they must give
the same P and P^-1 cell for cell, float bits included. dense() and
sparse() convert between the two layouts for tests written against dense
lists. fold_pullback() is the pullback to original coordinates as a plain
fold of ExpSum additions, the oracle for the bucketed pullback in
solver._assemble.
"""

from typing import Dict, List, Sequence, Tuple

from carleman.embedding import MonomialBasis
from carleman.linalg import Matrix, identity, mat_mul, mat_vec
from carleman.poly import Monomial, Poly
from carleman.scalars import Mode, Scalar
from carleman.solver import ExpSum


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


def fold_pullback(solution) -> List[Dict[Monomial, ExpSum]]:
    """Original-coordinate tables rebuilt from solution.transformed and
    solution.transform. Each addition to a cell rebuilds the whole sum
    with ExpSum.__add__, in the loop order of the package's pullback."""
    mode = solution.mode
    w = solution.k
    basis = MonomialBasis(w, solution.order)
    size = len(basis)
    flows = [[table.get(mono) for mono in basis.monomials]
             for table in solution.transformed]
    combined = solution.transform
    a_rows = [list(r) for r in combined.matrix]
    a_inv = [list(r) for r in combined.matrix_inv]
    offset = list(combined.offset)
    neg_ab = [-x for x in mat_vec(a_rows, offset)]

    one = mode.one
    tables: List[Dict[Monomial, ExpSum]] = [dict() for _ in range(w)]
    for l in range(1, size):
        # basis monomial l of the shifted coordinates, written in the
        # original initial conditions
        expansion = Poly.from_monomial(w, basis.monomials[l], one)
        expansion = expansion.substitute_affine(a_rows, neg_ab)
        carriers: List[Tuple[int, ExpSum]] = []
        for p in range(w):
            pairs = []
            for q in range(w):
                if a_inv[p][q] != 0 and flows[q][l] is not None:
                    pairs.extend((b, c * a_inv[p][q])
                                 for b, c in flows[q][l].terms)
            if pairs:
                carriers.append((p, ExpSum.from_terms(mode, pairs)))
        for mono, gamma in expansion.terms.items():
            for p, carrier in carriers:
                addition = carrier.scaled(gamma)
                if addition.is_zero():
                    continue
                current = tables[p].get(mono)
                tables[p][mono] = (addition if current is None
                                   else current + addition)
    for p in range(w):
        tables[p] = {m: s for m, s in tables[p].items() if not s.is_zero()}
    return tables
