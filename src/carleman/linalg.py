"""Small dense matrix helpers over exact or float scalars.

Matrices are plain lists of row lists. Sizes here are tiny (the state
dimension k), so everything is the obvious cubic algorithm with no
attempt at cleverness. The pipeline's basis-sized matrices (the
transition matrix T and its eigenvector matrices P and P^-1) do not go
through here: they are kept as sparse rows, see triangular.py.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence

from .errors import ArityError, SingularMatrixError
from .poly import Poly
from .scalars import Mode, Scalar

Matrix = List[List[Scalar]]


def identity(n: int, mode: Mode) -> Matrix:
    one, zero = mode.one, mode.zero
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def copy_matrix(a: Sequence[Sequence[Scalar]]) -> Matrix:
    return [list(row) for row in a]


def mat_mul(a: Sequence[Sequence[Scalar]], b: Sequence[Sequence[Scalar]]) -> Matrix:
    n, inner = len(a), len(b)
    if any(len(row) != inner for row in a):
        raise ArityError("matrix shapes do not align for multiplication")
    m = len(b[0])
    out = []
    for i in range(n):
        row_a = a[i]
        row = []
        for j in range(m):
            acc = row_a[0] * b[0][j]
            for t in range(1, inner):
                if row_a[t] != 0:
                    acc = acc + row_a[t] * b[t][j]
            row.append(acc)
        out.append(row)
    return out


def mat_vec(a: Sequence[Sequence[Scalar]], v: Sequence[Scalar]) -> List[Scalar]:
    if any(len(row) != len(v) for row in a):
        raise ArityError("matrix and vector shapes do not align")
    return [sum((row[j] * v[j] for j in range(len(v))), start=row[0] * 0) for row in a]


def mat_inverse(a: Sequence[Sequence[Scalar]], mode: Mode) -> Matrix:
    """Gauss-Jordan inverse. Exact mode pivots on any nonzero entry,
    float mode on the largest magnitude."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ArityError("inverse needs a square matrix")
    work = copy_matrix(a)
    inv = identity(n, mode)
    for col in range(n):
        pivot_row = None
        if mode is Mode.EXACT:
            for r in range(col, n):
                if work[r][col] != 0:
                    pivot_row = r
                    break
        else:
            best = 0.0
            for r in range(col, n):
                mag = abs(work[r][col])
                if mag > best:
                    best, pivot_row = mag, r
            if best == 0.0:
                pivot_row = None
        if pivot_row is None:
            raise SingularMatrixError(f"matrix is singular at column {col}")
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            inv[col], inv[pivot_row] = inv[pivot_row], inv[col]
        pivot = work[col][col]
        work[col] = [x / pivot for x in work[col]]
        inv[col] = [x / pivot for x in inv[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
                inv[r] = [x - factor * y for x, y in zip(inv[r], inv[col])]
    return inv


def determinant(a: Sequence[Sequence[Scalar]], mode: Mode) -> Scalar:
    n = len(a)
    work = copy_matrix(a)
    det = mode.one
    for col in range(n):
        pivot_row = None
        if mode is Mode.EXACT:
            for r in range(col, n):
                if work[r][col] != 0:
                    pivot_row = r
                    break
        else:
            best = 0.0
            for r in range(col, n):
                if abs(work[r][col]) > best:
                    best, pivot_row = abs(work[r][col]), r
            if best == 0.0:
                pivot_row = None
        if pivot_row is None:
            return mode.zero
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            det = -det
        pivot = work[col][col]
        det = det * pivot
        for r in range(col + 1, n):
            if work[r][col] != 0:
                factor = work[r][col] / pivot
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return det


def max_abs(a: Sequence[Sequence[Scalar]]) -> float:
    return max((abs(x) for row in a for x in row), default=0.0)


def is_upper_triangular(a: Sequence[Sequence[Scalar]], tol: float = 0.0) -> bool:
    """Zero below the diagonal; tol > 0 allows float residue relative to
    the largest entry."""
    bound = tol * max(1.0, float(max_abs(a))) if tol else 0
    for i, row in enumerate(a):
        for j in range(min(i, len(row))):
            if tol:
                if abs(row[j]) > bound:
                    return False
            elif row[j] != 0:
                return False
    return True


def char_poly(a: Sequence[Sequence[Scalar]], mode: Mode) -> Poly:
    """Monic characteristic polynomial det(xI - A) as a univariate Poly,
    by the Faddeev-LeVerrier trace recursion (division-free up to integer
    divisors, so it stays exact in Exact mode)."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ArityError("characteristic polynomial needs a square matrix")
    coeffs: List[Scalar] = [mode.zero] * n + [mode.one]
    m = identity(n, mode)
    for j in range(1, n + 1):
        m = mat_mul(a, m)
        trace = sum((m[i][i] for i in range(n)), start=mode.zero)
        c = -trace / j if mode is Mode.FLOAT else -trace / Fraction(j)
        coeffs[n - j] = c
        if j < n:
            for i in range(n):
                m[i][i] = m[i][i] + c
    return Poly(1, {(j,): coeffs[j] for j in range(n + 1)})


def nullspace(a: Sequence[Sequence[Scalar]]) -> List[List[Scalar]]:
    """Basis of the exact nullspace via reduced row echelon form.

    Deterministic: free variables are assigned unit values in column
    order, so repeated calls give identical bases.
    """
    rows = copy_matrix(a)
    n_rows, n_cols = len(rows), len(rows[0]) if rows else 0
    pivots: List[int] = []
    r = 0
    for col in range(n_cols):
        pivot_row = None
        for rr in range(r, n_rows):
            if rows[rr][col] != 0:
                pivot_row = rr
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r][col]
        rows[r] = [x / pivot for x in rows[r]]
        for rr in range(n_rows):
            if rr != r and rows[rr][col] != 0:
                factor = rows[rr][col]
                rows[rr] = [x - factor * y for x, y in zip(rows[rr], rows[r])]
        pivots.append(col)
        r += 1
        if r == n_rows:
            break
    free_cols = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for free in free_cols:
        vec: List[Scalar] = [Fraction(0)] * n_cols
        vec[free] = Fraction(1)
        for row_idx, pivot_col in enumerate(pivots):
            vec[pivot_col] = -rows[row_idx][free]
        basis.append(vec)
    return basis
