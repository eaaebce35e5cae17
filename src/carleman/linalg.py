"""Small dense matrix helpers over exact or float scalars.

Matrices are plain lists of row lists. Sizes here are tiny (the state
dimension k), so everything is the obvious cubic algorithm with no
attempt at cleverness. One Gauss-Jordan row reduction backs both
mat_inverse (run on [A | I]) and nullspace, in both modes. The
pipeline's basis-sized matrices (the transition matrix T and its
eigenvector matrices P and P^-1) do not go through here: they are kept
as sparse rows, see triangular.py; is_upper_triangular takes their
sparse rows too.
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


def _row_reduce(rows: Matrix, mode: Mode, pivot_columns: int,
                threshold: float = 0) -> List[int]:
    """Gauss-Jordan elimination in place over the first pivot_columns
    columns, returning the pivot columns in order. Exact mode pivots on
    the first nonzero entry, float mode on the largest magnitude; an entry
    at or below threshold in magnitude is no pivot, and comes back as
    exact zero. A column without a pivot is skipped."""
    pivots: List[int] = []
    for col in range(pivot_columns):
        r = len(pivots)
        if r == len(rows):
            break
        candidates = [i for i in range(r, len(rows))
                      if abs(rows[i][col]) > threshold]
        if not candidates:
            continue
        pivot_row = (candidates[0] if mode is Mode.EXACT
                     else max(candidates, key=lambda i: abs(rows[i][col])))
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r][col]
        rows[r] = [x / pivot for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    if threshold:
        rows[:] = [[x if abs(x) > threshold else mode.zero for x in row]
                   for row in rows]
    return pivots


def mat_inverse(a: Sequence[Sequence[Scalar]], mode: Mode) -> Matrix:
    """Inverse by row reducing [A | I]."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ArityError("inverse needs a square matrix")
    work = [list(row) + eye for row, eye in zip(a, identity(n, mode))]
    pivots = _row_reduce(work, mode, n)
    if len(pivots) < n:
        col = min(set(range(n)) - set(pivots))
        raise SingularMatrixError(f"matrix is singular at column {col}")
    return [row[n:] for row in work]


def max_abs(a: Sequence[Sequence[Scalar]]) -> float:
    return max((abs(x) for row in a for x in row), default=0.0)


def is_upper_triangular(rows: Sequence, tol: float = 0.0) -> bool:
    """Zero below the diagonal. Each row is a dense list or a sparse
    {column: value} dict; tol > 0 allows float residue up to
    tol * max(1, max |entry|)."""
    entries = [(i, j, x) for i, row in enumerate(rows)
               for j, x in (row.items() if isinstance(row, dict) else enumerate(row))]
    below = [x for i, j, x in entries if j < i]
    if not tol:
        return all(x == 0 for x in below)
    largest = max((abs(x) for _, _, x in entries), default=0.0)
    bound = tol * max(1.0, float(largest))
    return all(abs(x) <= bound for x in below)


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


def nullspace(a: Sequence[Sequence[Scalar]],
              mode: Mode = Mode.EXACT) -> List[List[Scalar]]:
    """Basis of the nullspace via reduced row echelon form. Float mode
    takes an entry at most 1e-10 * max(1, max |entry|) for zero.

    Deterministic: free variables are assigned unit values in column
    order, so repeated calls give identical bases.
    """
    rows = [list(row) for row in a]
    n_cols = len(rows[0]) if rows else 0
    threshold = 0 if mode is Mode.EXACT else 1e-10 * max(1.0, max_abs(rows))
    pivots = _row_reduce(rows, mode, n_cols, threshold)
    basis = []
    for free in (c for c in range(n_cols) if c not in pivots):
        vec: List[Scalar] = [mode.zero] * n_cols
        vec[free] = mode.one
        for row_idx, pivot_col in enumerate(pivots):
            vec[pivot_col] = -rows[row_idx][free]
        basis.append(vec)
    return basis
