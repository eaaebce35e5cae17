"""Eigendecomposition of upper-triangular matrices with distinct diagonal.

Such a matrix T factors as P D P^-1 where D is its diagonal and column a
of P is the eigenvector for D[a][a], computed by back substitution:

    v[a] = 1,
    v[b] = (sum over c in (b, a] of T[b][c] v[c]) / (D[a][a] - T[b][b])

for b from a-1 down to 0. P is unit upper triangular in this
normalization, so inverting it is another back substitution, and the
factorization is what the closed-form solver reads its coefficients from.

T, P and P^-1 are stored by rows, each row a dict {column: value} that
holds only nonzero entries (transition matrices are 2-25% full). A
column is solved in the style of Gilbert and Peierls (SIAM J. Sci. Stat.
Comput. 9(5), 1988): once v[c] is final it is scattered into the rows b
with T[b][c] != 0, and rows are finished from the bottom up, so only
entries that can be nonzero are ever visited. P then takes at most
n nnz(T) products and P^-1 at most n nnz(P), so the cost is
O(n nnz(T) + n nnz(P)) instead of the dense loops' O(n^3). Each sum still
runs over c ascending from a zero start, exactly like the dense loop, so
float results are bit-identical to it.

The module also carries direct combinatorial formulas for single entries
of P and P^-1 (sums over strictly increasing index chains). They take
dense matrices, are exponential in matrix size and exist to cross-check
the back substitution on small inputs, not to be fast.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from .errors import RepeatedEigenvalueError
from .linalg import Matrix
from .scalars import Mode, Scalar, format_scalar, nearly_equal

SparseMatrix = List[Dict[int, Scalar]]


@dataclass(frozen=True)
class SpectralDecomposition:
    """T = modal * diag(eigenvalues) * modal_inv, modal unit triangular.

    modal and modal_inv are sparse rows: absent entries are zero.
    """

    eigenvalues: Tuple[Scalar, ...]
    modal: Tuple[Dict[int, Scalar], ...]
    modal_inv: Tuple[Dict[int, Scalar], ...]
    mode: Mode

    @property
    def size(self) -> int:
        return len(self.eigenvalues)


def sparse_is_upper_triangular(rows: Sequence[Dict[int, Scalar]],
                               tol: float = 0.0) -> bool:
    """Zero below the diagonal; tol > 0 allows float residue relative to
    the largest entry (the sparse form of linalg.is_upper_triangular)."""
    if tol:
        largest = max((abs(x) for row in rows for x in row.values()),
                      default=0.0)
        bound = tol * max(1.0, float(largest))
        return all(abs(x) <= bound
                   for i, row in enumerate(rows)
                   for j, x in row.items() if j < i)
    return all(x == 0 for i, row in enumerate(rows)
               for j, x in row.items() if j < i)


def _check_distinct_diagonal(diagonal: Sequence[Scalar], mode: Mode,
                             tol: float) -> None:
    if mode is Mode.EXACT:
        positions: Dict[Scalar, List[int]] = {}
        for a, value in enumerate(diagonal):
            positions.setdefault(value, []).append(a)
        collisions = sorted(
            (group[i], b, diagonal[group[i]])
            for group in positions.values() if len(group) > 1
            for i in range(len(group)) for b in group[i + 1:])
    else:
        collisions = [
            (a, b, diagonal[a])
            for a in range(len(diagonal))
            for b in range(a + 1, len(diagonal))
            if nearly_equal(diagonal[a], diagonal[b], tol)]
    if collisions:
        shown = ", ".join(
            f"positions {a} and {b} share {format_scalar(v)}"
            for a, b, v in collisions[:4])
        more = "" if len(collisions) <= 4 else f" (and {len(collisions) - 4} more)"
        raise RepeatedEigenvalueError(
            f"repeated diagonal entries: {shown}{more}", collisions=tuple(collisions))


def _strict_columns(rows: Sequence[Dict[int, Scalar]]
                    ) -> List[List[Tuple[int, Scalar]]]:
    """columns[c] lists (b, M[b][c]) for the nonzero entries above the
    diagonal in column c."""
    columns: List[List[Tuple[int, Scalar]]] = [[] for _ in rows]
    for b, row in enumerate(rows):
        for c, value in row.items():
            if c > b and value != 0:
                columns[c].append((b, value))
    return columns


def _solve_column(columns: List[List[Tuple[int, Scalar]]], a: int,
                  top: Scalar, finish: Callable[[int, Scalar], Scalar],
                  zero: Scalar) -> Dict[int, Scalar]:
    """One column of a triangular back substitution, nonzeros only.

    x[a] = top, and for b < a, x[b] = finish(b, s) where s is the sum over
    c in (b, a] of M[b][c] x[c]. Rows are finished in descending order, so
    the products for row b arrive with c descending; they are added back
    in ascending c onto zero, the order of the dense loop. A product with
    x[c] = 0 is left out: a sum started at +0 never holds a -0 part, and
    adding a signed zero to +0 or to a nonzero part changes no bit.
    """
    column: Dict[int, Scalar] = {}
    pending: Dict[int, List[Scalar]] = {}
    rows_left: List[int] = []  # max-heap of the rows in pending, negated
    c, value = a, top
    while True:
        if value != 0:
            column[c] = value
            for b, entry in columns[c]:
                products = pending.get(b)
                if products is None:
                    pending[b] = [entry * value]
                    heapq.heappush(rows_left, -b)
                else:
                    products.append(entry * value)
        if not rows_left:
            return column
        c = -heapq.heappop(rows_left)
        acc = zero
        for product in reversed(pending.pop(c)):
            acc = acc + product
        value = finish(c, acc)


def _rows_from_columns(columns: Sequence[Dict[int, Scalar]]) -> SparseMatrix:
    """Row-major form, each row's columns ascending."""
    rows: SparseMatrix = [{} for _ in columns]
    for a, column in enumerate(columns):
        for b, value in column.items():
            rows[b][a] = value
    return rows


def decompose(matrix: Sequence[Dict[int, Scalar]], mode: Mode,
              tol: float = 1e-9) -> SpectralDecomposition:
    """Eigendecompose a sparse upper-triangular matrix with distinct
    diagonal."""
    n = len(matrix)
    if not sparse_is_upper_triangular(matrix,
                                      0.0 if mode is Mode.EXACT else 1e-12):
        raise ValueError("decompose expects an upper-triangular matrix")
    zero, one = mode.zero, mode.one
    diagonal = [matrix[i].get(i, zero) for i in range(n)]
    _check_distinct_diagonal(diagonal, mode, tol)
    upper = _strict_columns(matrix)
    modal = _rows_from_columns([
        _solve_column(upper, a, one,
                      lambda b, acc, lam=diagonal[a]: acc / (lam - diagonal[b]),
                      zero)
        for a in range(n)])
    modal_inv = invert_unit_triangular(modal, mode)
    return SpectralDecomposition(
        eigenvalues=tuple(diagonal),
        modal=tuple(modal),
        modal_inv=tuple(modal_inv),
        mode=mode,
    )


def invert_unit_triangular(matrix: Sequence[Dict[int, Scalar]],
                           mode: Mode) -> SparseMatrix:
    """Invert a sparse upper-triangular matrix by back substitution.

    Works for any nonzero diagonal, not just unit; named for the common
    caller which always hands in unit-diagonal modal matrices.
    """
    n = len(matrix)
    zero, one = mode.zero, mode.one
    diagonal = [matrix[i].get(i, zero) for i in range(n)]
    upper = _strict_columns(matrix)
    return _rows_from_columns([
        _solve_column(upper, m, one / diagonal[m],
                      lambda b, acc: -acc / diagonal[b], zero)
        for m in range(n)])


# -- combinatorial single-entry formulas (cross-checks, exponential cost) ------

_CHAIN_SIZE_CAP = 10


def _require_small(n: int) -> None:
    if n > _CHAIN_SIZE_CAP:
        raise ValueError(
            f"chain-sum formulas are exponential; capped at {_CHAIN_SIZE_CAP}x"
            f"{_CHAIN_SIZE_CAP} (got {n})")


def _chains(start: int, end: int) -> List[Tuple[int, ...]]:
    """All strictly increasing index chains from start to end inclusive."""
    if start == end:
        return [(start,)]
    out = []
    for nxt in range(start + 1, end + 1):
        for tail in _chains(nxt, end):
            out.append((start,) + tail)
    return out


def chain_sum_eigenvector_entry(matrix: Matrix, b: int, a: int,
                                mode: Mode) -> Scalar:
    """Entry b of the eigenvector for diagonal position a, as a sum over
    strictly increasing chains b = l0 < ... < lp = a of

        (-1)^(p+1) * prod_j M[l_j][l_{j+1}] / (M[l_j][l_j] - M[a][a]).

    Matches back substitution entry for entry; used only to cross-check it.
    """
    _require_small(len(matrix))
    if b == a:
        return mode.one
    if b > a:
        return mode.zero
    lam = matrix[a][a]
    total = mode.zero
    for chain in _chains(b, a):
        p = len(chain) - 2
        product = mode.one
        for l_cur, l_next in zip(chain, chain[1:]):
            product = product * matrix[l_cur][l_next]
            if l_cur != a:
                product = product / (matrix[l_cur][l_cur] - lam)
        total = total + product * (mode.one if p % 2 else -mode.one)
    return total


def chain_sum_inverse_entry(matrix: Matrix, b: int, m: int, mode: Mode) -> Scalar:
    """Entry (b, m) of the inverse of an upper-triangular matrix, as
    (1 / M[m][m]) times a sum over strictly increasing chains
    b = l0 < ... < lp = m of (-1)^(p+1) prod_j M[l_j][l_{j+1}] / M[l_j][l_j].
    """
    _require_small(len(matrix))
    if b == m:
        return mode.one / matrix[m][m]
    if b > m:
        return mode.zero
    total = mode.zero
    for chain in _chains(b, m):
        p = len(chain) - 2
        product = mode.one
        for l_cur, l_next in zip(chain, chain[1:]):
            product = product * matrix[l_cur][l_next] / (matrix[l_cur][l_cur])
        total = total + product * (mode.one if p % 2 else -mode.one)
    return total / matrix[m][m]
