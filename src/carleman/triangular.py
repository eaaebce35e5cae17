"""Eigendecomposition of upper-triangular matrices with distinct diagonal.

Such a matrix T factors as P D P^-1 where D is its diagonal, column a of
P is the right eigenvector for D[a][a] and row j of P^-1 is the left
eigenvector for D[j][j], both 1 on the diagonal:

    v[a] = 1,
    v[b] = (sum over c in (b, a] of T[b][c] v[c]) / (D[a][a] - T[b][b]),
    y[j] = 1,
    y[l] = (sum over c in [j, l) of y[c] T[c][l]) / (D[j][j] - T[l][l])

for b from a-1 down to 0 and l from j+1 up to n-1. P and P^-1 are unit
upper triangular, and the factorization is what the closed-form solver
reads its coefficients from.

Both modes solve only the rows of P their caller asks for, each from
x P^-1 = e_r by forward substitution; P is never inverted. Rows r of P
and P^-1 are nonzero only on indices reachable from r along T[b][c] != 0,
so decompose solves from T, as left eigenvectors, just the reachable
rows of P^-1 (the symbolic step of a sparse triangular solve, Gilbert and
Peierls, SIAM J. Sci. Stat. Comput. 9(5), 1988) and leaves the others
empty.

The route is fraction-free, in the spirit of Bareiss (Math. Comp. 22,
1968). A forward substitution along M scatters each final x[j] over row
j of M as integer pairs, added into a running sum acc / L per pending
column; L widens by a gcd only when a product's denominator does not
divide it, and columns are finished ascending from a heap. Each stored
exact entry is one Fraction: with D[j][j] = n_j/d_j, y[l] = acc d_j d_l
/ (L (n_j d_l - n_l d_j)), and a row x of P has x[c] = -acc / L. A float
entry rides the same loop as the pair (x, 1), so its sum is added in
ascending j and y[l] = acc / (D[j][j] - D[l][l]). A zero sum is neither
stored nor scattered, so a row of P^-1 takes at most nnz(T) products and
a row of P at most nnz(P^-1).

T, P and P^-1 are stored by rows, each row a dict {column: value} that
holds only nonzero entries (transition matrices are 2-25% full).
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import RepeatedEigenvalueError
from .linalg import is_upper_triangular
from .scalars import Mode, Scalar, format_scalar, nearly_equal

# float diagonal entries this close (relative) count as repeated
_COLLISION_TOL = 1e-9


@dataclass(frozen=True)
class SpectralDecomposition:
    """T = modal * diag(eigenvalues) * modal_inv, modal unit triangular.

    modal and modal_inv are tuples of n sparse rows: absent entries are
    zero. When decompose was asked for only some rows of modal, every
    other row of modal is an empty dict, and so is every row of modal_inv
    that no requested row reaches along T[b][c] != 0, on which the
    requested rows of modal are zero. Both modes keep this contract.
    """

    eigenvalues: Tuple[Scalar, ...]
    modal: Tuple[Dict[int, Scalar], ...]
    modal_inv: Tuple[Dict[int, Scalar], ...]
    mode: Mode


def _check_distinct_diagonal(diagonal: Sequence[Scalar], mode: Mode) -> None:
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
            if nearly_equal(diagonal[a], diagonal[b], _COLLISION_TOL)]
    if collisions:
        shown = ", ".join(
            f"positions {a} and {b} share {format_scalar(v)}"
            for a, b, v in collisions[:4])
        more = "" if len(collisions) <= 4 else f" (and {len(collisions) - 4} more)"
        raise RepeatedEigenvalueError(
            f"repeated diagonal entries: {shown}{more}", collisions=tuple(collisions))


def _integer_rows(rows: Sequence[Dict[int, Scalar]]
                  ) -> List[List[Tuple[int, Scalar, int]]]:
    """The nonzero entries right of the diagonal in each row, as
    (column, numerator, denominator): an exact entry's integers, a float
    entry over 1."""
    return [[(c, x.numerator, x.denominator) if isinstance(x, Fraction)
             else (c, x, 1) for c, x in row.items() if c > b and x != 0]
            for b, row in enumerate(rows)]


def _forward_row(rows: List[List[Tuple[int, Scalar, int]]], r: int, one: Scalar,
                 finish: Callable[[int, Scalar, int], Scalar]
                 ) -> Dict[int, Scalar]:
    """One row of a forward substitution along M, nonzeros only, columns
    ascending: x[r] = one and, for c > r, x[c] = finish(c, acc, L) with
    acc / L the sum over j in [r, c) of x[j] M[j][c], kept as a running
    sum of integer pairs (a float over 1); rows is _integer_rows(M)."""
    out: Dict[int, Scalar] = {}
    pending = {r: [1, 1]}
    columns_left = [r]  # min-heap of the columns in pending
    while columns_left:
        c = heapq.heappop(columns_left)
        acc, common = pending.pop(c)
        if not acc:
            continue
        x = out[c] = finish(c, acc, common) if out else one
        num, den = (x.numerator, x.denominator) if isinstance(x, Fraction) else (x, 1)
        for l, n, d in rows[c]:
            n, d = n * num, d * den
            entry = pending.get(l)
            if entry is None:
                pending[l] = [n, d]
                heapq.heappush(columns_left, l)
            elif entry[1] % d:
                g = math.gcd(entry[1], d)
                entry[0] = entry[0] * (d // g) + n * (entry[1] // g)
                entry[1] = entry[1] // g * d
            else:
                entry[0] += n * (entry[1] // d)
    return out


def decompose(matrix: Sequence[Dict[int, Scalar]], mode: Mode,
              rows: Optional[Sequence[int]] = None) -> SpectralDecomposition:
    """Eigendecompose a sparse upper-triangular matrix with distinct
    diagonal.

    rows, when given, lists the rows of modal the caller reads; the other
    rows of modal come back empty. Only those rows and the rows of
    modal_inv they reach are computed; see SpectralDecomposition.
    """
    n = len(matrix)
    exact = mode is Mode.EXACT
    if not is_upper_triangular(matrix, 0.0 if exact else 1e-12):
        raise ValueError("decompose expects an upper-triangular matrix")
    diagonal = [matrix[i].get(i, mode.zero) for i in range(n)]
    _check_distinct_diagonal(diagonal, mode)
    wanted = set(range(n) if rows is None else rows)
    if not wanted <= set(range(n)):
        raise ValueError(f"requested rows {sorted(wanted)} exceed size {n}")
    # row j of P^-1 is T's left eigenvector, and row r of P solves
    # x P^-1 = e_r; D[j][j] = n_j / d_j, a float over 1
    nums = [x.numerator if exact else x for x in diagonal]
    dens = [x.denominator if exact else 1 for x in diagonal]
    ratio = Fraction if exact else operator.truediv
    by_row = _integer_rows(matrix)
    # wanted and every index it reaches: T[b][c] != 0 only for c > b, so
    # one ascending sweep finds them all
    solved = set(wanted)
    for b in range(n):
        if b in solved:
            solved.update(c for c, _, _ in by_row[b])
    modal_inv = [_forward_row(by_row, j, mode.one, lambda l, acc, common, j=j: ratio(
        acc * dens[j] * dens[l], common * (nums[j] * dens[l] - nums[l] * dens[j])))
        if j in solved else {} for j in range(n)]
    by_row = _integer_rows(modal_inv)
    modal = [_forward_row(by_row, r, mode.one, lambda c, acc, common: ratio(-acc, common))
             if r in wanted else {} for r in range(n)]
    return SpectralDecomposition(
        eigenvalues=tuple(diagonal),
        modal=tuple(modal),
        modal_inv=tuple(modal_inv),
        mode=mode,
    )
