"""Linearization of a polynomial map on the truncated monomial basis.

The state vector of a depth-one system in k variables is embedded into
the vector of all monomials of total degree <= N. The basis is ordered
by total degree ascending; inside one degree, by exponent of variable 0
descending, then variable 1, and so on. For k = 2, N = 2:

    1, z0, z1, z0^2, z0*z1, z1^2

Index 0 is always the constant monomial and indices 1..k the degree-one
monomials in variable order. One linear step of the embedded dynamics is
the transition matrix T: row a holds the degree <= N truncation of the
image of basis monomial a under the map, expressed in basis coordinates,
so y_i = T y_{i-1} entrywise. Row 0 is always (1, 0, ..., 0). Rows are
stored sparse, as {column: coefficient} maps of the nonzero entries.

The image of monomial m is prod_s f_s^m_s, one truncated product per
basis monomial from one poly.product_table. In exact mode it multiplies
integer polynomials: with d the lcm of all coefficient denominators, the
products of F_s = d * f_s give d^|m| times the image, and each entry of
row m is one Fraction over d^|m|. Float rows multiply the system
polynomials themselves, starting from one.

When the map has no constant term and an upper-triangular linear part,
products can only move exponent mass toward higher variable indices and
higher degrees, so T is exactly upper triangular in the basis order, and
its top-left blocks do not depend on the truncation order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterator, List

from .errors import ArityError, SizeLimitError
from .linalg import is_upper_triangular
from .poly import Monomial, integer_scaled, product_table
from .scalars import Mode, Scalar, scalar_to_json

BASIS_SIZE_LIMIT = 200_000


def basis_size(k: int, order: int) -> int:
    """Number of monomials in k variables with total degree <= order."""
    return math.comb(order + k, k)


def monomials_of_degree(k: int, degree: int) -> Iterator[Monomial]:
    """All exponent tuples of one total degree, variable 0 descending."""
    if k == 1:
        yield (degree,)
        return
    for lead in range(degree, -1, -1):
        for rest in monomials_of_degree(k - 1, degree - lead):
            yield (lead,) + rest


class MonomialBasis:
    """Ordered list of all monomials of total degree <= order."""

    __slots__ = ("k", "order", "monomials", "_index")

    def __init__(self, k: int, order: int):
        if k < 1:
            raise ArityError(f"basis needs at least one variable, got {k}")
        if order < 1:
            raise ArityError(f"truncation order must be at least 1, got {order}")
        size = basis_size(k, order)
        if size > BASIS_SIZE_LIMIT:
            raise SizeLimitError(
                f"basis would hold {size} monomials (limit {BASIS_SIZE_LIMIT}); "
                f"lower the order")
        self.k = k
        self.order = order
        self.monomials: List[Monomial] = [
            mono for degree in range(order + 1)
            for mono in monomials_of_degree(k, degree)
        ]
        self._index: Dict[Monomial, int] = {
            mono: idx for idx, mono in enumerate(self.monomials)}

    def __len__(self) -> int:
        return len(self.monomials)

    def index_of(self, mono: Monomial) -> int:
        try:
            return self._index[tuple(mono)]
        except KeyError:
            raise ArityError(f"monomial {mono} is outside this basis") from None


def build_transition(system, basis: MonomialBasis) -> "CarlemanMatrix":
    """Transition matrix of the embedded dynamics, rows truncated at the
    basis order. The system must be depth-one with k matching the basis."""
    if system.depth != 1:
        raise ArityError("transition matrices are built from depth-one systems")
    if system.k != basis.k:
        raise ArityError(
            f"system has {system.k} variables but the basis expects {basis.k}")
    exact = system.mode is Mode.EXACT
    factors, scale = (integer_scaled(system.polys) if exact
                      else (system.polys, None))
    image = product_table(factors, basis.order, 1 if exact else system.mode.one)
    rows: List[Dict[int, Scalar]] = []
    for mono in basis.monomials:
        row = sorted((basis.index_of(t), c) for t, c in image(mono).terms.items())
        if scale is not None:
            den = scale ** sum(mono)
            row = [(col, Fraction(c, den)) for col, c in row]
        rows.append(dict(row))
    return CarlemanMatrix(basis, rows, system.mode)


class CarlemanMatrix:
    """Transition matrix together with the basis that indexes it.

    rows[a] maps column index to the nonzero entries of row a; absent
    entries are zero. dense_rows() expands it for rendering.
    """

    __slots__ = ("basis", "rows", "mode")

    def __init__(self, basis: MonomialBasis, rows: List[Dict[int, Scalar]],
                 mode: Mode):
        size = len(basis)
        if len(rows) != size or any(not 0 <= c < size
                                    for row in rows for c in row):
            raise ArityError("matrix shape does not match the basis size")
        self.basis = basis
        self.rows = rows
        self.mode = mode

    @property
    def is_triangular(self) -> bool:
        tol = 0.0 if self.mode is Mode.EXACT else 1e-10
        return is_upper_triangular(self.rows, tol)

    def diagonal(self) -> List[Scalar]:
        zero = self.mode.zero
        return [row.get(i, zero) for i, row in enumerate(self.rows)]

    def dense_rows(self) -> List[List[Scalar]]:
        zero = self.mode.zero
        size = len(self.rows)
        out = []
        for row in self.rows:
            dense = [zero] * size
            for c, value in row.items():
                dense[c] = value
            out.append(dense)
        return out

    def to_json(self) -> dict:
        return {
            "k": self.basis.k,
            "N": self.basis.order,
            "basis": [list(m) for m in self.basis.monomials],
            "rows": [[scalar_to_json(x) for x in row]
                     for row in self.dense_rows()],
        }
