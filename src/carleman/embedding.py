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

When the map has no constant term and an upper-triangular linear part,
products can only move exponent mass toward higher variable indices and
higher degrees, so T is exactly upper triangular in the basis order, and
its top-left blocks do not depend on the truncation order.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import ArityError, SizeLimitError
from .linalg import identity, mat_mul
from .poly import Monomial, Poly, grlex_key
from .scalars import Mode, Scalar, scalar_to_json
from .triangular import sparse_is_upper_triangular

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


def kron_index_monomial(k: int, index: int) -> Monomial:
    """Monomial represented by one coordinate of the stacked Kronecker
    power vector (1, z, z tensor z, ...).

    Different Kronecker coordinates can name the same monomial; this map
    is how the redundant tensor indexing collapses onto exponent tuples.
    """
    if k < 1 or index < 0:
        raise ArityError(f"bad kronecker coordinate ({k=}, {index=})")
    if index == 0:
        return (0,) * k
    if k == 1:
        return (index,)
    # block of degree s starts at (k^s - 1) / (k - 1)
    degree = 0
    while (k ** (degree + 1) - 1) // (k - 1) <= index:
        degree += 1
    exponents = [0] * k
    for s in range(1, degree + 1):
        block_start = (k ** s - 1) // (k - 1)
        digit = ((index - block_start) // k ** (s - 1)) % k
        exponents[digit] += 1
    return tuple(exponents)


def multinomial_entry(coeffs: Sequence[Scalar], a: int, b: int) -> Scalar:
    """Transition entry (a, b) for a univariate map with coefficient
    vector c0..cm, computed by the closed multinomial sum: over all
    splittings k_0..k_m >= 0 with sum k_l = a and sum l*k_l = b, add
    a! / prod(k_l!) * prod(c_l ** k_l).
    """
    m = len(coeffs) - 1
    if m < 0:
        raise ArityError("empty coefficient vector")
    if a < 0 or b < 0:
        raise ArityError("row and column must be non-negative")
    zero = coeffs[0] * 0
    if a == 0:
        return zero + 1 if b == 0 else zero

    total = zero
    fact_a = math.factorial(a)

    # enumerate k_m, k_{m-1}, ..., k_1 with pruning; k_0 soaks up the rest
    def recurse(level: int, remaining: int, weight: int,
                denom: int, product: Scalar):
        nonlocal total
        if level == 0:
            # k_0 = remaining contributes no weight, so all of b must be used
            if weight == 0:
                c0_power = coeffs[0] * 0 + 1
                for _ in range(remaining):
                    c0_power = c0_power * coeffs[0]
                total = total + product * c0_power * Fraction(
                    fact_a, denom * math.factorial(remaining))
            return
        max_k = min(remaining, weight // level)
        term_pow = coeffs[level] * 0 + 1
        for k_l in range(0, max_k + 1):
            if k_l == 0 or coeffs[level] != 0:
                recurse(level - 1, remaining - k_l, weight - k_l * level,
                        denom * math.factorial(k_l), product * term_pow)
            if coeffs[level] == 0:
                break
            term_pow = term_pow * coeffs[level]

    recurse(m, a, b, 1, zero + 1)
    return total


def build_transition(system, basis: MonomialBasis) -> "CarlemanMatrix":
    """Transition matrix of the embedded dynamics, rows truncated at the
    basis order. The system must be depth-one with k matching the basis."""
    if system.depth != 1:
        raise ArityError("transition matrices are built from depth-one systems")
    if system.k != basis.k:
        raise ArityError(
            f"system has {system.k} variables but the basis expects {basis.k}")
    order = basis.order
    one = system.mode.one

    # cached truncated powers of each component map
    pow_cache: Dict[Tuple[int, int], Poly] = {}

    def component_power(s: int, e: int) -> Poly:
        key = (s, e)
        if key not in pow_cache:
            pow_cache[key] = system.polys[s].pow_truncated(e, order).scaled(one)
        return pow_cache[key]

    rows: List[Dict[int, Scalar]] = []
    for mono in basis.monomials:
        image = Poly.constant(basis.k, one)
        for s, e in enumerate(mono):
            if e:
                image = image.mul_truncated(component_power(s, e), order)
        rows.append(dict(sorted(
            (basis.index_of(term_mono), coeff)
            for term_mono, coeff in image.terms.items())))
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
        return sparse_is_upper_triangular(self.rows, tol)

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

    def power(self, exponent: int) -> List[List[Scalar]]:
        """Plain dense matrix power by repeated squaring."""
        if exponent < 0:
            raise ArityError(f"negative matrix power {exponent}")
        result = identity(len(self.rows), self.mode)
        base = self.dense_rows()
        e = exponent
        while e:
            if e & 1:
                result = mat_mul(result, base)
            e >>= 1
            if e:
                base = mat_mul(base, base)
        return result

    def to_json(self) -> dict:
        return {
            "k": self.basis.k,
            "N": self.basis.order,
            "basis": [list(m) for m in self.basis.monomials],
            "rows": [[scalar_to_json(x) for x in row]
                     for row in self.dense_rows()],
        }
