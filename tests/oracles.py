"""Reference implementations the package no longer ships.

The package keeps T, P and P^-1 as sparse rows ({column: value}, zeros
absent). The dense functions here are the textbook loops the sparse back
substitution replaced, kept as oracles: for the same input they must give
the same P and P^-1 cell for cell, float bits included. dense() and
sparse() convert between the two layouts for tests written against dense
lists. fold_pullback() is the pullback to original coordinates as a fold:
one carrier sum per (basis monomial, variable), scaled by every term of
the monomial's expansion and added into its cell one sum at a time with
expsum_scaled() and expsum_add(), once ExpSum.scaled and ExpSum.__add__.
It is the exact-mode oracle for the single assembly formula in
solver._assemble. fraction_verify() is verify() with the oracle iterated
in Fraction (or complex) polynomials, one power_compose per equation
and step, every cell evaluated by ExpSum.evaluate, and the report built
from all rows at the end: the oracle for the integer evaluation of
exact verify, for float verify's shared products and for the step
summaries verify settles in its comparison loop.
power_compose() is Poly.compose before poly.product_table: each kept
term's constant times every factor's truncated power, taken by
power_products() in slot order with each power computed once, and the
pieces added one Poly at a time. No oracle here forms a product through
product_table: the expansions, the oracle steps and fold_pullback() run
through power_compose, and fraction_build_transition() multiplies
cached powers of its own. PolyScaledState is the exact oracle state
before basis-indexed lists: integer polynomials over one denominator.
iterate_symbolic() steps it by compose_scaled_step() and returns
Fraction polynomials, with or without a degree cutoff: the oracle the
tests compare closed forms against, once the package's
oracle_iterate_symbolic. shared_scaled_step() is the exact oracle step on it, the system scaled
by integer_system() anew at every step and the shared products formed
by poly.compose_shared on tuple-keyed dicts: the reference for the list
step of solver._oracle_step. compose_scaled_step() is the step before
the shared products, one power_compose per equation.
pairwise_mul_truncated() is Poly.mul_truncated before it sorted
(degree, monomial, coefficient) triples once; the two must give the same
terms in the same order, float bits included.
fraction_build_transition() builds T from Fraction (or complex) products,
compose_expansions() expands each basis monomial through the pullback
images with one power_compose, and lcm_sum_combination() sums a pullback
entry's Fraction products by lcm_sum(), once scalars.lcm_sum;
lcm_sum_pullback() joins the last two. They are the oracles for the
integer products and sums of build_transition and solver._pullback.
lcm_sum_decompose() is exact decompose as it was before it solved only
the rows of P^-1 reachable() from the requested rows of P: every row by
_solve_row(), a back substitution by _solve_column() along the
anti-transpose (_reversed_rows()) whose entries are each one lcm_sum().
invert_unit_triangular() is float decompose's inversion of P before both
modes shared the forward substitution, and _solve_column() its column
back substitution over _strict_columns(), with every float sum an
ordered_sum(); _rows_from_columns() turns the columns into rows.
chain_sum_eigenvector_entry() and chain_sum_inverse_entry() give single
entries of P and P^-1 as sums over strictly increasing index chains, the
paper's combinatorial formulas; they are exponential in matrix size.

The paper's other cross-check formulas live here too: multinomial_entry()
gives one entry of a univariate transition matrix by the closed
multinomial sum, kron_index_monomial() names the monomial behind one
coordinate of the stacked Kronecker power vector, matrix_power() is the
dense power of a transition matrix, determinant() is Gaussian
elimination, and apply_point() maps a point into a transform's primed
coordinates.

solution_from_json() is ClosedFormSolution.from_json before it read each
distinct scalar string once and shared a transformed table equal to its
variables table: every scalar through scalar_from_json, both tables read
in full, and each cell canonicalised by expsum_from_terms(), once
ExpSum.from_terms, sorting bases by the 1-tuple key tuple_sort_key(). It
is the oracle for the stored-solution reader, results and errors alike.
"""

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from carleman.embedding import CarlemanMatrix, MonomialBasis
from carleman.linalg import Matrix, identity, mat_mul, mat_vec
from carleman.errors import ArityError, CarlemanError, SizeLimitError
from carleman.poly import (Monomial, Poly, affine_images, compose_shared,
                           grlex_key, integer_scaled, within_cutoff)
from carleman.scalars import (Mode, Scalar, nearly_equal, over_lcm,
                              scalar_from_json)
from carleman.solver import (ClosedFormSolution, ExpSum, VerificationReport,
                             VerificationRow, _FLOAT_COEFF_DROP,
                             _FLOAT_CONSTANT_TOL, _FLOAT_MERGE_TOL,
                             _ORACLE_TERM_LIMIT)
from carleman.systems import (PolySystem, TransformParams, apply_affine,
                              constant_term, drop_float_residue, reduce_depth)

SparseMatrix = List[Dict[int, Scalar]]


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


def ordered_sum(products: Sequence[Tuple[Scalar, Scalar]], zero: Scalar) -> Scalar:
    """The sum of a * b over products, added in order onto zero."""
    acc = zero
    for a, b in products:
        acc = acc + a * b
    return acc


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


def _solve_column(columns: List[List[Tuple[int, Scalar]]], a: int, top: Scalar,
                  finish: Callable[[int, list], Scalar]) -> Dict[int, Scalar]:
    """One column of a triangular back substitution, nonzeros only.

    x[a] = top, and for b < a, x[b] = finish(b, products) where products
    lists the factor pairs (M[b][c], x[c]) for c in (b, a] ascending, the
    order of the dense loop. A product with x[c] = 0 is left out: a float
    sum started at +0 never holds a -0 part, and adding a signed zero to
    +0 or to a nonzero part changes no bit.
    """
    column: Dict[int, Scalar] = {}
    pending: Dict[int, list] = {}
    rows_left: List[int] = []  # max-heap of the rows in pending, negated
    c, value = a, top
    while True:
        if value != 0:
            column[c] = value
            for b, entry in columns[c]:
                products = pending.get(b)
                if products is None:
                    pending[b] = [(entry, value)]
                    heapq.heappush(rows_left, -b)
                else:
                    products.append((entry, value))
        if not rows_left:
            return column
        c = -heapq.heappop(rows_left)
        products = pending.pop(c)
        products.reverse()
        value = finish(c, products)


def _rows_from_columns(columns: Sequence[Dict[int, Scalar]]) -> SparseMatrix:
    """Row-major form, each row's columns ascending."""
    rows: SparseMatrix = [{} for _ in columns]
    for a, column in enumerate(columns):
        for b, value in column.items():
            rows[b][a] = value
    return rows


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
        _solve_column(upper, m, one / diagonal[m], lambda b, products:
                      -ordered_sum(products, zero) / diagonal[b])
        for m in range(n)])


def power_from_decomposition(spec, exponent: int) -> Matrix:
    """Reassemble T^exponent as modal * diag(eigs^exponent) * modal_inv."""
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    n = len(spec.eigenvalues)
    modal = dense(spec.modal, spec.mode)
    scaled = [[modal[r][c] * spec.eigenvalues[c] ** exponent
               for c in range(n)] for r in range(n)]
    return mat_mul(scaled, dense(spec.modal_inv, spec.mode))


def expsum_add(a: ExpSum, b: ExpSum) -> ExpSum:
    """The sum of two exponential sums, once ExpSum.__add__."""
    if a.mode is not b.mode:
        raise ArityError("cannot add exponential sums from different modes")
    return ExpSum.from_terms(a.mode, list(a.terms) + list(b.terms))


def expsum_scaled(exp_sum: ExpSum, factor: Scalar) -> ExpSum:
    """An exponential sum times a scalar, once ExpSum.scaled."""
    if factor == 0:
        return ExpSum(exp_sum.mode, ())
    if exp_sum.mode is Mode.EXACT:
        # a nonzero factor keeps the bases and keeps every coefficient
        # nonzero, so the sum stays canonical
        return ExpSum(exp_sum.mode,
                      tuple((b, c * factor) for b, c in exp_sum.terms))
    return ExpSum.from_terms(exp_sum.mode,
                             [(b, c * factor) for b, c in exp_sum.terms])


def fold_pullback(solution) -> List[Dict[Monomial, ExpSum]]:
    """Original-coordinate tables rebuilt from solution.transformed and
    solution.transform: each shifted-coordinate cell, times A^-1, is
    carried onto the original monomials one expansion term at a time, and
    each addition to a cell rebuilds the whole sum with expsum_add."""
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
        expansion = power_compose(Poly(w, {basis.monomials[l]: one}),
                                  affine_images(a_rows, neg_ab))
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
                addition = expsum_scaled(carrier, gamma)
                if addition.is_zero():
                    continue
                current = tables[p].get(mono)
                tables[p][mono] = (addition if current is None
                                   else expsum_add(current, addition))
    for p in range(w):
        tables[p] = {m: s for m, s in tables[p].items() if not s.is_zero()}
    return tables


def fraction_build_transition(system, basis: MonomialBasis) -> CarlemanMatrix:
    """build_transition with every row a product of Fraction (or complex)
    powers, each power scaled by one: the package builds exact rows from
    integer products over d^degree instead."""
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


def compose_expansions(images: Sequence[Poly], monomials: Sequence[Monomial],
                       mode: Mode) -> List[Dict[Monomial, Scalar]]:
    """The pullback expansions E_l as Fraction (or complex) maps, one
    power_compose of basis monomial l with the images each."""
    return [power_compose(Poly(len(images), {m: mode.one}), images).terms
            for m in monomials]


def lcm_sum(products: Sequence[Tuple[Fraction, Fraction]]) -> Tuple[int, int]:
    """The sum of a * b over products as (numerator, L), with no Fraction
    arithmetic: the integer products (an * bn, ad * bd) added over_lcm."""
    pairs = []
    for a, b in products:
        an, ad = a.as_integer_ratio()
        bn, bd = b.as_integer_ratio()
        pairs.append((an * bn, ad * bd))
    numerators, common = over_lcm(pairs)
    return sum(numerators), common



def lcm_sum_combination(pairs: Iterable[Tuple[Scalar, Dict]],
                        mode: Mode) -> Dict:
    """The sum of factor * row over (factor, sparse row) pairs, without
    zero entries. A float entry adds its products in order onto zero; an
    exact one is their lcm_sum(), made one Fraction."""
    products: Dict = {}
    for factor, row in pairs:
        for key, x in row.items():
            products.setdefault(key, []).append((factor, x))
    out = {key: Fraction(*lcm_sum(ps)) if mode is Mode.EXACT
           else ordered_sum(ps, mode.zero) for key, ps in products.items()}
    return {key: x for key, x in out.items() if x != 0}


def lcm_sum_pullback(images, a_inv, p_rows, modal_inv, monomials, mode):
    """solver._pullback on Fraction rows: E_l by compose_expansions, and
    C' and every G'[j] by lcm_sum_combination."""
    expansions = compose_expansions(images, monomials, mode)
    c_rows = [lcm_sum_combination(zip(row, p_rows), mode) for row in a_inv]
    return c_rows, lambda j: lcm_sum_combination(
        ((x, expansions[l]) for l, x in modal_inv[j].items()), mode)


def _reversed_rows(rows: Sequence[Dict[int, Scalar]]
                   ) -> List[List[Tuple[int, Scalar]]]:
    """_strict_columns of the anti-transpose M'[i][j] = M[n-1-j][n-1-i]:
    a forward substitution along the rows of M is a back substitution
    for _solve_column, index i standing for n-1-i."""
    last = len(rows) - 1
    return [[(last - c, value) for c, value in rows[last - b].items()
             if c > last - b and value != 0] for b in range(len(rows))]


def _solve_row(reversed_rows: List[List[Tuple[int, Fraction]]], r: int,
               finish: Callable[[int, int, int], Fraction]) -> Dict[int, Fraction]:
    """One exact row of a forward substitution along M, nonzeros only:
    x[r] = 1 and, for c > r, x[c] = finish(c, acc, L) where acc / L is
    the lcm_sum over j in [r, c) of x[j] M[j][c], and reversed_rows is
    _reversed_rows(M). Columns come out ascending."""
    last = len(reversed_rows) - 1
    column = _solve_column(reversed_rows, last - r, Fraction(1), lambda b, products:
                           finish(last - b, *lcm_sum(products)))
    return {last - b: value for b, value in column.items()}



def reachable(rows: Sequence[Dict[int, Scalar]],
              start: Iterable[int]) -> set:
    """The indices reachable from start along M[b][c] != 0, c > b, start
    included, for M given by sparse rows."""
    seen = set(start)
    stack = list(seen)
    while stack:
        b = stack.pop()
        for c, value in rows[b].items():
            if c > b and value != 0 and c not in seen:
                seen.add(c)
                stack.append(c)
    return seen


def lcm_sum_decompose(matrix: Sequence[Dict[int, Fraction]],
                      rows: Sequence[int]
                      ) -> Tuple[List[Dict[int, Fraction]], List[Dict[int, Fraction]]]:
    """Exact decompose before the reachability cut: (modal, modal_inv),
    every row of P^-1 solved by _solve_row, then the rows of P named in
    rows; the other rows of P are empty."""
    n = len(matrix)
    diagonal = [matrix[i].get(i, Fraction(0)) for i in range(n)]
    nums = [x.numerator for x in diagonal]
    dens = [x.denominator for x in diagonal]
    by_row = _reversed_rows(matrix)
    modal_inv = [_solve_row(by_row, j, lambda l, acc, common, j=j: Fraction(
        acc * dens[j] * dens[l], common * (nums[j] * dens[l] - nums[l] * dens[j])))
        for j in range(n)]
    by_row = _reversed_rows(modal_inv)
    modal = [_solve_row(by_row, r, lambda c, acc, common: Fraction(-acc, common))
             if r in rows else {} for r in range(n)]
    return modal, modal_inv


def power_products(terms: Iterable[Tuple[Monomial, Scalar]],
                   factors: Sequence[Poly],
                   max_degree: Optional[int] = None) -> Iterator[Poly]:
    """For each (m, c) in terms, in order, c * prod_s factors[s]**m[s]
    with degrees above max_degree dropped: the constant c times each
    factor's truncated power in slot order, every power computed once."""
    k = factors[0].var_count
    constant = (0,) * k
    powers: Dict[Tuple[int, int], Poly] = {}
    for mono, coeff in terms:
        piece = Poly._trusted(k, {constant: coeff})
        for s, e in enumerate(mono):
            if e:
                if (s, e) not in powers:
                    powers[s, e] = factors[s].pow_truncated(e, max_degree)
                piece = piece.mul_truncated(powers[s, e], max_degree)
        yield piece


def power_compose(poly: Poly, arguments: Sequence[Poly],
                  max_degree: Optional[int] = None) -> Poly:
    """Poly.compose by power_products: substitute a polynomial for each
    variable, adding the pieces one Poly at a time."""
    if len(arguments) != poly.var_count:
        raise ArityError(
            f"expected {poly.var_count} argument polynomials, got {len(arguments)}")
    inner_vars = arguments[0].var_count
    for arg in arguments:
        if arg.var_count != inner_vars:
            raise ArityError("argument polynomials disagree on variable count")
    kept = within_cutoff(poly.terms.items(), arguments, max_degree)
    out = Poly.zero(inner_vars)
    for piece in power_products(kept, arguments, max_degree):
        out = out + piece
    return out


def _identity_polys(system: PolySystem) -> List[Poly]:
    one = system.mode.one
    return [Poly.variable(system.k, l).scaled(one) for l in range(system.k)]


def _oracle_step(system: PolySystem, state: List[Poly],
                 max_degree: Optional[int]) -> List[Poly]:
    new_state = [power_compose(p, state, max_degree) for p in system.polys]
    total_terms = sum(len(p.terms) for p in new_state)
    if total_terms > _ORACLE_TERM_LIMIT:
        raise SizeLimitError(
            f"symbolic iteration exceeded {_ORACLE_TERM_LIMIT} terms; "
            f"lower the step count or the degree cutoff")
    return new_state


@dataclass(frozen=True)
class PolyScaledState:
    """The exact oracle state before basis-indexed lists: variable l is
    the integer polynomial numerators[l] divided by denominator, reduced
    like solver._OracleState."""

    numerators: List[Poly]
    denominator: int

    @classmethod
    def reduced(cls, numerators: List[Poly], denominator: int
                ) -> "PolyScaledState":
        if denominator == 1:
            return cls(numerators, 1)
        common = math.gcd(denominator, *(c for p in numerators
                                         for c in p.terms.values()))
        if common > 1:
            numerators = [Poly._trusted(
                p.var_count, {m: c // common for m, c in p.terms.items()})
                for p in numerators]
            denominator //= common
        return cls(numerators, denominator)

    @classmethod
    def start(cls, system: PolySystem) -> "PolyScaledState":
        """The identity map as integer polynomials over 1."""
        units = [tuple(int(t == l) for t in range(system.k))
                 for l in range(system.k)]
        return cls([Poly(system.k, {u: 1}) for u in units], 1)

    def fractions(self) -> List[Poly]:
        """The state as Fraction polynomials."""
        return [Poly(p.var_count, {m: Fraction(c, self.denominator)
                                   for m, c in p.terms.items()})
                for p in self.numerators]


def integer_system(system: PolySystem, denominator: int
                   ) -> Tuple[List[Poly], int]:
    """Integer polynomials F and the integer E with f(N / D) = F(N) / E for
    every update polynomial f, D the given denominator: with d the lcm of
    the coefficient denominators and g the system's degree, a coefficient
    a_m becomes a_m * d * D^(g - |m|) and E = d * D^g. It is formed anew
    at every step."""
    scaled, scale = integer_scaled(system.polys)
    degree = max(0, max(p.degree() for p in system.polys))
    den_powers = [denominator ** e for e in range(degree + 1)]
    polys = [Poly._trusted(system.k, {m: c * den_powers[degree - sum(m)]
                                      for m, c in p.terms.items()})
             for p in scaled]
    return polys, scale * den_powers[degree]


def _scaled_step(system: PolySystem, state: PolyScaledState,
                 max_degree: Optional[int], compose) -> PolyScaledState:
    polys, denominator = integer_system(system, state.denominator)
    new_state = compose(polys, state.numerators, max_degree)
    total_terms = sum(len(p.terms) for p in new_state)
    if total_terms > _ORACLE_TERM_LIMIT:
        raise SizeLimitError(
            f"symbolic iteration exceeded {_ORACLE_TERM_LIMIT} terms; "
            f"lower the step count or the degree cutoff")
    return PolyScaledState.reduced(new_state, denominator)


def iterate_symbolic(system: PolySystem, steps: int,
                     max_degree: Optional[int] = None) -> List[Poly]:
    """The steps-fold composition of an exact depth-one update map,
    expanded in the initial values with degrees above max_degree dropped
    (None: no cutoff), as Fraction polynomials: PolyScaledState stepped
    by compose_scaled_step."""
    state = PolyScaledState.start(system)
    for _ in range(steps):
        state = compose_scaled_step(system, state, max_degree)
    return state.fractions()


def shared_scaled_step(system: PolySystem, state: PolyScaledState,
                       max_degree: Optional[int]) -> PolyScaledState:
    """The exact branch of solver._oracle_step before basis-indexed
    lists: the integer update polynomials, formed anew each step, act on
    integer polynomial numerators through poly.compose_shared, so each
    distinct monomial's product is one Poly.mul_truncated on tuple-keyed
    dicts."""
    return _scaled_step(system, state, max_degree, compose_shared)


def compose_scaled_step(system: PolySystem, state: PolyScaledState,
                        max_degree: Optional[int]) -> PolyScaledState:
    """shared_scaled_step before the shared products: each integer update
    polynomial composed with the state by its own power_compose, so each
    builds its own powers of the state."""
    return _scaled_step(system, state, max_degree, lambda polys, args, cut: [
        power_compose(p, args, cut) for p in polys])


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def pairwise_mul_truncated(self: Poly, other: Poly,
                           max_degree: Optional[int] = None) -> Poly:
    """Poly.mul_truncated before it sorted (degree, monomial, coefficient)
    triples once: every pair sums its degrees and zips its monomials."""
    self._check_arity(other)
    terms: Dict[Monomial, Scalar] = {}
    # iterate the smaller operand outside; skip pairs past the cutoff early
    a, b = (self, other) if len(self.terms) <= len(other.terms) else (other, self)
    b_items = sorted(b.terms.items(), key=lambda kv: sum(kv[0]))
    for mono_a, coeff_a in a.terms.items():
        deg_a = sum(mono_a)
        for mono_b, coeff_b in b_items:
            if max_degree is not None and deg_a + sum(mono_b) > max_degree:
                break
            mono = monomial_mul(mono_a, mono_b)
            acc = terms.get(mono, 0) + coeff_a * coeff_b
            if acc == 0:
                terms.pop(mono, None)
            else:
                terms[mono] = acc
    return Poly._trusted(self.var_count, terms)


def fraction_verify(solution: ClosedFormSolution, system: PolySystem,
                    max_power: Optional[int] = None, tol: float = 1e-8
                    ) -> VerificationReport:
    """verify() as it was before the integer evaluation: the oracle state
    is Fraction (or complex) polynomials and every stored cell is
    ExpSum.evaluate(i)."""
    steps = solution.order if max_power is None else max_power
    reduced = reduce_depth(system)
    if reduced.mode is not solution.mode:
        raise CarlemanError("solution and system modes differ")
    if reduced.k != solution.k:
        raise CarlemanError(
            f"solution covers {solution.k} variables, system has {reduced.k}")
    use_transformed = any(x != 0 for x in solution.offsets)
    if use_transformed:
        target = apply_affine(reduced, solution.transform)
        target = drop_float_residue(target, _FLOAT_CONSTANT_TOL, constant_term)
        tables = solution.transformed
        coordinates = "transformed"
    else:
        target = reduced
        tables = solution.tables
        coordinates = "original"
    exact = solution.mode is Mode.EXACT
    order = solution.order

    rows: List[VerificationRow] = []
    state = _identity_polys(target)
    for i in range(steps + 1):
        for p in range(target.k):
            oracle_terms = {m: c for m, c in state[p].terms.items()
                            if sum(m) <= order}
            monomials = set(oracle_terms) | set(tables[p])
            for mono in sorted(monomials, key=grlex_key):
                expected = oracle_terms.get(mono, target.mode.zero)
                stored = tables[p].get(mono)
                got = stored.evaluate(i) if stored is not None else target.mode.zero
                if exact:
                    ok = expected == got
                    error = float(abs(expected - got))
                else:
                    scale = max(1.0, abs(expected))
                    error = abs(expected - got)
                    ok = error <= tol * scale
                rows.append(VerificationRow(
                    step=i, variable=solution.names[p], monomial=mono,
                    expected=expected, got=got, error=error, ok=ok))
        if i < steps:
            state = _oracle_step(target, state, order)
    # the rows grouped by step in one pass, as the report was built
    # before verify settled each step in its comparison loop
    groups: List[List[VerificationRow]] = [[] for _ in range(steps + 1)]
    worst = 0.0
    for row in rows:
        groups[row.step].append(row)
        worst = max(worst, row.error)
    by_step = tuple((max((r.error for r in g), default=0.0),
                     tuple(r for r in g if not r.ok)) for g in groups)
    return VerificationReport(not any(failing for _, failing in by_step),
                              worst, coordinates, order, steps, by_step,
                              lambda: tuple(rows))


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


# -- transition-matrix, linear-algebra and transform cross-checks --------------


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


def matrix_power(matrix, exponent: int) -> List[List[Scalar]]:
    """Plain dense power of a CarlemanMatrix by repeated squaring."""
    if exponent < 0:
        raise ArityError(f"negative matrix power {exponent}")
    result = identity(len(matrix.rows), matrix.mode)
    base = matrix.dense_rows()
    e = exponent
    while e:
        if e & 1:
            result = mat_mul(result, base)
        e >>= 1
        if e:
            base = mat_mul(base, base)
    return result


def determinant(a: Sequence[Sequence[Scalar]], mode: Mode) -> Scalar:
    n = len(a)
    work = [list(row) for row in a]
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




def apply_point(params: TransformParams, point: Sequence[Scalar]) -> List[Scalar]:
    """The primed coordinates matrix (point - offset) of a point."""
    shifted = [x - b for x, b in zip(point, params.offset)]
    return mat_vec(params.matrix, shifted)


def tuple_sort_key(value: Scalar):
    """Deterministic ordering key; exact values sort numerically,
    floats by magnitude then phase."""
    if isinstance(value, Fraction):
        return (value,)
    return (abs(value), math.atan2(value.imag, value.real), value.real, value.imag)


def expsum_from_terms(mode: Mode,
                      pairs: Sequence[Tuple[Scalar, Scalar]]) -> ExpSum:
    """Canonical sum of (base, coeff) pairs."""
    merged: List[List[Scalar]] = []
    for base, coeff in sorted(pairs, key=lambda bc: tuple_sort_key(bc[0])):
        if merged and nearly_equal(merged[-1][0], base, _FLOAT_MERGE_TOL):
            merged[-1][1] = merged[-1][1] + coeff
        else:
            merged.append([base, coeff])
    drop = 0 if mode is Mode.EXACT else _FLOAT_COEFF_DROP * max(
        1.0, max((abs(c) for _, c in merged), default=0.0))
    return ExpSum(mode=mode, terms=tuple(
        (b, c) for b, c in merged if abs(c) > drop))


def expsum_from_json(mode: Mode, data) -> ExpSum:
    pairs = [(scalar_from_json(mode, t["base"]),
              scalar_from_json(mode, t["coeff"])) for t in data]
    return expsum_from_terms(mode, pairs)


def tables_from_json(mode: Mode, entries) -> Tuple[Dict[Monomial, ExpSum], ...]:
    return tuple({tuple(term["monomial"]): expsum_from_json(mode, term["expsum"])
                  for term in entry["terms"]} for entry in entries)


def solution_from_json(data: dict) -> ClosedFormSolution:
    try:
        mode = Mode(data["mode"])
        order = int(data["order"])
        names = tuple(entry["name"] for entry in data["variables"])
        offsets = tuple(scalar_from_json(mode, entry["offset"])
                        for entry in data["variables"])
        tables = tables_from_json(mode, data["variables"])
        matrix = [[scalar_from_json(mode, x) for x in row]
                  for row in data["transform"]["A"]]
        offset = [scalar_from_json(mode, x) for x in data["transform"]["B"]]
        transform = TransformParams.create(matrix, offset, mode)
        if "transformed" in data:
            transformed = tables_from_json(mode, data["transformed"])
        elif transform.is_identity():
            transformed = tables
        else:
            raise CarlemanError(
                "solution file lacks the transformed-coordinate table "
                "needed to verify a shifted solution")
    except (KeyError, TypeError, ValueError) as exc:
        raise CarlemanError(f"malformed solution JSON: {exc}") from exc
    return ClosedFormSolution(names=names, offsets=offsets, tables=tables,
                              transformed=transformed, transform=transform,
                              order=order, mode=mode)
