"""Sparse multivariate polynomial arithmetic over exact or float scalars.

A polynomial in k variables is a map from exponent tuples to nonzero
coefficients; the zero polynomial is the empty map:

    x0**2 + 3*x0*x1  ->  {(2, 0): Fraction(1), (1, 1): Fraction(3)}

Canonical form never stores a zero coefficient, so equality is plain map
equality. Iteration for output always happens in graded lexicographic
order: total degree ascending, and inside one degree the exponent of
variable 0 descending, then variable 1, and so on. For two variables and
degree <= 2 that order is

    1, x0, x1, x0**2, x0*x1, x1**2

which is also the monomial-basis order used by the linearization code.

Operations that can grow degree take a max_degree cutoff; terms above the
cutoff are dropped, never rounded. All binary operations require matching
variable counts and raise ArityError otherwise.
"""

from __future__ import annotations

import cmath
import math
import operator
import random
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import ArityError, SizeLimitError, ZeroPolynomialError
from .scalars import Scalar

Monomial = Tuple[int, ...]


def grlex_key(monomial: Monomial):
    """Sort key for the graded order described in the module docstring."""
    return (sum(monomial), tuple(-e for e in monomial))


class Poly:
    """Immutable-by-convention sparse polynomial."""

    __slots__ = ("var_count", "terms")

    def __init__(self, var_count: int, terms: Optional[Dict[Monomial, Scalar]] = None):
        if var_count < 1:
            raise ArityError(f"polynomial needs at least one variable, got {var_count}")
        clean: Dict[Monomial, Scalar] = {}
        for mono, coeff in (terms or {}).items():
            if len(mono) != var_count:
                raise ArityError(
                    f"exponent tuple {mono} has {len(mono)} entries, expected {var_count}")
            if any(e < 0 for e in mono):
                raise ArityError(f"negative exponent in {mono}")
            if coeff != 0:
                clean[tuple(mono)] = coeff
        self.var_count = var_count
        self.terms = clean

    @classmethod
    def _trusted(cls, var_count: int, terms: Dict[Monomial, Scalar]) -> "Poly":
        """Wrap terms already in canonical form (valid exponent tuples, no
        zero coefficient) without checking or copying them."""
        poly = cls.__new__(cls)
        poly.var_count = var_count
        poly.terms = terms
        return poly

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, var_count: int) -> "Poly":
        return cls(var_count, {})

    @classmethod
    def constant(cls, var_count: int, value: Scalar) -> "Poly":
        return cls(var_count, {(0,) * var_count: value})

    @classmethod
    def variable(cls, var_count: int, index: int) -> "Poly":
        if not 0 <= index < var_count:
            raise ArityError(f"variable index {index} out of range for {var_count} variables")
        mono = tuple(1 if i == index else 0 for i in range(var_count))
        one = Fraction(1)
        return cls(var_count, {mono: one})

    # -- views ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def constant_term(self) -> Scalar:
        return self.terms.get((0,) * self.var_count, 0)

    def items_grlex(self) -> List[Tuple[Monomial, Scalar]]:
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]))

    # -- algebra ----------------------------------------------------------

    def _check_arity(self, other: "Poly") -> None:
        if self.var_count != other.var_count:
            raise ArityError(
                f"variable counts differ: {self.var_count} vs {other.var_count}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_arity(other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = terms.get(mono, 0) + coeff
            if acc == 0:
                terms.pop(mono, None)
            else:
                terms[mono] = acc
        return Poly._trusted(self.var_count, terms)

    def __neg__(self) -> "Poly":
        return Poly(self.var_count, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.var_count == other.var_count and self.terms == other.terms

    def __repr__(self) -> str:
        inside = ", ".join(f"{m}: {c}" for m, c in self.items_grlex())
        return f"Poly({self.var_count}, {{{inside}}})"

    def scaled(self, factor: Scalar) -> "Poly":
        if factor == 0:
            return Poly.zero(self.var_count)
        return Poly(self.var_count, {m: c * factor for m, c in self.terms.items()})

    def mul_truncated(self, other: "Poly", max_degree: Optional[int] = None) -> "Poly":
        """Product, dropping terms with total degree above max_degree."""
        self._check_arity(other)
        terms: Dict[Monomial, Scalar] = {}
        # iterate the smaller operand outside; skip pairs past the cutoff early
        a, b = (self, other) if len(self.terms) <= len(other.terms) else (other, self)
        # a stable sort on degree alone keeps b's order inside one degree
        b_items = sorted(((sum(m), m, c) for m, c in b.terms.items()),
                         key=operator.itemgetter(0))
        cap = math.inf if max_degree is None else max_degree
        add = operator.add
        for mono_a, coeff_a in a.terms.items():
            room = cap - sum(mono_a)
            for deg_b, mono_b, coeff_b in b_items:
                if deg_b > room:
                    break
                mono = tuple(map(add, mono_a, mono_b))
                acc = terms.get(mono, 0) + coeff_a * coeff_b
                if acc == 0:
                    terms.pop(mono, None)
                else:
                    terms[mono] = acc
        return Poly._trusted(self.var_count, terms)

    def pow_truncated(self, exponent: int, max_degree: Optional[int] = None) -> "Poly":
        """Integer power by repeated squaring, truncating along the way."""
        if exponent < 0:
            raise ArityError(f"negative exponent {exponent}")
        # an int 1 keeps integer polynomials integer, and multiplies a
        # Fraction or complex coefficient exactly as Fraction(1) does
        result = Poly.constant(self.var_count, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result.mul_truncated(base, max_degree)
            e >>= 1
            if e:
                base = base.mul_truncated(base, max_degree)
        return result

    def compose(self, arguments: Sequence["Poly"],
                max_degree: Optional[int] = None) -> "Poly":
        """Substitute a polynomial for each variable."""
        if len(arguments) != self.var_count:
            raise ArityError(
                f"expected {self.var_count} argument polynomials, got {len(arguments)}")
        inner_vars = arguments[0].var_count
        for arg in arguments:
            if arg.var_count != inner_vars:
                raise ArityError("argument polynomials disagree on variable count")
        return compose_shared([self], arguments, max_degree)[0]

    def evaluate(self, point: Sequence[Scalar]) -> Scalar:
        """Value at a point, with per-variable power caching."""
        if len(point) != self.var_count:
            raise ArityError(
                f"point has {len(point)} coordinates, expected {self.var_count}")
        pow_cache: Dict[Tuple[int, int], Scalar] = {}

        def var_power(l: int, e: int) -> Scalar:
            key = (l, e)
            if key not in pow_cache:
                pow_cache[key] = point[l] ** e
            return pow_cache[key]

        total: Scalar = 0
        for mono, coeff in self.terms.items():
            value = coeff
            for l, e in enumerate(mono):
                if e:
                    value = value * var_power(l, e)
            total = total + value
        return total

    def derivative(self, var: int) -> "Poly":
        if not 0 <= var < self.var_count:
            raise ArityError(f"variable index {var} out of range")
        terms: Dict[Monomial, Scalar] = {}
        for mono, coeff in self.terms.items():
            e = mono[var]
            if e:
                lowered = tuple(x - 1 if i == var else x for i, x in enumerate(mono))
                terms[lowered] = terms.get(lowered, 0) + coeff * e
        return Poly(self.var_count, terms)


def within_cutoff(terms: Iterable[Tuple[Monomial, Scalar]],
                  arguments: Sequence[Poly], max_degree: Optional[int],
                  lowest: Optional[Sequence[int]] = None
                  ) -> List[Tuple[Monomial, Scalar]]:
    """The (m, c) of terms whose product prod_s arguments[s]**m[s] can
    reach degree max_degree or below: a product that starts above the
    cutoff adds nothing. lowest[s], the lowest degree in arguments[s]
    (max_degree + 1 for a zero argument), is read from arguments unless
    given."""
    if max_degree is None:
        return list(terms)
    if lowest is None:
        lowest = [min(map(sum, arg.terms), default=max_degree + 1)
                  for arg in arguments]
    return [(mono, coeff) for mono, coeff in terms
            if sum(map(operator.mul, mono, lowest)) <= max_degree]


def prefix_products(slots: int, unit, multiply: Callable) -> Callable:
    """The map m -> the product over slots s of factor s to the power
    m[s], for monomials m with the given number of slots. Each product
    is formed once, as multiply(product of the prefix m - e_s, s) with s
    the last nonzero slot of m, and kept while the map lives; the empty
    product is unit. Asked in graded order, every prefix is already
    there."""
    products = {(0,) * slots: unit}

    def product(mono: Monomial):
        missing = []
        while mono not in products:
            s = max(t for t, e in enumerate(mono) if e)
            missing.append((mono, s))
            mono = mono[:s] + (mono[s] - 1,) + mono[s + 1:]
        value = products[mono]
        for mono, s in reversed(missing):
            value = products[mono] = multiply(value, s)
        return value

    return product


def product_table(factors: Sequence[Poly], max_degree: Optional[int] = None,
                  one: Scalar = 1) -> Callable[[Monomial], Poly]:
    """The map m -> one * prod_s factors[s]**m[s], degrees above
    max_degree dropped, by prefix_products: one mul_truncated per
    distinct monomial."""
    k = factors[0].var_count
    return prefix_products(
        len(factors), Poly._trusted(k, {(0,) * k: one}),
        lambda value, s: value.mul_truncated(factors[s], max_degree))


def compose_shared(polys: Sequence[Poly], arguments: Sequence[Poly],
                   max_degree: Optional[int] = None) -> List[Poly]:
    """[p.compose(arguments, max_degree) for p in polys], each distinct
    monomial's product prod_s arguments[s]**m[s] read from one
    product_table and shared by every p that uses it."""
    k = arguments[0].var_count
    product = product_table(arguments, max_degree)
    out = []
    for p in polys:
        terms: Dict[Monomial, Scalar] = {}
        for mono, coeff in within_cutoff(p.terms.items(), arguments, max_degree):
            for m, c in product(mono).terms.items():
                terms[m] = terms.get(m, 0) + coeff * c
        out.append(Poly._trusted(k, {m: c for m, c in terms.items() if c != 0}))
    return out


def integer_scaled(polys: Sequence[Poly]) -> Tuple[List[Poly], int]:
    """The integer polynomials d * p for exact polys p, and d: the lcm of
    all their coefficient denominators."""
    scale = math.lcm(*(c.denominator for p in polys for c in p.terms.values()))
    return [Poly._trusted(p.var_count, {m: c.numerator * (scale // c.denominator)
                                        for m, c in p.terms.items()})
            for p in polys], scale


def affine_images(matrix: Sequence[Sequence[Scalar]],
                  offset: Sequence[Scalar]) -> List[Poly]:
    """The degree-1 polynomials matrix*z + offset, one per row: composing
    with them substitutes the affine map for the variable vector z."""
    k = len(offset)
    images = []
    for row, shift in zip(matrix, offset):
        terms = {tuple(int(t == j) for t in range(k)): a
                 for j, a in enumerate(row) if a != 0}
        if shift != 0:
            terms[(0,) * k] = shift
        images.append(Poly(k, terms))
    return images


# -- univariate root finding -------------------------------------------


def univariate_coeffs(p: Poly) -> List[Scalar]:
    """Ascending coefficient list c0..cm of a one-variable polynomial."""
    if p.var_count != 1:
        raise ArityError(f"expected a univariate polynomial, got {p.var_count} variables")
    if p.is_zero():
        raise ZeroPolynomialError("the zero polynomial has no defined root set")
    m = p.degree()
    return [p.terms.get((j,), 0) for j in range(m + 1)]


# the rational-root search trial-divides up to the square root of a
# coefficient, then tests every quotient of two divisors; a search that
# needs more divisions or candidates than this is refused
_DIVISOR_SEARCH_LIMIT = 10 ** 6


def _divisors(n: int) -> List[int]:
    n = abs(n)
    if math.isqrt(n) > _DIVISOR_SEARCH_LIMIT:
        digits = int((n.bit_length() - 1) * math.log10(2)) + 1
        digits += n >= 10 ** digits
        raise SizeLimitError(
            f"rational root search: a {digits}-digit coefficient needs over "
            f"{_DIVISOR_SEARCH_LIMIT} trial divisions; use --mode float")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def rational_roots(p: Poly) -> List[Fraction]:
    """All rational roots of an exact univariate polynomial, ascending.

    Uses the rational root bound on an integer-cleared copy; every
    candidate is verified by exact evaluation. No rational root means an
    empty list, not an error.
    """
    coeffs = univariate_coeffs(p)
    if len(coeffs) == 1:
        return []  # nonzero constant
    roots: List[Fraction] = []
    low = 0
    while coeffs[low] == 0:
        low += 1
    if low > 0:
        roots.append(Fraction(0))
    reduced = coeffs[low:]
    scale = math.lcm(*(c.denominator for c in reduced))
    ints = [int(c * scale) for c in reduced]
    trailing, leading = ints[0], ints[-1]
    seen = set(roots)
    nums, dens = _divisors(trailing), _divisors(leading)
    if len(nums) * len(dens) > _DIVISOR_SEARCH_LIMIT:
        raise SizeLimitError(
            f"rational root search: {len(nums) * len(dens)} candidates exceed "
            f"{_DIVISOR_SEARCH_LIMIT}; use --mode float")
    for num in nums:
        for den in dens:
            if math.gcd(num, den) != 1:
                continue
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if cand in seen:
                    continue
                if p.evaluate([cand]) == 0:
                    roots.append(cand)
                    seen.add(cand)
    return sorted(roots)


# Durand-Kerner stops after this many sweeps, or once the worst residual
# of the monic polynomial is at most the tolerance
_DK_MAX_ITERATIONS = 500
_DK_RESIDUAL_TOL = 1e-12


def complex_roots(p: Poly, seed: int = 0) -> List[complex]:
    """All complex roots via the Durand-Kerner simultaneous iteration.

    Starts from a randomly perturbed circle (seeded, so deterministic),
    iterates until the worst residual of the monic polynomial drops below
    _DK_RESIDUAL_TOL, then polishes each root with a few Newton steps.
    """
    coeffs = [complex(c) for c in univariate_coeffs(p)]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    n = len(coeffs) - 1
    if n == 0:
        return []
    monic = [c / coeffs[-1] for c in coeffs]

    def eval_monic(x: complex) -> complex:
        acc = 0j
        for c in reversed(monic):
            acc = acc * x + c
        return acc

    deriv = [monic[j] * j for j in range(1, n + 1)]

    def eval_deriv(x: complex) -> complex:
        acc = 0j
        for c in reversed(deriv):
            acc = acc * x + c
        return acc

    rng = random.Random(seed)
    # Cauchy bound encloses every root of the monic polynomial
    radius = 1.0 + max(abs(c) for c in monic[:-1])
    guesses = [
        radius * (0.6 + 0.1 * rng.random())
        * cmath.exp(2j * cmath.pi * (j + 0.3 + 0.1 * rng.random()) / n)
        for j in range(n)
    ]
    for _ in range(_DK_MAX_ITERATIONS):
        worst = 0.0
        for j in range(n):
            denom = 1 + 0j
            for l in range(n):
                if l != j:
                    diff = guesses[j] - guesses[l]
                    if diff == 0:
                        diff = 1e-12 * (1 + rng.random())
                    denom *= diff
            step = eval_monic(guesses[j]) / denom
            guesses[j] -= step
            worst = max(worst, abs(eval_monic(guesses[j])))
        if worst <= _DK_RESIDUAL_TOL:
            break
    for j in range(n):
        for _ in range(3):
            d = eval_deriv(guesses[j])
            if abs(d) < 1e-300:
                break
            guesses[j] -= eval_monic(guesses[j]) / d
    guesses.sort(key=lambda z: (abs(z), cmath.phase(z), z.real, z.imag))
    return guesses
