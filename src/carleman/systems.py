"""Polynomial recurrence systems and the transforms applied before
linearization: depth flattening, fixed-point shifts, and linear changes
of variables.

A depth-n system over k variables is stored as k polynomials in the
n*k flattened lag variables (all lag-1 variables first, then lag-2, and
so on). Depth reduction rewrites it as a depth-one system over n*k
variables by adding copy equations, after which every transform here
assumes depth one.

An affine transform holds a matrix A and offset B and defines the primed
coordinates as z' = A (z - B); the primed system is then

    z'_i = A (F(A^-1 z'_{i-1} + B) - B).

Shifting by a fixed point (A = identity, B = fixed point) removes the
constant term; a change of basis built from eigenvectors of the linear
part (B = 0) makes the linear part diagonal, hence upper triangular,
which is what the embedding needs to produce a triangular transition
matrix. Both modes build it the same way, from one nullspace per
distinct eigenvalue; float mode then checks that what is left below the
diagonal is residue, and drops it.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .embedding import MonomialBasis
from .errors import (ArityError, NotShiftedError, SingularMatrixError,
                     TriangularizationError)
from .linalg import (char_poly, identity, is_upper_triangular, mat_inverse,
                     mat_vec, max_abs, nullspace)
from .poly import Poly, affine_images, complex_roots, compose_shared, rational_roots
from .scalars import Mode, Scalar, format_scalar, nearly_equal, sort_key


@dataclass(frozen=True)
class PolySystem:
    """k update polynomials over the depth*k flattened lag variables.

    A float system parsed from text carries exact, the exact system it
    rounds coefficient by coefficient, for solve to run first; systems
    derived from it carry none."""

    k: int
    depth: int
    polys: Tuple[Poly, ...]
    mode: Mode
    exact: Optional[PolySystem] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.k < 1 or self.depth < 1:
            raise ArityError(f"bad system shape (k={self.k}, depth={self.depth})")
        if len(self.polys) != self.k:
            raise ArityError(
                f"expected {self.k} update polynomials, got {len(self.polys)}")
        width = self.k * self.depth
        for l, p in enumerate(self.polys):
            if p.var_count != width:
                raise ArityError(
                    f"equation {l} uses {p.var_count} variables, expected {width}")
            for coeff in p.terms.values():
                if not self.mode.matches(coeff):
                    raise ArityError(
                        f"equation {l} has a {type(coeff).__name__} coefficient "
                        f"in {self.mode.value} mode")

    def require_depth_one(self, what: str) -> None:
        if self.depth != 1:
            raise ArityError(f"{what} needs a depth-one system; "
                             f"reduce depth first (this one has depth {self.depth})")

    def constant_vector(self) -> List[Scalar]:
        self.require_depth_one("reading the constant term")
        return [p.constant_term() for p in self.polys]

    def linear_matrix(self) -> List[List[Scalar]]:
        self.require_depth_one("reading the linear part")
        zero = self.mode.zero
        out = []
        for p in self.polys:
            row = [zero] * self.k
            for mono, coeff in p.terms.items():
                if sum(mono) == 1:
                    row[mono.index(1)] = coeff
            out.append(row)
        return out


@dataclass(frozen=True)
class TransformParams:
    """Affine change of coordinates z' = matrix (z - offset)."""

    matrix: Tuple[Tuple[Scalar, ...], ...]
    offset: Tuple[Scalar, ...]
    matrix_inv: Tuple[Tuple[Scalar, ...], ...]
    mode: Mode

    @classmethod
    def create(cls, matrix: Sequence[Sequence[Scalar]],
               offset: Sequence[Scalar], mode: Mode) -> "TransformParams":
        k = len(offset)
        if len(matrix) != k or any(len(row) != k for row in matrix):
            raise ArityError("transform matrix shape does not match the offset length")
        inverse = mat_inverse(matrix, mode)
        return cls(matrix=tuple(tuple(row) for row in matrix),
                   offset=tuple(offset),
                   matrix_inv=tuple(tuple(row) for row in inverse),
                   mode=mode)

    @classmethod
    def identity(cls, k: int, mode: Mode) -> "TransformParams":
        return cls.shift([mode.zero] * k, mode)

    @classmethod
    def shift(cls, offset: Sequence[Scalar], mode: Mode) -> "TransformParams":
        eye = tuple(tuple(row) for row in identity(len(offset), mode))
        return cls(matrix=eye, offset=tuple(offset), matrix_inv=eye, mode=mode)

    @property
    def k(self) -> int:
        return len(self.offset)

    def is_identity(self) -> bool:
        eye = identity(self.k, self.mode)
        return (all(x == 0 for x in self.offset)
                and [list(r) for r in self.matrix] == eye)


def reduce_depth(system: PolySystem) -> PolySystem:
    """Rewrite a depth-n system as depth-one over n*k variables.

    The first k equations keep their polynomials unchanged (the flattened
    variable order already matches); each further variable j*k + l copies
    variable (j-1)*k + l from the previous step, so new variable j*k + l
    at step i equals original variable l at step i - j.
    """
    if system.depth == 1:
        return replace(system, exact=None) if system.exact else system
    k, depth = system.k, system.depth
    width = k * depth
    one = system.mode.one
    polys = list(system.polys)
    for j in range(1, depth):
        for l in range(k):
            polys.append(Poly.variable(width, (j - 1) * k + l).scaled(one))
    return PolySystem(k=width, depth=1, polys=tuple(polys), mode=system.mode)


def apply_affine(system: PolySystem, params: TransformParams) -> PolySystem:
    """Rewrite a depth-one system in the primed coordinates
    z' = matrix (z - offset)."""
    system.require_depth_one("an affine transform")
    if params.k != system.k:
        raise ArityError(
            f"transform is {params.k}-dimensional, system has {system.k} variables")
    k = system.k
    substituted = compose_shared(system.polys,
                                 affine_images(params.matrix_inv, params.offset))
    shift_back = mat_vec(params.matrix, params.offset)
    # A F(...) - A B, summed left to right: Poly + keeps keys in order of arrival
    polys = tuple(sum((f.scaled(a) for a, f in zip(row, substituted) if a != 0),
                      Poly.zero(k)) - Poly.constant(k, b)
                  for row, b in zip(params.matrix, shift_back))
    return PolySystem(k=k, depth=1, polys=polys, mode=system.mode)


# -- fixed points -------------------------------------------------------------


# damped Newton gives up after this many steps; a residual at most the
# tolerance counts as a fixed point
_NEWTON_MAX_ITERATIONS = 80
_NEWTON_TOL = 1e-10


def _newton_fixed_point(system: PolySystem,
                        start: Sequence[complex]) -> Optional[List[complex]]:
    k = system.k
    gs = [p - Poly.variable(k, l).scaled(system.mode.one)
          for l, p in enumerate(system.polys)]
    jacobian = [[g.derivative(v) for v in range(k)] for g in gs]
    point = [complex(x) for x in start]

    def residual(at: Sequence[complex]) -> float:
        return max(abs(g.evaluate(at)) for g in gs)

    current = residual(point)
    for _ in range(_NEWTON_MAX_ITERATIONS):
        if current <= _NEWTON_TOL:
            return point
        jac = [[jacobian[r][c].evaluate(point) for c in range(k)] for r in range(k)]
        rhs = [-g.evaluate(point) for g in gs]
        try:
            inv = mat_inverse(jac, Mode.FLOAT)
        except SingularMatrixError:
            return None
        step = mat_vec(inv, rhs)
        damping = 1.0
        for _ in range(25):
            trial = [x + damping * s for x, s in zip(point, step)]
            trial_res = residual(trial)
            if trial_res < current:
                point, current = trial, trial_res
                break
            damping /= 2
        else:
            return None
    return point if current <= _NEWTON_TOL else None


def fixed_points(system: PolySystem, seed: int = 0) -> List[List[Scalar]]:
    """Fixed points of the depth-one map, deterministically ordered.

    Exact mode: for one variable, all rational roots of F(d) - d; for
    several variables the origin, when the constant term vanishes. Float
    mode: all numeric roots for one variable, damped Newton from the
    origin and seeded random starts otherwise.
    """
    system.require_depth_one("fixed points")
    k = system.k
    if system.mode is Mode.EXACT:
        if k > 1:
            vanishes = all(c == 0 for c in system.constant_vector())
            return [[Fraction(0)] * k] if vanishes else []
        shifted = system.polys[0] - Poly.variable(1, 0)
        if shifted.is_zero():
            return [[Fraction(0)]]  # every point is fixed; report the origin
        return [[r] for r in rational_roots(shifted)]
    # float mode
    if k == 1:
        shifted = system.polys[0] - Poly.variable(1, 0).scaled(system.mode.one)
        if shifted.is_zero():
            return [[complex(0)]]
        roots = complex_roots(shifted, seed=seed)
        candidates = [[r] for r in roots]
    else:
        rng = random.Random(seed)
        starts: List[List[complex]] = [[complex(0)] * k]
        for _ in range(8):
            starts.append([complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                           for _ in range(k)])
        candidates = []
        for start in starts:
            got = _newton_fixed_point(system, start)
            if got is not None:
                candidates.append(got)
    deduped: List[List[Scalar]] = []
    for cand in candidates:
        if not any(all(nearly_equal(a, b, 1e-8) for a, b in zip(cand, prev))
                   for prev in deduped):
            deduped.append(cand)
    deduped.sort(key=lambda v: tuple(sort_key(x) for x in v))
    return deduped


# -- admissibility ------------------------------------------------------------


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the distinct-eigenvalue-products check."""

    eigenvalues: Tuple[Scalar, ...]
    max_power: int
    passed: bool
    collisions: Tuple[Tuple[Tuple[int, ...], Tuple[int, ...], Scalar], ...]
    advisories: Tuple[str, ...]

    def describe(self) -> str:
        eigs = ", ".join(format_scalar(x) for x in self.eigenvalues)
        status = "PASS" if self.passed else "FAIL"
        lines = [f"eigenvalues: {eigs}",
                 f"distinct products up to degree {self.max_power}: {status}"]
        for mono_a, mono_b, value in self.collisions:
            lines.append(f"  collision: {mono_a} and {mono_b} both give "
                         f"{format_scalar(value)}")
        for note in self.advisories:
            lines.append(f"  advisory: {note}")
        return "\n".join(lines)


def _eigenvalues_with_multiplicity(matrix: List[List[Scalar]],
                                   mode: Mode, seed: int = 0) -> List[Scalar]:
    k = len(matrix)
    if is_upper_triangular(matrix, 0.0 if mode is Mode.EXACT else 1e-12):
        return [matrix[i][i] for i in range(k)]
    cp = char_poly(matrix, mode)
    if mode is Mode.FLOAT:
        return complex_roots(cp, seed=seed)
    roots = rational_roots(cp)
    eigs: List[Scalar] = []
    remaining = cp
    for r in roots:
        while True:
            quotient, ok = _divide_linear(remaining, r)
            if not ok:
                break
            eigs.append(r)
            remaining = quotient
    if len(eigs) < k:
        raise TriangularizationError(
            "the linear part has irrational or complex eigenvalues; "
            "supply a transform matrix or use float mode")
    eigs.sort()
    return eigs


def _divide_linear(p: Poly, root: Fraction) -> Tuple[Poly, bool]:
    """Synthetic division by (x - root); ok is False when root is not a root."""
    coeffs = [p.terms.get((j,), Fraction(0)) for j in range(p.degree() + 1)]
    out: List[Fraction] = [Fraction(0)] * (len(coeffs) - 1)
    carry = Fraction(0)
    for j in range(len(coeffs) - 1, 0, -1):
        carry = coeffs[j] + carry * root
        out[j - 1] = carry
    remainder = coeffs[0] + carry * root
    if remainder != 0:
        return p, False
    return Poly(1, {(j,): c for j, c in enumerate(out)}), True


def _is_nearly_rational(x: float) -> Optional[Fraction]:
    """x as a fraction with denominator at most 64, when one is within
    1e-9 of it."""
    if not math.isfinite(x):
        return None
    approx = Fraction(x).limit_denominator(64)
    if abs(approx - Fraction(x)) <= 1e-9:
        return approx
    return None


# float eigenvalue products this close (relative) collide
_COLLISION_TOL = 1e-9
# float eigenvalues (and 1) this close (relative) count as one value
_FLOAT_ROOT_TOL = 1e-6
# the root-of-unity advisory tries orders 1.._UNITY_BOUND
_UNITY_BOUND = 24


def check_shift_admissible(system: PolySystem, max_power: int,
                           seed: int = 0) -> AdmissibilityReport:
    """Check that all monomial products of the linear-part eigenvalues up
    to total degree max_power are pairwise distinct.

    This is exactly the condition for the truncated transition matrix to
    have distinct diagonal entries, hence to be diagonalizable by back
    substitution. The report also carries advisory notes (root-of-unity
    detection, and for two variables a continued-fraction heuristic for
    the all-orders condition); advisories never affect the verdict.
    """
    system.require_depth_one("the admissibility check")
    constants = system.constant_vector()
    if any(c != 0 for c in constants):
        raise NotShiftedError(
            "the admissibility check needs a zero constant term; shift to a "
            "fixed point first")
    eigs = _eigenvalues_with_multiplicity(system.linear_matrix(), system.mode,
                                          seed=seed)
    # one * prod_l eigs[l]**e_l, multiplied in slot order, is the product
    # of its head (the last nonzero slot s set to 0, formed earlier in
    # graded order) times eigs[s]**e_s: one multiply per monomial
    powers = [[eig ** e for e in range(max_power + 1)] for eig in eigs]
    monomials = MonomialBasis(system.k, max_power).monomials
    values: Dict[Tuple[int, ...], Scalar] = {monomials[0]: system.mode.one}
    for mono in monomials[1:]:
        s = max(t for t, e in enumerate(mono) if e)
        head = mono[:s] + (0,) * (system.k - s)
        values[mono] = values[head] * powers[s][mono[s]]
    products = list(values.items())
    collisions: List[Tuple[Tuple[int, ...], Tuple[int, ...], Scalar]] = []
    if system.mode is Mode.EXACT:
        seen: Dict[Scalar, Tuple[int, ...]] = {}
        for mono, value in products:
            if value in seen:
                collisions.append((seen[value], mono, value))
            else:
                seen[value] = mono
    else:
        by_value = sorted(products, key=lambda mv: sort_key(mv[1]))
        for (mono_a, val_a), (mono_b, val_b) in zip(by_value, by_value[1:]):
            if nearly_equal(val_a, val_b, _COLLISION_TOL):
                collisions.append((mono_a, mono_b, val_a))
        # a numerical root is only as accurate as its polynomial allows, and
        # at a double root that is about the square root of the residual (a
        # fixed point's root, or an eigenvalue's). So two of 1 and the
        # eigenvalues within root accuracy collide, as they do in exact
        # mode; the scan above already names a pair within _COLLISION_TOL
        for (mono_a, val_a), (mono_b, val_b) in itertools.combinations(
                products[:system.k + 1], 2):
            if (not nearly_equal(val_a, val_b, _COLLISION_TOL)
                    and nearly_equal(val_a, val_b, _FLOAT_ROOT_TOL)):
                collisions.append((mono_a, mono_b, val_b))
    advisories: List[str] = []
    if system.k == 1:
        lam = eigs[0]
        for q in range(1, _UNITY_BOUND + 1):
            power = lam ** q
            if (power == 1 if system.mode is Mode.EXACT
                    else nearly_equal(power, complex(1), _COLLISION_TOL)):
                advisories.append(
                    f"eigenvalue {format_scalar(lam)} is a root of unity "
                    f"(order {q}); products repeat at every truncation order")
                break
    if system.k == 2:
        advisories.extend(_two_variable_all_orders_note(eigs))
    return AdmissibilityReport(
        eigenvalues=tuple(eigs),
        max_power=max_power,
        passed=not collisions,
        collisions=tuple(collisions),
        advisories=tuple(advisories),
    )


def _two_variable_all_orders_note(eigs: Sequence[Scalar]) -> List[str]:
    """Heuristic all-orders diagnosis for two eigenvalues: products at
    every order stay distinct when log_|l0| |l1| is irrational, or when
    the phases mix irrationally with that ratio. Detection uses rational
    reconstruction of floats, so it is advisory only."""
    try:
        l0, l1 = complex(eigs[0]), complex(eigs[1])
        if abs(l0) in (0.0, 1.0) or abs(l1) == 0.0:
            return []
        ratio = math.log(abs(l1)) / math.log(abs(l0))
        ratio_frac = _is_nearly_rational(ratio)
        if ratio_frac is None:
            return ["heuristic: magnitude ratio log test suggests products stay "
                    "distinct at every order"]
        phase_mix = cmath.phase(l1) - cmath.phase(l0) * ratio
        if phase_mix == 0:
            return [f"heuristic: products may collide at higher orders "
                    f"(magnitude log ratio is close to {ratio_frac})"]
        phase_ratio = math.pi / phase_mix
        if _is_nearly_rational(phase_ratio) is None:
            return ["heuristic: phase mixing suggests products stay distinct "
                    "at every order"]
        return [f"heuristic: products may collide at higher orders "
                f"(magnitude log ratio close to {ratio_frac}, phase mix rational)"]
    except (ValueError, ZeroDivisionError, OverflowError):
        return []


# -- triangularization ---------------------------------------------------------


# float linear entries below the diagonal up to this, relative to the
# largest entry, are dropped as residue
_SUBDIAGONAL_TOL = 1e-10


def triangularize_linear(system: PolySystem,
                         seed: int = 0) -> Tuple[PolySystem, TransformParams]:
    """Find a change of basis making the linear part upper triangular,
    and return the rewritten system along with the transform.

    An already-triangular linear part returns the system unchanged with
    the identity transform. Otherwise the linear part is diagonalized by
    its eigenvectors, one nullspace per distinct eigenvalue (float
    eigenvalues within _FLOAT_ROOT_TOL count as one), each first nonzero
    entry scaled to 1. Exact eigenvalues are taken ascending, float ones
    by magnitude then phase. An irrational exact spectrum, a defective
    linear part, or a float result whose subdiagonal keeps more than
    residue raises TriangularizationError.
    """
    system.require_depth_one("triangularization")
    k, mode = system.k, system.mode
    linear = system.linear_matrix()
    scale = max(max_abs(linear), 1.0)
    if is_upper_triangular(linear, 0.0 if mode is Mode.EXACT else 1e-12):
        if mode is Mode.FLOAT:
            system = drop_float_residue(system, _SUBDIAGONAL_TOL * scale, below_diagonal)
        return system, TransformParams.identity(k, mode)
    eigs = _eigenvalues_with_multiplicity(linear, mode, seed=seed)
    columns: List[List[Scalar]] = []
    seen: List[Scalar] = []
    for lam in eigs:
        if any(nearly_equal(lam, x, _FLOAT_ROOT_TOL) for x in seen):
            continue
        seen.append(lam)
        multiplicity = sum(nearly_equal(lam, x, _FLOAT_ROOT_TOL) for x in eigs)
        shifted = [[linear[r][c] - (lam if r == c else 0) for c in range(k)]
                   for r in range(k)]
        space = nullspace(shifted, mode)
        if len(space) < multiplicity:
            raise TriangularizationError(
                f"the linear part is defective at eigenvalue "
                f"{format_scalar(lam)}; no eigenvector basis exists")
        for vec in space[:multiplicity]:
            lead = next(x for x in vec if x != 0)
            columns.append([x / lead for x in vec])
    modal = [[columns[c][r] for c in range(k)] for r in range(k)]
    params = TransformParams(
        matrix=tuple(tuple(row) for row in mat_inverse(modal, mode)),
        offset=(mode.zero,) * k, matrix_inv=tuple(tuple(row) for row in modal),
        mode=mode)
    transformed = apply_affine(system, params)
    if mode is Mode.EXACT:
        return transformed, params
    residue = max((abs(x) for r, row in enumerate(transformed.linear_matrix())
                   for x in row[:r]), default=0.0)
    if residue > 1e-8 * scale:
        raise TriangularizationError(
            f"float triangularization did not converge (residue {residue:.2e})")
    return (drop_float_residue(transformed, _SUBDIAGONAL_TOL * scale, below_diagonal),
            params)


# term tests for drop_float_residue: mono is a term of equation p
def constant_term(p: int, mono: Tuple[int, ...]) -> bool:
    return not any(mono)


def below_diagonal(p: int, mono: Tuple[int, ...]) -> bool:
    return sum(mono) == 1 and mono.index(1) < p


def drop_float_residue(system: PolySystem, tol: float,
                       test: Callable[[int, Tuple[int, ...]], bool]) -> PolySystem:
    """The depth-one system without its float terms of magnitude at most
    tol that pass test(p, mono); an exact system is returned as it is."""
    if system.mode is Mode.EXACT:
        return system
    polys = tuple(Poly(system.k, {m: c for m, c in poly.terms.items()
                                  if abs(c) > tol or not test(p, m)})
                  for p, poly in enumerate(system.polys))
    return PolySystem(k=system.k, depth=1, polys=polys, mode=system.mode)
