"""Closed-form solutions of polynomial recurrences.

solve() runs the whole pipeline: flatten the depth, shift a fixed point
to the origin, change basis until the linear part is upper triangular,
embed into the monomial basis up to the truncation order, eigendecompose
the triangular transition matrix, and read off one exponential sum per
(variable, initial-condition monomial) pair:

    u_i^p  =  B_p  +  sum over monomials m of degree <= N of
              ( sum_j beta_j * lambda_j^i ) * m(u_0)

The coefficient functions are exact for monomial degrees <= N whenever
the shifted system has a zero constant term: by degree grading, the
image of a degree-d monomial only touches degrees >= d, so truncation
at N never corrupts the retained coefficients. The series itself is
truncated, so evaluating it tracks the true trajectory only as well as
the degree > N tail allows.

verify() therefore compares coefficients, not trajectory values, against
a brute-force symbolic iteration oracle, which only verify() runs.
Verification happens in the shifted coordinates when the shift is
nonzero (there the coefficients are exact); with a zero shift the
original-coordinate table is checked directly. In exact mode both sides
stay in integers: the oracle holds one integer list per variable,
indexed by position in the grlex basis of monomials up to the order (a
basis past BASIS_SIZE_LIMIT is refused, as solve refuses it), over one
shared denominator reduced by the common gcd after every step; the
closed form is evaluated from one running power per distinct eigenvalue
over a common denominator. One loop compares every coefficient at every
step in both modes; the rows of agreeing exact coefficients are built
only when the report's rows are read.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple, Union)

from .embedding import MonomialBasis, build_transition
from .errors import (ArityError, CarlemanError, NotShiftedError,
                     RepeatedEigenvalueError, ShiftNotFoundError,
                     SizeLimitError, TriangularizationError)
from .linalg import is_upper_triangular, mat_vec, max_abs
from .poly import (Monomial, Poly, affine_images, compose_shared, grlex_key,
                   integer_scaled, prefix_products, product_table,
                   render_monomial, within_cutoff)
from .scalars import (Mode, Scalar, format_scalar, format_vector, nearly_equal,
                      over_lcm, scalar_from_json, scalar_to_json, sort_key,
                      split_sign)
from .systems import (AdmissibilityReport, PolySystem, TransformParams,
                      apply_affine, below_diagonal, check_shift_admissible,
                      constant_term, drop_float_residue, fixed_points,
                      reduce_depth, triangularize_linear)
from .triangular import decompose

_FLOAT_CONSTANT_TOL = 1e-9
_FLOAT_COEFF_DROP = 1e-13
# float exp-sum bases this close (relative) merge into one term
_FLOAT_MERGE_TOL = 1e-9


# -- exponential sums ----------------------------------------------------------


_PLAIN_NUMBER = re.compile(r"^[0-9]+(\.[0-9]+)?$")


@dataclass(frozen=True)
class ExpSum:
    """Function of the step index i of the form sum of coeff * base^i.

    Canonical: no zero coefficients, sorted ascending by the scalar
    ordering (Float: magnitude then phase), bases pairwise distinct in
    Exact mode. from_terms builds a float sum from computed terms,
    merging bases within 1e-9 relative; a float solution rounded from
    an exact one, and a stored float sum read back, keeps every nonzero
    term unmerged (_kept_float_sum).
    """

    mode: Mode
    terms: Tuple[Tuple[Scalar, Scalar], ...]

    @classmethod
    def from_terms(cls, mode: Mode,
                   pairs: Sequence[Tuple[Scalar, Scalar]]) -> "ExpSum":
        """Canonical sum of (base, coeff) pairs; zeros go by truthiness."""
        if mode is Mode.EXACT and all(c for _, c in pairs) and all(
                a < b for (a, _), (b, _) in zip(pairs, pairs[1:])):
            return cls(mode=mode, terms=tuple(pairs))
        merged: List[List[Scalar]] = []
        for base, coeff in sorted(pairs, key=lambda bc: sort_key(bc[0])):
            if merged and nearly_equal(merged[-1][0], base, _FLOAT_MERGE_TOL):
                merged[-1][1] = merged[-1][1] + coeff
            else:
                merged.append([base, coeff])
        drop = None if mode is Mode.EXACT else _FLOAT_COEFF_DROP * max(
            1.0, max((abs(c) for _, c in merged), default=0.0))
        return cls(mode=mode, terms=tuple(
            (b, c) for b, c in merged if c and (drop is None or abs(c) > drop)))

    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(self, i: int) -> Scalar:
        if i < 0:
            raise ValueError(f"step index must be non-negative, got {i}")
        total = self.mode.zero
        for base, coeff in self.terms:
            total = total + coeff * base ** i
        return total

    def render(self) -> str:
        """ASCII rendering with bases ascending, e.g. '-5*2^i + 6*3^i'."""
        if not self.terms:
            return "0"
        pieces: List[str] = []
        for base, coeff in self.terms:
            sign, body = _render_term(base, coeff)
            if not pieces:
                pieces.append(body if sign == "+" else f"-{body}")
            else:
                pieces.append(f" {sign} {body}")
        return "".join(pieces)

    def to_json(self) -> list:
        return [{"base": scalar_to_json(b), "coeff": scalar_to_json(c)}
                for b, c in self.terms]

    @classmethod
    def from_json(cls, mode: Mode, data, read) -> "ExpSum":
        """Inverse of to_json; read reads one scalar (_scalar_reader).
        A float sum is read by the rule _rounded writes it with
        (_kept_float_sum), so a stored solution keeps every term."""
        pairs = [(read(t["base"]), read(t["coeff"])) for t in data]
        if mode is Mode.EXACT:
            return cls.from_terms(mode, pairs)
        return _kept_float_sum(pairs)


def _kept_float_sum(pairs: Iterable[Tuple[Scalar, Scalar]]) -> ExpSum:
    """The float sum of every (base, coeff) pair whose coefficient is not
    0, sorted by the float key: no merge and no coefficient drop, which
    ExpSum.from_terms applies without regard to the base."""
    return ExpSum(Mode.FLOAT, tuple(sorted((bc for bc in pairs if bc[1]),
                                           key=lambda bc: sort_key(bc[0]))))


def _render_term(base: Scalar, coeff: Scalar) -> Tuple[str, str]:
    sign, mag = split_sign(coeff)
    mag_text = format_scalar(mag)
    if "j" in mag_text or "+" in mag_text or mag_text.startswith("-"):
        mag_text = f"({mag_text})"
    if base == 1:
        return sign, mag_text
    base_text = format_scalar(base)
    if not _PLAIN_NUMBER.match(base_text):
        base_text = f"({base_text})"
    power = f"{base_text}^i"
    if mag == 1:
        return sign, power
    return sign, f"{mag_text}*{power}"


# -- options and solution containers -------------------------------------------


ShiftSpec = Union[str, Sequence[Scalar]]


@dataclass
class SolveOptions:
    """Knobs for solve(); defaults suit small exact systems."""

    order: int = 6
    mode: Mode = Mode.EXACT
    shift: ShiftSpec = "auto"
    matrix: Optional[Sequence[Sequence[Scalar]]] = None
    seed: int = 0

    def __post_init__(self):
        if self.order < 1:
            raise CarlemanError(f"truncation order must be >= 1, got {self.order}")
        if isinstance(self.shift, str) and self.shift not in ("auto", "none"):
            raise CarlemanError(
                f"shift must be 'auto', 'none', or explicit values, got {self.shift!r}")


@dataclass(frozen=True)
class ClosedFormSolution:
    """Per-variable coefficient tables, in original and shifted coordinates.

    tables[p] maps each initial-condition monomial (degree <= order) to
    the exponential sum multiplying it in variable p's solution;
    offsets[p] is the constant pulled back from the shift. transformed[p]
    is the same table in the shifted/triangularized coordinates, where
    the coefficients are exact; it rides along so stored solutions stay
    verifiable.
    """

    names: Tuple[str, ...]
    offsets: Tuple[Scalar, ...]
    tables: Tuple[Dict[Monomial, ExpSum], ...]
    transformed: Tuple[Dict[Monomial, ExpSum], ...]
    transform: TransformParams
    order: int
    mode: Mode

    @property
    def k(self) -> int:
        return len(self.names)

    def evaluate(self, i: int, z0: Sequence[Scalar]) -> List[Scalar]:
        """Truncated-series value at step i from the initial state z0."""
        if len(z0) != self.k:
            raise ArityError(f"initial state has {len(z0)} entries, "
                             f"expected {self.k}")
        out: List[Scalar] = []
        for p in range(self.k):
            value = self.offsets[p]
            for mono, exp_sum in self.tables[p].items():
                term = exp_sum.evaluate(i)
                for l, e in enumerate(mono):
                    if e:
                        term = term * z0[l] ** e
                value = value + term
            out.append(value)
        return out

    def _render_table_line(self, p: int) -> str:
        pieces: List[str] = []
        if self.offsets[p] != 0:
            pieces.append(format_scalar(self.offsets[p]))
        factors = [f"{name}[0]" for name in self.names]
        for mono in sorted(self.tables[p], key=grlex_key):
            exp_sum = self.tables[p][mono]
            mono_text = render_monomial(mono, factors)
            if mono_text:
                pieces.append(f"({exp_sum.render()})*{mono_text}")
            else:
                pieces.append(f"({exp_sum.render()})")
        body = " + ".join(pieces) if pieces else "0"
        return f"{self.names[p]}[i] = {body}"

    def render_text(self) -> str:
        lines = [self._render_table_line(p) for p in range(self.k)]
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        variables = [{"name": name, "offset": scalar_to_json(offset),
                      "terms": _table_to_json(table)}
                     for name, offset, table in zip(self.names, self.offsets,
                                                    self.tables)]
        transformed = [{"name": name, "terms": _table_to_json(table)}
                       for name, table in zip(self.names, self.transformed)]
        return {
            "variables": variables,
            "transform": {
                "A": [[scalar_to_json(x) for x in row]
                      for row in self.transform.matrix],
                "B": [scalar_to_json(x) for x in self.transform.offset],
            },
            "order": self.order,
            "mode": self.mode.value,
            "transformed": transformed,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ClosedFormSolution":
        """Inverse of to_json. A transformed entry equal to its variables
        entry, as under an identity transform, shares its table."""
        try:
            mode = Mode(data["mode"])
            order = int(data["order"])
            if order < 1:
                raise ValueError(f"order must be >= 1, got {order}")
            read = _scalar_reader(mode)
            names = tuple(entry["name"] for entry in data["variables"])
            offsets = tuple(read(entry["offset"]) for entry in data["variables"])
            tables = _tables_from_json(mode, read, data["variables"])
            matrix = [[read(x) for x in row] for row in data["transform"]["A"]]
            offset = [read(x) for x in data["transform"]["B"]]
            transform = TransformParams.create(matrix, offset, mode)
            if "transformed" in data:
                transformed = _tables_from_json(mode, read, data["transformed"],
                                                data["variables"], tables)
            elif transform.is_identity():
                transformed = tables
            else:
                raise CarlemanError(
                    "solution file lacks the transformed-coordinate table "
                    "needed to verify a shifted solution")
        except (KeyError, TypeError, ValueError) as exc:
            raise CarlemanError(f"malformed solution JSON: {exc}") from exc
        return cls(names=names, offsets=offsets, tables=tables,
                   transformed=transformed, transform=transform,
                   order=order, mode=mode)


def _table_to_json(table: Dict[Monomial, ExpSum]) -> list:
    return [{"monomial": list(mono), "expsum": table[mono].to_json()}
            for mono in sorted(table, key=grlex_key)]


def _scalar_reader(mode: Mode) -> Callable[[object], Scalar]:
    """scalar_from_json in mode, reading each distinct string once; the memo
    lives as long as the returned function, one ClosedFormSolution.from_json."""
    text = functools.cache(functools.partial(scalar_from_json, mode))
    return lambda value: (text(value) if isinstance(value, str)
                          else scalar_from_json(mode, value))


def _tables_from_json(mode: Mode, read, entries, known_entries=(),
                      known_tables=()) -> Tuple[Dict[Monomial, ExpSum], ...]:
    """Entry p's table; known_tables[p] if it has known_entries[p]'s terms."""
    return tuple(
        known_tables[p]
        if p < len(known_entries) and entry["terms"] == known_entries[p]["terms"]
        else {tuple(term["monomial"]): ExpSum.from_json(mode, term["expsum"], read)
              for term in entry["terms"]}
        for p, entry in enumerate(entries))


# -- pipeline stages ------------------------------------------------------------


def _convert_vector(values: Sequence[Scalar], mode: Mode) -> List[Scalar]:
    out = []
    for v in values:
        if mode.matches(v):
            out.append(v)
        elif isinstance(v, (Fraction, int)):
            out.append(mode.from_fraction(v))
        elif mode is Mode.FLOAT:
            out.append(complex(v))
        else:
            raise CarlemanError(f"cannot use {v!r} as an exact scalar")
    return out


def _moved(system: PolySystem, params: TransformParams) -> PolySystem:
    """system under params; a float constant within _FLOAT_CONSTANT_TOL
    of 0 is the shift's residue and is dropped."""
    return drop_float_residue(apply_affine(system, params),
                              _FLOAT_CONSTANT_TOL, constant_term)


@dataclass(frozen=True)
class ShiftCandidate:
    """One fixed-point candidate with its admissibility outcome."""

    offset: Tuple[Scalar, ...]
    report: Optional[AdmissibilityReport]
    note: str
    chosen: bool


def _candidate_sort_key(vector: Sequence[Scalar]):
    magnitude = sum(abs(x) for x in vector)
    all_nonneg = all(
        (x >= 0 if isinstance(x, Fraction) else (x.real >= 0 and x.imag == 0))
        for x in vector)
    return (magnitude, 0 if all_nonneg else 1,
            tuple(sort_key(x) for x in vector))


def resolve_shift(system: PolySystem, opts: SolveOptions
                  ) -> Tuple[List[Scalar], List[ShiftCandidate]]:
    """Pick the shift offset per the options' policy.

    Explicit values and 'none' pass straight through. 'auto' tries fixed
    points ordered by (magnitude, non-negative first, value) and takes
    the first whose shifted system passes the eigenvalue-product check;
    the returned trail records every candidate's outcome.
    """
    system.require_depth_one("shift resolution")
    mode = system.mode
    if not isinstance(opts.shift, str):
        values = _convert_vector(list(opts.shift), mode)
        if len(values) != system.k:
            raise ShiftNotFoundError(
                f"shift: expected {system.k} offset values, got {len(values)}")
        return values, []
    if opts.shift == "none":
        return [mode.zero] * system.k, []
    candidates = fixed_points(system, seed=opts.seed)
    candidates.sort(key=_candidate_sort_key)
    trail: List[ShiftCandidate] = []
    chosen: Optional[List[Scalar]] = None
    for cand in candidates:
        shifted = _moved(system, TransformParams.shift(cand, mode))
        try:
            report = check_shift_admissible(shifted, max_power=opts.order,
                                            seed=opts.seed)
        except (TriangularizationError, NotShiftedError) as exc:
            trail.append(ShiftCandidate(tuple(cand), None, str(exc), False))
            continue
        take = report.passed and chosen is None
        trail.append(ShiftCandidate(tuple(cand), report, "", take))
        if take:
            chosen = cand
    if chosen is None:
        # a candidate refused before its products were compared carries
        # the reason in its note
        tried = ", ".join(format_vector(c.offset)
                          + (f": {c.note}" if c.note else "")
                          for c in trail) or "none found"
        # float mode helps only where exact mode could not compare products
        remedy = ("use --mode float" if mode is Mode.EXACT
                  and (not trail or any(c.note for c in trail))
                  else "a lower --order")
        raise ShiftNotFoundError(
            f"shift: no fixed point gives distinct eigenvalue products up to "
            f"degree {opts.order} (candidates tried: {tried}); "
            f"supply --shift or {remedy}", trail=trail)
    return chosen, trail


def _resolve_basis(shifted: PolySystem, opts: SolveOptions
                   ) -> Tuple[PolySystem, TransformParams]:
    mode = shifted.mode
    if opts.matrix is not None:
        rows = [_convert_vector(row, mode) for row in opts.matrix]
        params = TransformParams.create(rows, [mode.zero] * shifted.k, mode)
        transformed = apply_affine(shifted, params)
        if mode is Mode.FLOAT:
            scale = max(max_abs(transformed.linear_matrix()), 1.0)
            transformed = drop_float_residue(transformed, 1e-10 * scale, below_diagonal)
        tol = 0.0 if mode is Mode.EXACT else 1e-12
        if not is_upper_triangular(transformed.linear_matrix(), tol):
            raise TriangularizationError(
                "triangularize: the supplied matrix does not make the linear "
                "part upper triangular")
        return transformed, params
    try:
        return triangularize_linear(shifted, seed=opts.seed)
    except TriangularizationError as exc:
        raise TriangularizationError(f"triangularize: {exc}") from exc


# -- the solver -----------------------------------------------------------------


def resolve_transform(system: PolySystem, opts: SolveOptions,
                      require_shifted: bool = True
                      ) -> Tuple[PolySystem, PolySystem, TransformParams]:
    """Run the transform stages of the pipeline: flatten the depth, apply
    the shift policy, then the triangularizing basis change. Returns the
    flattened system, the fully transformed system, and the combined
    affine parameters. require_shifted=False tolerates a constant term
    that survives (callers that only inspect the matrix want that)."""
    if system.mode is not opts.mode:
        raise CarlemanError(
            f"system is in {system.mode.value} mode but options ask for "
            f"{opts.mode.value}")
    reduced = reduce_depth(system)
    mode = reduced.mode

    # a fixed point of a depth-n recurrence is a constant sequence, so a
    # k-long explicit shift is replicated across the lag copies
    if (not isinstance(opts.shift, str) and system.depth > 1
            and len(opts.shift) == system.k):
        opts = dataclasses.replace(opts, shift=list(opts.shift) * system.depth)

    offset, _ = resolve_shift(reduced, opts)
    shifted = _moved(reduced, TransformParams.shift(offset, mode))
    bad = [p for p, c in enumerate(shifted.constant_vector()) if c != 0]
    if bad and require_shifted:
        if opts.shift == "none":
            raise NotShiftedError(
                "shift: the system has a nonzero constant term and shifting "
                "is disabled; drop shift=none or supply an offset")
        raise NotShiftedError(
            "shift: the constant term survives the requested shift "
            f"(equation {bad[0]}); the offset is not a fixed point")

    transformed, basis_params = _resolve_basis(shifted, opts)
    combined = dataclasses.replace(basis_params, offset=tuple(offset))
    return reduced, transformed, combined


def solve(system: PolySystem, opts: Optional[SolveOptions] = None,
          names: Optional[Sequence[str]] = None) -> ClosedFormSolution:
    """Produce the truncated closed form of a polynomial recurrence.

    Depth-n systems are flattened first, so the solution is expressed
    over the flattened variables (lag copies included). The options'
    shift and matrix policies control the affine transform; the
    eigenvalue-product admissibility gate runs after both. A float system
    with an exact twin (PolySystem.exact) is solved exactly first and
    rounded once; if the twin is refused for anything but colliding
    eigenvalues, the float pipeline runs instead.
    """
    opts = opts or SolveOptions()
    twin_opts = system.exact and opts.mode is Mode.FLOAT and _exact_options(opts)
    if twin_opts:
        try:
            return _rounded(solve(system.exact, twin_opts, names))
        except RepeatedEigenvalueError:
            raise
        except CarlemanError:
            pass  # the float route reports its own error
    var_names = reduced_variable_names(system, names)
    reduced, transformed, combined = resolve_transform(system, opts)
    w = reduced.k
    mode = reduced.mode

    report = check_shift_admissible(transformed, max_power=opts.order,
                                    seed=opts.seed)
    if not report.passed:
        mono_a, mono_b, value = report.collisions[0]
        raise RepeatedEigenvalueError(
            f"admissibility: eigenvalue products collide up to degree "
            f"{opts.order}: {mono_a} and {mono_b} both give "
            f"{format_scalar(value)}; pick a different shift or lower the order",
            collisions=report.collisions)

    basis = MonomialBasis(w, opts.order)
    transition = build_transition(transformed, basis)
    if not transition.is_triangular:
        raise TriangularizationError(
            "triangularize: transition matrix is not upper triangular after "
            "the transform")
    var_rows = [basis.index_of(tuple(1 if t == q else 0 for t in range(w)))
                for q in range(w)]
    spectral = decompose(transition.rows, mode, rows=var_rows)
    return _assemble(transformed, basis, spectral, var_rows, combined,
                     var_names)


def _exact_options(opts: SolveOptions) -> Optional[SolveOptions]:
    """opts for a float system's exact twin, each explicit shift or matrix
    entry as Fraction(x.real); None when one is not a finite real."""
    def exact(values):
        values = _convert_vector(values, Mode.FLOAT)
        if any(x.imag or not math.isfinite(x.real) for x in values):
            raise ValueError("no real value")
        return [Fraction(x.real) for x in values]
    try:
        return dataclasses.replace(
            opts, mode=Mode.EXACT,
            shift=opts.shift if isinstance(opts.shift, str) else exact(opts.shift),
            matrix=opts.matrix and [exact(row) for row in opts.matrix])
    except (CarlemanError, ValueError):
        return None


def _rounded(solution: ClosedFormSolution) -> ClosedFormSolution:
    """An exact solution in float mode, every scalar rounded once. A cell
    keeps every term of its exact sum (_kept_float_sum): only a
    coefficient that rounds to 0 goes. A^-1 comes from the rounded A by
    TransformParams.create, as ClosedFormSolution.from_json reads it."""
    mode = Mode.FLOAT

    def vector(values):
        return tuple(map(mode.from_fraction, values))

    def table(cells):
        sums = ((m, _kept_float_sum(map(vector, s.terms)))
                for m, s in cells.items())
        return {m: s for m, s in sums if not s.is_zero()}
    transform = solution.transform
    return dataclasses.replace(
        solution, mode=mode, offsets=vector(solution.offsets),
        tables=tuple(map(table, solution.tables)),
        transformed=tuple(map(table, solution.transformed)),
        transform=TransformParams.create(
            list(map(vector, transform.matrix)), vector(transform.offset), mode))


def reduced_variable_names(system: PolySystem,
                           names: Optional[Sequence[str]] = None
                           ) -> Tuple[str, ...]:
    w = system.k * system.depth
    if names is not None and len(names) == w:
        return tuple(names)
    if names is not None and len(names) == system.k:
        base = list(names)
    elif system.k == 1:
        base = ["u"]
    else:
        base = [f"u{l + 1}" for l in range(system.k)]
    out = list(base)
    for lag in range(1, system.depth):
        out.extend(f"{nm}_m{lag}" for nm in base)
    return tuple(out)


def _assemble(transformed: PolySystem, basis: MonomialBasis,
              spectral, var_rows: List[int], combined: TransformParams,
              names: Tuple[str, ...]) -> ClosedFormSolution:
    """Both coefficient tables, read off T^i = P D^i P^-1 by _exp_sum_tables.

    Shifted coordinates: C is the rows var_rows of P, the only rows of
    spectral.modal read here, and G[j] is row j of P^-1 with column l read
    as basis monomial l. Original coordinates z = A^-1 y + B: C' = A^-1 C,
    and G'[j] is the sum over l of P^-1[j][l] * E_l, where E_l is basis
    monomial l written in z_0 by y_0 = A z_0 - A B. _pullback builds C'
    and G'; in exact mode from integer products and integer sums, with
    one Fraction per stored entry.
    """
    mode = transformed.mode
    eigs = spectral.eigenvalues
    modal_inv = spectral.modal_inv
    monomials = basis.monomials
    p_rows = [spectral.modal[r] for r in var_rows]
    transformed_tables = _exp_sum_tables(
        mode, eigs, p_rows,
        lambda j: {monomials[l]: x for l, x in modal_inv[j].items()})
    tables = transformed_tables
    if not combined.is_identity():
        a_rows, offset = combined.matrix, combined.offset
        images = affine_images(a_rows, [-x for x in mat_vec(a_rows, offset)])
        tables = _exp_sum_tables(mode, eigs, *_pullback(
            images, combined.matrix_inv, p_rows, modal_inv, monomials, mode))

    return ClosedFormSolution(
        names=names,
        offsets=tuple(combined.offset),
        tables=tuple(tables),
        transformed=tuple(transformed_tables),
        transform=combined,
        order=basis.order,
        mode=mode,
    )


def _pullback(images: Sequence[Poly], a_inv, p_rows: List[Dict], modal_inv,
              monomials: Sequence[Monomial], mode: Mode
              ) -> Tuple[List[Dict], Callable[[int], Dict]]:
    """C' = A^-1 C, and the map j -> G'[j] = sum over l of P^-1[j][l] * E_l
    with E_l from _expansions. Exact rows of C go to _combination as
    integers over one denominator each, like the exact E_l."""
    expansions = _expansions(images, monomials, mode)
    if mode is Mode.EXACT:
        p_rows = [_integer_row(row) for row in p_rows]
    c_rows = [_combination(zip(row, p_rows), mode) for row in a_inv]
    return c_rows, lambda j: _combination(
        ((x, expansions[l]) for l, x in modal_inv[j].items()), mode)


def _expansions(images: Sequence[Poly], monomials: Sequence[Monomial],
                mode: Mode) -> List:
    """E_l = prod_s images[s]^l[s] for each basis monomial l, from one
    product_table: float rows as coefficient maps, exact rows as (integer
    numerators, d^|l|) from the images scaled by d, their lcm denominator."""
    if mode is Mode.FLOAT:
        expansion = product_table(images, one=mode.one)
        return [expansion(m).terms for m in monomials]
    factors, scale = integer_scaled(images)
    expansion = product_table(factors)
    return [(expansion(m).terms, scale ** sum(m)) for m in monomials]


def _integer_row(row: Dict[int, Fraction]) -> Tuple[Dict[int, int], int]:
    """An exact sparse row as (integer numerators, their denominator L)."""
    numerators, common = over_lcm([x.as_integer_ratio() for x in row.values()])
    return dict(zip(row, numerators)), common


def _combination(pairs: Iterable[Tuple[Scalar, object]], mode: Mode) -> Dict:
    """The sum of factor * row over (factor, sparse row) pairs, without
    zero entries, keys in order of first appearance. A float row is a
    coefficient map, and each entry adds its products in order onto zero.
    An exact row is (integer numerators, denominator); over L, the lcm of
    every factor.den * row.den, each entry is a sum of integer products
    with weights factor.num * (L // (factor.den * row.den)), made one
    Fraction."""
    if mode is Mode.EXACT:
        pairs = [(f.numerator, f.denominator * den, terms)
                 for f, (terms, den) in pairs]
        common = math.lcm(*(den for _, den, _ in pairs))
        pairs = [(n * (common // den), terms) for n, den, terms in pairs]
    sums: Dict = {}
    zero = 0 if mode is Mode.EXACT else mode.zero
    for weight, row in pairs:
        for key, x in row.items():
            sums[key] = sums.get(key, zero) + weight * x
    if mode is Mode.EXACT:
        return {key: Fraction(x, common) for key, x in sums.items() if x}
    return {key: x for key, x in sums.items() if x != 0}


def _exp_sum_tables(mode: Mode, eigs: Sequence[Scalar],
                    coeffs: Sequence[Dict[int, Scalar]],
                    column: Callable[[int], Dict[Monomial, Scalar]]
                    ) -> List[Dict[Monomial, ExpSum]]:
    """tables[p][m] = sum over j of coeffs[p][j] * column(j)[m] * eigs[j]^i.

    Neither side stores a zero, and decompose refuses repeated eigenvalues,
    so a cell has one term per j. With j visited by ascending eigenvalue,
    an exact cell is canonical as built; a float cell goes through
    ExpSum.from_terms for its coefficient drop. Cells go in grlex order.
    """
    order = sorted(set().union(*coeffs), key=lambda j: sort_key(eigs[j]))
    columns = {j: column(j) for j in order}
    tables: List[Dict[Monomial, ExpSum]] = []
    for row in coeffs:
        cells: Dict[Monomial, List[Tuple[Scalar, Scalar]]] = {}
        for j in order:
            if j in row:
                for mono, g in columns[j].items():
                    cells.setdefault(mono, []).append((eigs[j], row[j] * g))
        sums = ((m, ExpSum(mode, tuple(cells[m])) if mode is Mode.EXACT
                 else ExpSum.from_terms(mode, cells[m]))
                for m in sorted(cells, key=grlex_key))
        tables.append({m: s for m, s in sums if not s.is_zero()})
    return tables


# -- brute-force oracle and verification ----------------------------------------

_ORACLE_TERM_LIMIT = 10 ** 6


class _OracleState(NamedTuple):
    """Oracle state: variable l is numerators[l] / denominator.

    polys is the update map times scale, the lcm of its coefficient
    denominators in exact mode (polys and numerators are integer, and no
    factor above 1 divides the denominator and every numerator) and 1
    in float mode. degree is the map's degree, order the degree cutoff
    (at least 1). An exact state holds lists indexed by position in the
    grlex basis of monomials up to the order: a key packs exponents in
    base order + 1, so a product within the order has the sum of its
    factors' keys, and position maps that to its place. A float state
    has monomials None and polynomial numerators, because a float sum
    depends on the order of its terms."""

    numerators: list
    denominator: int
    polys: List[Poly]
    scale: int
    degree: int
    order: int
    monomials: Optional[List[Monomial]] = None
    keys: Sequence[int] = ()
    position: Optional[Dict[int, int]] = None
    degrees: Sequence[int] = ()

    def terms(self) -> List[Dict[Monomial, Scalar]]:
        """Each numerator as its monomial -> nonzero coefficient map."""
        if self.monomials is None:
            return [p.terms for p in self.numerators]
        return [dict(zip(itertools.compress(self.monomials, column),
                         filter(None, column))) for column in self.numerators]


def _oracle_start(system: PolySystem, order: int) -> _OracleState:
    """The identity map, to be stepped with degrees above order (at
    least 1) dropped. An exact state's basis is MonomialBasis(k, order),
    so an order whose basis is past BASIS_SIZE_LIMIT raises
    SizeLimitError, as solve does."""
    k = system.k
    degree = max(0, max(p.degree() for p in system.polys))
    if system.mode is not Mode.EXACT:
        return _OracleState([Poly.variable(k, l).scaled(system.mode.one)
                             for l in range(k)], 1, list(system.polys), 1,
                            degree, order)
    polys, scale = integer_scaled(system.polys)
    monomials = MonomialBasis(k, order).monomials
    keys = [functools.reduce(lambda key, e: key * (order + 1) + e, mono, 0)
            for mono in monomials]
    # basis positions 1..k are the variables
    return _OracleState(
        [[int(a == l + 1) for a in range(len(keys))] for l in range(k)],
        1, polys, scale, degree, order, monomials, keys,
        {key: a for a, key in enumerate(keys)}, list(map(sum, monomials)))


def _truncated_product(left: List[Tuple[int, int]],
                       right: Tuple[List[Tuple[int, int]], List[int]],
                       state: _OracleState) -> List[Tuple[int, int]]:
    """The nonzero (position, value) entries of left * right, degrees
    above the order dropped. left holds (position, value) entries; right
    is (entries, cuts), the other factor's nonzero (key, value) entries
    in basis order and cuts[r] the count of them of degree <= r. A left
    entry of degree d meets the first cuts[order - d], and each pair's
    position is read from its key sum."""
    keys, position, degrees = state.keys, state.position, state.degrees
    order = state.order
    entries, cuts = right
    out = [0] * len(keys)
    for a, x in left:
        ka = keys[a]
        for kb, y in itertools.islice(entries, cuts[order - degrees[a]]):
            out[position[ka + kb]] += x * y
    return [(a, x) for a, x in enumerate(out) if x]


def _list_step(state: _OracleState, polys: List[Poly]) -> List[List[int]]:
    """The basis-indexed lists of polys composed with the state's, degrees
    above the order dropped."""
    order = state.order
    factors, lowest = [], []
    for column in state.numerators:
        nonzero = [a for a, x in enumerate(column) if x]
        # grlex order: degrees ascend along the basis
        degrees = [state.degrees[a] for a in nonzero]
        factors.append(([(state.keys[a], column[a]) for a in nonzero],
                        [bisect.bisect_right(degrees, r)
                         for r in range(order + 1)]))
        lowest.append(degrees[0] if degrees else order + 1)
    product = prefix_products(
        len(factors), [(0, 1)],
        lambda left, s: _truncated_product(left, factors[s], state))
    numerators = []
    for p in polys:
        column = [0] * len(state.keys)
        for mono, c in within_cutoff(p.terms.items(), (), order, lowest):
            for a, x in product(mono):
                column[a] += c * x
        numerators.append(column)
    return numerators


def _oracle_step(state: _OracleState) -> _OracleState:
    """Compose the update map with the state, dropping degrees above the
    order, each distinct monomial's truncated state product formed once
    per step for all k equations. With D the denominator and g the
    system's degree, numerator p becomes the sum, over the terms c * m of
    polys[p], of c * D^(g - |m|) times the truncated product of the
    numerators for m, over the denominator scale * D^g; exact lists, made
    by _truncated_product, and that denominator are then divided by their
    common gcd. Float polynomials, over 1, multiply by compose_shared."""
    g = state.degree
    den_powers = [state.denominator ** e for e in range(g + 1)]
    polys = state.polys if state.denominator == 1 else [
        Poly._trusted(p.var_count, {m: c * den_powers[g - sum(m)]
                                    for m, c in p.terms.items()})
        for p in state.polys]
    if state.monomials is None:
        numerators = compose_shared(polys, state.numerators, state.order)
        total_terms = sum(len(p.terms) for p in numerators)
    else:
        numerators = _list_step(state, polys)
        total_terms = sum(len(column) - column.count(0)
                          for column in numerators)
    if total_terms > _ORACLE_TERM_LIMIT:
        raise SizeLimitError(
            f"symbolic iteration exceeded {_ORACLE_TERM_LIMIT} terms; "
            f"lower the step count or the degree cutoff")
    denominator = state.scale * den_powers[g]
    common = 1 if denominator == 1 else math.gcd(
        denominator, *itertools.chain.from_iterable(numerators))
    if common > 1:
        numerators = [[x // common for x in column] for column in numerators]
    return state._replace(numerators=numerators,
                          denominator=denominator // common)


def _exact_table_values(tables: Sequence[Dict[Monomial, ExpSum]], steps: int
                        ) -> Iterator[List[Dict[Monomial, Tuple[int, int]]]]:
    """Every cell of exact tables at i = 0..steps, as an integer pair.

    With Q the lcm of the denominators of all bases, a base p/q is
    m / Q with the integer m = p * (Q/q). A cell sum_j c_j b_j^i is then
    (sum_j r_j m_j^i) / (S Q^i), where S is the lcm of the cell's
    coefficient denominators and r_j = c_j S; scalars.over_lcm, which
    also backs the lcm sums of decompose and _integer_row, gives both.
    Each step advances one running power per distinct base and Q^i by
    one integer multiply, and yields (sum_j r_j m_j^i, S Q^i) per cell.
    """
    keys: Dict[Tuple[int, int], int] = {}
    cells = []
    for table in tables:
        row = {}
        for mono, exp_sum in table.items():
            numerators, lcd = over_lcm([c.as_integer_ratio()
                                        for _, c in exp_sum.terms])
            row[mono] = (lcd, [
                (keys.setdefault(b.as_integer_ratio(), len(keys)), r)
                for (b, _), r in zip(exp_sum.terms, numerators)])
        cells.append(row)
    multipliers, common = over_lcm(list(keys))
    powers = [1] * len(multipliers)
    common_power = 1
    for i in range(steps + 1):
        if i:
            powers = [x * m for x, m in zip(powers, multipliers)]
            common_power *= common
        yield [{mono: (sum(r * powers[j] for j, r in terms), lcd * common_power)
                for mono, (lcd, terms) in row.items()} for row in cells]


@dataclass(frozen=True)
class VerificationRow:
    step: int
    variable: str
    monomial: Monomial
    expected: Scalar
    got: Scalar
    error: float
    ok: bool


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """The verdict of verify(). by_step holds each step's max error and
    failing rows, all that describe() reads; rows, every compared cell in
    comparison order, is made by build_rows the first time it is read."""

    passed: bool
    max_discrepancy: float
    coordinates: str
    order: int
    steps: int
    by_step: Tuple[Tuple[float, Tuple[VerificationRow, ...]], ...]
    build_rows: Callable[[], Tuple[VerificationRow, ...]]

    @functools.cached_property
    def rows(self) -> Tuple[VerificationRow, ...]:
        return self.build_rows()

    def describe(self) -> str:
        lines = [f"coordinates: {self.coordinates}",
                 f"checked steps 0..{self.steps} at order {self.order}"]
        for i, (worst, failing) in enumerate(self.by_step):
            lines.append(f"i={i}: {'FAIL' if failing else 'PASS'} "
                         f"(max error {worst:.3g})")
            lines.extend(f"  {r.variable} {tuple(r.monomial)}: expected "
                         f"{format_scalar(r.expected)}, got "
                         f"{format_scalar(r.got)}" for r in failing)
        summary = f"max discrepancy {self.max_discrepancy:.3g}"
        if not self.passed:
            # the check is relative, so name the row furthest past it
            row = max((r for _, failing in self.by_step for r in failing),
                      key=lambda r: r.error / max(1.0, abs(r.expected)))
            summary += (f"; worst failing row: {row.variable} "
                        f"{tuple(row.monomial)} at i={row.step}, error "
                        f"{row.error:.3g}, relative "
                        f"{row.error / max(1.0, abs(row.expected)):.3g}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'} ({summary})")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "coordinates": self.coordinates,
            "order": self.order,
            "steps": self.steps,
            "passed": self.passed,
            "max_discrepancy": self.max_discrepancy,
            "rows": [{
                "i": r.step,
                "variable": r.variable,
                "monomial": list(r.monomial),
                "expected": scalar_to_json(r.expected),
                "got": scalar_to_json(r.got),
                "error": r.error,
                "ok": r.ok,
            } for r in self.rows],
        }


def _agreeing_rows(kept: list, zero: Scalar) -> Iterator[VerificationRow]:
    """verify's rows: a kept int is an agreeing exact numerator, else a row."""
    for i, name, monomials, cells, den in kept:
        for mono, cell in zip(monomials, cells):
            if isinstance(cell, int):
                expected = Fraction(cell, den) if cell else zero
                cell = VerificationRow(i, name, mono, expected, expected, 0.0, True)
            yield cell


def verify(solution: ClosedFormSolution, system: PolySystem,
           max_power: Optional[int] = None, tol: float = 1e-8
           ) -> VerificationReport:
    """Compare every stored coefficient against symbolic iteration, at
    steps 0..max_power (default: the solution's order; must be >= 0).

    The comparison runs in the shifted coordinates when the solution
    carries a nonzero offset (coefficients are exact there) and in the
    original coordinates otherwise. Exact mode demands equality, tested
    in integers as n * lcd * Q^i == S * D between the oracle's n / D and
    the closed form's S / (lcd * Q^i) (_exact_table_values); an agreeing
    cell is kept as n, its row built when report.rows is first read.
    Float mode allows relative error up to tol (finite, >= 0). One loop
    compares every cell at every step in both modes and settles each
    step's max error and failing rows. The oracle (_oracle_step) forms
    each distinct monomial's truncated product once for all k equations;
    an exact state is integer lists indexed by basis position, so an
    order whose basis is past BASIS_SIZE_LIMIT raises SizeLimitError.
    grlex_key sorts each table once.
    """
    steps = solution.order if max_power is None else max_power
    if steps < 0:
        raise CarlemanError(f"max_power must be >= 0, got {steps}")
    if not (math.isfinite(tol) and tol >= 0):
        raise CarlemanError(f"tolerance must be finite and >= 0, got {tol}")
    reduced = reduce_depth(system)
    if reduced.mode is not solution.mode:
        raise CarlemanError("solution and system modes differ")
    if reduced.k != solution.k:
        raise CarlemanError(
            f"solution covers {solution.k} variables, system has {reduced.k}")
    if any(x != 0 for x in solution.offsets):
        target = _moved(reduced, solution.transform)
        tables = solution.transformed
        coordinates = "transformed"
    else:
        target = reduced
        tables = solution.tables
        coordinates = "original"
    exact = solution.mode is Mode.EXACT
    zero = target.mode.zero
    # what a cell missing from the oracle or the table reads as
    absent, blank = (0, (0, 1)) if exact else (zero, zero)
    values = _exact_table_values(tables, steps) if exact else (
        [{m: s.evaluate(i) for m, s in table.items()} for table in tables]
        for i in range(steps + 1))
    table_orders = [sorted(table, key=grlex_key) for table in tables]

    # kept: each (step, variable)'s monomials and compared cells, an
    # agreeing exact cell as its numerator and every other as its row
    kept, by_step, worst = [], [], 0.0
    state = _oracle_start(target, solution.order)
    for i in range(steps + 1):
        oracle, den, table_values = state.terms(), state.denominator, next(values)
        rows = []
        for p, name in enumerate(solution.names):
            # order >= 1 and each step truncates at it: no degree filter
            terms, cells = oracle[p], table_values[p]
            monomials = (table_orders[p] if terms.keys() <= cells.keys() else
                         sorted(terms.keys() | cells.keys(), key=grlex_key))
            compared = []
            for mono, n, got in zip(
                    monomials, map(terms.get, monomials, itertools.repeat(absent)),
                    map(cells.get, monomials, itertools.repeat(blank))):
                if exact and n * got[1] == got[0] * den:
                    compared.append(n)
                    continue
                if exact:
                    expected, got = Fraction(n, den), Fraction(*got)
                    error, ok = float(abs(expected - got)), False
                else:
                    expected, error = n, abs(n - got)
                    ok = error <= tol * max(1.0, abs(n))
                rows.append(VerificationRow(i, name, mono, expected, got,
                                            error, ok))
                compared.append(rows[-1])
            kept.append((i, name, monomials, compared, den))
        errors = [row.error for row in rows]
        worst = max([worst] + errors)
        by_step.append((max(errors, default=0.0),
                        tuple(row for row in rows if not row.ok)))
        if i < steps:
            state = _oracle_step(state)
    return VerificationReport(
        not any(failing for _, failing in by_step), worst, coordinates,
        solution.order, steps, tuple(by_step),
        lambda: tuple(_agreeing_rows(kept, zero)))


# -- evaluation ------------------------------------------------------------------


def eval_direct(system: PolySystem, i: int,
                history: Sequence[Scalar]) -> List[Scalar]:
    """Ground-truth iteration. history holds the first n steps of every
    variable, chronologically: u_0 block, u_1 block, ..., u_{n-1} block.
    Returns the k values at step i (read straight from the history when
    i < n)."""
    k, n = system.k, system.depth
    if i < 0:
        raise ValueError(f"step index must be non-negative, got {i}")
    state = history_to_reduced_state(system, history)
    if i < n:
        return list(history[i * k:(i + 1) * k])
    update = system.polys
    for _ in range(n - 1, i):
        fresh = [p.evaluate(state) for p in update]
        state = fresh + state[:k * (n - 1)]
    return state[:k]


def history_to_reduced_state(system: PolySystem,
                             history: Sequence[Scalar]) -> List[Scalar]:
    """Initial state of the flattened system: newest history block first.
    Feeding this to a solution of reduce_depth(system) at step j yields
    the values at original step j + depth - 1."""
    k, n = system.k, system.depth
    if len(history) != n * k:
        raise ArityError(
            f"history needs {n * k} values ({n} steps of {k} variables), "
            f"got {len(history)}")
    state: List[Scalar] = []
    for j in range(n):
        state.extend(history[(n - 1 - j) * k:(n - j) * k])
    return state
