"""Seeded inputs for the three benchmark workloads.

Every workload is an endless sequence of cases drawn from one
``Dealer(seed)``: the same seed always gives the same `.rec` texts,
flags and expected outcomes. A measured run takes the first ``SET_SIZE``
of them as its input set. Choices are dealt from shuffled decks rather
than drawn independently, so every run of a few cycles holds about the
same mix of eigenvalues and coefficients whatever the seed, and the
medians move with the program, not with the seed. The program under test only ever sees the
generated text and flags; this module builds them with its own small
polynomial arithmetic and never imports ``carleman``.

Why each workload exists (which layer it loads, which it bypasses):

sparse-wide
    Library ``solve`` then exact ``verify`` on k=3 systems with a diagonal
    linear part and one or two quadratic terms per equation (one pattern,
    variables relabelled at random). Eigenvalues
    are +-p or +-1/p for distinct primes p, so eigenvalue products never
    collide and every system is admissible by construction. Case 0 is the
    fixed ``tri3`` system at N=9 (n=220); the rest are N=8 (n=165), which
    keeps the per-system median inside one size class. T is 2.4% full for
    tri3 and 4% for the others.
    Loads ``triangular.decompose`` (about 83% of ``solve`` with dense P), so
    it shows a sparse triangular core and any memory saved by not storing
    dense matrices. Bypasses the basis change and the pullback through a
    non-identity transform.

dense-pullback
    Library ``solve`` then exact ``verify`` with ``max_power`` equal to the
    order, on k=2 systems: a triangular system conjugated by a random
    unimodular integer matrix A and solved with ``matrix=A``. Case 0 is the
    fixed ``coupled`` sample with A=[[1,2],[-3,-5]] at N=10 (n=66); the rest
    are N=8 (n=45), one size class for a steady median. T is 23% full for
    the fixed case and about 33% for the others. Loads ``solver._assemble``
    (the pullback) and ``verify``'s ``Poly.compose``; a sparse-core change
    should move it less than sparse-wide, assemble or verify work more.

cli-mix
    Sequential ``python -m carleman.cli`` calls on small systems in a fixed
    cycle of solve, verify, verify --solution, matrix, transform and eval,
    text and json, about a third in float mode. Loads interpreter start,
    ``import carleman``, the parser, the ``systems`` transforms and CLI
    rendering; bypasses the heavy stages, so a sparse-core change should
    show no change here. Stored-solution verify reads through ``from_json``
    and the oracle without solving. A few inputs are built to be refused:
    colliding eigenvalue products exit 2 and a syntax error exits 1.

    Known defect kept visible: float ``verify`` fails on coupled-type k=2
    systems from order 4 or 5, because the float exp-sum coefficients
    cancel (terms grow to about 1e9 times the value they sum to at order 6).
    Each cycle runs float ``verify`` at every order 2..8 on such a system,
    so ``fail_ratio`` on cli-mix is above 0 with the package as it stands,
    and only from these calls. In the first cycle, seed 1 fails from order
    6, and seeds 2 and 3 from order 7.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, Optional, Sequence, Tuple

WORKLOADS = ("sparse-wide", "dense-pullback", "cli-mix")

# Exit codes of the CLI contract.
EXIT_OK, EXIT_PARSE, EXIT_SOLVER, EXIT_VERIFY = 0, 1, 2, 3

Monomial = Tuple[int, ...]
Poly = Dict[Monomial, Fraction]

TRI3 = ("vars: x, y, z\n"
        "x[i] = 2*x[i-1] + y[i-1]^2\n"
        "y[i] = 3*y[i-1] + x[i-1]*z[i-1]\n"
        "z[i] = 5*z[i-1] + x[i-1]^2\n")

# docs/samples/coupled_quadratic.rec, whose linear part has eigenvalues 2, 3
COUPLED = ("vars: u, v\n"
           "u[i] = 8*u[i-1] + 10*v[i-1] + u[i-1]^2 + 3*u[i-1]*v[i-1] + v[i-1]^2\n"
           "v[i] = -3*u[i-1] - 3*v[i-1] + u[i-1]^2 - u[i-1]*v[i-1] + v[i-1]^2\n")
COUPLED_A = ((1, 2), (-3, -5))


@dataclass(frozen=True)
class CliOp:
    """One CLI call: ``python -m carleman.cli <argv>`` with the case's text
    on stdin (the input argument is ``-``).

    ``expect`` is the exit code a correct program gives. ``allowed`` adds
    codes that are an honest outcome rather than a wrong answer: float
    ``verify`` may report FAIL (exit 3), which counts as a failed operation
    but not as a broken check. ``stored`` appends ``--solution <file>``
    holding the library solution of the case. ``check`` names an extra
    output check: "verdict" (the printed PASS/FAIL agrees with the exit
    code), "solution-text" or "solution-json" (stdout equals the library
    rendering of the same solve).
    """

    argv: Tuple[str, ...]
    expect: int = EXIT_OK
    allowed: Tuple[int, ...] = ()
    stored: bool = False
    check: Optional[str] = None


@dataclass(frozen=True)
class Case:
    """One system: a library solve+verify (``library`` is the expected
    outcome: "pass", "parse-error" or "refused") and its CLI calls."""

    label: str
    text: str
    mode: str
    order: int
    matrix: Optional[Tuple[Tuple[int, ...], ...]]
    library: str
    cli: Tuple[CliOp, ...]
    fixed: bool = False


# -- polynomial text --------------------------------------------------------------


def _unit(slots: int, j: int) -> Monomial:
    return tuple(1 if t == j else 0 for t in range(slots))


def _add(p: Poly, mono: Monomial, coeff: Fraction) -> None:
    value = p.get(mono, Fraction(0)) + coeff
    if value:
        p[mono] = value
    else:
        p.pop(mono, None)


def _render(names: Sequence[str], polys: Sequence[Poly]) -> str:
    """DSL text; slot j*k + l is variable l at lag j+1 (the parser's order)."""
    k = len(names)
    lines = ["vars: " + ", ".join(names)]
    for name, poly in zip(names, polys):
        pieces = []
        for mono in sorted(poly, key=lambda m: (-sum(m), tuple(-e for e in m))):
            coeff = poly[mono]
            factors = []
            for slot, e in enumerate(mono):
                if e:
                    ref = f"{names[slot % k]}[i-{slot // k + 1}]"
                    factors.append(ref if e == 1 else f"{ref}^{e}")
            body = "*".join([str(abs(coeff))] + factors)
            if not pieces:
                pieces.append(body if coeff > 0 else "-" + body)
            else:
                pieces.append(("+ " if coeff > 0 else "- ") + body)
        lines.append(f"{name}[i] = " + " ".join(pieces))
    return "\n".join(lines) + "\n"


class Dealer(random.Random):
    """A seeded ``random.Random`` whose ``deal`` takes choices from
    shuffled decks: every option comes up once before any comes up twice.
    Repeating an option in ``options`` weights it."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self._decks: Dict[tuple, list] = {}

    def deal(self, options: Sequence):
        key = tuple(options)
        deck = self._decks.get(key)
        if not deck:
            deck = list(key)
            self.shuffle(deck)
            self._decks[key] = deck
        return deck.pop()


_SMALL = tuple(Fraction(x) for x in ("1", "-1", "2", "-2", "3", "1/2", "-1/2"))
_K2_QUADRATICS = ((2, 0), (1, 1), (0, 2))
_PRIMES = (2, 3, 5, 7)
# weighted yes/no decks: one in four, seven in ten, one in two
_QUARTER = (True, False, False, False)
_SEVEN_IN_TEN = (True,) * 7 + (False,) * 3
_HALF = (True, False)


def _coprime_eigenvalues(rng: Dealer, k: int,
                         primes: Sequence[int] = _PRIMES,
                         inverses: bool = True) -> Tuple[Fraction, ...]:
    """+-p or +-1/p for k distinct primes: products never collide."""
    out = []
    chosen = rng.deal(tuple(itertools.combinations(primes, k)))
    for p in rng.deal(tuple(itertools.permutations(chosen))):
        value = (Fraction(1, p) if inverses and rng.deal(_QUARTER)
                 else Fraction(p))
        out.append(value if rng.deal(_SEVEN_IN_TEN) else -value)
    return tuple(out)


def _conjugate(tri: Sequence[Poly], a: Sequence[Sequence[int]]) -> Tuple[Poly, ...]:
    """F(x) = A^-1 G(A x) for a depth-one k=2 map G of degree <= 2, so that
    the solver's transform z' = A z turns F back into G."""
    (a00, a01), (a10, a11) = a
    det = a00 * a11 - a01 * a10
    assert det in (1, -1), "A must be unimodular"
    a_inv = ((a11 * det, -a01 * det), (-a10 * det, a00 * det))
    images = [{m: Fraction(c) for m, c in (((1, 0), row[0]), ((0, 1), row[1]))
               if c} for row in a]

    def substitute(g: Poly) -> Poly:
        out: Poly = {}
        for mono, coeff in g.items():
            piece: Poly = {(0, 0): coeff}
            for var, e in enumerate(mono):
                for _ in range(e):
                    nxt: Poly = {}
                    for m1, c1 in piece.items():
                        for m2, c2 in images[var].items():
                            _add(nxt, (m1[0] + m2[0], m1[1] + m2[1]), c1 * c2)
                    piece = nxt
            for m, c in piece.items():
                _add(out, m, c)
        return out

    pulled = [substitute(g) for g in tri]
    result = []
    for p in range(2):
        acc: Poly = {}
        for q in range(2):
            for m, c in pulled[q].items():
                _add(acc, m, c * a_inv[p][q])
        result.append(acc)
    return tuple(result)


def _unimodular(rng: Dealer, shears: Sequence[int] = (1, -1, 2, -2)
                ) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """[[1,s],[0,1]] @ [[1,0],[t,1]] with s, t from ``shears``, one row
    negated half the time: det is +-1."""
    s, t = rng.deal(tuple(itertools.product(shears, shears)))
    rows = [(1 + s * t, s), (t, 1)]
    if rng.deal(_HALF):
        r = rng.deal((0, 1))
        rows[r] = tuple(-x for x in rows[r])
    return rows[0], rows[1]


def _triangular_k2(rng: Dealer, full: bool,
                   inverses: bool = True) -> Tuple[Poly, Poly]:
    """Upper-triangular linear part with coprime eigenvalues plus quadratic
    terms (all three per equation when ``full``)."""
    lam1, lam2 = _coprime_eigenvalues(rng, 2, (2, 3, 5), inverses)
    g0: Poly = {(1, 0): lam1}
    g1: Poly = {(0, 1): lam2}
    upper = rng.deal((Fraction(0), Fraction(1), Fraction(-1), Fraction(2)))
    if upper:
        g0[(0, 1)] = upper
    for g in (g0, g1):
        monos = (_K2_QUADRATICS if full
                 else rng.deal(tuple(itertools.combinations(_K2_QUADRATICS, 2))))
        for mono in monos:
            g[mono] = rng.deal(_SMALL)
    return g0, g1


# -- sparse-wide --------------------------------------------------------------------


# The quadratic terms of the random sparse-wide systems: two in the first
# equation, one in each of the others, with the variables relabelled at
# random. Which monomials appear sets the cost of a system (verify differs
# by 9x between patterns with the same term count), so one pattern up to
# relabelling keeps the per-system median steady from seed to seed; the
# seed picks the relabelling, the eigenvalues and the coefficients.
_SPARSE_PATTERN = (((0, 2, 0), (1, 0, 1)), ((0, 0, 2),), ((1, 1, 0),))


def _sparse_system(rng: Dealer) -> str:
    eigs = _coprime_eigenvalues(rng, 3)
    # variable l of the pattern becomes perm[l]
    perm = rng.deal(tuple(itertools.permutations(range(3))))
    polys: list = [None] * 3
    for l, quads in enumerate(_SPARSE_PATTERN):
        poly: Poly = {_unit(3, perm[l]): eigs[l]}
        for mono in quads:
            relabelled = [0, 0, 0]
            for var, e in enumerate(mono):
                relabelled[perm[var]] = e
            poly[tuple(relabelled)] = rng.deal(_SMALL)
        polys[perm[l]] = poly
    return _render(("x", "y", "z"), polys)


def _library_case(label: str, text: str, order: int, matrix=None,
                  fixed: bool = False) -> Case:
    # the stored solution is re-checked from the command line at the CLI's
    # default step count: the from_json path plus the oracle, no solve
    return Case(label=label, text=text, mode="exact", order=order,
                matrix=matrix, library="pass", fixed=fixed,
                cli=(CliOp(("verify", "-"), stored=True, check="verdict"),))


def sparse_wide(seed: int) -> Iterator[Case]:
    rng = Dealer(seed)
    yield _library_case("tri3-N9", TRI3, 9, fixed=True)
    index = 1
    while True:
        yield _library_case(f"sparse-{index}-N8", _sparse_system(rng), 8)
        index += 1


# -- dense-pullback -----------------------------------------------------------------


def dense_pullback(seed: int) -> Iterator[Case]:
    rng = Dealer(seed)
    yield _library_case("coupled-N10", COUPLED, 10, matrix=COUPLED_A, fixed=True)
    index = 1
    while True:
        a = _unimodular(rng)
        text = _render(("u", "v"), _conjugate(_triangular_k2(rng, True), a))
        yield _library_case(f"pullback-{index}-N8", text, 8, matrix=a)
        index += 1


# -- cli-mix ------------------------------------------------------------------------


def _univariate_with_constant(rng: Dealer) -> str:
    """u' = r + lam (u - r) + b (u - r)^2: the rational fixed point r has
    eigenvalue lam; the other fixed point has 2 - lam, which is sometimes
    inadmissible, so the candidate search has work to do."""
    r = rng.deal((Fraction(1, 2), Fraction(-1), Fraction(2), Fraction(1, 3),
                    Fraction(-3, 2)))
    lam = rng.deal((Fraction(2), Fraction(3), Fraction(-2), Fraction(1, 2),
                      Fraction(-3)))
    b = rng.deal((Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2)))
    poly: Poly = {}
    _add(poly, (0,), r - lam * r + b * r * r)
    _add(poly, (1,), lam - 2 * b * r)
    _add(poly, (2,), b)
    return _render(("u",), [poly])


def _logistic(rng: Dealer) -> str:
    """u' = lam u + b u^2, the shape of the shipped logistic sample."""
    lam = rng.deal((Fraction(2), Fraction(3), Fraction(-2), Fraction(1, 2),
                      Fraction(5)))
    return _render(("u",), [{(1,): lam, (2,): rng.deal(_SMALL)}])


def _depth_two(rng: Dealer) -> str:
    """u[i] = (l1 + l2) u[i-1] - l1 l2 u[i-2] + quadratic terms: rational
    eigenvalues, a non-triangular companion matrix after flattening."""
    l1, l2 = _coprime_eigenvalues(rng, 2, (2, 3, 5))
    poly: Poly = {(1, 0): l1 + l2, (0, 1): -l1 * l2}
    poly = {m: c for m, c in poly.items() if c}
    _add(poly, (2, 0), rng.deal(_SMALL))
    if rng.deal(_HALF):
        _add(poly, (1, 1), rng.deal(_SMALL))
    return _render(("u",), [poly])


def _fibonacci_like(rng: Dealer) -> str:
    """u[i] = u[i-1] + u[i-2] + c u[i-1]^2: irrational eigenvalues, so only
    float mode applies; phi * psi = -1 makes products collide at order 4."""
    c = rng.deal((Fraction(1, 10), Fraction(-1, 10), Fraction(1, 5),
                    Fraction(1, 4), Fraction(-1, 8)))
    return _render(("u",), [{(1, 0): Fraction(1), (0, 1): Fraction(1),
                             (2, 0): c}])


def _colliding(rng: Dealer) -> str:
    """Diagonal eigenvalues p and p^2: u^2 and v share the product p^2."""
    p = rng.deal((2, 3, -2))
    polys = [{(1, 0): Fraction(p), (0, 2): rng.deal(_SMALL)},
             {(0, 1): Fraction(p * p), (1, 1): rng.deal(_SMALL)}]
    return _render(("u", "v"), polys)


def _syntax_error(text: str) -> str:
    """Drop the first '*' after a coefficient: '2*u[i-1]' becomes '2u[i-1]'."""
    cut = text.index("*")
    return text[:cut] + text[cut + 1:]


_VERIFY_FLOAT = (EXIT_OK, EXIT_VERIFY)


def _flags(mode: str, order: int, matrix) -> Tuple[str, ...]:
    flags = ("--order", str(order), "--mode", mode)
    if matrix is not None:
        flags += ("--matrix-a", json.dumps([list(r) for r in matrix]))
    return flags


def _mix_cycle(rng: Dealer, cycle: int) -> Iterator[Case]:
    def case(label, text, mode, order, ops, matrix=None, library="pass"):
        """ops are (command, extra args, order or None, CliOp keywords)."""
        cli = tuple(
            CliOp((cmd, "-") + _flags(mode, op_order or order, matrix) + extra,
                  **kw)
            for cmd, extra, op_order, kw in ops)
        return Case(label=f"{label}-{cycle}", text=text, mode=mode,
                    order=order, matrix=matrix, library=library, cli=cli)

    text_check = {"check": "solution-text"}
    json_check = {"check": "solution-json"}
    verdict = {"check": "verdict"}
    float_verdict = {"check": "verdict", "allowed": _VERIFY_FLOAT}

    yield case("uni-shift", _univariate_with_constant(rng), "exact", 12, (
        ("solve", (), None, text_check),
        ("transform", (), None, {}),
        ("verify", ("--format", "json"), None, verdict),
        ("eval", ("--index", "6", "--z0", "1/10"), None, {})))

    yield case("logistic", _logistic(rng), "exact", 20, (
        ("solve", ("--shift", "none"), None, text_check),
        ("verify", ("--shift", "none", "--format", "json"), None, verdict)))

    yield case("depth2", _depth_two(rng), "exact", 3, (
        ("solve", ("--format", "json"), None, json_check),
        ("verify", (), None, dict(verdict, stored=True)),
        ("matrix", (), None, {})))

    yield case("fib-float", _fibonacci_like(rng), "float", 3, (
        ("solve", (), None, text_check),
        ("verify", (), None, float_verdict),
        ("eval", ("--format", "json", "--index", "8", "--z0", "1/10,1/5"),
         None, {}),
        ("solve", (), 4, {"expect": EXIT_SOLVER})))

    yield case("k2-tri", _render(("u", "v"), _triangular_k2(rng, False)),
               "exact", 6, (
        ("solve", (), None, text_check),
        ("matrix", ("--format", "json"), None, {}),
        ("transform", ("--format", "json"), None, {}),
        ("verify", (), None, verdict)))

    a = _unimodular(rng)
    yield case("k2-pullback",
               _render(("u", "v"), _conjugate(_triangular_k2(rng, True), a)),
               "exact", 5, (
        ("solve", ("--format", "json"), None, json_check),
        ("verify", (), None, dict(verdict, stored=True)),
        ("eval", ("--index", "5", "--z0", "1/10,-1/10"), None, {}),
        ("transform", (), None, {})), matrix=a)

    # the known float defect: a correct program passes all seven. Integer
    # eigenvalues and a basis change with entries up to 10, as in the
    # coupled sample, make the float coefficients cancel from order 4-6.
    a = _unimodular(rng, (2, -2, 3, -3))
    yield case("k2-float",
               _render(("u", "v"),
                       _conjugate(_triangular_k2(rng, True, inverses=False), a)),
               "float", 5, tuple(
        ("verify", ("--max-power", str(n)), n, float_verdict)
        for n in range(2, 9)), matrix=a)

    yield case("collide", _colliding(rng), "exact", 3, (
        ("solve", (), None, {"expect": EXIT_SOLVER}),
        ("verify", (), None, {"expect": EXIT_SOLVER})), library="refused")

    # built from a refused system's generator, so that it deals no choice
    # from the decks of the systems whose library timings make the medians
    yield case("syntax", _syntax_error(_colliding(rng)),
               "exact", 3, (
        ("solve", (), None, {"expect": EXIT_PARSE}),
        ("transform", ("--format", "json"), None, {"expect": EXIT_PARSE})),
               library="parse-error")


def cli_mix(seed: int) -> Iterator[Case]:
    rng = Dealer(seed)
    cycle = 0
    while True:
        yield from _mix_cycle(rng, cycle)
        cycle += 1


# A timed run stops only between cycles, so every cli-mix run holds whole
# mixes and its medians do not depend on where the clock ran out. The
# orders are chosen so that the medians fall inside one steady group of
# systems, not in a gap between two: most of the seven systems that solve
# take 30-60 ms (the univariate ones at high order, as in the logistic
# N=20 case), and uni-shift's verify sits alone in the middle.
CYCLE = {"sparse-wide": 1, "dense-pullback": 1, "cli-mix": 9}

# Cases in the input set of a measured run: each runs once, and then the
# set repeats until the run's time is up, so which operations a run
# attempts (and which of them fail) is fixed by the seed. One pass over
# the set takes 22-28 s on a 2-core x86 host, most of a 30 s run, so the
# medians rest on as many distinct systems as the time allows: the tri3
# case and seven N=8 systems, the coupled case and sixteen N=8 systems,
# five cli-mix cycles.
SET_SIZE = {"sparse-wide": 8, "dense-pullback": 17, "cli-mix": 5 * 9}

# Cases per pass of the traced run: the fixed case and a few more for the
# library workloads, one full cycle for cli-mix.
TRACE_PASS = {"sparse-wide": 3, "dense-pullback": 3, "cli-mix": 9}

_GENERATORS = {"sparse-wide": sparse_wide, "dense-pullback": dense_pullback,
               "cli-mix": cli_mix}


def cases(workload: str, seed: int) -> Iterator[Case]:
    return _GENERATORS[workload](seed)
