"""Shared generators for the test suite.

Random-system generators live here so the unit suites and the acceptance
suite draw from the same families.  Everything is seeded: reruns are
byte-for-byte identical.
"""

import random
from fractions import Fraction
from typing import List, Optional, Tuple

from hypothesis import settings

from carleman.poly import Poly
from carleman.systems import PolySystem
from carleman.scalars import Mode

settings.register_profile("suite", deadline=None, derandomize=True)
settings.load_profile("suite")

PRIMES = (2, 3, 5)


def random_fraction(rng: random.Random, bound: int = 5,
                    allow_zero: bool = True) -> Fraction:
    num = rng.randint(-bound, bound)
    if not allow_zero:
        while num == 0:
            num = rng.randint(-bound, bound)
    den = rng.randint(1, bound)
    return Fraction(num, den)


def random_monomial(rng: random.Random, k: int, degree: int) -> Tuple[int, ...]:
    mono = [0] * k
    for _ in range(degree):
        mono[rng.randrange(k)] += 1
    return tuple(mono)


def random_triangular_system(rng: random.Random,
                             k: Optional[int] = None) -> PolySystem:
    """Zero-constant system with an upper-triangular linear part whose
    eigenvalues are signed prime powers, so every monomial up to any
    truncation order lands on a distinct eigenvalue product. k is drawn
    from 1..3 unless given."""
    if k is None:
        k = rng.randint(1, 3)
    power_sign = [rng.choice((1, -1)) for _ in range(k)]
    diag = [Fraction(PRIMES[j]) ** power_sign[j] for j in range(k)]
    polys: List[Poly] = []
    for row in range(k):
        terms = {}
        unit = [0] * k
        unit[row] = 1
        terms[tuple(unit)] = diag[row]
        for col in range(row + 1, k):
            if rng.random() < 0.6:
                coeff = random_fraction(rng, allow_zero=False)
                unit = [0] * k
                unit[col] = 1
                terms[tuple(unit)] = coeff
        for _ in range(rng.randint(1, 3)):
            degree = rng.randint(2, 3)
            mono = random_monomial(rng, k, degree)
            coeff = random_fraction(rng, allow_zero=False)
            terms[mono] = terms.get(mono, Fraction(0)) + coeff
        terms = {m: c for m, c in terms.items() if c != 0}
        polys.append(Poly(k, terms))
    return PolySystem(k=k, depth=1, polys=tuple(polys), mode=Mode.EXACT)


def random_upper_triangular(rng: random.Random, size: int,
                            entry_bound: int = 5) -> List[List[Fraction]]:
    """Exact upper-triangular matrix with distinct nonzero diagonal."""
    diagonal: List[Fraction] = []
    seen = set()
    while len(diagonal) < size:
        value = random_fraction(rng, entry_bound, allow_zero=False)
        if value not in seen:
            seen.add(value)
            diagonal.append(value)
    rows = []
    for b in range(size):
        row = [Fraction(0)] * size
        row[b] = diagonal[b]
        for a in range(b + 1, size):
            if rng.random() < 0.7:
                row[a] = random_fraction(rng, entry_bound)
        rows.append(row)
    return rows


def random_dsl_system(rng: random.Random) -> str:
    """DSL text for a random system: used for parser round-trips."""
    k = rng.randint(1, 3)
    depth = rng.randint(1, 2)
    names = [f"x{j + 1}" for j in range(k)]
    lines = ["vars: " + ", ".join(names)]
    for p in range(k):
        pieces = []
        for _ in range(rng.randint(1, 5)):
            coeff = random_fraction(rng, 9, allow_zero=False)
            factors = []
            for _ in range(rng.randint(0, 3)):
                var = rng.randrange(k)
                lag = rng.randint(1, depth)
                exponent = rng.randint(1, 3)
                ref = f"{names[var]}[i-{lag}]"
                factors.append(ref if exponent == 1 else f"{ref}^{exponent}")
            term = str(coeff) if not factors else "*".join(factors)
            if factors and coeff != 1:
                term = f"{coeff}*{term}"
            pieces.append(term)
        rhs = pieces[0]
        for piece in pieces[1:]:
            if piece.startswith("-"):
                rhs += " - " + piece[1:]
            else:
                rhs += " + " + piece
        lines.append(f"{names[p]}[i] = {rhs}")
    return "\n".join(lines) + "\n"
