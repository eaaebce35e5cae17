"""Sparse polynomial arithmetic against schoolbook oracles."""

import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from carleman import ArityError, ZeroPolynomialError
from carleman.poly import (
    Poly, affine_images, complex_roots, compose_shared, grlex_key,
    rational_roots, univariate_coeffs,
)

from oracles import pairwise_mul_truncated, power_compose

coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=7)
monos2 = st.tuples(st.integers(0, 3), st.integers(0, 3))
poly2 = st.dictionaries(monos2, coeffs, max_size=6).map(
    lambda terms: Poly(2, {m: c for m, c in terms.items() if c != 0}))


def x_poly(terms):
    """Univariate helper: {exponent: coeff} with int/Fraction values."""
    return Poly(1, {(e,): Fraction(c) for e, c in terms.items() if c != 0})


def schoolbook_mul(a: Poly, b: Poly) -> Poly:
    out = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            key = tuple(x + y for x, y in zip(ma, mb))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return Poly(a.var_count, {m: c for m, c in out.items() if c != 0})


# -- construction and canonical form ------------------------------------------


def test_constructors():
    z = Poly.zero(3)
    assert z.is_zero() and z.var_count == 3
    c = Poly.constant(2, Fraction(5))
    assert c.terms == {(0, 0): Fraction(5)}
    v = Poly.variable(2, 1)
    assert v.terms == {(0, 1): Fraction(1)}
    m = Poly(2, {(1, 2): Fraction(-3), (0, 1): Fraction(0)})
    assert m.terms == {(1, 2): Fraction(-3)}


def test_zero_coefficients_never_stored():
    p = x_poly({2: 1}) - x_poly({2: 1})
    assert p.terms == {}
    q = x_poly({1: 1, 2: 1}).mul_truncated(x_poly({0: 0}))
    assert q.is_zero()
    # products, sums and compositions that cancel or underflow to zero
    tiny = Poly(1, {(1,): 1e-200 + 0j})
    assert tiny.mul_truncated(tiny).terms == {}
    r = x_poly({1: 1, 2: 1}).mul_truncated(x_poly({0: 1, 1: -1}))
    assert r.terms == {(1,): 1, (3,): -1}
    s = compose_shared([x_poly({1: 1, 2: 1})], [x_poly({1: 1})])[0] \
        + x_poly({1: -1, 2: -1})
    assert s.terms == {}
    t = compose_shared([x_poly({2: 1, 1: 2})], [x_poly({0: -2})])[0]
    assert t.terms == {}


def test_add_requires_same_arity():
    with pytest.raises(ArityError):
        Poly.zero(2) + Poly.zero(3)


def test_grlex_order_two_vars():
    expected = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert sorted(expected, key=grlex_key) == expected
    keys = [grlex_key(m) for m in expected]
    assert keys == sorted(keys)


def test_total_degree():
    # a monomial's total degree is sum(m); grlex and Poly.degree rank by it
    m = (2, 0, 3)
    assert grlex_key(m)[0] == sum(m) == 5
    assert Poly(3, {m: Fraction(1)}).degree() == sum(m)


# -- products ------------------------------------------------------------------


def test_square_of_logistic_rhs_truncated():
    p = x_poly({1: 2, 2: -2})
    square = p.mul_truncated(p, max_degree=4)
    assert square.terms == {(2,): Fraction(4), (3,): Fraction(-8),
                            (4,): Fraction(4)}


@given(poly2, poly2)
def test_mul_matches_schoolbook(a, b):
    assert a.mul_truncated(b) == schoolbook_mul(a, b)


@given(poly2, poly2, st.integers(0, 4))
def test_mul_truncation_commutes(a, b, cap):
    assert a.mul_truncated(b, max_degree=cap) == \
        Poly(2, {m: c for m, c in schoolbook_mul(a, b).terms.items()
                 if sum(m) <= cap})


def as_float(p: Poly) -> Poly:
    return Poly(p.var_count, {m: complex(c) for m, c in p.terms.items()})


@given(poly2, poly2, st.one_of(st.none(), st.integers(0, 6)), st.booleans())
def test_mul_matches_pairwise_loop(a, b, cap, floating):
    # the same terms in the same order, so float sums keep every bit
    if floating:
        a, b = as_float(a), as_float(b)
    got = a.mul_truncated(b, cap)
    want = pairwise_mul_truncated(a, b, cap)
    assert repr(got) == repr(want)
    assert list(got.terms) == list(want.terms)
    assert [repr(c) for c in got.terms.values()] == \
        [repr(c) for c in want.terms.values()]


@given(poly2, st.integers(0, 3), st.integers(0, 3))
def test_pow_splits_multiplicatively(p, a, b):
    lhs = p.pow_truncated(a + b)
    rhs = p.pow_truncated(a).mul_truncated(p.pow_truncated(b))
    assert lhs == rhs


def test_pow_zero_is_one():
    p = x_poly({1: 3, 3: -1})
    assert p.pow_truncated(0) == Poly.constant(1, Fraction(1))
    assert Poly.zero(2).pow_truncated(0) == Poly.constant(2, Fraction(1))


# -- substitution ----------------------------------------------------------------


def test_binomial_shift():
    # (x + 1)^2 = x^2 + 2x + 1
    p = x_poly({2: 1})
    shifted = compose_shared([p], affine_images([[Fraction(1)]], [Fraction(1)]))[0]
    assert shifted.terms == {(0,): Fraction(1), (1,): Fraction(2),
                             (2,): Fraction(1)}


@given(poly2)
def test_identity_substitution(p):
    eye = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert compose_shared([p], affine_images(eye, [Fraction(0), Fraction(0)]))[0] == p


@given(poly2)
def test_compose_with_variables_is_identity(p):
    args = [Poly.variable(2, 0), Poly.variable(2, 1)]
    assert compose_shared([p], args)[0] == p


@given(poly2, st.tuples(coeffs, coeffs))
def test_substitution_commutes_with_evaluation(p, point):
    # evaluating A.z + B then p == evaluating the substituted poly at z
    matrix = [[Fraction(2), Fraction(1)], [Fraction(0), Fraction(-1)]]
    offset = [Fraction(1, 2), Fraction(3)]
    z = list(point)
    moved = [matrix[r][0] * z[0] + matrix[r][1] * z[1] + offset[r]
             for r in range(2)]
    moved_poly = compose_shared([p], affine_images(matrix, offset))[0]
    assert moved_poly.evaluate(z) == p.evaluate(moved)


def test_compose_skips_terms_that_start_above_the_cutoff(monkeypatch):
    # without constant terms, x0^a * x1^b composes to degree >= a + 2b
    p = Poly(2, {(a, b): Fraction(a - b + 7) for a in range(7)
                 for b in range(7)})
    args = [Poly(2, {(1, 0): Fraction(1), (0, 1): Fraction(2)}),
            Poly(2, {(1, 1): Fraction(-1), (0, 2): Fraction(3)})]
    full = compose_shared([p], args)[0]
    expected = Poly(2, {m: c for m, c in full.terms.items() if sum(m) <= 3})
    calls = []
    multiply = Poly.mul_truncated

    def counting(self, other, max_degree=None):
        calls.append(max_degree)
        return multiply(self, other, max_degree)

    monkeypatch.setattr(Poly, "mul_truncated", counting)
    assert compose_shared([p], args, 3)[0] == expected
    # multiplying a piece for every nonconstant term takes 48 calls; only
    # the 6 terms with a + 2b <= 3 need any
    assert len(calls) < len(p.terms) - 1


def test_compose_shared_matches_compose_and_skips_past_the_cutoff(monkeypatch):
    p = Poly(2, {(a, b): Fraction(a - b + 7) for a in range(7)
                 for b in range(7)})
    q = Poly(2, {(a, 0): Fraction(a + 1) for a in range(5)})
    args = [Poly(2, {(1, 0): Fraction(1), (0, 1): Fraction(2)}),
            Poly(2, {(1, 1): Fraction(-1), (0, 2): Fraction(3)})]
    for cap in (None, 3, 6):
        assert compose_shared([p, q], args, cap) == \
            [power_compose(p, args, cap), power_compose(q, args, cap)]
        assert compose_shared([p], args, cap)[0] == power_compose(p, args, cap)
    calls = []
    multiply = Poly.mul_truncated

    def counting(self, other, max_degree=None):
        calls.append(max_degree)
        return multiply(self, other, max_degree)

    monkeypatch.setattr(Poly, "mul_truncated", counting)
    compose_shared([p, q], args, 3)
    # one product per monomial x0^a * x1^b with a + 2b <= 3, the
    # constant aside: (1, 0), (2, 0), (3, 0) and (0, 1), (1, 1)
    assert len(calls) == 5


def test_compose_of_a_high_power_runs_without_recursion():
    # the product table walks down to the nearest stored prefix in a loop,
    # so a power beyond the recursion limit composes like a small one
    p = x_poly({3000: 1})
    shifted = compose_shared([p], affine_images([[Fraction(1)]], [Fraction(1)]), 2)[0]
    assert shifted.terms == {(0,): 1, (1,): 3000, (2,): math.comb(3000, 2)}


# -- evaluation and calculus ------------------------------------------------------


@given(poly2, poly2, st.tuples(coeffs, coeffs))
def test_evaluate_is_ring_homomorphism(a, b, point):
    z = list(point)
    assert (a + b).evaluate(z) == a.evaluate(z) + b.evaluate(z)
    assert a.mul_truncated(b).evaluate(z) == a.evaluate(z) * b.evaluate(z)


def test_evaluate_arity_check():
    with pytest.raises(ArityError):
        Poly.variable(2, 0).evaluate([Fraction(1)])


def test_derivative_product_rule():
    a = x_poly({1: 2, 2: -2})
    b = x_poly({0: 1, 3: 5})
    lhs = a.mul_truncated(b).derivative(0)
    rhs = a.derivative(0).mul_truncated(b) + a.mul_truncated(b.derivative(0))
    assert lhs == rhs


def test_univariate_coeffs():
    p = x_poly({0: 7, 2: -1})
    assert univariate_coeffs(p) == [Fraction(7), Fraction(0), Fraction(-1)]


# -- root finding ----------------------------------------------------------------


def test_rational_roots_of_shift_polynomial():
    # x^3 + 2x^2 + x - x: the fixed-point equation of the cubic example
    p = x_poly({3: 1, 2: 2})
    assert rational_roots(p) == [Fraction(-2), Fraction(0)]


def test_rational_roots_misses_irrationals_quietly():
    p = x_poly({2: 1, 0: -2})  # x^2 - 2
    assert rational_roots(p) == []


def test_rational_roots_verified_candidates():
    # 6x^2 - 5x + 1 = (2x-1)(3x-1)
    p = x_poly({2: 6, 1: -5, 0: 1})
    assert rational_roots(p) == [Fraction(1, 3), Fraction(1, 2)]


def test_rational_roots_rejects_zero_polynomial():
    with pytest.raises(ZeroPolynomialError):
        rational_roots(Poly.zero(1))


def test_complex_roots_residual():
    # x^4 - 1: roots are the fourth roots of unity
    p = Poly(1, {(4,): complex(1), (0,): complex(-1)})
    roots = complex_roots(p)
    assert len(roots) == 4
    coeff_list = [complex(-1), 0, 0, 0, complex(1)]
    for r in roots:
        value = sum(c * r ** e for e, c in enumerate(coeff_list))
        assert abs(value) < 1e-12
    again = complex_roots(p)
    assert roots == again  # seeded: deterministic
