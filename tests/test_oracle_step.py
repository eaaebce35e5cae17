"""The exact oracle step against the dict-based steps it replaced.

solver._oracle_step keeps an exact state as one integer list per
variable, indexed by basis position, and forms each distinct monomial's
truncated product of the state once per step, shared across the k
equations (solver._truncated_product). Without a basis (no cutoff, a
cutoff of 0, or one past BASIS_SIZE_LIMIT) the numerators are integer
polynomials stepped by poly.compose_shared. oracles.compose_scaled_step
is the per-equation step: one oracles.power_compose per equation, the
reference of the named and random cases. oracles.shared_scaled_step is
the step before the lists: the shared products on tuple-keyed integer
polynomials, the reference of the hypothesis test. Every step must give
equal numerators and the same denominator.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import carleman.solver
import oracles
from carleman import SolveOptions, oracle_iterate_symbolic, parse_system
from carleman.embedding import basis_size
from carleman.poly import Poly
from carleman.scalars import Mode
from carleman.solver import _oracle_start, _oracle_step, resolve_transform
from carleman.systems import PolySystem, reduce_depth

from oracles import PolyScaledState, compose_scaled_step, shared_scaled_step
from test_integer_core_oracle import (COUPLED_A, ORDERS, named_cases,
                                      random_cases, random_order)
from test_pullback_oracle import COUPLED, DEPTH_TWO
from test_verify_oracle import TRI3


def cases():
    yield from named_cases()
    yield "depth-two", parse_system(DEPTH_TWO, Mode.EXACT)[0], {}


def stepped_systems(system, order, options):
    """The flattened system, which verify steps in original coordinates,
    and the transformed one, which it steps after a shift."""
    reduced, transformed, _ = resolve_transform(
        system, SolveOptions(order=order, **options))
    return reduced, transformed


def as_polys(state):
    """The numerators of a list state as integer polynomials."""
    k = len(state.numerators)
    return [Poly._trusted(k, terms) for terms in state.terms()]


def assert_same_state(state, want):
    assert state.denominator == want.denominator
    assert as_polys(state) == want.numerators


def check_steps(system, steps, max_degree, reference=compose_scaled_step):
    """Step the oracle and reference side by side; the last reference
    state."""
    state = _oracle_start(system, max_degree)
    want = PolyScaledState.start(system)
    assert_same_state(state, want)
    for _ in range(steps):
        state = _oracle_step(state)
        want = reference(system, want, max_degree)
        assert_same_state(state, want)
    return want


@pytest.mark.parametrize("order", ORDERS)
def test_named_cases_step_like_compose_per_equation(order):
    for _, system, options in cases():
        for stepped in stepped_systems(system, order, options):
            check_steps(stepped, order, order)
            # the untruncated expansion grows fast; a few steps suffice
            check_steps(stepped, 2 if stepped.k > 2 else 3, None)


def test_random_systems_step_like_compose_per_equation():
    rng = random.Random(11)
    fractional = 0
    for _, system, options in random_cases(12, 16):
        order = random_order(rng, system)
        for stepped in stepped_systems(system, order, options):
            fractional += check_steps(stepped, order, order).denominator > 1
            check_steps(stepped, 2, None)
    assert fractional > 0


@st.composite
def exact_systems(draw):
    """(flattened exact system, order, step count): k from 1 to 3 and
    depth from 1 to 2; terms of degree 0 to 3 with coefficients n/d,
    d from 2 to 9; order from 1 to 8; steps from 0 to order + 2."""
    k, depth = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    width = k * depth
    monomials = st.lists(st.integers(0, width - 1), max_size=3).map(
        lambda slots: tuple(map(slots.count, range(width))))
    coefficients = st.builds(Fraction, st.integers(-9, 9).filter(bool),
                             st.integers(2, 9))
    polys = tuple(Poly(width, draw(st.dictionaries(
        monomials, coefficients, min_size=1, max_size=4)))
        for _ in range(k))
    system = reduce_depth(PolySystem(k=k, depth=depth, polys=polys,
                                     mode=Mode.EXACT))
    order = draw(st.integers(1, 8))
    return system, order, draw(st.integers(0, order + 2))


@settings(max_examples=60)
@given(exact_systems())
def test_list_oracle_equals_dict_step_on_random_systems(case):
    system, order, steps = case
    want = check_steps(system, steps, order, shared_scaled_step)
    assert oracle_iterate_symbolic(system, steps, order) == want.fractions()


@pytest.mark.parametrize("max_degree", [None, 0, 120])
def test_cutoffs_without_a_basis_step_as_integer_polynomials(max_degree):
    # no cutoff, a cutoff below 1 or one past BASIS_SIZE_LIMIT monomials
    # (k = 3 at 120) has no list basis: the numerators stay integer
    # polynomials, stepped in integers like the reference
    system = parse_system(TRI3, Mode.EXACT)[0]
    assert _oracle_start(system, max_degree).monomials is None
    want = check_steps(system, 3, max_degree, shared_scaled_step)
    assert oracle_iterate_symbolic(system, 3, max_degree) == want.fractions()


def prefixes(mono):
    """mono and every monomial reached from it by lowering its last
    nonzero slot by one, down to (not including) the constant."""
    while any(mono):
        yield mono
        s = max(t for t, e in enumerate(mono) if e)
        mono = mono[:s] + (mono[s] - 1,) + mono[s + 1:]


def count_calls(monkeypatch, calls, owner, name):
    """Count each call of owner.name in calls[name]."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, wrapper)


def test_one_product_per_distinct_monomial_prefix(monkeypatch):
    system, _ = parse_system(COUPLED, Mode.EXACT)
    order = 6
    _, target, _ = resolve_transform(
        system, SolveOptions(order=order, matrix=COUPLED_A))
    state = _oracle_start(target, order)
    want = PolyScaledState.start(target)
    for _ in range(2):
        state = _oracle_step(state)
        want = shared_scaled_step(target, want, order)
    polys, _ = oracles.integer_system(target, state.denominator)
    lowest = [min(map(sum, p.terms)) for p in want.numerators]
    kept = [[m for m in p.terms
             if sum(e * d for e, d in zip(m, lowest)) <= order] for p in polys]
    distinct = {q for monos in kept for m in monos for q in prefixes(m)}
    per_equation = sum(len({q for m in monos for q in prefixes(m)})
                       for monos in kept)
    # the two equations share monomials, so sharing saves products
    assert len(distinct) < per_equation

    names = ("compose", "power_compose", "mul_truncated", "_truncated_product")
    calls = dict.fromkeys(names, 0)
    count_calls(monkeypatch, calls, Poly, "compose")
    count_calls(monkeypatch, calls, Poly, "mul_truncated")
    count_calls(monkeypatch, calls, oracles, "power_compose")
    count_calls(monkeypatch, calls, carleman.solver, "_truncated_product")
    stepped = _oracle_step(state)
    listed = dict(calls)
    calls.update(dict.fromkeys(names, 0))
    shared = shared_scaled_step(target, want, order)
    on_dicts = dict(calls)
    calls.update(dict.fromkeys(names, 0))
    old = compose_scaled_step(target, want, order)
    monkeypatch.undo()
    assert listed == {"compose": 0, "power_compose": 0, "mul_truncated": 0,
                      "_truncated_product": len(distinct)}
    assert on_dicts["mul_truncated"] == len(distinct)
    assert as_polys(stepped) == shared.numerators == old.numerators
    assert calls["compose"] == 0
    assert calls["power_compose"] == target.k
    assert calls["mul_truncated"] > len(distinct)


def test_list_state_memory_is_linear_in_the_basis():
    # each variable holds one list of basis length; no table of basis
    # pairs is kept
    system, _ = parse_system(COUPLED, Mode.EXACT)
    order = 8
    state = _oracle_start(system, order)
    for _ in range(3):
        state = _oracle_step(state)
    n = basis_size(system.k, order)
    assert [len(column) for column in state.numerators] == [n] * system.k
    assert len(state.position) == len(state.keys) == n


def test_float_step_shares_products_too(monkeypatch):
    # the float step reads poly.product_table: no Poly.compose per
    # equation, one mul_truncated per distinct prefix
    system, _ = parse_system(COUPLED, Mode.FLOAT)
    state = _oracle_start(system, 6)
    for _ in range(2):
        state = _oracle_step(state)
    distinct = {q for p in system.polys for m in p.terms for q in prefixes(m)}
    calls = {"compose": 0, "mul_truncated": 0}
    count_calls(monkeypatch, calls, Poly, "compose")
    count_calls(monkeypatch, calls, Poly, "mul_truncated")
    _oracle_step(state)
    assert calls == {"compose": 0, "mul_truncated": len(distinct)}
