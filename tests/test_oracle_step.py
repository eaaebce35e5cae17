"""The exact oracle step against the per-equation compose it replaced.

solver._oracle_step forms each distinct monomial's truncated product of
the integer state once per step and shares it across the k equations
(poly.compose_shared). oracles.compose_scaled_step is the old step: one
oracles.power_compose per equation. Every step must give equal numerators
and the same denominator, with and without a degree cutoff.
"""

import random

import pytest

import oracles
from carleman import SolveOptions, parse_system
from carleman.poly import Poly
from carleman.scalars import Mode
from carleman.solver import _integer_system, _oracle_start, _oracle_step, \
    resolve_transform

from oracles import compose_scaled_step
from test_integer_core_oracle import (COUPLED_A, ORDERS, named_cases,
                                      random_cases, random_order)
from test_pullback_oracle import COUPLED, DEPTH_TWO


def cases():
    yield from named_cases()
    yield "depth-two", parse_system(DEPTH_TWO, Mode.EXACT)[0], {}


def stepped_systems(system, order, options):
    """The flattened system, which verify steps in original coordinates,
    and the transformed one, which it steps after a shift."""
    reduced, transformed, _ = resolve_transform(
        system, SolveOptions(order=order, **options))
    return reduced, transformed


def check_steps(system, steps, max_degree):
    state = want = _oracle_start(system)
    for _ in range(steps):
        state = _oracle_step(system, state, max_degree)
        want = compose_scaled_step(system, want, max_degree)
        assert state.denominator == want.denominator
        assert state.numerators == want.numerators
    return state


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
    state = _oracle_start(target)
    for _ in range(2):
        state = _oracle_step(target, state, order)
    polys, _ = _integer_system(target, state.denominator)
    lowest = [min(map(sum, p.terms)) for p in state.numerators]
    kept = [[m for m in p.terms
             if sum(e * d for e, d in zip(m, lowest)) <= order] for p in polys]
    distinct = {q for monos in kept for m in monos for q in prefixes(m)}
    per_equation = sum(len({q for m in monos for q in prefixes(m)})
                       for monos in kept)
    # the two equations share monomials, so sharing saves products
    assert len(distinct) < per_equation

    calls = {"compose": 0, "power_compose": 0, "mul_truncated": 0}
    count_calls(monkeypatch, calls, Poly, "compose")
    count_calls(monkeypatch, calls, Poly, "mul_truncated")
    count_calls(monkeypatch, calls, oracles, "power_compose")
    stepped = _oracle_step(target, state, order)
    shared = dict(calls)
    calls.update(compose=0, power_compose=0, mul_truncated=0)
    old = compose_scaled_step(target, state, order)
    monkeypatch.undo()
    assert shared == {"compose": 0, "power_compose": 0,
                      "mul_truncated": len(distinct)}
    assert old.numerators == stepped.numerators
    assert calls["compose"] == 0
    assert calls["power_compose"] == target.k
    assert calls["mul_truncated"] > len(distinct)


def test_float_step_shares_products_too(monkeypatch):
    # the float step reads the same product table as the exact one: no
    # Poly.compose per equation, one mul_truncated per distinct prefix
    system, _ = parse_system(COUPLED, Mode.FLOAT)
    state = _oracle_start(system)
    for _ in range(2):
        state = _oracle_step(system, state, 6)
    distinct = {q for p in system.polys for m in p.terms for q in prefixes(m)}
    calls = {"compose": 0, "mul_truncated": 0}
    count_calls(monkeypatch, calls, Poly, "compose")
    count_calls(monkeypatch, calls, Poly, "mul_truncated")
    _oracle_step(system, state, 6)
    assert calls == {"compose": 0, "mul_truncated": len(distinct)}
