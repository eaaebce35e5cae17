"""DSL frontend: grammar, diagnostics, lowering, round-trips."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carleman import NonPolynomialError, ParseError
from carleman.cli import main
from carleman.parser import parse_system, pretty_print
from carleman.scalars import Mode
from carleman.systems import TransformParams, apply_affine, reduce_depth

from conftest import random_dsl_system

LOGISTIC = "vars: u\nu[i] = 2*u[i-1] - 2*u[i-1]^2\n"
COUPLED = (
    "vars: u, v\n"
    "u[i] = 8*u[i-1] + 10*v[i-1] + u[i-1]^2 + 3*u[i-1]*v[i-1] + v[i-1]^2\n"
    "v[i] = -3*u[i-1] - 3*v[i-1] + u[i-1]^2 - u[i-1]*v[i-1] + v[i-1]^2\n")


def F(*args):
    return Fraction(*args)


# -- goldens -------------------------------------------------------------------


def test_logistic_lowering():
    system, names = parse_system(LOGISTIC, Mode.EXACT)
    assert names == ["u"]
    assert system.k == 1 and system.depth == 1
    assert system.polys[0].terms == {(1,): F(2), (2,): F(-2)}


def test_coupled_quadratic_lowering():
    system, names = parse_system(COUPLED, Mode.EXACT)
    assert names == ["u", "v"]
    assert system.k == 2 and system.depth == 1
    assert system.polys[0].terms == {
        (1, 0): F(8), (0, 1): F(10),
        (2, 0): F(1), (1, 1): F(3), (0, 2): F(1)}
    assert system.polys[1].terms == {
        (1, 0): F(-3), (0, 1): F(-3),
        (2, 0): F(1), (1, 1): F(-1), (0, 2): F(1)}


def test_depth_two_flat_layout():
    system, _ = parse_system("vars: u\nu[i] = u[i-1]^2 + u[i-2]\n", Mode.EXACT)
    assert system.k == 1 and system.depth == 2
    # variable 0 is u[i-1], variable 1 is u[i-2]
    assert system.polys[0].terms == {(2, 0): F(1), (0, 1): F(1)}


def test_multi_variable_lag_layout():
    text = "vars: a, b\na[i] = b[i-2]\nb[i] = a[i-1]\n"
    system, _ = parse_system(text, Mode.EXACT)
    # flattened order: a[i-1], b[i-1], a[i-2], b[i-2]
    assert system.k * system.depth == 4
    assert system.polys[0].terms == {(0, 0, 0, 1): F(1)}
    assert system.polys[1].terms == {(1, 0, 0, 0): F(1)}


def test_parenthesized_expansion():
    system, _ = parse_system("vars: u\nu[i] = (u[i-1] + 1)^2\n", Mode.EXACT)
    assert system.polys[0].terms == {(0,): F(1), (1,): F(2), (2,): F(1)}


def test_zeroth_power_is_one_in_both_modes():
    text = "vars: u\nu[i] = 2*u[i-1]^0 + (u[i-1] + 1)^0*u[i-1]\n"
    exact, _ = parse_system(text, Mode.EXACT)
    assert exact.polys[0].terms == {(0,): F(2), (1,): F(1)}
    assert all(type(c) is Fraction for c in exact.polys[0].terms.values())
    system, _ = parse_system(text, Mode.FLOAT)
    assert system.polys[0].terms == {(0,): 2 + 0j, (1,): 1 + 0j}


def test_literal_forms():
    text = "vars: u\nu[i] = 0.5*u[i-1] + 3/4*u[i-1]^2 - 2\n"
    system, _ = parse_system(text, Mode.EXACT)
    assert system.polys[0].terms == {
        (0,): F(-2), (1,): F(1, 2), (2,): F(3, 4)}


def test_float_mode_lowering():
    system, _ = parse_system(LOGISTIC, Mode.FLOAT)
    assert system.polys[0].terms == {(1,): complex(2), (2,): complex(-2)}


def test_float_parse_carries_the_exact_parse():
    texts = [LOGISTIC, COUPLED,
             "vars: u\nu[i] = 0.1*u[i-1] + 1/3*u[i-2]^2 - 2/5\n"]
    texts += [random_dsl_system(random.Random(seed)) for seed in range(200)]
    for text in texts:
        system, names = parse_system(text, Mode.FLOAT)
        exact, exact_names = parse_system(text, Mode.EXACT)
        assert system.exact == exact and names == exact_names
        # each float coefficient is the twin's, rounded once, under the
        # same key in the same place
        assert [[(m, Mode.FLOAT.from_fraction(c)) for m, c in p.terms.items()]
                for p in exact.polys] == [list(p.terms.items())
                                          for p in system.polys]
        assert system.exact.mode is Mode.EXACT and exact.exact is None
        # the twin keeps each literal's own value, not its double's
        assert all(c.denominator < 2 ** 20 for p in system.exact.polys
                   for c in p.terms.values())
        # derived systems carry no twin, and the twin takes no part in ==
        # or repr
        flat = reduce_depth(system)
        assert flat.exact is None
        assert apply_affine(flat, TransformParams.identity(flat.k, Mode.FLOAT)
                            ).exact is None
        assert system == dataclasses.replace(system, exact=None)
        assert repr(system) == repr(dataclasses.replace(system, exact=None))


def test_float_lowering_golden():
    # each coefficient is its exact value rounded once to the nearest
    # double, so the reprs below do not depend on the order in which the
    # text multiplies, expands or adds its terms
    text = ("vars: u, v\n"
            "u[i] = (0.1*u[i-1] + 1/3*v[i-2] + 0.25)^3"
            " - 0.7*(0.3*v[i-1] + 1/3)*(0.6*u[i-2] - 0.1)\n"
            "v[i] = (0.25 + 1/3*u[i-2] - 0.1*v[i-1])^3*(0.3 + 0.7*u[i-1]) - 2.5\n")
    system, _ = parse_system(text, Mode.FLOAT)
    assert system.depth == 2
    assert [[(mono, repr(c)) for mono, c in p.terms.items()]
            for p in system.polys] == [
        [((0, 0, 0, 0), "(0.03895833333333333+0j)"),
         ((1, 0, 0, 0), "(0.01875+0j)"),
         ((0, 0, 0, 1), "(0.0625+0j)"),
         ((2, 0, 0, 0), "(0.0075+0j)"),
         ((1, 0, 0, 1), "(0.05+0j)"),
         ((0, 0, 0, 2), "(0.08333333333333333+0j)"),
         ((3, 0, 0, 0), "(0.001+0j)"),
         ((2, 0, 0, 1), "(0.01+0j)"),
         ((1, 0, 0, 2), "(0.03333333333333333+0j)"),
         ((0, 0, 0, 3), "(0.037037037037037035+0j)"),
         ((0, 0, 1, 0), "(-0.14+0j)"),
         ((0, 1, 0, 0), "(0.021+0j)"),
         ((0, 1, 1, 0), "(-0.126+0j)")],
        [((0, 0, 0, 0), "(-2.4953125+0j)"),
         ((0, 0, 1, 0), "(0.01875+0j)"),
         ((0, 1, 0, 0), "(-0.005625+0j)"),
         ((0, 0, 2, 0), "(0.025+0j)"),
         ((0, 1, 1, 0), "(-0.015+0j)"),
         ((0, 2, 0, 0), "(0.00225+0j)"),
         ((0, 0, 3, 0), "(0.011111111111111112+0j)"),
         ((0, 1, 2, 0), "(-0.01+0j)"),
         ((0, 2, 1, 0), "(0.003+0j)"),
         ((0, 3, 0, 0), "(-0.0003+0j)"),
         ((1, 0, 0, 0), "(0.0109375+0j)"),
         ((1, 0, 1, 0), "(0.04375+0j)"),
         ((1, 1, 0, 0), "(-0.013125+0j)"),
         ((1, 0, 2, 0), "(0.058333333333333334+0j)"),
         ((1, 1, 1, 0), "(-0.035+0j)"),
         ((1, 2, 0, 0), "(0.00525+0j)"),
         ((1, 0, 3, 0), "(0.025925925925925925+0j)"),
         ((1, 1, 2, 0), "(-0.023333333333333334+0j)"),
         ((1, 2, 1, 0), "(0.007+0j)"),
         ((1, 3, 0, 0), "(-0.0007+0j)")]]


def test_leading_signed_literal():
    system, _ = parse_system("vars: u\nu[i] = -4 - u[i-1]\n", Mode.EXACT)
    assert system.polys[0].terms == {(0,): F(-4), (1,): F(-1)}


# -- diagnostics -----------------------------------------------------------------


def span_of(excinfo):
    span = excinfo.value.span
    assert span is not None
    return span


def test_missing_header():
    with pytest.raises(ParseError) as err:
        parse_system("u[i] = 1\n", Mode.EXACT)
    assert "vars" in str(err.value)
    assert span_of(err).line == 1


def test_undeclared_variable_span():
    with pytest.raises(ParseError) as err:
        parse_system("vars: u\nu[i] = w[i-1]\n", Mode.EXACT)
    span = span_of(err)
    assert span.line == 2 and span.column == 8


def test_lag_zero_rejected():
    with pytest.raises(ParseError) as err:
        parse_system("vars: u\nu[i] = u[i-0]\n", Mode.EXACT)
    assert "lag" in str(err.value)
    assert span_of(err).line == 2


def test_unlagged_reference_rejected():
    with pytest.raises(ParseError) as err:
        parse_system("vars: u\nu[i] = u[i]\n", Mode.EXACT)
    assert "lag" in str(err.value)


def test_non_integer_exponent():
    with pytest.raises(ParseError) as err:
        parse_system("vars: u\nu[i] = u[i-1]^(3/2)\n", Mode.EXACT)
    assert "exponent" in str(err.value)
    assert span_of(err).line == 2


def test_duplicate_equation():
    with pytest.raises(ParseError) as err:
        parse_system("vars: u\nu[i] = 1\nu[i] = 2\n", Mode.EXACT)
    assert "duplicate" in str(err.value)
    assert span_of(err).line == 3


def test_missing_equation():
    with pytest.raises(ParseError) as err:
        parse_system("vars: u, v\nu[i] = v[i-1]\n", Mode.EXACT)
    assert "missing equation" in str(err.value)
    assert span_of(err).line == 1


def test_division_is_non_polynomial():
    with pytest.raises(NonPolynomialError) as err:
        parse_system("vars: u, v\nu[i] = u[i-1]/v[i-1]\nv[i] = 1\n", Mode.EXACT)
    assert "rational literal" in str(err.value)
    assert span_of(err).line == 2


def test_literal_slash_needs_digits():
    # u[i-1]/2 is division, not a literal: the slash does not join digits
    with pytest.raises(NonPolynomialError):
        parse_system("vars: u\nu[i] = u[i-1]/2\n", Mode.EXACT)


def test_reserved_index_name():
    with pytest.raises(ParseError) as err:
        parse_system("vars: i\ni[i] = 1\n", Mode.EXACT)
    assert "reserved" in str(err.value)


def test_duplicate_declaration():
    with pytest.raises(ParseError) as err:
        parse_system("vars: u, u\nu[i] = 1\n", Mode.EXACT)
    assert "declared twice" in str(err.value)


def test_implicit_multiplication_rejected():
    with pytest.raises(ParseError) as err:
        parse_system("vars: u\nu[i] = 2 u[i-1]\n", Mode.EXACT)
    assert "explicit '*'" in str(err.value)


def test_zero_denominator_literal():
    with pytest.raises(ParseError):
        parse_system("vars: u\nu[i] = 1/0\n", Mode.EXACT)


def test_digit_like_character_is_unexpected():
    # '²' passes str.isdigit() but is not a decimal digit Fraction reads
    with pytest.raises(ParseError) as err:
        parse_system("vars: u\nu[i] = 2*u[i-1]²\n", Mode.EXACT)
    assert str(err.value) == "line 2, column 16: unexpected character '²'"
    assert (span_of(err).start, span_of(err).end) == (23, 24)


def test_float_literal_too_large_for_a_double():
    literal = "9" * 400
    text = f"vars: u\nu[i] = 2*u[i-1] + {literal}\n"
    with pytest.raises(ParseError) as err:
        parse_system(text, Mode.FLOAT)
    assert "overflows double precision" in str(err.value)
    span = span_of(err)
    assert text[span.start:span.end] == literal
    assert (span.line, span.column) == (2, 19)
    system, _ = parse_system(text, Mode.EXACT)
    assert system.polys[0].constant_term() == int(literal)


def test_float_coefficient_overflowing_after_arithmetic(tmp_path, capsys):
    # each literal fits a double, their product does not
    text = "vars: u\nu[i] = 10^200*10^200*u[i-1] + 1/2*u[i-1]^2\n"
    with pytest.raises(ParseError) as err:
        parse_system(text, Mode.FLOAT)
    assert str(err.value) == ("line 2, column 1: coefficient of about 1e400 "
                              "overflows double precision")
    span = span_of(err)
    assert text[span.start:span.end] == "u"
    system, _ = parse_system(text, Mode.EXACT)
    assert system.polys[0].terms[(1,)] == 10 ** 400
    path = tmp_path / "overflow.rec"
    path.write_text(text, encoding="utf-8")
    assert main(["solve", str(path), "--mode", "float"]) == 1
    assert capsys.readouterr().err == f"parse error: {err.value}\n"


def test_spans_carry_offsets():
    text = "vars: u\nu[i] = u[i-1]^x\n"
    with pytest.raises(ParseError) as err:
        parse_system(text, Mode.EXACT)
    span = span_of(err)
    assert 0 <= span.start <= span.end <= len(text)


# -- rendering -------------------------------------------------------------------


def test_pretty_print_golden():
    system, names = parse_system(
        "vars: u\nu[i] = 5*u[i-1] - 4*u[i-1]^2 + u[i-1]^3\n", Mode.EXACT)
    assert pretty_print(system, names) == \
        "vars: u\nu[i] = u[i-1]^3 - 4*u[i-1]^2 + 5*u[i-1]\n"


def test_pretty_print_unit_negative_lead():
    system, names = parse_system(
        "vars: u\nu[i] = 3*u[i-1] - u[i-1]^2\n", Mode.EXACT)
    text = pretty_print(system, names)
    assert text == "vars: u\nu[i] = -1*u[i-1]^2 + 3*u[i-1]\n"
    again, _ = parse_system(text, Mode.EXACT)
    assert again == system


def test_pretty_print_fraction_coefficients():
    system, names = parse_system(
        "vars: u\nu[i] = 1/3*u[i-1]\n", Mode.EXACT)
    assert "1/3*u[i-1]" in pretty_print(system, names)


def test_pretty_print_default_names():
    system, _ = parse_system(COUPLED, Mode.EXACT)
    text = pretty_print(system)
    assert text.startswith("vars: u1, u2\n")


def test_round_trip_reference_systems():
    for text in (LOGISTIC, COUPLED):
        system, names = parse_system(text, Mode.EXACT)
        again, names2 = parse_system(pretty_print(system, names), Mode.EXACT)
        assert again == system and names2 == names


@settings(max_examples=120)
@given(st.integers(0, 10**9))
def test_round_trip_random_systems(seed):
    rng = random.Random(seed)
    text = random_dsl_system(rng)
    system, names = parse_system(text, Mode.EXACT)
    again, names2 = parse_system(pretty_print(system, names), Mode.EXACT)
    assert again == system and names2 == names
