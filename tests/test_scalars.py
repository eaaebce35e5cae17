"""Number tower: modes, ordering, rendering, JSON round-trips."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from carleman import CarlemanError
from carleman.scalars import (
    Mode, format_scalar, nearly_equal, parse_scalar_text, scalar_from_json,
    scalar_to_json, sort_key,
)

fractions = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=97)
finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


def test_mode_constants():
    assert Mode.EXACT.zero == Fraction(0)
    assert Mode.EXACT.one == Fraction(1)
    assert Mode.FLOAT.zero == complex(0)
    assert Mode.FLOAT.one == complex(1)


def test_mode_matches():
    assert Mode.EXACT.matches(Fraction(1))
    assert not Mode.EXACT.matches(complex(1))
    assert Mode.FLOAT.matches(complex(0.5))


def test_from_fraction():
    assert Mode.EXACT.from_fraction(Fraction(1, 2)) == Fraction(1, 2)
    assert Mode.FLOAT.from_fraction(Fraction(1, 2)) == complex(0.5)


def test_sort_key_orders_fractions_by_value():
    values = [Fraction(3), Fraction(-2), Fraction(1, 2), Fraction(0)]
    ordered = sorted(values, key=sort_key)
    assert ordered == [Fraction(-2), Fraction(0), Fraction(1, 2), Fraction(3)]


def test_sort_key_complex_magnitude_then_phase():
    small, big = complex(0.5, 0), complex(2, 0)
    assert sort_key(small) < sort_key(big)
    # same magnitude: phase breaks the tie
    assert sort_key(complex(1, 0)) < sort_key(complex(-1, 0))


def test_nearly_equal_is_relative_above_one():
    assert nearly_equal(1e6, 1e6 * (1 + 1e-10))
    assert not nearly_equal(1e6, 1e6 + 1)
    # below magnitude 1 the scale floor keeps it absolute
    assert nearly_equal(1e-12, 0.0)
    assert not nearly_equal(1.0, 1.0 + 1e-8)


def test_format_scalar():
    assert format_scalar(Fraction(3, 2)) == "3/2"
    assert format_scalar(Fraction(-4)) == "-4"
    assert format_scalar(complex(2.5, 0)) == "2.5"
    assert format_scalar(complex(1, -1)) == "(1-1j)"


def test_format_scalar_prints_no_negative_zero():
    assert format_scalar(complex(-0.0, 0.5)) == "0.5j"
    assert format_scalar(complex(-0.0, 0)) == "0.0"
    assert format_scalar(complex(0.5, -0.0)) == "0.5"
    # JSON keeps the signed pair
    assert str(scalar_to_json(complex(-0.0, 0.5))) == "[-0.0, 0.5]"


def test_json_shapes():
    assert scalar_to_json(Fraction(-3, 2)) == "-3/2"
    assert scalar_to_json(Fraction(4)) == "4"
    assert scalar_to_json(complex(1.5, -2)) == [1.5, -2.0]


@given(fractions)
def test_json_round_trip_exact(value):
    assert scalar_from_json(Mode.EXACT, scalar_to_json(value)) == value


@given(finite_floats, finite_floats)
def test_json_round_trip_float(re, im):
    value = complex(re, im)
    assert scalar_from_json(Mode.FLOAT, scalar_to_json(value)) == value


def test_parse_scalar_text():
    assert parse_scalar_text(Mode.EXACT, " 2/3 ") == Fraction(2, 3)
    assert parse_scalar_text(Mode.EXACT, "-5") == Fraction(-5)
    assert parse_scalar_text(Mode.FLOAT, "-1.5") == complex(-1.5)
    with pytest.raises(CarlemanError):
        parse_scalar_text(Mode.EXACT, "two")
    with pytest.raises(CarlemanError):
        parse_scalar_text(Mode.EXACT, "1/0")


@pytest.mark.parametrize("text", [
    "0", "-0", "7", "-12/18", "0012/0003", "1/0", "-5/0", "0/0", "1/-2",
    "--1", "1/2/3", "1.5", "1e3", " 3", "3 ", "+3", "1_000", "٣", "",
    "-", "/2", "2/", "9" * 5000, "1/" + "9" * 5000, "-" + "9" * 4300])
def test_exact_text_reads_as_fraction_would(text):
    # 'n' and 'n/d' are read as two integers; every text must give what
    # Fraction(text) gives, and each refusal the message it gave
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(CarlemanError) as refused:
            scalar_from_json(Mode.EXACT, text)
        if len(text) > 4300:
            assert "number too long" in str(refused.value)
        else:
            assert str(refused.value) == f"cannot read {text!r} as a scalar: {exc}"
        return
    value = scalar_from_json(Mode.EXACT, text)
    assert type(value) is Fraction
    assert (value.numerator, value.denominator) == (
        expected.numerator, expected.denominator)


BARE_NON_FINITE = [(float("nan"), "not a number"),
                   (float("inf"), "number out of range"),
                   (float("-inf"), "number out of range")]
PAIR_NON_FINITE = [([float("nan"), 0.0], "not a number"),
                   ([0.0, float("-inf")], "number out of range"),
                   (["inf", 0], "number out of range")]


@pytest.mark.parametrize("mode, value, reason",
                         [(Mode.EXACT, *case) for case in BARE_NON_FINITE]
                         + [(Mode.FLOAT, *case)
                            for case in BARE_NON_FINITE + PAIR_NON_FINITE])
def test_non_finite_json_numbers_are_named(mode, value, reason):
    with pytest.raises(CarlemanError, match=f"as a scalar: {reason}"):
        scalar_from_json(mode, value)


def test_float_pairs_that_solve_writes_read_back():
    for value in (complex(0.5, -2.0), complex(-1e308, 5e-324), complex(0.0, -0.0)):
        assert repr(scalar_from_json(Mode.FLOAT, scalar_to_json(value))) == repr(value)
