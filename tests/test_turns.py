import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qabacus.turns import DyadicTurn, Turn, format_turn, parse_turn


def test_normalization_wraps_into_unit_interval():
    assert Turn(1.25).value == 0.25
    assert Turn(-0.25).value == 0.75
    assert Turn(3.0).value == 0.0
    # tiny negatives must not round up to 1.0
    assert Turn(-1e-18).value == 0.0


def test_equality_tolerance_and_wraparound():
    assert Turn(0.5) == Turn(0.5 + 5e-16)
    assert Turn(0.5) != Turn(0.5 + 1e-12)
    # circular: values straddling 0 are close
    assert Turn(1e-16) == Turn(1 - 1e-16)


def test_dyadic_is_canonically_reduced():
    t = DyadicTurn(2, 2)
    assert (t.numerator, t.denom_exponent) == (1, 1)
    assert DyadicTurn(6, 3) == DyadicTurn(3, 2)
    zero = DyadicTurn(4, 2)  # wraps to a whole revolution
    assert (zero.numerator, zero.denom_exponent) == (0, 0)
    assert zero.is_zero()


def test_is_zero_reads_the_exact_numerator():
    # (2**54 - 1) / 2**54 is a nonzero turn whose float value rounds to
    # 1.0 and so reads 0.0.
    almost = Turn(1 - 2**-53) + Turn(2**-54)
    assert (almost.numerator, almost.denom_exponent) == ((1 << 54) - 1, 54)
    assert almost.value == 0.0
    assert not almost.is_zero()
    assert Turn(0.0).is_zero()
    assert (-Turn(0.0)).is_zero()
    assert DyadicTurn(4, 2).is_zero()


def test_dyadic_equality_is_exact():
    assert DyadicTurn(1, 2) == DyadicTurn(1, 2)
    assert DyadicTurn(1, 30) != DyadicTurn(0, 0)
    # mixed comparison falls back to the float tolerance
    assert DyadicTurn(1, 2) == Turn(0.25)


def test_negation_mod_one():
    assert -DyadicTurn(1, 2) == DyadicTurn(3, 2)
    assert -DyadicTurn(0, 0) == DyadicTurn(0, 0)
    assert (-Turn(0.3)).value == pytest.approx(0.7)


def test_times_pow2_principal_value():
    assert DyadicTurn(5, 3).times_pow2(1) == DyadicTurn(1, 2)  # 5/4 mod 1
    assert DyadicTurn(5, 3).times_pow2(3) == DyadicTurn(0, 0)
    assert Turn(0.3).times_pow2(2) == Turn((0.3 * 4) % 1.0)
    # 2**1100 / 3 overflows a float; every float that large is an integer.
    assert Turn(1 / 3).times_pow2(1100).value == 0.0
    # exponent >= 53 alone does not make the result 0
    assert Turn(1e-300).times_pow2(1000).value == pytest.approx(0.715, abs=1e-3)


def test_dyadic_exponent():
    assert Turn(0.25).dyadic_exponent() == 2
    assert Turn(1 / 3).dyadic_exponent() is None
    assert DyadicTurn(1, 3).dyadic_exponent() == 3
    assert Turn(0.0).dyadic_exponent() == 0


def test_phase_factor_quarter_turns_exact():
    assert Turn(0.0).phase_factor() == 1.0 + 0.0j
    assert Turn(0.25).phase_factor() == 1.0j
    assert Turn(0.5).phase_factor() == -1.0 + 0.0j
    assert Turn(0.75).phase_factor() == -1.0j
    assert abs(Turn(1 / 8).phase_factor()) == pytest.approx(1.0, abs=1e-15)


def test_format_and_parse():
    assert format_turn(DyadicTurn(5, 3)) == "5/8"
    assert format_turn(DyadicTurn(0, 0)) == "0/1"
    assert parse_turn("5/8") == DyadicTurn(5, 3)
    third = parse_turn(format_turn(Turn(1 / 3)))
    assert third.value == Turn(1 / 3).value
    with pytest.raises(ValueError):
        parse_turn("1/3")  # denominator not a power of two
    with pytest.raises(ValueError):
        parse_turn("-1/4")
    with pytest.raises(ValueError):
        parse_turn("banana")
    # Only the ASCII texts format_turn writes parse.
    for token, reason in (
            ("1_0/1_6", "numerator is not an integer: '1_0'"),
            ("+1/4", "numerator is not an integer: '+1'"),
            ("1/+4", "denominator is not an integer: '+4'"),
            ("x/4", "numerator is not an integer: 'x'"),
            ("1/\u0664", "denominator is not an integer: '\u0664'"),
            ("0.2_5", "turn is not a number: '0.2_5'"),
            ("\u0660.\u0665", "turn is not a number: '\u0660.\u0665'")):
        with pytest.raises(ValueError) as err:
            parse_turn(token)
        assert str(err.value) == reason
    for turn in (DyadicTurn(3, 52), Turn(1e-05), Turn(5e-324), Turn(0.1),
                 Turn(1e-20)):
        assert parse_turn(format_turn(turn)) == turn


def test_non_finite_turns_rejected():
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            Turn(value)
    for token in ("nan", "inf", "-inf", "1e400"):
        with pytest.raises(ValueError):
            parse_turn(token)


def test_denominator_cap():
    with pytest.raises(ValueError):
        DyadicTurn(1, 53)
    with pytest.raises(ValueError):
        DyadicTurn(1, -1)


def test_dyadic_rejects_float_fields():
    with pytest.raises(TypeError):
        DyadicTurn(0.5, 1)
    with pytest.raises(TypeError):
        DyadicTurn(1, 2.0)
    with pytest.raises(TypeError):
        DyadicTurn(True, 1)
    with pytest.raises(TypeError):
        DyadicTurn(1, True)


_dyadics = st.builds(
    lambda num, k: DyadicTurn(num % (1 << k), k),
    st.integers(min_value=0, max_value=(1 << 30) - 1),
    st.integers(min_value=0, max_value=30),
)


def _as_fraction(t: DyadicTurn) -> Fraction:
    return Fraction(t.numerator, 1 << t.denom_exponent)


@settings(max_examples=300, deadline=None)
@given(_dyadics, _dyadics)
def test_dyadic_sum_never_rounds(a, b):
    total = a + b
    assert isinstance(total, DyadicTurn)
    assert _as_fraction(total) == (_as_fraction(a) + _as_fraction(b)) % 1
    # the float view agrees exactly with the exact fraction
    assert total.value == float(_as_fraction(total))


@settings(max_examples=300, deadline=None)
@given(_dyadics)
def test_dyadic_negation_never_rounds(a):
    assert _as_fraction(-a) == (-_as_fraction(a)) % 1
    assert _as_fraction(a) == _as_fraction(-(-a))


@settings(max_examples=300, deadline=None)
@given(_dyadics, st.integers(min_value=0, max_value=40))
def test_dyadic_times_pow2_matches_fraction(a, l):
    assert _as_fraction(a.times_pow2(l)) == (_as_fraction(a) * (1 << l)) % 1


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
       st.integers(min_value=0, max_value=1100))
def test_times_pow2_matches_fraction(value, exponent):
    turn = Turn(value)
    exact = (Fraction(turn.value) * (1 << exponent)) % 1
    assert turn.times_pow2(exponent).value == float(exact)


# Every turn, plain or dyadic, is an exact fraction num/2**k in [0, 1).
# Plain turns come from floats across the whole exponent range, the
# subnormals and values near 1e-300 included; each is drawn with the
# fraction it must equal: x % 1.0 as a float, with 1.0 wrapped to 0.
_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 1023)),
    st.floats(min_value=-1e-290, max_value=1e-290),
)
_exact_turns = st.one_of(
    _floats.map(lambda x: (Turn(x), Fraction(x % 1.0) % 1)),
    _dyadics.map(lambda t: (t, _as_fraction(t))),
)


def _check_exact(result: Turn, expected: Fraction, *operands: Turn):
    assert result.numerator == expected.numerator
    assert 1 << result.denom_exponent == expected.denominator
    rounded = float(expected)  # correctly rounded
    assert result.value == (0.0 if rounded == 1.0 else rounded)
    dyadic = all(isinstance(t, DyadicTurn) for t in operands)
    assert type(result) is (DyadicTurn if dyadic else Turn)
    k = expected.denominator.bit_length() - 1
    assert result.dyadic_exponent() == (k if k <= 52 else None)


@settings(max_examples=500, deadline=None)
@given(_exact_turns, _exact_turns, st.integers(min_value=0, max_value=1200))
def test_turn_arithmetic_matches_fraction(first, second, exponent):
    (a, fa), (b, fb) = first, second
    _check_exact(a, fa, a)
    _check_exact(-a, -fa % 1, a)
    _check_exact(a + b, (fa + fb) % 1, a, b)
    _check_exact(b + a, (fa + fb) % 1, a, b)
    _check_exact(a.times_pow2(exponent), fa * 2**exponent % 1, a)
