"""Phase arithmetic in units of full turns (angle = 2*pi*turn).

Every turn is an exact fraction numerator / 2**denom_exponent in [0, 1):
a ``Turn`` is built from a finite float, which is already such a
fraction, and sums, negations and power-of-two scalings never round.
``value`` is the float view.  A ``DyadicTurn`` differs only in its cap
of 2**52 on the denominator, its exact equality and its ``num/2**k``
text.
"""

import math
import operator

__all__ = ["Turn", "DyadicTurn", "format_turn", "parse_turn"]

# Comparison tolerance for non-dyadic turns (circular distance).
EQ_TOLERANCE = 1e-15

# Finer denominators than 2**52 would round when converted to float.
MAX_DYADIC_EXPONENT = 52

_QUARTER_FACTORS = {0.0: 1.0 + 0.0j, 0.25: 1.0j, 0.5: -1.0 + 0.0j, 0.75: -1.0j}


class Turn:
    """A phase as a fraction of a revolution, normalized into [0, 1)."""

    __slots__ = ("_numerator", "_denom_exponent", "_value")

    def __init__(self, value: float):
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"turn must be finite, got {value!r}")
        # x % 1.0 can round up to 1.0 for tiny negative x; _set wraps 1/1 to 0.
        num, den = (value % 1.0).as_integer_ratio()
        self._set(num, den.bit_length() - 1)

    def _set(self, num: int, k: int) -> None:
        """Store num / 2**k taken mod 1, reduced until the numerator is odd
        (zero reduces to 0/1), so equal turns have equal pairs."""
        num &= (1 << k) - 1
        if not num & 1:  # most builder numerators are odd already
            shift = (num & -num).bit_length() - 1 if num else k
            num >>= shift
            k -= shift
        self._numerator = num
        self._denom_exponent = k
        value = num / (1 << k)  # correctly rounded; may round up to 1.0
        self._value = value if value < 1.0 else 0.0

    def _result(self, other: "Turn", num: int, k: int) -> "Turn":
        """num / 2**k as a DyadicTurn if both operands are one, else a Turn."""
        exact = isinstance(self, DyadicTurn) and isinstance(other, DyadicTurn)
        result = object.__new__(DyadicTurn if exact else Turn)
        result._set(num, k)
        return result

    @property
    def value(self) -> float:
        return self._value

    @property
    def numerator(self) -> int:
        return self._numerator

    @property
    def denom_exponent(self) -> int:
        return self._denom_exponent

    def is_zero(self) -> bool:
        """Whether the turn is exactly 0, which ``value`` can round to."""
        return not self._numerator

    def phase_factor(self) -> complex:
        """e^{i*2*pi*turn}; quarter turns map to exact unit factors."""
        exact = _QUARTER_FACTORS.get(self._value)
        if exact is not None:
            return exact
        angle = 2.0 * math.pi * self._value
        return complex(math.cos(angle), math.sin(angle))

    def times_pow2(self, exponent: int) -> "Turn":
        """Principal value of turn * 2**exponent (whole revolutions dropped)."""
        if exponent < 0:
            raise ValueError(f"exponent must be >= 0, got {exponent}")
        k = max(self._denom_exponent - exponent, 0)
        return self._result(self, self._numerator, k)

    def dyadic_exponent(self) -> int | None:
        """Smallest k with turn * 2**k integral, or None if k exceeds 52."""
        k = self._denom_exponent
        return k if k <= MAX_DYADIC_EXPONENT else None

    def __neg__(self) -> "Turn":
        return self._result(self, -self._numerator, self._denom_exponent)

    def __add__(self, other: "Turn") -> "Turn":
        if not isinstance(other, Turn):
            return NotImplemented
        a, b = self._denom_exponent, other.denom_exponent
        k = max(a, b)
        num = (self._numerator << (k - a)) + (other.numerator << (k - b))
        return self._result(other, num, k)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Turn):
            return NotImplemented
        if isinstance(self, DyadicTurn) and isinstance(other, DyadicTurn):
            return (self.numerator == other.numerator
                    and self.denom_exponent == other.denom_exponent)
        diff = abs(self._value - other.value)
        return min(diff, 1.0 - diff) <= EQ_TOLERANCE

    __hash__ = None  # tolerance-based equality is incompatible with hashing

    def __repr__(self) -> str:
        return f"Turn({self._value!r})"


class DyadicTurn(Turn):
    """Exact turn numerator / 2**denom_exponent with denom_exponent <= 52.

    The numerator is wrapped mod 2**denom_exponent and reduced until odd
    (zero reduces to 0/1), so equal values have equal representations.
    """

    __slots__ = ()

    def __init__(self, numerator: int, denom_exponent: int):
        if type(numerator) is not int or type(denom_exponent) is not int:
            if isinstance(numerator, bool) or isinstance(denom_exponent, bool):
                raise TypeError("DyadicTurn fields must be integers, not bool")
            numerator = operator.index(numerator)  # reject floats, allow int-likes
            denom_exponent = operator.index(denom_exponent)
        if denom_exponent < 0:
            raise ValueError(f"denom_exponent must be >= 0, got {denom_exponent}")
        if denom_exponent > MAX_DYADIC_EXPONENT:
            raise ValueError(
                f"denom_exponent {denom_exponent} exceeds {MAX_DYADIC_EXPONENT}; "
                "the float conversion would round")
        self._set(numerator, denom_exponent)

    def __repr__(self) -> str:
        return f"DyadicTurn({self._numerator}/{1 << self._denom_exponent})"


def format_turn(turn: Turn) -> str:
    """Canonical text for a turn: 'num/2**k' if dyadic, float repr otherwise."""
    if isinstance(turn, DyadicTurn):
        return f"{turn.numerator}/{1 << turn.denom_exponent}"
    return repr(turn.value)


def _int_from_text(token: str, role: str) -> int:
    """The integer an ASCII ``-?[0-9]+`` token writes, which is every
    integer text ``serialize`` makes; ValueError naming ``role`` else."""
    digits = token[1:] if token[:1] == "-" else token
    if digits.isdigit() and digits.isascii():
        return int(token)
    raise ValueError(f"{role} is not an integer: {token!r}")


def parse_turn(token: str) -> Turn:
    """Inverse of format_turn.  Raises ValueError on malformed input,
    including integers or floats that format_turn never writes (signs
    other than a leading '-', '_' separators, non-ASCII digits, and any
    float text but the ``repr`` of a value in [0, 1))."""
    if "/" in token:
        num_text, _, den_text = token.partition("/")
        num = _int_from_text(num_text, "numerator")
        den = _int_from_text(den_text, "denominator")
        if den <= 0 or den & (den - 1):
            raise ValueError(f"denominator must be a power of two, got {den}")
        if num < 0:
            raise ValueError(f"numerator must be >= 0, got {num}")
        return DyadicTurn(num, den.bit_length() - 1)
    try:
        value = float(token)
    except ValueError:
        value = None
    if value is None or not token.isascii() or "_" in token:
        raise ValueError(f"turn is not a number: {token!r}")
    if repr(value) != token or token[0] == "-" or not 0.0 <= value < 1.0:
        raise ValueError(
            f"float turn must be the repr of a value in [0, 1): {token!r}")
    return Turn(value)
