"""Phase arithmetic in units of full turns (angle = 2*pi*turn).

A ``Turn`` is a plain finite float in [0, 1).  A ``DyadicTurn`` is an exact
fraction with a power-of-two denominator; sums, negations and
power-of-two scalings of dyadic turns never round.
"""

import math
import operator

__all__ = ["Turn", "DyadicTurn", "format_turn", "parse_turn"]

# Comparison tolerance for non-dyadic turns (circular distance).
EQ_TOLERANCE = 1e-15

# Finer denominators than 2**52 would round when converted to float.
MAX_DYADIC_EXPONENT = 52

_QUARTER_FACTORS = {0.0: 1.0 + 0.0j, 0.25: 1.0j, 0.5: -1.0 + 0.0j, 0.75: -1.0j}


def _wrap_unit(value: float) -> float:
    v = value % 1.0
    # x % 1.0 can round up to 1.0 for tiny negative x.
    return 0.0 if v >= 1.0 else v


class Turn:
    """A phase as a fraction of a revolution, normalized into [0, 1)."""

    __slots__ = ("_value",)

    def __init__(self, value: float):
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"turn must be finite, got {value!r}")
        self._value = _wrap_unit(value)

    @property
    def value(self) -> float:
        return self._value

    def is_zero(self) -> bool:
        return self._value == 0.0

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
        # Scaling a float by a power of two is exact, so no error accumulates.
        try:
            scaled = math.ldexp(self._value, exponent)
        except OverflowError:
            # Every float of 2**53 or more is an integer: no fraction is left.
            return Turn(0.0)
        return Turn(scaled % 1.0)

    def dyadic_exponent(self) -> int | None:
        """Smallest k with value * 2**k integral, or None if there is none."""
        for k in range(MAX_DYADIC_EXPONENT + 1):
            if math.ldexp(self._value, k).is_integer():
                return k
        return None

    def __neg__(self) -> "Turn":
        return Turn(-self._value)

    def __add__(self, other: "Turn") -> "Turn":
        if not isinstance(other, Turn):
            return NotImplemented
        return Turn(self._value + other.value)

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
    """Exact turn numerator / 2**denom_exponent, canonically reduced.

    The numerator is wrapped mod 2**denom_exponent and reduced until odd
    (zero reduces to 0/1), so equal values have equal representations.
    """

    __slots__ = ("_numerator", "_denom_exponent")

    def __init__(self, numerator: int, denom_exponent: int):
        numerator = operator.index(numerator)  # reject floats, allow int-likes
        denom_exponent = operator.index(denom_exponent)
        if denom_exponent < 0:
            raise ValueError(f"denom_exponent must be >= 0, got {denom_exponent}")
        if denom_exponent > MAX_DYADIC_EXPONENT:
            raise ValueError(
                f"denom_exponent {denom_exponent} exceeds {MAX_DYADIC_EXPONENT}; "
                "the float conversion would round")
        num = numerator % (1 << denom_exponent)
        k = denom_exponent
        while num and num % 2 == 0:
            num //= 2
            k -= 1
        if num == 0:
            k = 0
        self._numerator = num
        self._denom_exponent = k
        self._value = math.ldexp(num, -k)  # finite and in [0, 1) already

    @property
    def numerator(self) -> int:
        return self._numerator

    @property
    def denom_exponent(self) -> int:
        return self._denom_exponent

    def dyadic_exponent(self) -> int:
        return self._denom_exponent

    def times_pow2(self, exponent: int) -> "DyadicTurn":
        if exponent < 0:
            raise ValueError(f"exponent must be >= 0, got {exponent}")
        if exponent >= self._denom_exponent:
            return DyadicTurn(0, 0)
        k = self._denom_exponent - exponent
        return DyadicTurn(self._numerator % (1 << k), k)

    def __neg__(self) -> "DyadicTurn":
        return DyadicTurn(-self._numerator, self._denom_exponent)

    def __add__(self, other: Turn) -> Turn:
        if isinstance(other, DyadicTurn):
            k = max(self._denom_exponent, other.denom_exponent)
            num = (self._numerator << (k - self._denom_exponent)) + \
                  (other.numerator << (k - other.denom_exponent))
            return DyadicTurn(num, k)
        return Turn.__add__(self, other)

    __hash__ = None

    def __repr__(self) -> str:
        return f"DyadicTurn({self._numerator}/{1 << self._denom_exponent})"


def format_turn(turn: Turn) -> str:
    """Canonical text for a turn: 'num/2**k' if dyadic, float repr otherwise."""
    if isinstance(turn, DyadicTurn):
        return f"{turn.numerator}/{1 << turn.denom_exponent}"
    return repr(turn.value)


def parse_turn(token: str) -> Turn:
    """Inverse of format_turn.  Raises ValueError on malformed input."""
    if "/" in token:
        num_text, _, den_text = token.partition("/")
        num = int(num_text)
        den = int(den_text)
        if den <= 0 or den & (den - 1):
            raise ValueError(f"denominator must be a power of two, got {den}")
        if num < 0:
            raise ValueError(f"numerator must be >= 0, got {num}")
        return DyadicTurn(num, den.bit_length() - 1)
    return Turn(float(token))
