"""Gate and circuit data model with a line-oriented text serialization.

Gates are immutable dataclasses; a circuit is an ordered gate sequence
over a fixed qubit count.  Qubit 0 is the least significant bit of a
basis index throughout.  Phase gates carry their angle as an exact
``Turn`` and take ``Control`` objects as controls, each positive
(closed-dot) or negative (open-dot) by a bool; a phase applies iff every
control matches its polarity and the target bit is 1.

Each gate also keeps its highest qubit, ``_top``, outside its fields, so
a circuit checks its width without rebuilding the gate's qubit tuple.
The bit-pattern control tuples the builders share are memoized with a
fixed bound: a phase estimator asks for one tuple per input pattern, and
an unbounded memo would keep every width's 2**n tuples alive.
"""

import functools
import operator
from dataclasses import dataclass, field, replace
from typing import Union

from .turns import Turn, _int_from_text, format_turn, parse_turn

__all__ = [
    "Control", "Hadamard", "X", "Phase", "Swap", "Gate", "Circuit",
    "ParseError", "invert", "gate_count_report", "serialize", "parse",
    "lower_negative_controls",
]


class ParseError(ValueError):
    """Malformed circuit text; carries the 1-based line number."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


def _check_int(value, name: str, low: float, high: int | None = None) -> int:
    """``value`` as a plain int in [low, high), or ValueError naming it.

    Whatever ``operator.index`` takes passes, numpy integers included,
    except bool.  A plain int in range returns at once: gate builders
    call this for every qubit of every gate, which is also why the gate
    classes write their own ``__init__``: it stores each checked field
    once, where a ``__post_init__`` would store it twice.
    """
    if type(value) is int:
        if low <= value and (high is None or value < high):
            return value
    elif isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    else:
        value = operator.index(value)
    if value < low or (high is not None and value >= high):
        bounds = f">= {low}" if high is None else f"in [{low}, {high - 1}]"
        raise ValueError(f"{name} out of range: must be {bounds}, got {value}")
    return value


# Controls and gates are frozen, so each __init__ stores its checked
# fields (and a gate its _top) with object.__setattr__.  Writing through
# __dict__ instead would give every instance a dict of its own, about
# 150 bytes more on CPython 3.11.


@dataclass(frozen=True)
class Control:
    qubit: int
    positive: bool = True

    def __init__(self, qubit: int, positive: bool = True):
        object.__setattr__(self, "qubit", _check_int(qubit, "control qubit", 0))
        if not isinstance(positive, bool):
            raise ValueError(f"control polarity must be a bool, got {positive!r}")
        object.__setattr__(self, "positive", positive)


@functools.lru_cache(maxsize=1024)
def _pattern_controls(match: int, first: int, width: int,
                      mask: int = -1) -> tuple[Control, ...]:
    """The controls that select qubits first..first+width-1 holding the
    bits of ``match`` where ``mask`` has a 1: most significant first, a
    closed dot for each 1-bit and an open dot for each 0-bit.  Pure and
    immutable, so callers share one memoized tuple per pattern."""
    return tuple(Control(first + b, positive=bool((match >> b) & 1))
                 for b in range(width - 1, -1, -1) if (mask >> b) & 1)


@dataclass(frozen=True)
class _OneQubitGate:
    """The shape shared by Hadamard and X.  Each subclass is its own gate
    kind: equality compares the class, so X(0) != Hadamard(0)."""

    target: int

    def __init__(self, target: int):
        target = _check_int(target, "target", 0)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "_top", target)

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.target,)


class Hadamard(_OneQubitGate):
    """Hadamard on ``target``."""


class X(_OneQubitGate):
    """Bit flip on ``target``."""


@dataclass(frozen=True)
class Phase:
    """Multiply amplitudes by e^{i*2*pi*turn} where target bit is 1 and
    every control qubit matches its polarity.  No controls = plain
    z-rotation."""

    turn: Turn
    target: int
    controls: tuple[Control, ...] = ()

    def __init__(self, turn: Turn, target: int,
                 controls: tuple[Control, ...] = ()):
        if not isinstance(turn, Turn):
            raise ValueError(f"turn must be a Turn, got {turn!r}")
        target = _check_int(target, "target", 0)
        controls = tuple(controls)
        qubits = []
        for c in controls:
            if not isinstance(c, Control):
                raise ValueError(f"not a control: {c!r}")
            qubits.append(c.qubit)
        qubits.append(target)
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"controls and target must be distinct, got {qubits}")
        object.__setattr__(self, "turn", turn)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "controls", controls)
        object.__setattr__(self, "_top", max(qubits))

    @property
    def qubits(self) -> tuple[int, ...]:
        return tuple(c.qubit for c in self.controls) + (self.target,)


@dataclass(frozen=True)
class Swap:
    a: int
    b: int

    def __init__(self, a: int, b: int):
        a = _check_int(a, "swap operand", 0)
        b = _check_int(b, "swap operand", 0)
        if a == b:
            raise ValueError(f"swap operands must differ, got {a}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_top", max(a, b))

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.a, self.b)


Gate = Union[Hadamard, X, Phase, Swap]


@dataclass(frozen=True)
class Circuit:
    """Ordered gate sequence over num_qubits qubits.

    ``labels`` are non-semantic annotations (gate index, text) used to
    mark blocks in serialized dumps; they are excluded from equality.
    """

    num_qubits: int
    gates: tuple[Gate, ...] = ()
    labels: tuple[tuple[int, str], ...] = field(default=(), compare=False)

    def __post_init__(self):
        object.__setattr__(self, "num_qubits",
                           _check_int(self.num_qubits, "num_qubits", 1))
        object.__setattr__(self, "gates", tuple(self.gates))
        labels = []
        for pos, text in self.labels:
            pos = _check_int(pos, "label position", 0, len(self.gates) + 1)
            if not isinstance(text, str):
                raise ValueError(f"label text must be a string, got {text!r}")
            # parse splits lines at every line boundary str.splitlines knows.
            if text.splitlines() not in ([], [text]):
                raise ValueError("label text must be a single line")
            if text != text.strip():  # parse strips it, so it would not round-trip
                raise ValueError(f"label text has outer whitespace: {text!r}")
            labels.append((pos, text))
        # Canonical label order: by position, stable.
        object.__setattr__(self, "labels",
                           tuple(sorted(labels, key=lambda item: item[0])))
        for g in self.gates:
            if not isinstance(g, (Hadamard, X, Phase, Swap)):
                raise ValueError(f"not a gate: {g!r}")
            if g._top >= self.num_qubits:
                raise ValueError(
                    f"gate {g!r} touches qubit {g._top} but circuit has "
                    f"{self.num_qubits} qubits")

    @classmethod
    def from_blocks(cls, num_qubits: int, blocks) -> "Circuit":
        """One circuit from ``(label, gates)`` blocks run in order.

        Each label marks the position where its block starts, so an
        empty block at the end leaves its label after the last gate.
        """
        gates: list[Gate] = []
        labels: list[tuple[int, str]] = []
        for label, block in blocks:
            labels.append((len(gates), label))
            gates.extend(block)
        return cls(num_qubits, tuple(gates), labels=tuple(labels))


def _invert_gate(gate: Gate) -> Gate:
    if isinstance(gate, Phase):
        return replace(gate, turn=-gate.turn)
    return gate  # H, X and Swap are self-inverse


def invert(circuit: Circuit) -> Circuit:
    """Inverse circuit: reversed gate order, phase turns negated mod 1.

    Labels are dropped; they describe the forward block structure.
    """
    return Circuit(circuit.num_qubits,
                   tuple(_invert_gate(g) for g in reversed(circuit.gates)))


def gate_count_report(circuit: Circuit) -> dict[str, int]:
    """Exact gate counts by kind plus the total.

    Phase gates split into uncontrolled ('phase') and controlled
    ('cphase', any number of controls).
    """
    counts = {"h": 0, "x": 0, "phase": 0, "cphase": 0, "swap": 0}
    for g in circuit.gates:
        if isinstance(g, Phase):
            counts["cphase" if g.controls else "phase"] += 1
        else:
            counts[_PLAIN_KINDS[type(g)].lower()] += 1
    counts["total"] = len(circuit.gates)
    return counts


def lower_negative_controls(circuit: Circuit) -> Circuit:
    """Rewrite open-dot controls as X-conjugated closed-dot controls.

    The result contains only positive controls and acts identically on
    every state.  Labels are dropped because gate indices shift.
    """
    gates: list[Gate] = []
    for g in circuit.gates:
        if isinstance(g, Phase) and any(not c.positive for c in g.controls):
            flips = [c.qubit for c in g.controls if not c.positive]
            gates.extend(X(q) for q in flips)
            gates.append(Phase(g.turn, g.target,
                               tuple(Control(c.qubit) for c in g.controls)))
            gates.extend(X(q) for q in reversed(flips))
        else:
            gates.append(g)
    return Circuit(circuit.num_qubits, tuple(gates))


# The gates written as a kind and plain qubit numbers:
# kind -> (class, qubit count, the count as error messages word it).
_PLAIN_GATES = {
    "H": (Hadamard, 1, "exactly one qubit"),
    "X": (X, 1, "exactly one qubit"),
    "SWAP": (Swap, 2, "exactly two qubits"),
}
_PLAIN_KINDS = {cls: kind for kind, (cls, _, _) in _PLAIN_GATES.items()}


def _format_gate(gate: Gate, controls: dict[int, str]) -> str:
    """One gate line.  ``controls`` memoizes each control tuple's text by
    the tuple's ``id``, so the caller keeps every keyed tuple alive while
    it uses the dict, as a circuit does for its gates' tuples."""
    if not isinstance(gate, Phase):
        return " ".join([_PLAIN_KINDS[type(gate)], *map(str, gate.qubits)])
    key = id(gate.controls)
    text = controls.get(key)
    if text is None:
        text = controls[key] = "".join(
            f"{'+' if c.positive else '-'}{c.qubit} " for c in gate.controls)
    return f"P {format_turn(gate.turn)} {text}-> {gate.target}"


def serialize(circuit: Circuit) -> str:
    """Canonical text form: a 'qubits N' header, then one gate per line.

    Labels appear as '# text' comment lines before the gate they mark.
    Builders share one control tuple across many gates, so each tuple's
    text is made once per call.
    """
    gates = circuit.gates
    controls: dict[int, str] = {}
    lines = [f"qubits {circuit.num_qubits}"]
    done = 0
    for pos, text in circuit.labels:  # sorted by position
        lines.extend(_format_gate(g, controls) for g in gates[done:pos])
        lines.append(f"# {text}")
        done = pos
    lines.extend(_format_gate(g, controls) for g in gates[done:])
    return "\n".join(lines) + "\n"


def parse(text: str) -> Circuit:
    """Parse the serialize() format back into a Circuit.

    Raises ParseError with the offending line number and a reason.
    """
    num_qubits: int | None = None
    gates: list[Gate] = []
    labels: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            labels.append((len(gates), line[1:].strip()))
            continue
        tokens = line.split()
        kind = tokens[0]
        if num_qubits is None:
            if kind != "qubits":
                raise ParseError(lineno, "expected 'qubits N' header before gates")
            if len(tokens) != 2:
                raise ParseError(lineno, "qubits header takes one argument")
            try:
                num_qubits = _int_from_text(tokens[1], "qubit count")
            except ValueError as exc:
                raise ParseError(lineno, str(exc)) from None
            if num_qubits < 1:
                raise ParseError(lineno, f"qubit count must be >= 1, got {num_qubits}")
            continue
        try:
            gate = _parse_gate(kind, tokens, lineno)
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
        if gate._top >= num_qubits:
            raise ParseError(
                lineno, f"qubit {gate._top} out of range for {num_qubits} qubits")
        gates.append(gate)
    if num_qubits is None:
        raise ParseError(1, "empty input: missing 'qubits N' header")
    return Circuit(num_qubits, tuple(gates), labels=tuple(labels))


def _parse_gate(kind: str, tokens: list[str], lineno: int) -> Gate:
    if kind in _PLAIN_GATES:
        cls, arity, wording = _PLAIN_GATES[kind]
        if len(tokens) != arity + 1:
            raise ParseError(lineno, f"{kind} takes {wording}")
        return cls(*(_int_from_text(t, "qubit") for t in tokens[1:]))
    if kind == "P":
        if "->" not in tokens:
            raise ParseError(lineno, "P line is missing '->'")
        arrow = tokens.index("->")
        if arrow < 2 or arrow != len(tokens) - 2:
            raise ParseError(lineno, "P line must look like 'P <turn> [±q ...] -> <q>'")
        turn = parse_turn(tokens[1])
        controls = []
        for tok in tokens[2:arrow]:
            if not tok or tok[0] not in "+-":
                raise ParseError(lineno, f"control must start with + or -: {tok!r}")
            controls.append(Control(_int_from_text(tok[1:], "control qubit"),
                                    positive=tok[0] == "+"))
        target = _int_from_text(tokens[arrow + 1], "target")
        return Phase(turn, target, tuple(controls))
    raise ParseError(lineno, f"unknown gate kind {kind!r}")
