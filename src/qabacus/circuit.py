"""Gate and circuit data model with a line-oriented text serialization.

Gates are immutable dataclasses; a circuit is an ordered gate sequence
over a fixed qubit count.  Qubit 0 is the least significant bit of a
basis index throughout.  Phase gates carry their angle as an exact
``Turn`` and support positive (closed-dot) and negative (open-dot)
controls; a phase applies iff every control matches its polarity and
the target bit is 1.
"""

from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Union

from .turns import Turn, format_turn, parse_turn

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


def _check_qubit(q: int, role: str) -> int:
    if not isinstance(q, int) or isinstance(q, bool) or q < 0:
        raise ValueError(f"{role} must be a non-negative integer, got {q!r}")
    return q


@dataclass(frozen=True)
class Control:
    qubit: int
    positive: bool = True

    def __post_init__(self):
        _check_qubit(self.qubit, "control qubit")


@dataclass(frozen=True)
class Hadamard:
    target: int

    def __post_init__(self):
        _check_qubit(self.target, "target")

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.target,)


@dataclass(frozen=True)
class X:
    target: int

    def __post_init__(self):
        _check_qubit(self.target, "target")

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.target,)


@dataclass(frozen=True)
class Phase:
    """Multiply amplitudes by e^{i*2*pi*turn} where target bit is 1 and
    every control qubit matches its polarity.  No controls = plain
    z-rotation."""

    turn: Turn
    target: int
    controls: tuple[Control, ...] = ()

    def __post_init__(self):
        if not isinstance(self.turn, Turn):
            raise ValueError(f"turn must be a Turn, got {self.turn!r}")
        _check_qubit(self.target, "target")
        coerced = []
        for c in self.controls:
            if isinstance(c, Control):
                coerced.append(c)
            elif isinstance(c, int) and not isinstance(c, bool):
                coerced.append(Control(c))
            elif isinstance(c, tuple):
                coerced.append(Control(*c))
            else:
                raise ValueError(f"not a control: {c!r}")
        object.__setattr__(self, "controls", tuple(coerced))
        qubits = [c.qubit for c in self.controls] + [self.target]
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"controls and target must be distinct, got {qubits}")

    @property
    def qubits(self) -> tuple[int, ...]:
        return tuple(c.qubit for c in self.controls) + (self.target,)


@dataclass(frozen=True)
class Swap:
    a: int
    b: int

    def __post_init__(self):
        _check_qubit(self.a, "swap operand")
        _check_qubit(self.b, "swap operand")
        if self.a == self.b:
            raise ValueError(f"swap operands must differ, got {self.a}")

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
        if not isinstance(self.num_qubits, int) or self.num_qubits < 1:
            raise ValueError(f"num_qubits must be >= 1, got {self.num_qubits!r}")
        object.__setattr__(self, "gates", tuple(self.gates))
        # Canonical label order: by position, stable.
        object.__setattr__(
            self, "labels",
            tuple(sorted(self.labels, key=lambda item: item[0])))
        for g in self.gates:
            if not isinstance(g, (Hadamard, X, Phase, Swap)):
                raise ValueError(f"not a gate: {g!r}")
            worst = max(g.qubits)
            if worst >= self.num_qubits:
                raise ValueError(
                    f"gate {g!r} touches qubit {worst} but circuit has "
                    f"{self.num_qubits} qubits")
        for pos, text in self.labels:
            if not 0 <= pos <= len(self.gates):
                raise ValueError(f"label position {pos} out of range")
            if "\n" in text:
                raise ValueError("label text must be a single line")

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

    def __len__(self) -> int:
        return len(self.gates)


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
        if isinstance(g, Hadamard):
            counts["h"] += 1
        elif isinstance(g, X):
            counts["x"] += 1
        elif isinstance(g, Phase):
            counts["cphase" if g.controls else "phase"] += 1
        else:
            counts["swap"] += 1
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


def _format_gate(gate: Gate) -> str:
    if isinstance(gate, Hadamard):
        return f"H {gate.target}"
    if isinstance(gate, X):
        return f"X {gate.target}"
    if isinstance(gate, Swap):
        return f"SWAP {gate.a} {gate.b}"
    parts = ["P", format_turn(gate.turn)]
    parts.extend(f"{'+' if c.positive else '-'}{c.qubit}" for c in gate.controls)
    parts.append("->")
    parts.append(str(gate.target))
    return " ".join(parts)


def serialize(circuit: Circuit) -> str:
    """Canonical text form: a 'qubits N' header, then one gate per line.

    Labels appear as '# text' comment lines before the gate they mark.
    """
    by_pos = defaultdict(list)
    for pos, text in circuit.labels:
        by_pos[pos].append(text)
    lines = [f"qubits {circuit.num_qubits}"]
    for i, g in enumerate(circuit.gates):
        lines.extend(f"# {t}" for t in by_pos.get(i, ()))
        lines.append(_format_gate(g))
    lines.extend(f"# {t}" for t in by_pos.get(len(circuit.gates), ()))
    return "\n".join(lines) + "\n"


def _parse_int(token: str, line: int, role: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line, f"{role} is not an integer: {token!r}") from None


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
            num_qubits = _parse_int(tokens[1], lineno, "qubit count")
            if num_qubits < 1:
                raise ParseError(lineno, f"qubit count must be >= 1, got {num_qubits}")
            continue
        try:
            gate = _parse_gate(kind, tokens, lineno)
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
        worst = max(gate.qubits)
        if worst >= num_qubits:
            raise ParseError(
                lineno, f"qubit {worst} out of range for {num_qubits} qubits")
        gates.append(gate)
    if num_qubits is None:
        raise ParseError(1, "empty input: missing 'qubits N' header")
    return Circuit(num_qubits, tuple(gates), labels=tuple(labels))


def _parse_gate(kind: str, tokens: list[str], lineno: int) -> Gate:
    if kind == "H":
        if len(tokens) != 2:
            raise ParseError(lineno, "H takes exactly one qubit")
        return Hadamard(_parse_int(tokens[1], lineno, "qubit"))
    if kind == "X":
        if len(tokens) != 2:
            raise ParseError(lineno, "X takes exactly one qubit")
        return X(_parse_int(tokens[1], lineno, "qubit"))
    if kind == "SWAP":
        if len(tokens) != 3:
            raise ParseError(lineno, "SWAP takes exactly two qubits")
        return Swap(_parse_int(tokens[1], lineno, "qubit"),
                    _parse_int(tokens[2], lineno, "qubit"))
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
            controls.append(Control(_parse_int(tok[1:], lineno, "control qubit"),
                                    positive=tok[0] == "+"))
        target = _parse_int(tokens[arrow + 1], lineno, "target")
        return Phase(turn, target, tuple(controls))
    raise ParseError(lineno, f"unknown gate kind {kind!r}")
