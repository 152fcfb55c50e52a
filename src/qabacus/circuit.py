"""Gate and circuit data model with a line-oriented text serialization.

Gates are immutable dataclasses; a circuit is an ordered gate sequence
over a fixed qubit count.  Qubit 0 is the least significant bit of a
basis index throughout.  Phase gates carry their angle as an exact
``Turn`` and take ``Control`` objects as controls, each positive
(closed-dot) or negative (open-dot) by a bool; a phase applies iff every
control matches its polarity and the target bit is 1.

Each gate also keeps its highest qubit, ``_top``, outside its fields, so
a circuit checks its width without rebuilding the gate's qubit tuple.

The generic phase estimator's kickback is one private block,
``_TableKick``: its m * 2**n gates are made only when a circuit's
``gates`` are first read, while ``serialize`` writes its lines from the
table and ``tracking.track`` runs only the gates a basis input fires.
"""

import itertools
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


def _patterns(first: int, width: int) -> itertools.product:
    """Yields, as entry j, the controls that select bit pattern j on
    qubits first..first+width-1: most significant first, a closed dot for
    each 1-bit and an open dot for each 0-bit.  The gates of one pattern
    share its tuple, and a tuple no gate takes is freed at once."""
    return itertools.product(*(
        (Control(q, False), Control(q, True))
        for q in range(first + width - 1, first - 1, -1)))


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


class _TableKick:
    """The kickback of ``build_phase_estimator(table, m)`` as one block.

    For ancilla l = 0..m-1 (qubit n + l) and, within it, input pattern
    j = 0..2**n-1: the gate ``Phase(table.phases[j].times_pow2(l), n + l,
    controls)``, with entry j of ``_patterns(0, n)`` as its controls,
    wherever that power is nonzero, which is for l < min(k_j, m) with k_j
    entry j's ``denom_exponent``.
    """

    __slots__ = ("table", "m", "size", "_top")

    def __init__(self, table, m: int):
        self.table = table
        self.m = m
        self.size = sum(min(p.denom_exponent, m) for p in table.phases)
        self._top = table.num_input_qubits + m - 1

    def terms(self, patterns=None):
        """``(l, j, turn)`` of each gate in block order, for the input
        patterns j in ``patterns`` (every pattern if None)."""
        phases = self.table.phases
        if patterns is None:
            patterns = range(len(phases))
        return ((l, j, phases[j].times_pow2(l)) for l in range(self.m)
                for j in patterns if l < phases[j].denom_exponent)

    def gates(self) -> list[Phase]:
        """The gates of ``terms()``."""
        n = self.table.num_input_qubits
        patterns = list(_patterns(0, n))
        return [Phase(turn, n + l, patterns[j]) for l, j, turn in self.terms()]


@dataclass(frozen=True)
class Circuit:
    """Ordered gate sequence over num_qubits qubits.

    ``labels`` are non-semantic annotations (gate index, text) used to
    mark blocks in serialized dumps; they are excluded from equality.

    A builder may pass a ``_TableKick`` block among the gates.  The
    circuit keeps it whole in ``_parts`` (runs of gates as tuples, and
    the blocks), counts its gates for the label positions and expands it
    into ``gates`` on the first read, as a branch-form ``StateVector``
    builds its ``amplitudes``.
    """

    num_qubits: int
    gates: tuple[Gate, ...]  # read through the ``gates`` property below
    labels: tuple[tuple[int, str], ...] = field(default=(), compare=False)

    def __init__(self, num_qubits: int, gates=(), labels=()):
        num_qubits = _check_int(num_qubits, "num_qubits", 1)
        gates = tuple(gates)
        size, blocks = len(gates), False
        for g in gates:
            if not isinstance(g, (Hadamard, X, Phase, Swap)):
                if not isinstance(g, _TableKick):
                    raise ValueError(f"not a gate: {g!r}")
                size += g.size - 1
                blocks = True
            if g._top >= num_qubits:
                raise ValueError(
                    f"gate {g!r} touches qubit {g._top} but circuit has "
                    f"{num_qubits} qubits")
        object.__setattr__(self, "num_qubits", num_qubits)
        if blocks:
            parts, start = [], 0
            for i, g in enumerate(gates):
                if isinstance(g, _TableKick):
                    parts += (gates[start:i], g)
                    start = i + 1
            parts.append(gates[start:])
            object.__setattr__(self, "_parts", tuple(parts))
            object.__setattr__(self, "_gates", None)
        else:
            object.__setattr__(self, "_parts", (gates,))
            object.__setattr__(self, "_gates", gates)
        checked = []
        for pos, text in labels:
            pos = _check_int(pos, "label position", 0, size + 1)
            if not isinstance(text, str):
                raise ValueError(f"label text must be a string, got {text!r}")
            # parse splits lines at every line boundary str.splitlines knows.
            if text.splitlines() not in ([], [text]):
                raise ValueError("label text must be a single line")
            if text != text.strip():  # parse strips it, so it would not round-trip
                raise ValueError(f"label text has outer whitespace: {text!r}")
            checked.append((pos, text))
        # Canonical label order: by position, stable.
        object.__setattr__(self, "labels",
                           tuple(sorted(checked, key=lambda item: item[0])))

    @property
    def gates(self) -> tuple[Gate, ...]:
        """The gates in order, every block expanded (on the first read)."""
        gates = self._gates
        if gates is None:
            # Threads racing on the first read each build an equal tuple,
            # and any one of them may be the one kept.
            gates = tuple(g for part in self._parts for g in (
                part if isinstance(part, tuple) else part.gates()))
            object.__setattr__(self, "_gates", gates)
        return gates

    @classmethod
    def from_blocks(cls, num_qubits: int, blocks) -> "Circuit":
        """One circuit from ``(label, gates)`` blocks run in order, where
        a block is its gates or one ``_TableKick``.

        Each label marks the position where its block starts, so an
        empty block at the end leaves its label after the last gate.
        """
        gates: list = []
        labels: list[tuple[int, str]] = []
        size = 0
        for label, block in blocks:
            labels.append((size, label))
            if isinstance(block, _TableKick):
                gates.append(block)
                size += block.size
            else:
                start = len(gates)
                gates.extend(block)
                size += len(gates) - start
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


def _control_text(controls: tuple[Control, ...]) -> str:
    """The controls of a P line, each followed by a space."""
    return "".join(f"{'+' if c.positive else '-'}{c.qubit} " for c in controls)


def _phase_line(turn: Turn, controls: str, target: int) -> str:
    """A P line from its turn, its ``_control_text`` and its target."""
    return f"P {format_turn(turn)} {controls}-> {target}"


def _format_gate(gate: Gate, controls: dict[int, str]) -> str:
    """One gate line.  ``controls`` memoizes each control tuple's text by
    the tuple's ``id``, so the caller keeps every keyed tuple alive while
    it uses the dict, as a circuit does for its gates' tuples."""
    if not isinstance(gate, Phase):
        return " ".join([_PLAIN_KINDS[type(gate)], *map(str, gate.qubits)])
    key = id(gate.controls)
    text = controls.get(key)
    if text is None:
        text = controls[key] = _control_text(gate.controls)
    return _phase_line(gate.turn, text, gate.target)


def _block_lines(block: _TableKick) -> list[str]:
    """The lines of a ``_TableKick``'s gates, written from its table: each
    input pattern's control text is made once, for all m powers."""
    n = block.table.num_input_qubits
    texts = [_control_text(controls) if p.denom_exponent else ""
             for controls, p in zip(_patterns(0, n), block.table.phases)]
    return [_phase_line(turn, texts[j], n + l) for l, j, turn in block.terms()]


def serialize(circuit: Circuit) -> str:
    """Canonical text form: a 'qubits N' header, then one gate per line.

    Labels appear as '# text' comment lines before the gate they mark.
    Builders share one control tuple across many gates, so each tuple's
    text is made once per call; a block's lines come from the block.
    """
    controls: dict[int, str] = {}
    body: list[str] = []
    for part in circuit._parts:
        if isinstance(part, tuple):
            body.extend(_format_gate(g, controls) for g in part)
        else:
            body.extend(_block_lines(part))
    lines = [f"qubits {circuit.num_qubits}"]
    done = 0
    for pos, text in circuit.labels:  # sorted by position
        lines.extend(body[done:pos])
        lines.append(f"# {text}")
        done = pos
    lines.extend(body[done:])
    return "\n".join(lines) + "\n"


def parse(text: str) -> Circuit:
    """Parse the serialize() format back into a Circuit.

    Raises ParseError with the offending line number and a reason.
    """
    num_qubits: int | None = None
    gates: list[Gate] = []
    labels: list[tuple[int, str]] = []
    # A P line's control tokens -> the Control tuple made at their first line.
    controls: dict[tuple[str, ...], tuple[Control, ...]] = {}
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
            gate = _parse_gate(kind, tokens, lineno, controls)
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


def _parse_gate(kind: str, tokens: list[str], lineno: int,
                controls: dict[tuple[str, ...], tuple[Control, ...]]) -> Gate:
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
        key = tuple(tokens[2:arrow])
        shared = controls.get(key)
        if shared is None:
            shared = []
            for tok in key:
                if not tok or tok[0] not in "+-":
                    raise ParseError(
                        lineno, f"control must start with + or -: {tok!r}")
                shared.append(Control(_int_from_text(tok[1:], "control qubit"),
                                      positive=tok[0] == "+"))
            shared = controls[key] = tuple(shared)
        target = _int_from_text(tokens[arrow + 1], "target")
        return Phase(turn, target, shared)
    raise ParseError(lineno, f"unknown gate kind {kind!r}")
