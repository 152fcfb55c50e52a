import sys
import threading
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import max_amp_diff, random_circuit, random_state
from qabacus import (
    ArrayContents, ArrayLayout, Circuit, Control, Hadamard, IndexPredicate,
    ParseError, Phase, PhaseTable, Swap, X, apply_circuit, build_counter,
    build_count_stage, build_create, build_create_arithmetic, build_encoder,
    build_inverse_qft, build_phase_estimator, build_qft,
    build_qft_phase_estimator, build_update_add, count_phase_table,
    gate_count_report, invert, lower_negative_controls, parse, serialize,
)
from qabacus.circuit import _patterns
from qabacus.turns import DyadicTurn, Turn

GOLDEN_DIR = Path(__file__).parent / "goldens"


def test_gate_validation():
    with pytest.raises(ValueError):
        Phase(DyadicTurn(1, 2), 0, (Control(0),))  # target duplicated
    with pytest.raises(ValueError):
        Phase(DyadicTurn(1, 2), 2, (Control(1), Control(1, positive=False)))
    with pytest.raises(ValueError):
        Swap(1, 1)
    with pytest.raises(ValueError):
        Hadamard(-1)
    with pytest.raises(ValueError):
        Phase(0.25, 0)  # bare float is not a Turn


def test_no_control_coercion():
    # A control is a Control object; a bare qubit or a (qubit, positive)
    # pair is rejected, not coerced.  The container becomes a tuple.
    for controls in ((0,), ((1, False),), (Control(0), 1)):
        with pytest.raises(ValueError, match="^not a control: "):
            Phase(DyadicTurn(1, 1), 2, controls=controls)
    g = Phase(DyadicTurn(1, 1), 2, controls=[Control(0), Control(1, False)])
    assert g.controls == (Control(0, True), Control(1, False))


@pytest.mark.parametrize("positive", ["no", 2, 0, None, 1.0])
def test_control_polarity_must_be_bool(positive):
    # The dense kernel reads a truthy non-bool as a closed dot and the
    # tracker as a failed condition, so accepting one makes them disagree.
    with pytest.raises(ValueError,
                       match="^control polarity must be a bool, got "):
        Control(1, positive=positive)


def test_one_qubit_gates_stay_distinct():
    assert X(0) != Hadamard(0)
    assert not isinstance(X(0), Hadamard) and not isinstance(Hadamard(0), X)
    assert (repr(X(1)), repr(Hadamard(2))) == ("X(target=1)",
                                               "Hadamard(target=2)")
    assert X(1) == X(1) and hash(X(1)) == hash(X(1))
    assert len({X(0), Hadamard(0), X(0)}) == 2


def test_circuit_rejects_out_of_range_gates():
    with pytest.raises(ValueError):
        Circuit(2, (Hadamard(2),))
    with pytest.raises(ValueError):
        Circuit(0, ())
    with pytest.raises(ValueError):
        Circuit(1, (Hadamard(0),), labels=((2, "late"),))


_QUARTER = DyadicTurn(1, 2)


@pytest.mark.parametrize("gate", [
    Hadamard(2), X(2), Phase(_QUARTER, 2),
    Phase(_QUARTER, 0, (Control(2),)),
    Phase(_QUARTER, 1, (Control(2, positive=False), Control(0))),
    Swap(2, 0), Swap(0, 2),
], ids=["h", "x", "phase-target", "phase-control", "phase-open-control",
        "swap-a", "swap-b"])
def test_circuit_width_covers_every_qubit_of_a_gate(gate):
    # Qubit 2 is past a 2-qubit circuit whichever role it plays.
    with pytest.raises(ValueError, match="^gate .* touches qubit 2 but "
                                         "circuit has 2 qubits$"):
        Circuit(2, (gate,))
    text = serialize(Circuit(3, (gate,)))
    with pytest.raises(ParseError, match="^line 2: qubit 2 out of range for "
                                         "2 qubits$"):
        parse(text.replace("qubits 3", "qubits 2"))
    assert parse(text).gates == (gate,)
    # The stored top qubit is no field: equality and text ignore it.
    assert "_top" not in repr(gate)
    assert "_top" not in {f.name for f in fields(gate)}


@pytest.mark.parametrize("first, width", [
    (0, 1), (2, 3), (5, 2), (0, 7), (1, 11), (np.int64(3), np.int64(4)),
])
def test_patterns_enumerate_every_control_tuple(first, width):
    # Entry j selects bit pattern j: most significant qubit first, a
    # closed dot for each 1-bit.  Width 11 is 2048 patterns.
    patterns = list(_patterns(first, width))
    assert len(patterns) == 1 << width
    for j, got in enumerate(patterns):
        want = tuple(Control(int(first) + b, bool(j >> b & 1))
                     for b in range(int(width) - 1, -1, -1))
        assert got == want, j
        assert all(type(c.qubit) is int and type(c.positive) is bool
                   for c in got)
    assert list(_patterns(2, 3))[0b101] == (
        Control(4), Control(3, positive=False), Control(2))


def test_lazy_gates_under_threads():
    # Four threads make the first read of one circuit's gates at once;
    # each must get the whole expansion.
    rng = np.random.default_rng(5)
    table = PhaseTable(6, tuple(DyadicTurn(int(k), 6)
                                for k in rng.integers(0, 64, 64)))
    want = build_phase_estimator(table, 6).gates
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            circuit = build_phase_estimator(table, 6)
            start = threading.Barrier(4)
            got = []

            def read():
                start.wait()
                got.append(circuit.gates)

            threads = [threading.Thread(target=read) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert len(got) == 4 and all(g == want for g in got)
    finally:
        sys.setswitchinterval(interval)


def test_invert_examples():
    assert invert(Circuit(1, (Hadamard(0),))) == Circuit(1, (Hadamard(0),))
    inv = invert(Circuit(1, (Phase(DyadicTurn(1, 2), 0),)))
    assert inv == Circuit(1, (Phase(DyadicTurn(3, 2), 0),))


def test_invert_is_involution():
    rng = np.random.default_rng(7)
    c = random_circuit(4, 12, rng)
    assert invert(invert(c)) == c


def test_invert_roundtrips_random_states():
    rng = np.random.default_rng(11)
    for c in (build_qft(3), random_circuit(3, 10, rng)):
        ic = invert(c)
        for _ in range(20):
            s = random_state(3, rng)
            back = apply_circuit(apply_circuit(s, c), ic)
            assert max_amp_diff(s, back) <= 1e-10


def test_gate_count_report_empty():
    report = gate_count_report(Circuit(3))
    assert report == {"h": 0, "x": 0, "phase": 0, "cphase": 0, "swap": 0,
                      "total": 0}


def test_gate_count_report_qft3():
    report = gate_count_report(build_qft(3))
    assert report["h"] == 3
    assert report["cphase"] == 3
    assert report["swap"] == 1
    assert report["total"] == 7


def test_gate_count_counting_blocks_n4():
    # 4 inputs, 3 ancillas: the counting stage holds 4*3 controlled phases.
    report = gate_count_report(build_count_stage(4))
    assert report["cphase"] == 12
    assert report["h"] == 3


def test_serialize_examples():
    assert serialize(Circuit(1, (Hadamard(0),))) == "qubits 1\nH 0\n"
    line = serialize(Circuit(3, (Phase(DyadicTurn(5, 3), 0, (Control(2),)),)))
    assert line.splitlines()[1] == "P 5/8 +2 -> 0"


def test_serialize_formats_shared_control_tuples_exactly():
    # serialize formats each control tuple once per call, keyed by the
    # tuple's identity: a shared tuple, an equal tuple built apart and a
    # different tuple of the same length must each get their own text.
    shared = (Control(4), Control(0, False))
    equal = (Control(4), Control(0, False))
    other = (Control(1), Control(2, False))
    gates = (Hadamard(3),
             Phase(DyadicTurn(1, 2), 3, shared),
             Phase(DyadicTurn(3, 3), 2, shared),
             Phase(Turn(0.1), 1, shared),
             Phase(DyadicTurn(1, 1), 3, equal),
             Phase(DyadicTurn(5, 4), 3, other),
             Phase(DyadicTurn(1, 4), 2),
             Swap(0, 4), X(1))
    assert gates[1].controls is gates[3].controls
    assert gates[4].controls == shared and gates[4].controls is not shared
    labels = ((0, "start"), (3, "middle"), (3, "again"), (len(gates), "end"))
    circuit = Circuit(5, gates, labels=labels)
    # Each gate line is the one-gate circuit's line.
    want = ["qubits 5"]
    for i, g in enumerate(gates):
        want += [f"# {t}" for pos, t in labels if pos == i]
        want.append(serialize(Circuit(5, (g,))).splitlines()[1])
    want.append("# end")
    text = serialize(circuit)
    assert text.splitlines() == want
    assert want[3:6] == ["P 1/4 +4 -0 -> 3", "P 3/8 +4 -0 -> 2",
                         "# middle"]
    assert "P 5/16 +1 -2 -> 3" in want and "P 1/16 -> 2" in want
    back = parse(text)
    assert back == circuit and back.labels == circuit.labels


def test_parse_negative_control():
    c = parse("qubits 2\nP 1/2 -1 -> 0\n")
    assert c == Circuit(2, (Phase(DyadicTurn(1, 1), 0,
                                  (Control(1, positive=False),)),))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse("qubits 2\nH 0\nWOBBLE 1\n")
    assert err.value.line == 3
    assert "WOBBLE" in err.value.reason

    with pytest.raises(ParseError) as err:
        parse("H 0\n")
    assert "header" in err.value.reason

    with pytest.raises(ParseError) as err:
        parse("qubits 2\nP 1/3 -> 0\n")
    assert err.value.line == 2

    with pytest.raises(ParseError) as err:
        parse("qubits 2\nH 5\n")
    assert "out of range" in err.value.reason

    with pytest.raises(ParseError):
        parse("")

    for turn in ("nan", "inf"):
        with pytest.raises(ParseError) as err:
            parse(f"qubits 1\nP {turn} -> 0")
        assert err.value.line == 2


@pytest.mark.parametrize("text, line, reason", [
    ("qubits 2\nH 0 1\n", 2, "H takes exactly one qubit"),
    ("qubits 2\n# a\nX\n", 3, "X takes exactly one qubit"),
    ("qubits 2\nSWAP 0\n", 2, "SWAP takes exactly two qubits"),
    ("qubits 2\nH 0\nP 1/2 0\n", 3, "P line is missing '->'"),
    ("qubits 2\nP 1/2 -> 0 1\n", 2,
     "P line must look like 'P <turn> [±q ...] -> <q>'"),
    ("qubits 4\nP 1/2 3 -> 0\n", 2, "control must start with + or -: '3'"),
    ("qubits 0\n", 1, "qubit count must be >= 1, got 0"),
    # Every integer field is ASCII -?[0-9]+, as serialize writes it.
    ("qubits 2\nP 1/4 +0 -> +1\n", 2, "target is not an integer: '+1'"),
    ("qubits 2\nP 1/4 ++0 -> 1\n", 2, "control qubit is not an integer: '+0'"),
    ("qubits 2\nP 1/4 -+0 -> 1\n", 2, "control qubit is not an integer: '+0'"),
    ("qubits +2\n", 1, "qubit count is not an integer: '+2'"),
    ("qubits \u0662\n", 1, "qubit count is not an integer: '\u0662'"),
    ("qubits 2\nH \u0661\n", 2, "qubit is not an integer: '\u0661'"),
    ("qubits 2\nP 1_0/1_6 -> 1\n", 2, "numerator is not an integer: '1_0'"),
    ("qubits 2\nP +1/+4 -> 1\n", 2, "numerator is not an integer: '+1'"),
    ("qubits 2\nP 1/+4 -> 1\n", 2, "denominator is not an integer: '+4'"),
    ("qubits 2\nP x/4 -> 0\n", 2, "numerator is not an integer: 'x'"),
    ("qubits 2\nP 0.2_5 -> 1\n", 2, "turn is not a number: '0.2_5'"),
    ("qubits 2\nP \u0660.\u0665 -> 1\n", 2,
     "turn is not a number: '\u0660.\u0665'"),
    ("qubits 2\nP banana -> 0", 2, "turn is not a number: 'banana'"),
    ("qubits 2\nP 0.5.5 -> 0\n", 2, "turn is not a number: '0.5.5'"),
    ("qubits 2\nP 0x1p-2 -> 0\n", 2, "turn is not a number: '0x1p-2'"),
    # A float turn is the repr of a value in [0, 1), as serialize writes it.
    *(("qubits 1\nP %s -> 0\n" % token, 2,
       "float turn must be the repr of a value in [0, 1): %r" % token)
      for token in ("+0.5", ".5", "5E-1", "0.50", "1.5", "-0.25", "-0.0",
                    "nan", "inf")),
    # Negatives still reach the range texts.
    ("qubits 2\nH -1\n", 2, "target out of range: must be >= 0, got -1"),
    ("qubits 2\nP 1/4 +-1 -> 0\n", 2,
     "control qubit out of range: must be >= 0, got -1"),
    ("qubits -2\n", 1, "qubit count must be >= 1, got -2"),
])
def test_parse_error_texts(text, line, reason):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.reason) == (line, reason)
    assert str(err.value) == f"line {line}: {reason}"


def test_parse_shares_control_tuples():
    # Lines with the same control tokens share one tuple; the circuit is
    # the one built with a tuple per gate.
    text = ("qubits 4\nP 1/2 +3 -1 -> 0\nH 2\nP 1/4 +3 -1 -> 2\n"
            "P 1/8 -> 3\nP 3/8 +3 -01 -> 0\n")
    back = parse(text)
    assert back == Circuit(4, (
        Phase(DyadicTurn(1, 1), 0, (Control(3), Control(1, False))),
        Hadamard(2),
        Phase(DyadicTurn(1, 2), 2, (Control(3), Control(1, False))),
        Phase(DyadicTurn(1, 3), 3),
        Phase(DyadicTurn(3, 3), 0, (Control(3), Control(1, False)))))
    first, _, second, _, other = back.gates
    assert second.controls is first.controls
    assert other.controls == first.controls
    assert other.controls is not first.controls  # "-01" is its own text


@pytest.mark.parametrize("text, line, reason", [
    # The bad token's first line raises, with or without good lines that
    # share other controls before it.
    ("qubits 3\nP 1/2 +1 -> 0\nP 1/4 +1 x2 -> 0\nP 1/4 +1 x2 -> 0\n", 3,
     "control must start with + or -: 'x2'"),
    ("qubits 3\nP 1/2 +1 -> 0\nP 1/4 +1 -> 2\nP 1/4 +1 +a -> 0\n", 4,
     "control qubit is not an integer: 'a'"),
    # A shared tuple is still checked against each line's target.
    ("qubits 3\nP 1/2 +1 -> 0\nP 1/4 +1 -> 1\n", 3,
     "controls and target must be distinct, got [1, 1]"),
])
def test_parse_shared_controls_keep_error_lines(text, line, reason):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.reason) == (line, reason)


def test_label_text_must_be_one_line():
    with pytest.raises(ValueError, match="^label text must be a single line$"):
        Circuit(1, (Hadamard(0),), labels=((0, "prep\nmore"),))


def test_labels_survive_serialize_parse():
    c = Circuit(2, (Hadamard(1), Hadamard(0)),
                labels=((0, "prep"), (2, "done")))
    back = parse(serialize(c))
    assert back == c
    assert back.labels == c.labels


def test_labels_do_not_affect_equality():
    a = Circuit(1, (Hadamard(0),), labels=((0, "x"),))
    b = Circuit(1, (Hadamard(0),))
    assert a == b


def test_from_blocks_labels_block_starts():
    joined = Circuit.from_blocks(2, [
        ("a", [Hadamard(0)]),
        ("empty", []),
        ("b", (Hadamard(1), X(0))),
        ("end", ()),
    ])
    assert joined.gates == (Hadamard(0), Hadamard(1), X(0))
    assert joined.labels == ((0, "a"), (1, "empty"), (1, "b"), (3, "end"))
    assert serialize(joined) == (
        "qubits 2\n# a\nH 0\n# empty\n# b\nH 1\nX 0\n# end\n")
    with pytest.raises(ValueError):
        Circuit.from_blocks(2, [("wide", [Hadamard(2)])])


def test_builders_construct_one_circuit(monkeypatch):
    layout = ArrayLayout(2, 3)
    builders = {
        "build_qft": lambda: build_qft(3),
        "build_inverse_qft": lambda: build_inverse_qft(3),
        "build_count_stage": lambda: build_count_stage(3),
        "build_counter": lambda: build_counter(3),
        "build_phase_estimator":
            lambda: build_phase_estimator(count_phase_table(2), 2),
        "build_qft_phase_estimator": lambda: build_qft_phase_estimator(2),
        "build_encoder": lambda: build_encoder(5, 3),
        "build_create":
            lambda: build_create(ArrayContents((1, 2, 0, 5)), layout),
        "build_create_arithmetic":
            lambda: build_create_arithmetic(1, 3, layout),
        "build_update_add":
            lambda: build_update_add(1, IndexPredicate.even(), layout),
    }
    built = []
    init = Circuit.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Circuit, "__init__", counting_init)
    for name, build in builders.items():
        built.clear()
        circuit = build()
        assert built == [circuit], name


def test_lower_negative_controls_state_identical():
    rng = np.random.default_rng(3)
    gates = (
        Phase(DyadicTurn(3, 3), 0, (Control(1, positive=False), Control(2))),
        Hadamard(1),
        Phase(Turn(0.37), 2, (Control(0, positive=False),)),
    )
    c = Circuit(3, gates)
    lowered = lower_negative_controls(c)
    assert all(ctrl.positive for g in lowered.gates
               if isinstance(g, Phase) for ctrl in g.controls)
    assert gate_count_report(lowered)["x"] == 4  # two open dots, conjugated
    for _ in range(10):
        s = random_state(3, rng)
        a = apply_circuit(s, c)
        b = apply_circuit(s, lowered)
        assert np.array_equal(a.amplitudes, b.amplitudes)


def test_goldens_match():
    cases = {
        "circuit_qft3.txt": build_qft(3),
        "circuit_counter3.txt": build_counter(3),
        "circuit_encoder_5_3.txt": build_encoder(5, 3),
        "circuit_iqft3.txt": build_inverse_qft(3),
        "circuit_qft_pea2.txt": build_qft_phase_estimator(2),
        "circuit_pea_count2.txt":
            build_phase_estimator(count_phase_table(2), 2),
        "circuit_create_1205_2x3.txt":
            build_create(ArrayContents((1, 2, 0, 5)), ArrayLayout(2, 3)),
        "circuit_create_arith_1_3_2x3.txt":
            build_create_arithmetic(1, 3, ArrayLayout(2, 3)),
        "circuit_update_add_1_even_2x3.txt":
            build_update_add(1, IndexPredicate.even(), ArrayLayout(2, 3)),
    }
    for name, circuit in cases.items():
        golden = (GOLDEN_DIR / name).read_text()
        assert serialize(circuit) == golden, name


_turns = st.one_of(
    st.builds(lambda n, k: DyadicTurn(n % (1 << k), k),
              st.integers(0, 255), st.integers(0, 8)),
    st.builds(Turn, st.floats(min_value=0.0, max_value=1.0,
                              exclude_max=True, allow_nan=False)),
)


@st.composite
def _gates(draw, num_qubits):
    kinds = ["h", "x", "p"] + (["swap"] if num_qubits >= 2 else [])
    kind = draw(st.sampled_from(kinds))
    qubit = st.integers(0, num_qubits - 1)
    if kind == "h":
        return Hadamard(draw(qubit))
    if kind == "x":
        return X(draw(qubit))
    if kind == "swap":
        a = draw(qubit)
        b = draw(qubit.filter(lambda v: v != a))
        return Swap(a, b)
    target = draw(qubit)
    others = [q for q in range(num_qubits) if q != target]
    chosen = draw(st.lists(st.sampled_from(others), unique=True,
                           max_size=len(others))) if others else []
    controls = tuple(Control(q, positive=draw(st.booleans())) for q in chosen)
    return Phase(draw(_turns), target, controls)


@st.composite
def _circuits(draw):
    num_qubits = draw(st.integers(1, 6))
    gates = draw(st.lists(_gates(num_qubits), max_size=12))
    label_text = st.text(alphabet="abcdefghij-_ 0123456789", max_size=8).map(
        str.strip)
    labels = draw(st.lists(
        st.tuples(st.integers(0, len(gates)), label_text), max_size=3))
    return Circuit(num_qubits, tuple(gates), labels=tuple(labels))


@settings(max_examples=1000, deadline=None)
@given(_circuits())
def test_serialize_parse_roundtrip(circuit):
    back = parse(serialize(circuit))
    assert back == circuit
    assert back.labels == circuit.labels


_FUZZ_TOKENS = st.sampled_from([
    "qubits", "H", "X", "SWAP", "P", "->", "#", "0", "1", "2", "+0", "-1",
    "+", "-", "nan", "inf", "-inf", "1e400", "1/0", "1/3", "1/2", "5/8",
    "-1/4", "0.25",
])
_fuzz_lines = st.lists(st.one_of(_FUZZ_TOKENS, st.text(max_size=4)),
                       max_size=6).map(" ".join)


@settings(max_examples=300, deadline=None)
@given(st.lists(_fuzz_lines, max_size=6).map("\n".join))
def test_parse_accepts_or_raises_parse_error(text):
    try:
        circuit = parse(text)
    except ParseError:
        return
    assert parse(serialize(circuit)) == circuit


def test_label_positions_and_texts_are_checked_before_sorting():
    gates = (Hadamard(0), X(1))
    for labels, message in [
            (((0.5, "mid"),), "label position must be an integer, got 0.5"),
            ((("a", "b"),), "label position must be an integer, got 'a'"),
            (((3, "late"),), "label position out of range: must be in [0, 2], "
                             "got 3"),
            (((0, 5),), "label text must be a string, got 5"),
            (((0, "a\rb"),), "label text must be a single line"),
            (((0, " prep "),), "label text has outer whitespace: ' prep '")]:
        with pytest.raises(ValueError) as err:
            Circuit(2, gates, labels=labels)
        assert str(err.value) == message
    c = Circuit(2, gates, labels=((np.int64(2), "end"), (0, "")))
    assert c.labels == ((0, ""), (2, "end"))
    assert type(c.labels[1][0]) is int
    assert parse(serialize(c)).labels == c.labels
