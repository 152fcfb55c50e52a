from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import max_amp_diff, random_circuit, random_state
from qabacus import (
    ArrayContents, ArrayLayout, Circuit, Control, Hadamard, IndexPredicate,
    ParseError, Phase, Swap, X, apply_circuit, build_counter,
    build_count_stage, build_create, build_create_arithmetic, build_encoder,
    build_inverse_qft, build_phase_estimator, build_qft,
    build_qft_phase_estimator, build_update_add, count_phase_table,
    gate_count_report, invert, lower_negative_controls, parse, serialize,
)
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


def test_control_coercion():
    g = Phase(DyadicTurn(1, 1), 2, controls=(0, (1, False)))
    assert g.controls == (Control(0, True), Control(1, False))


def test_circuit_rejects_out_of_range_gates():
    with pytest.raises(ValueError):
        Circuit(2, (Hadamard(2),))
    with pytest.raises(ValueError):
        Circuit(0, ())
    with pytest.raises(ValueError):
        Circuit(1, (Hadamard(0),), labels=((2, "late"),))


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
