"""Every integer parameter follows one rule: index-like integers pass,
numpy integers included, and are stored as plain ints; bools, floats,
strings and None are rejected with a ValueError naming the parameter."""

import dataclasses

import numpy as np
import pytest

from qabacus import (
    ArrayContents, ArrayLayout, Circuit, Control, Hadamard, IndexPredicate,
    PhaseTable, StateVector, Swap, X, analytic_fourier_state,
    analytic_outcome_probability, ancilla_width, arithmetic_contents,
    build_create_arithmetic, build_inverse_qft, build_phase_estimator,
    build_qft, build_qft_phase_estimator, build_update_add,
    count_phase_table, deterministic_outcome, diagonal_power,
    encode_signed, encoding_phase_gates, fourier_phase, is_zero_failure,
    new_basis_state, parse, qft_phase_table, sample_outcomes, serialize,
)
from qabacus.circuit import Phase
from qabacus.turns import DyadicTurn

_TABLE = qft_phase_table(2)
_LAYOUT = ArrayLayout(2, 3)
_STATE = new_basis_state(3, 5)


def _width_text(v):
    return f"register width must be in [1, 24] qubits, got {v}"


# (parameter, call with the value, name in the messages, a valid value,
#  an out-of-range value, the exact out-of-range text or None for the
#  "range" form)
CASES = [
    ("Control.qubit", lambda v: Control(v), "control qubit", 2, -1, None),
    ("Hadamard.target", lambda v: Hadamard(v), "target", 1, -1, None),
    ("X.target", lambda v: X(v), "target", 1, -1, None),
    ("Phase.target", lambda v: Phase(DyadicTurn(1, 2), v, (Control(0),)),
     "target", 2, -3, None),
    ("Swap.a", lambda v: Swap(v, 0), "swap operand", 1, -1, None),
    ("Swap.b", lambda v: Swap(0, v), "swap operand", 2, -1, None),
    ("Circuit.num_qubits", lambda v: Circuit(v, (Hadamard(0),)),
     "num_qubits", 2, 0, None),
    ("Circuit label position",
     lambda v: Circuit(1, (Hadamard(0),), labels=((v, "end"),)),
     "label position", 1, 2, None),
    ("ancilla_width.n", lambda v: ancilla_width(v), "register length", 5, 0,
     None),
    ("fourier_phase.d", lambda v: fourier_phase(v, 1, 3), "value", 5, 8, None),
    ("fourier_phase.l", lambda v: fourier_phase(5, v, 3), "qubit index", 2, 3,
     None),
    ("fourier_phase.n", lambda v: fourier_phase(1, 0, v), "register width", 3,
     0, None),
    ("encoding_phase_gates.num_qubits", lambda v: encoding_phase_gates(5, v),
     "register width", 3, 0, None),
    ("encoding_phase_gates.value", lambda v: encoding_phase_gates(v, 3),
     "value", 5, 8, None),
    ("encode_signed.value", lambda v: encode_signed(v, 3), "signed value", 3,
     4, None),
    ("encode_signed.n", lambda v: encode_signed(-1, v), "register width", 3,
     25, _width_text(25)),
    ("PhaseTable.num_input_qubits",
     lambda v: PhaseTable(v, _TABLE.phases), "num_input_qubits", 2, 0, None),
    ("qft_phase_table.n", lambda v: qft_phase_table(v), "n", 2, 0, None),
    ("diagonal_power.l", lambda v: diagonal_power(_TABLE, v),
     "power exponent", 1, -1, None),
    ("build_phase_estimator.m", lambda v: build_phase_estimator(_TABLE, v),
     "ancilla count", 2, 0, None),
    ("analytic_outcome_probability.m",
     lambda v: analytic_outcome_probability(DyadicTurn(1, 2), v, 1), "m", 2,
     0, None),
    ("analytic_outcome_probability.j",
     lambda v: analytic_outcome_probability(DyadicTurn(1, 2), 2, v),
     "outcome", 1, 4, None),
    ("is_zero_failure.m", lambda v: is_zero_failure(_TABLE, v), "m", 2, -1,
     None),
    ("build_qft_phase_estimator.n", lambda v: build_qft_phase_estimator(v),
     "n", 2, 0, None),
    ("ArrayLayout.index_qubits", lambda v: ArrayLayout(v, 2), "index_qubits",
     2, 0, None),
    ("ArrayLayout.data_qubits", lambda v: ArrayLayout(2, v), "data_qubits",
     3, 0, None),
    ("IndexPredicate.mask", lambda v: IndexPredicate(v, 0), "mask", 3, -1,
     None),
    ("IndexPredicate.match", lambda v: IndexPredicate(3, v), "match", 2, -2,
     None),
    ("ArrayContents.values", lambda v: ArrayContents((1, v)), "value", 4, -1,
     None),
    ("build_update_add.addend",
     lambda v: build_update_add(v, IndexPredicate.even(), _LAYOUT), "addend",
     3, 8, None),
    ("build_create_arithmetic.first",
     lambda v: build_create_arithmetic(v, 1, _LAYOUT), "first", 2, 8, None),
    ("build_create_arithmetic.step",
     lambda v: build_create_arithmetic(1, v, _LAYOUT), "step", 3, 9, None),
    ("arithmetic_contents.first",
     lambda v: arithmetic_contents(v, 1, _LAYOUT), "first", 2, 8, None),
    ("arithmetic_contents.step",
     lambda v: arithmetic_contents(1, v, _LAYOUT), "step", 3, 8, None),
    ("analytic_fourier_state.d", lambda v: analytic_fourier_state(v, 3),
     "value", 6, 8, None),
    ("analytic_fourier_state.n", lambda v: analytic_fourier_state(1, v),
     "register width", 2, 0, _width_text(0)),
    ("build_qft.n", lambda v: build_qft(v), "register width", 3, 25,
     _width_text(25)),
    ("build_inverse_qft.n", lambda v: build_inverse_qft(v), "register width",
     3, 0, _width_text(0)),
    ("StateVector.num_qubits",
     lambda v: StateVector(v, [1, 0, 0, 0]), "register width", 2, 25,
     _width_text(25)),
    ("new_basis_state.num_qubits", lambda v: new_basis_state(v, 1),
     "register width", 2, 25, _width_text(25)),
    ("new_basis_state.basis", lambda v: new_basis_state(3, v), "basis index",
     5, 8, None),
    ("deterministic_outcome.qubits",
     lambda v: deterministic_outcome(_STATE, qubits=[v]), "qubit", 2, 3, None),
    ("sample_outcomes.shots",
     lambda v: sample_outcomes(_STATE, v, np.random.default_rng(1)), "shots",
     3, 0, None),
]


def _integers(obj):
    """Every integer reachable from a result: dataclass fields, tuple and
    list items, a state's width.  Bools are flags, not integers."""
    if isinstance(obj, StateVector):
        yield obj.num_qubits
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _integers(getattr(obj, f.name))
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _integers(item)
    elif hasattr(type(obj), "__index__") and not isinstance(obj, bool):
        yield obj


def _same(a, b) -> bool:
    if isinstance(a, StateVector):
        return (a.num_qubits == b.num_qubits
                and np.array_equal(a.amplitudes, b.amplitudes))
    if isinstance(a, Circuit):
        return a == b and a.labels == b.labels
    return a == b


@pytest.mark.parametrize("param, call, name, valid, out, out_text", CASES,
                         ids=[case[0] for case in CASES])
def test_integer_parameter(param, call, name, valid, out, out_text):
    for bad in (True, 1.5, "2", None):
        with pytest.raises(ValueError, match=name) as err:
            call(bad)
        assert str(err.value) == f"{name} must be an integer, got {bad!r}"
    expected = call(valid)
    for like in (np.int64(valid), np.uint8(valid)):
        got = call(like)
        assert _same(got, expected)
        assert all(type(v) is int for v in _integers(got)), got
    with pytest.raises(ValueError) as err:
        call(out)
    if out_text is not None:
        assert str(err.value) == out_text
    else:
        message = str(err.value)
        assert message.startswith(name) and "range" in message
        assert str(out) in message
    with pytest.raises(ValueError):
        call(np.int64(out))


def test_numpy_width_round_trips_through_text():
    c = build_qft(np.int64(3))
    assert type(c.num_qubits) is int
    assert serialize(c) == serialize(build_qft(3))
    assert parse(serialize(c)) == build_qft(3)


def test_count_phase_table_accepts_numpy_width():
    assert count_phase_table(np.int64(2)) == count_phase_table(2)
    with pytest.raises(ValueError, match="register length"):
        count_phase_table(True)
