"""Exact dyadic bookkeeping inside apply_circuit.

Every circuit here is checked against the dense reference unitary,
global phase included; the guards check that the paper's circuits run
without a single dense gate.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qabacus import (
    ArrayContents, ArrayLayout, Circuit, Control, CountTarget, Hadamard,
    IndexPredicate, Phase, PhaseTable, StateVector, Swap, X, apply_circuit,
    build_counter, build_create, build_encoder, build_inverse_qft,
    build_phase_estimator, build_qft_phase_estimator, build_update_add,
    create_state, deterministic_outcome, new_basis_state, run_count,
    statevector,
)
from qabacus.cli import main
from qabacus.reference import ref_circuit_matrix
from qabacus.tracking import NotRepresentable, track
from qabacus.turns import DyadicTurn, Turn


@pytest.fixture
def dense_gates(monkeypatch):
    """A list that grows by one for every gate the dense kernel applies."""
    calls = []
    kernel = statevector._apply_gate_inplace

    def counted(amps, n, gate):
        calls.append(gate)
        kernel(amps, n, gate)

    monkeypatch.setattr(statevector, "_apply_gate_inplace", counted)
    return calls


class DenseKernelCalled(Exception):
    pass


@pytest.fixture
def no_dense(monkeypatch):
    """Make every dense gate application raise."""
    def refuse(amps, n, gate):
        raise DenseKernelCalled(repr(gate))

    monkeypatch.setattr(statevector, "_apply_gate_inplace", refuse)


def _turn(rng) -> Turn:
    """Mostly turns that keep superposed qubits on {0, 1/2}, some finer
    dyadics and some plain floats."""
    draw = rng.random()
    if draw < 0.7:
        return DyadicTurn(int(rng.integers(2)), 1)
    if draw < 0.9:
        k = int(rng.integers(1, 9))
        return DyadicTurn(int(rng.integers(1 << k)), k)
    return Turn(float(rng.random()))


def _phase(n, rng) -> Phase:
    """A phase gate with 0-3 controls of random polarity."""
    qubits = list(range(n))
    rng.shuffle(qubits)
    k = int(rng.integers(0, min(3, len(qubits) - 1) + 1))
    controls = tuple(Control(q, positive=bool(rng.integers(2)))
                     for q in qubits[1:1 + k])
    return Phase(_turn(rng), qubits[0], controls)


def _classical(n, rng):
    """An X, a Swap or a phase gate."""
    kind = rng.integers(3) if n > 1 else rng.integers(2) * 2  # no Swap
    if kind == 0:
        return X(int(rng.integers(n)))
    if kind == 1:
        a, b = rng.choice(n, size=2, replace=False)
        return Swap(int(a), int(b))
    return _phase(n, rng)


def _random_circuit(n, rng) -> Circuit:
    """Classical gates around Hadamard sandwiches: H on a random set S,
    then X and phase gates, then H on S again.  Phases that stay on
    {0, 1/2} keep the run basis-in, basis-out; quarter turns, floats and
    two superposed conditions send it dense."""
    gates = []
    for _ in range(int(rng.integers(1, 4))):
        gates += [_classical(n, rng) for _ in range(int(rng.integers(3)))]
        size = int(rng.integers(1, n // 2 + 2))
        layer = [int(q) for q in rng.choice(n, size=size, replace=False)]
        gates += [Hadamard(q) for q in layer]
        for _ in range(int(rng.integers(1, 6))):
            gates.append(X(int(rng.integers(n))) if rng.random() < 0.2
                         else _phase(n, rng))
        rng.shuffle(layer)
        gates += [Hadamard(q) for q in layer]
    gates += [_classical(n, rng) for _ in range(int(rng.integers(3)))]
    return Circuit(n, tuple(gates))


def _check_against_reference(circuit, basis, amplitude, dense_gates) -> bool:
    """apply_circuit on amplitude*|basis> equals the reference column;
    returns whether the run was tracked (no dense gate applied)."""
    n = circuit.num_qubits
    before = len(dense_gates)
    out = apply_circuit(StateVector(n, statevector._Basis(basis, amplitude)),
                        circuit)
    expected = ref_circuit_matrix(circuit)[:, basis] * amplitude
    assert np.max(np.abs(out.amplitudes - expected)) <= 1e-12
    tracked = len(dense_gates) == before
    try:
        track(circuit, basis)
        assert tracked
    except NotRepresentable:
        assert not tracked
    return tracked


def test_random_circuits_match_reference(dense_gates):
    rng = np.random.default_rng(3)
    cases, tracked = 300, 0
    for _ in range(cases):
        n = int(rng.integers(1, 9))
        circuit = _random_circuit(n, rng)
        basis = int(rng.integers(1 << n))
        amplitude = cmath.exp(2j * math.pi * rng.random())
        tracked += _check_against_reference(circuit, basis, amplitude,
                                            dense_gates)
    # Both branches carry a real share of the cases (128 of 300 tracked).
    assert cases // 4 <= tracked <= cases - cases // 4, tracked


def test_named_rules():
    # H turns a bit into theta = b/2 and theta in {0, 1/2} back into a bit.
    assert track(Circuit(1, (Hadamard(0), Hadamard(0))), 1) == \
        (1, DyadicTurn(0, 0))
    # A half turn on a superposed qubit flips its bit after the second H.
    half = DyadicTurn(1, 1)
    assert track(Circuit(1, (Hadamard(0), Phase(half, 0), Hadamard(0))), 0) \
        == (1, DyadicTurn(0, 0))
    # X on theta moves theta to the global phase and negates it.
    quarter = DyadicTurn(1, 2)
    c = Circuit(1, (Hadamard(0), Phase(quarter, 0), X(0), Phase(quarter, 0),
                    Hadamard(0)))
    assert track(c, 0) == (0, quarter)
    # A plain float turn is just as exact: Turn(0.25) tracks like 1/4.
    c = Circuit(1, (Hadamard(0), Phase(Turn(0.25), 0), X(0),
                    Phase(Turn(0.25), 0), Hadamard(0)))
    assert track(c, 0) == (0, quarter)
    # 2**-52 is the finest turn the tracker holds.
    assert track(Circuit(1, (Phase(Turn(2**-52), 0),)), 1) == \
        (1, DyadicTurn(1, 52))
    # An open dot on a superposed qubit: the turn goes to |0>.
    c = Circuit(2, (Hadamard(0), Phase(half, 1, (Control(0, False),)),
                    Hadamard(0)))
    assert track(c, 0b10) == (0b11, half)
    # A failed bit condition makes the gate the identity, whatever its turn.
    c = Circuit(2, (Hadamard(0), Phase(Turn(0.1), 0, (Control(1),)),
                    Hadamard(0)))
    assert track(c, 0b00) == (0b00, DyadicTurn(0, 0))
    # Swap exchanges a bit slot and a phase slot.
    c = Circuit(2, (Hadamard(0), Swap(0, 1), Hadamard(1)))
    assert track(c, 0b11) == (0b11, DyadicTurn(0, 0))


@pytest.mark.parametrize("circuit, basis", [
    # Two superposed conditions on one phase gate.
    (Circuit(2, (Hadamard(0), Hadamard(1),
                 Phase(DyadicTurn(1, 1), 1, (Control(0),)),
                 Hadamard(0), Hadamard(1))), 0),
    # H on a quarter-turn theta.
    (Circuit(1, (Hadamard(0), Phase(DyadicTurn(1, 2), 0), Hadamard(0))), 1),
    # A non-dyadic turn on a superposed qubit.
    (Circuit(2, (Hadamard(1), Phase(Turn(0.1), 1, (Control(0),)),
                 Hadamard(1))), 1),
    # The encoder alone ends in a Fourier state, not a basis state.
    (build_encoder(5, 3), 0),
    # A float turn finer than 2**-52 on a bit.
    (Circuit(1, (Phase(Turn(2**-53), 0),)), 1),
], ids=["two-superposed", "quarter-h", "non-dyadic", "encoder", "too-fine"])
def test_named_cases_go_dense_and_match(circuit, basis, dense_gates):
    with pytest.raises(NotRepresentable):
        track(circuit, basis)
    amplitude = cmath.exp(0.7j)
    assert not _check_against_reference(circuit, basis, amplitude, dense_gates)
    assert len(dense_gates) == len(circuit.gates)


def test_non_basis_input_goes_dense(dense_gates):
    r = 1 / math.sqrt(2)
    state = StateVector(2, [r, 0, 0, 1j * r])
    circuit = Circuit(2, (X(0), Swap(0, 1)))
    out = apply_circuit(state, circuit)
    expected = ref_circuit_matrix(circuit) @ state.amplitudes
    assert np.max(np.abs(out.amplitudes - expected)) <= 1e-15
    assert len(dense_gates) == 2


def test_dense_basis_input_stays_dense(dense_gates):
    # Only the basis form is tracked: a dense array holding one basis
    # state runs every gate on the dense kernel and comes back dense.
    circuit = build_counter(3)
    basis, amplitude = 0b101, cmath.exp(0.3j)
    amps = np.zeros(1 << circuit.num_qubits, dtype=np.complex128)
    amps[basis] = amplitude
    out = apply_circuit(StateVector(circuit.num_qubits, amps), circuit)
    assert dense_gates == list(circuit.gates)
    expected = ref_circuit_matrix(circuit)[:, basis] * amplitude
    assert np.max(np.abs(out.amplitudes - expected)) <= 1e-12
    assert out._basis is None


def test_counter_runs_tracked_at_16_bits(no_dense):
    rng = np.random.default_rng(16)
    for target in CountTarget:
        for wrap in (False, True):
            for _ in range(2):
                bits = [int(b) for b in rng.integers(2, size=16)]
                ones = sum(bits)
                count = ones if target is CountTarget.ONES else 16 - ones
                m = 4 if wrap else 5
                assert run_count(bits, target, allow_wraparound=wrap) == \
                    count % (1 << m)


def test_estimators_run_tracked(no_dense):
    rng = np.random.default_rng(8)
    for n in range(1, 9):
        circuit = build_qft_phase_estimator(n)
        for j in {0, (1 << n) - 1, int(rng.integers(1 << n))}:
            state = apply_circuit(new_basis_state(2 * n, j), circuit)
            assert deterministic_outcome(state, qubits=range(n, 2 * n)) == j
    for n in range(1, 5):
        for m in range(1, 7):
            numerators = [int(k) for k in rng.integers(1 << m, size=1 << n)]
            table = PhaseTable(n, tuple(DyadicTurn(k, m) for k in numerators))
            circuit = build_phase_estimator(table, m)
            j = int(rng.integers(1 << n))
            state = apply_circuit(new_basis_state(n + m, j), circuit)
            assert deterministic_outcome(
                state, qubits=range(n, n + m)) == numerators[j]


def test_encode_then_decode_runs_tracked(no_dense):
    for n in range(1, 9):
        decode = build_inverse_qft(n).gates
        for d in range(1 << n):
            circuit = Circuit.from_blocks(n, [
                ("encode", build_encoder(d, n).gates), ("decode", decode)])
            state = apply_circuit(new_basis_state(n, 0), circuit)
            assert state.amplitudes[d] == pytest.approx(1, abs=1e-12)


def test_arrays_stay_dense(no_dense, tmp_path):
    with pytest.raises(DenseKernelCalled):
        create_state(ArrayContents((1, 2, 0, 5)), ArrayLayout(2, 3))
    with pytest.raises(DenseKernelCalled):
        main(["array", "create", "1,2,0,5", "-p", "3",
              "--state", str(tmp_path / "a.npz")])


# The correctness gate: every builder the tracker is meant to run, on drawn
# basis inputs at <= 12 qubits, must track without raising and give the
# plain dense gate loop's amplitudes, global phase included.

def _dense_loop(circuit, basis) -> np.ndarray:
    amps = new_basis_state(circuit.num_qubits, basis).amplitudes.copy()
    for gate in circuit.gates:
        statevector._apply_gate_inplace(amps, circuit.num_qubits, gate)
    return amps


def _check_tracked(circuit, basis):
    out, phase = track(circuit, basis)
    state = apply_circuit(new_basis_state(circuit.num_qubits, basis), circuit)
    expected = _dense_loop(circuit, basis)
    assert np.max(np.abs(state.amplitudes - expected)) <= 1e-12
    assert abs(expected[out]) == pytest.approx(1, abs=1e-12)
    # The basis-form result materializes bit for bit as the dense array
    # with the tracked global phase at the tracked index.
    tracked = np.zeros(1 << circuit.num_qubits, dtype=np.complex128)
    tracked[out] = phase.phase_factor()
    assert state.amplitudes.tobytes() == tracked.tobytes()


def _below(bits):
    return st.integers(0, (1 << bits) - 1)


@st.composite
def _counter_runs(draw):
    n = draw(st.integers(1, 8))
    circuit = build_counter(n, draw(st.sampled_from(CountTarget)),
                            allow_wraparound=draw(st.booleans()))
    return circuit, draw(_below(n))


@st.composite
def _estimator_runs(draw):
    if draw(st.booleans()):
        n = draw(st.integers(1, 6))
        return build_qft_phase_estimator(n), draw(_below(n))
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    numerators = draw(st.lists(_below(m), min_size=1 << n, max_size=1 << n))
    table = PhaseTable(n, tuple(DyadicTurn(k, m) for k in numerators))
    return build_phase_estimator(table, m), draw(_below(n))


@st.composite
def _encode_decode_runs(draw):
    n = draw(st.integers(1, 12))
    circuit = Circuit.from_blocks(n, [
        ("encode", build_encoder(draw(_below(n)), n).gates),
        ("decode", build_inverse_qft(n).gates)])
    return circuit, 0


@st.composite
def _update_add_runs(draw):
    m = draw(st.integers(1, 6))
    p = draw(st.integers(1, 12 - m))
    mask = draw(_below(m))
    predicate = IndexPredicate(mask, draw(_below(m)) & mask)
    circuit = build_update_add(draw(_below(p)), predicate, ArrayLayout(m, p))
    return circuit, (draw(_below(m)) << p) | draw(_below(p))


@settings(max_examples=200, deadline=None)
@given(st.one_of(_counter_runs(), _estimator_runs(), _encode_decode_runs(),
                 _update_add_runs()))
def test_builders_track_and_match_dense_loop(run):
    _check_tracked(*run)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_create_and_bare_encoder_are_not_representable(data):
    m, p = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 6))
    values = data.draw(st.lists(_below(p), min_size=1 << m, max_size=1 << m))
    with pytest.raises(NotRepresentable):
        track(build_create(ArrayContents(tuple(values)), ArrayLayout(m, p)), 0)
    n = data.draw(st.integers(1, 12))
    with pytest.raises(NotRepresentable):
        track(build_encoder(data.draw(_below(n)), n), 0)
