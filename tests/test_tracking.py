"""Exact dyadic bookkeeping inside apply_circuit.

Every circuit here is checked against the dense reference unitary,
global phase included; the guards check that the paper's circuits run
without a single dense gate.
"""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qabacus import (
    ArrayContents, ArrayLayout, Circuit, Control, CountTarget, Hadamard,
    IndexPredicate, Phase, PhaseTable, StateVector, Swap, X, apply_circuit,
    build_counter, build_create, build_create_arithmetic, build_encoder,
    build_inverse_qft, build_phase_estimator, build_qft_phase_estimator,
    build_update_add, create_state, deterministic_outcome, new_basis_state,
    read_all, run_count, statevector,
)
from qabacus.cli import main
from qabacus.reference import ref_array_update, ref_circuit_matrix
from qabacus.tracking import NotRepresentable, track
from qabacus.turns import MAX_DYADIC_EXPONENT, DyadicTurn, Turn


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


def _check_against_reference(circuit, basis, phase, dense_gates) -> bool:
    """apply_circuit on e^{2*pi*i*phase/2**52}|basis> equals the reference
    column; returns whether the run was tracked (no dense gate applied)."""
    n = circuit.num_qubits
    before = len(dense_gates)
    out = apply_circuit(StateVector(n, statevector._Branches(basis, phase)),
                        circuit)
    expected = ref_circuit_matrix(circuit)[:, basis] * DyadicTurn(
        phase, MAX_DYADIC_EXPONENT).phase_factor()
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
        phase = int(rng.random() * (1 << MAX_DYADIC_EXPONENT))
        tracked += _check_against_reference(circuit, basis, phase,
                                            dense_gates)
    # Both branches carry a real share of the cases (128 of 300 tracked).
    assert cases // 4 <= tracked <= cases - cases // 4, tracked


def _tracked(circuit, basis):
    """``track`` on one basis input, its phase numerator read as a turn."""
    index, phase = track(circuit, basis)
    return index, DyadicTurn(phase, MAX_DYADIC_EXPONENT)


def test_named_rules():
    # H turns a bit into theta = b/2 and theta in {0, 1/2} back into a bit.
    assert _tracked(Circuit(1, (Hadamard(0), Hadamard(0))), 1) == \
        (1, DyadicTurn(0, 0))
    # A half turn on a superposed qubit flips its bit after the second H.
    half = DyadicTurn(1, 1)
    assert _tracked(Circuit(1, (Hadamard(0), Phase(half, 0), Hadamard(0))),
                    0) == (1, DyadicTurn(0, 0))
    # X on theta moves theta to the global phase and negates it.
    quarter = DyadicTurn(1, 2)
    c = Circuit(1, (Hadamard(0), Phase(quarter, 0), X(0), Phase(quarter, 0),
                    Hadamard(0)))
    assert _tracked(c, 0) == (0, quarter)
    # A plain float turn is just as exact: Turn(0.25) tracks like 1/4.
    c = Circuit(1, (Hadamard(0), Phase(Turn(0.25), 0), X(0),
                    Phase(Turn(0.25), 0), Hadamard(0)))
    assert _tracked(c, 0) == (0, quarter)
    # 2**-52 is the finest turn the tracker holds.
    assert _tracked(Circuit(1, (Phase(Turn(2**-52), 0),)), 1) == \
        (1, DyadicTurn(1, 52))
    # An open dot on a superposed qubit: the turn goes to |0>.
    c = Circuit(2, (Hadamard(0), Phase(half, 1, (Control(0, False),)),
                    Hadamard(0)))
    assert _tracked(c, 0b10) == (0b11, half)
    # An open and a closed dot of a quarter turn: a quarter on |0> and one
    # on |1> make a global quarter turn, and qubit 0 comes back as 0.
    c = Circuit(2, (Hadamard(0), Phase(quarter, 1, (Control(0, False),)),
                    Phase(quarter, 1, (Control(0),)), Hadamard(0)))
    assert _tracked(c, 0b10) == (0b10, quarter)
    # A failed bit condition makes the gate the identity, whatever its turn.
    c = Circuit(2, (Hadamard(0), Phase(Turn(0.1), 0, (Control(1),)),
                    Hadamard(0)))
    assert _tracked(c, 0b00) == (0b00, DyadicTurn(0, 0))
    # So does a target bit of 0, under satisfied or superposed controls.
    c = Circuit(2, (Phase(quarter, 1, (Control(0),)),))
    assert _tracked(c, 0b01) == (0b01, DyadicTurn(0, 0))
    c = Circuit(2, (Hadamard(0), Phase(quarter, 1, (Control(0),)),
                    Hadamard(0)))
    assert _tracked(c, 0b00) == (0b00, DyadicTurn(0, 0))
    # Swap exchanges a bit slot and a phase slot.
    c = Circuit(2, (Hadamard(0), Swap(0, 1), Hadamard(1)))
    assert _tracked(c, 0b11) == (0b11, DyadicTurn(0, 0))


# Qubit 0 carries theta = 1/4 into a gate that conditions on qubits 0, 1
# and 2, all superposed: qubits 0 and 1 split into four branches, and the
# two with qubit 0 set start at phase 1/4.
_SPLIT_QUARTER = Circuit(3, (
    Hadamard(0), Hadamard(1), Hadamard(2), Phase(DyadicTurn(1, 2), 0),
    Phase(DyadicTurn(1, 1), 2, (Control(0), Control(1))), Hadamard(2)))


def test_split_rules(dense_gates):
    quarter = 1 << (MAX_DYADIC_EXPONENT - 2)
    index, phase = track(_SPLIT_QUARTER, 0)
    assert index.tolist() == [0b000, 0b001, 0b010, 0b111]
    assert phase.tolist() == [0, quarter, 0, quarter]
    # An open dot splits the same way; the target turns where qubit 0 is 0.
    c = Circuit(3, (Hadamard(0), Hadamard(1), Hadamard(2),
                    Phase(DyadicTurn(1, 1), 2, (Control(0, False), Control(1))),
                    Hadamard(2)))
    index, phase = track(c, 0)
    assert index.tolist() == [0b000, 0b001, 0b110, 0b011]
    assert phase.tolist() == [0, 0, 0, 0]
    # Each branch weighs 1/2 and the split phase survives materializing.
    state = apply_circuit(new_basis_state(3, 0), _SPLIT_QUARTER)
    assert dense_gates == []
    expected = _dense_loop(_SPLIT_QUARTER, 0)
    assert np.max(np.abs(state.amplitudes - expected)) <= 1e-12
    assert np.allclose(expected[[0, 1, 2, 7]], [0.5, 0.5j, 0.5, 0.5j],
                       atol=1e-12)
    # A branched input splits again, and a Hadamard on a bit that differs
    # between input branches can bring two branches to one index: that
    # run goes dense.
    twice = Circuit.from_blocks(3, [("one", _SPLIT_QUARTER.gates),
                                    ("two", _SPLIT_QUARTER.gates)])
    with pytest.raises(NotRepresentable, match="one basis index"):
        track(_SPLIT_QUARTER, *track(_SPLIT_QUARTER, 0))
    again = apply_circuit(state, _SPLIT_QUARTER)
    assert len(dense_gates) == len(_SPLIT_QUARTER.gates)
    assert np.max(np.abs(again.amplitudes - _dense_loop(twice, 0))) <= 1e-12


def test_one_branch_stops_at_the_first_failed_bit_control(dense_gates):
    # Qubits 0 and 1 superposed, qubit 2 a 0-bit, target qubit 3 a 1-bit.
    # A closed dot on qubit 2 fails before or after the superposed
    # controls: the gate is the identity, with no split and no phase.
    quarter = DyadicTurn(1, 2)
    basis = 0b1000
    for controls in ((Control(0), Control(1), Control(2)),
                     (Control(2), Control(0), Control(1))):
        c = Circuit(4, (Hadamard(0), Hadamard(1), Phase(quarter, 3, controls),
                        Hadamard(0), Hadamard(1)))
        assert _tracked(c, basis) == (basis, DyadicTurn(0, 0))
        _check_tracked(c, basis)
    # An open dot on qubit 2 is satisfied: the two superposed controls
    # still split into four branches, and only the |11> one turns.
    c = Circuit(4, (Hadamard(0), Hadamard(1),
                    Phase(quarter, 3, (Control(0), Control(2, False),
                                       Control(1)))))
    index, phase = track(c, basis)
    assert index.tolist() == [basis, basis | 1, basis | 2, basis | 3]
    assert phase.tolist() == [0, 0, 0, 1 << (MAX_DYADIC_EXPONENT - 2)]
    state = apply_circuit(new_basis_state(4, basis), c)
    assert dense_gates == []
    assert np.max(np.abs(state.amplitudes - _dense_loop(c, basis))) <= 1e-12


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
    # A Hadamard on a qubit the run split, though the state it makes,
    # (|00> + |11>)/sqrt(2), is of branch form.
    (Circuit(2, (Hadamard(0), Hadamard(1),
                 Phase(DyadicTurn(1, 1), 1, (Control(0),)),
                 Hadamard(0), Hadamard(1), Hadamard(0))), 0),
], ids=["two-superposed", "quarter-h", "non-dyadic", "encoder", "too-fine",
        "h-on-split"])
def test_named_cases_go_dense_and_match(circuit, basis, dense_gates):
    with pytest.raises(NotRepresentable):
        track(circuit, basis)
    phase = (7 << (MAX_DYADIC_EXPONENT - 4)) + 1
    assert not _check_against_reference(circuit, basis, phase, dense_gates)
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
    assert out._branches is None


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


def test_counter_runs_tracked_up_to_the_width_cap(dense_gates, capsys):
    # 17 to 19 inputs need 5 ancillas, at most the 24 qubits of the cap.
    rng = np.random.default_rng(19)
    for n in (17, 18, 19):
        bits = [int(b) for b in rng.integers(2, size=n)]
        ones = sum(bits)
        assert run_count(bits) == ones
        assert run_count(bits, CountTarget.ZEROS) == n - ones
        text = "".join(str(b) for b in reversed(bits))
        assert main(["count", text]) == 0
        assert capsys.readouterr().out.startswith(f"count={ones} m=5 ")
    assert dense_gates == []


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


def test_arrays_stay_in_branch_form(no_dense, tmp_path):
    layout = ArrayLayout(2, 3)
    state = create_state(ArrayContents((1, 2, 0, 5)), layout)
    state = apply_circuit(state,
                          build_update_add(1, IndexPredicate.even(), layout))
    assert read_all(state, layout).values == (2, 2, 1, 5)
    assert state._amplitudes is None
    path = str(tmp_path / "a.npz")
    for argv in (["array", "create", "1,2,0,5", "-p", "3"],
                 ["array", "add", "1", "--where", "even"], ["array", "dump"]):
        assert main(argv + ["--state", path]) == 0


def _peak_mib(call) -> float:
    """tracemalloc's peak over one call, after a warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_array_path_builds_no_dense_array(tmp_path, capsys):
    # 22 qubits: one dense array would be 64 MiB.
    layout = ArrayLayout(4, 18)
    values = tuple((j * 40503) % (1 << 18) for j in range(16))
    path = str(tmp_path / "a.npz")

    def library():
        state = create_state(ArrayContents(values), layout)
        state = apply_circuit(
            state, build_update_add(7, IndexPredicate.odd(), layout))
        assert read_all(state, layout).values == \
            ref_array_update(values, 7, IndexPredicate.odd(), 18)

    def cli():
        for argv in (["array", "create", ",".join(map(str, values)),
                      "-p", "18"],
                     ["array", "add", "7", "--where", "odd"],
                     ["array", "dump"]):
            assert main(argv + ["--state", path]) == 0
        capsys.readouterr()

    assert _peak_mib(library) < 4
    assert _peak_mib(cli) < 4


# The correctness gate: every builder the tracker is meant to run, on drawn
# basis inputs at <= 12 qubits, must track without raising and give the
# plain dense gate loop's amplitudes, global phase included.

# The dense kernel itself, whatever a fixture puts in its place.
_KERNEL = statevector._apply_gate_inplace


def _dense_run(circuit, amps) -> np.ndarray:
    amps = amps.copy()
    for gate in circuit.gates:
        _KERNEL(amps, circuit.num_qubits, gate)
    return amps


def _dense_loop(circuit, basis) -> np.ndarray:
    amps = np.zeros(1 << circuit.num_qubits, dtype=np.complex128)
    amps[basis] = 1.0
    return _dense_run(circuit, amps)


def _check_tracked(circuit, basis):
    out, phase = _tracked(circuit, basis)
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


@st.composite
def _array_chains(draw):
    """A creation that splits into one branch per index (generic contents
    not all equal, or an arithmetic series), then up to three updates."""
    m, p = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    layout = ArrayLayout(m, p)
    if draw(st.booleans()):
        values = draw(st.lists(_below(p), min_size=1 << m, max_size=1 << m)
                      .filter(lambda v: len(set(v)) > 1))
        create = build_create(ArrayContents(tuple(values)), layout)
    else:
        create = build_create_arithmetic(draw(_below(p)), draw(_below(p)),
                                         layout)
    updates = draw(st.lists(st.tuples(_below(p), _below(m), _below(m)),
                            max_size=3))
    return layout, [create] + [
        build_update_add(addend, IndexPredicate(mask, match & mask), layout)
        for addend, mask, match in updates]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_array_chains())
def test_array_chains_track_and_match_dense_loop(dense_gates, chain):
    layout, circuits = chain
    state = new_basis_state(layout.num_qubits, 0)
    expected = _dense_loop(circuits[0], 0)
    for step, circuit in enumerate(circuits):
        if step:
            expected = _dense_run(circuit, expected)
        before = len(dense_gates)
        state = apply_circuit(state, circuit)
        assert len(dense_gates) == before
        assert np.max(np.abs(state.amplitudes - expected)) <= 1e-12
        # One branch per index, every branch at phase 0: the values-only
        # state file drops nothing.
        branches = state._branches
        assert branches.index.size == layout.length
        assert not branches.phase.any()


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_create_and_bare_encoder_are_not_representable(data):
    m, p = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 6))
    values = data.draw(st.lists(_below(p), min_size=1 << m, max_size=1 << m))
    circuit = build_create(ArrayContents(tuple(values)), ArrayLayout(m, p))
    if len(set(values)) == 1:
        # No gate is index-controlled, so the index qubits end superposed.
        with pytest.raises(NotRepresentable):
            track(circuit, 0)
    else:
        # The first index-pattern gate splits every index qubit.
        index, phase = track(circuit, 0)
        assert sorted(index.tolist()) == \
            [j << p | v for j, v in enumerate(values)]
        assert not phase.any()
    n = data.draw(st.integers(1, 12))
    with pytest.raises(NotRepresentable):
        track(build_encoder(data.draw(_below(n)), n), 0)
