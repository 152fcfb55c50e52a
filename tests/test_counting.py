import re

import numpy as np
import pytest

from qabacus import (
    Circuit, Control, CountTarget, NotDeterministic, Phase, StateVector,
    ancilla_width, apply_circuit, build_count_stage, build_counter,
    count_phase_table, deterministic_outcome, gate_count_report,
    marginal_distribution, new_basis_state, run_count,
)
from qabacus import counting
from qabacus.cli import main
from qabacus.reference import ref_popcount
from qabacus.turns import DyadicTurn


def test_ancilla_width():
    assert ancilla_width(3) == 2
    assert ancilla_width(1) == 1
    assert ancilla_width(4) == 3  # counts 0..4 need three bits
    assert ancilla_width(7) == 3
    assert ancilla_width(8) == 4
    with pytest.raises(ValueError):
        ancilla_width(0)


def test_ancilla_width_wraparound_flag():
    assert ancilla_width(4, allow_wraparound=True) == 2
    assert ancilla_width(1, allow_wraparound=True) == 1
    assert ancilla_width(8, allow_wraparound=True) == 3
    # under the narrow width the all-ones count wraps mod 2**m
    assert run_count([1, 1, 1, 1], allow_wraparound=True) == 0
    assert run_count([1, 1, 0, 1], allow_wraparound=True) == 3


def test_count_phase_table_ones_n3():
    table = count_phase_table(3)
    want = [(0, 0), (1, 2), (1, 2), (1, 1), (1, 2), (1, 1), (1, 1), (3, 2)]
    assert table.phases == tuple(DyadicTurn(n, k) for n, k in want)


def test_count_phase_table_zeros():
    table = count_phase_table(3, CountTarget.ZEROS)
    assert table.phases[0] == DyadicTurn(3, 2)  # |000> holds three zeros
    assert table.phases[7] == DyadicTurn(0, 0)


def test_count_phase_table_single_qubit():
    assert count_phase_table(1).phases == (DyadicTurn(0, 0), DyadicTurn(1, 1))


def test_counter_basis_examples():
    n, m = 3, 2
    circuit = build_counter(n)
    state = apply_circuit(new_basis_state(n + m, 0b101), circuit)
    assert deterministic_outcome(state, 1e-9, qubits=range(n, n + m)) == 2

    state = apply_circuit(new_basis_state(n + m, 0), circuit)
    assert deterministic_outcome(state, 1e-9, qubits=range(n, n + m)) == 0

    zeros = build_counter(n, CountTarget.ZEROS)
    state = apply_circuit(new_basis_state(n + m, 0), zeros)
    assert deterministic_outcome(state, 1e-9, qubits=range(n, n + m)) == 3


def test_counter_leaves_input_unchanged():
    n, m = 3, 2
    circuit = build_counter(n)
    for q in range(1 << n):
        state = apply_circuit(new_basis_state(n + m, q), circuit)
        # the joint state is the basis |count, q>: input bits intact
        count = ref_popcount([(q >> k) & 1 for k in range(n)])
        assert deterministic_outcome(state, 1e-9) == q + (count << n)


def test_run_count_examples():
    assert run_count([1, 1, 1]) == 3
    assert run_count([0]) == 0
    assert run_count([1, 1, 0, 1, 1]) == 4
    assert run_count([1, 0, 1]) == 2


def test_run_count_validation():
    with pytest.raises(ValueError):
        run_count([])
    with pytest.raises(ValueError):
        run_count([0, 1, 2])
    with pytest.raises(ValueError):
        run_count([0] * 20)


def test_count_target_must_be_a_count_target():
    # A string target would fail the builders' identity test against ONES
    # and silently count zeros.
    for bad in ("ones", "zeros", None, 1):
        for build in (build_counter, build_count_stage, count_phase_table):
            with pytest.raises(ValueError,
                               match="^count target must be a CountTarget"):
                build(2, bad)
        with pytest.raises(ValueError, match=repr(bad)):
            run_count([1, 1, 0], target=bad)


def test_run_count_accepts_index_like_bits_only():
    assert run_count(np.array([1, 0, 1])) == 2
    assert run_count([np.int64(1), np.uint8(1), 0]) == 2
    assert run_count((np.int64(0), np.int64(1)), CountTarget.ZEROS) == 1
    for bad in ([1.0, 0], [0.0], np.array([1.0, 0.0]), [1, "1"], [1, None]):
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            run_count(bad)


def test_run_count_exhaustive_length8():
    for q in range(1 << 8):
        bits = [(q >> k) & 1 for k in range(8)]
        assert run_count(bits) == ref_popcount(bits)


def test_determinism_small_widths():
    for n in range(1, 7):
        for q in range(1 << n):
            bits = [(q >> k) & 1 for k in range(n)]
            assert run_count(bits, tolerance=1e-9) == ref_popcount(bits)


def test_counting_stage_gate_complexity():
    for n in range(2, 17):
        m = ancilla_width(n)
        report = gate_count_report(build_count_stage(n))
        assert report["cphase"] == n * m
        assert report["h"] == m
        assert report["total"] == n * m + m


def test_full_counter_cphase_split():
    # phases touching the input register belong to the counting blocks
    n, m = 4, 3
    circuit = build_counter(n)
    block = [g for g in circuit.gates
             if isinstance(g, Phase) and any(q < n for q in g.qubits)]
    assert len(block) == n * m


def test_ones_zeros_duality():
    n = 4
    for q in range(1 << n):
        bits = [(q >> k) & 1 for k in range(n)]
        ones = run_count(bits)
        zeros = run_count(bits, CountTarget.ZEROS)
        assert zeros == n - ones


def test_superposition_same_count_stays_deterministic():
    n, m = 3, 2
    amps = np.zeros(1 << (n + m), dtype=complex)
    amps[0b110] = amps[0b011] = 1 / np.sqrt(2)
    state = apply_circuit(StateVector(n + m, amps), build_counter(n))
    assert deterministic_outcome(state, 1e-9, qubits=range(n, n + m)) == 2
    dist = marginal_distribution(state, range(n + m))
    for idx in (0b110 + (2 << n), 0b011 + (2 << n)):
        assert dist[idx] == pytest.approx(0.5, abs=1e-12)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_superposition_mixed_count_entangles_ancilla():
    n, m = 3, 2
    amps = np.zeros(1 << (n + m), dtype=complex)
    amps[0b000] = amps[0b111] = 1 / np.sqrt(2)
    state = apply_circuit(StateVector(n + m, amps), build_counter(n))
    anc = marginal_distribution(state, range(n, n + m))
    assert anc[0] == pytest.approx(0.5, abs=1e-10)
    assert anc[3] == pytest.approx(0.5, abs=1e-10)
    with pytest.raises(NotDeterministic):
        deterministic_outcome(state, 1e-9, qubits=range(n, n + m))


def _transpose_stage(circuit: Circuit, n: int) -> Circuit:
    """Rewrite ancilla-targeted rotations as input-targeted ones,
    the other reading of who controls whom."""
    gates = []
    for g in circuit.gates:
        if isinstance(g, Phase) and g.controls and g.controls[0].qubit < n:
            c = g.controls[0]
            gates.append(Phase(g.turn, c.qubit, (Control(g.target),)))
        else:
            gates.append(g)
    return Circuit(circuit.num_qubits, tuple(gates))


def test_control_target_transposition_is_equivalent():
    n, m = 3, 2
    original = build_counter(n)
    transposed = _transpose_stage(original, n)
    for q in range(1 << n):
        a = apply_circuit(new_basis_state(n + m, q), original)
        b = apply_circuit(new_basis_state(n + m, q), transposed)
        assert np.max(np.abs(a.amplitudes - b.amplitudes)) <= 1e-12


def test_counter_width_cap():
    with pytest.raises(ValueError):
        build_count_stage(0)
    with pytest.raises(ValueError):
        build_counter(21)  # 21 inputs + 5 ancillas > 24


def test_count_width_rule_is_checked_before_any_kick(capsys, monkeypatch):
    # 20 inputs need 5 ancillas: 25 qubits, one past the cap.  The counter
    # calls the adder through the name counting imported.
    def refuse(*args, **kwargs):
        raise AssertionError("a kick gate was built")

    monkeypatch.setattr(counting, "_fourier_add", refuse)
    text = "register width must be in [1, 24] qubits, got 25"
    with pytest.raises(ValueError, match=re.escape(text)):
        run_count([1] * 20)
    assert main(["count", "1" * 20]) == 2
    assert capsys.readouterr() == ("", f"error: {text}\n")
