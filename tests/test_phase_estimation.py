import random

import numpy as np
import pytest

from qabacus import (
    Circuit, Control, PhaseTable, Phase, analytic_outcome_probability,
    apply_circuit, apply_gate, build_phase_estimator,
    build_qft_phase_estimator, deterministic_outcome, diagonal_power,
    is_zero_failure, marginal_distribution, new_basis_state, parse,
    qft_phase_table, serialize,
)
from qabacus.qft import _phase_frame
from qabacus.tracking import NotRepresentable, track
from qabacus.turns import DyadicTurn, Turn


def _dyadic_table(n, entries):
    return PhaseTable(n, tuple(DyadicTurn(num, k) for num, k in entries))


def _ancilla_readout(circuit, n, m, basis, tolerance=1e-9):
    state = apply_circuit(new_basis_state(n + m, basis), circuit)
    return deterministic_outcome(state, tolerance, qubits=range(n, n + m))


def test_phase_table_validation():
    with pytest.raises(ValueError):
        PhaseTable(1, (Turn(0.0),))  # needs 2 entries
    with pytest.raises(ValueError):
        PhaseTable(1, (0.0, 0.5))  # floats must be coerced explicitly
    t = PhaseTable.from_values(1, [0.0, 0.5])
    assert t.phases[1] == Turn(0.5)


def test_qft_phase_table_entries():
    t = qft_phase_table(2)
    assert t.phases == (DyadicTurn(0, 2), DyadicTurn(1, 2), DyadicTurn(2, 2),
                        DyadicTurn(3, 2))


def test_diagonal_power_identity_and_example():
    t = _dyadic_table(2, [(0, 2), (1, 2), (2, 2), (3, 2)])
    assert diagonal_power(t, 0) == t
    doubled = diagonal_power(t, 1)
    assert doubled.phases == (DyadicTurn(0, 0), DyadicTurn(1, 1),
                              DyadicTurn(0, 0), DyadicTurn(1, 1))


def test_diagonal_power_wraps_dyadics_to_zero():
    t = _dyadic_table(1, [(3, 3), (5, 4)])
    assert all(p.is_zero() for p in diagonal_power(t, 4).phases)


def test_diagonal_power_composes():
    t = PhaseTable.from_values(2, [0.1, 1 / 3, 0.625, 0.9])
    for a, b in ((0, 3), (2, 1), (3, 4)):
        lhs = diagonal_power(t, a + b)
        rhs = diagonal_power(diagonal_power(t, a), b)
        assert lhs == rhs  # power-of-two float scaling is exact


def test_estimator_reads_out_eigenphase_index():
    # phases j/2**m: every basis input reads out its own index
    n, m = 2, 3
    table = PhaseTable(n, tuple(DyadicTurn(j, m) for j in range(1 << n)))
    circuit = build_phase_estimator(table, m)
    for j in range(1 << n):
        assert _ancilla_readout(circuit, n, m, j) == j


def test_estimator_zero_table_reads_zero():
    table = _dyadic_table(2, [(0, 0)] * 4)
    circuit = build_phase_estimator(table, 2)
    for j in range(4):
        assert _ancilla_readout(circuit, 2, 2, j) == 0


def test_estimator_quarter_turn_table():
    table = _dyadic_table(2, [(0, 2), (1, 2), (2, 2), (3, 2)])
    circuit = build_phase_estimator(table, 2)
    assert _ancilla_readout(circuit, 2, 2, 0b10) == 2


def test_input_register_is_preserved():
    rng = np.random.default_rng(13)
    n, m = 3, 2
    table = PhaseTable.from_values(n, rng.random(1 << n))
    circuit = build_phase_estimator(table, m)
    for j in (0, 3, 7):
        state = apply_circuit(new_basis_state(n + m, j), circuit)
        for idx, amp in enumerate(state.amplitudes):
            if idx % (1 << n) != j:
                assert amp == 0.0  # other input patterns are never populated


def test_analytic_probability_exact_cases():
    assert analytic_outcome_probability(Turn(0.0), 3, 0) == 1.0
    for m in (1, 3, 5):
        for j in (0, 1, (1 << m) - 1):
            phi = DyadicTurn(j, m)
            assert analytic_outcome_probability(phi, m, j) == 1.0


def test_analytic_probability_sums_to_one():
    rng = np.random.default_rng(19)
    for _ in range(20):
        phi = Turn(float(rng.random()))
        m = int(rng.integers(1, 7))
        total = sum(analytic_outcome_probability(phi, m, j)
                    for j in range(1 << m))
        assert abs(total - 1.0) <= 1e-12


def _simulated_distribution(phi: Turn, m: int) -> dict[int, float]:
    table = PhaseTable(1, (phi, Turn(0.0)))
    circuit = build_phase_estimator(table, m)
    state = apply_circuit(new_basis_state(1 + m, 0), circuit)
    return marginal_distribution(state, range(1, 1 + m))


def test_analytic_probability_matches_simulation():
    rng = np.random.default_rng(29)
    for _ in range(15):
        phi = Turn(float(rng.random()))
        m = int(rng.integers(1, 7))
        dist = _simulated_distribution(phi, m)
        for j in range(1 << m):
            want = analytic_outcome_probability(phi, m, j)
            assert abs(dist.get(j, 0.0) - want) <= 1e-10
    # the non-dyadic example: one third of a turn, two ancillas
    dist = _simulated_distribution(Turn(1 / 3), 2)
    for j in range(4):
        want = analytic_outcome_probability(Turn(1 / 3), 2, j)
        assert abs(dist.get(j, 0.0) - want) <= 1e-10


def test_is_zero_failure():
    quarter = _dyadic_table(2, [(0, 2), (1, 2), (2, 2), (3, 2)])
    assert is_zero_failure(quarter, 2)
    third = PhaseTable.from_values(1, [1 / 3, 1 / 3])
    for m in (1, 2, 5, 20, 30):
        assert not is_zero_failure(third, m)
    eighth = PhaseTable.from_values(1, [1 / 8, 0.0])
    assert not is_zero_failure(eighth, 2)
    assert is_zero_failure(eighth, 3)


def test_zero_failure_implies_deterministic_readout():
    rng = np.random.default_rng(37)
    n, m = 2, 3
    table = PhaseTable(n, tuple(DyadicTurn(int(rng.integers(1 << m)), m)
                                for _ in range(1 << n)))
    assert is_zero_failure(table, m)
    circuit = build_phase_estimator(table, m)
    for j in range(1 << n):
        readout = _ancilla_readout(circuit, n, m, j, tolerance=1e-9)
        assert DyadicTurn(readout, m) == table.phases[j]


def test_qft_estimator_recovers_all_inputs():
    for n in (1, 2, 3):
        circuit = build_qft_phase_estimator(n)
        for j in range(1 << n):
            assert _ancilla_readout(circuit, n, n, j) == j


def test_qft_estimator_first_power_eigenvalues():
    # the unit-power block realizes the diagonal (1, i, -1, -i) for n=2
    n = 2
    circuit = build_qft_phase_estimator(n)
    block = [g for g in circuit.gates
             if isinstance(g, Phase) and g.controls[0].qubit == n]
    expected = (1, 1j, -1, -1j)
    for j in range(4):
        basis = j + (1 << n)  # unit-power ancilla set to |1>
        state = new_basis_state(2 * n, basis)
        for gate in block:
            state = apply_gate(state, gate)
        assert abs(state.amplitudes[basis] - expected[j]) <= 1e-12


def test_estimator_width_checks():
    with pytest.raises(ValueError):
        build_phase_estimator(qft_phase_table(2), 0)
    with pytest.raises(ValueError):
        build_phase_estimator(qft_phase_table(4), 21)
    with pytest.raises(ValueError):
        build_qft_phase_estimator(13)
    with pytest.raises(ValueError):
        diagonal_power(qft_phase_table(1), -1)


def _gate_by_gate_estimator(table, m):
    """The estimator with its kickback written out gate by gate, as the
    generator expression the builder used before the block, with the
    control tuple of each input pattern j built here."""
    n = table.num_input_qubits
    patterns = [tuple(Control(b, bool(j >> b & 1))
                      for b in range(n - 1, -1, -1)) for j in range(1 << n)]
    kickback = (Phase(power, n + l, patterns[j])
                for l in range(m)
                for j, phase in enumerate(table.phases)
                if not (power := phase.times_pow2(l)).is_zero())
    ancillas = range(n, n + m)
    return _phase_frame(n + m, ancillas, [("kickback", kickback)], ancillas)


def _tracked(circuit, basis):
    try:
        return track(circuit, basis)
    except NotRepresentable as exc:
        return str(exc)


def test_kickback_block_matches_its_gates():
    # Random tables over n in 1..5 and m in 1..7: dyadic entries with k
    # in 0..9, so powers past k and zero entries occur, and float tables.
    rng = random.Random(26)
    dense = 0
    for case in range(60):
        n, m = rng.randint(1, 5), rng.randint(1, 7)
        if case % 4:
            table = PhaseTable(n, tuple(
                DyadicTurn(rng.randrange(1 << k), k)
                for k in (rng.randint(0, 9) for _ in range(1 << n))))
        else:
            table = PhaseTable.from_values(
                n, [rng.random() for _ in range(1 << n)])
        c = build_phase_estimator(table, m)
        want = _gate_by_gate_estimator(table, m)
        assert c._gates is None  # nothing is expanded before a read
        text = serialize(c)
        assert c.gates == want.gates
        assert c.labels == want.labels
        plain = Circuit(c.num_qubits, c.gates, labels=c.labels)
        assert text == serialize(plain) == serialize(want)
        assert parse(text) == c
        width = n + m
        # Every basis input when that is at most 2**9 of them; else every
        # input pattern under three ancilla values.
        if width <= 9:
            inputs = range(1 << width)
        else:
            ancillas = (0, (1 << m) - 1, rng.randrange(1 << m))
            inputs = [j | a << n for a in ancillas for j in range(1 << n)]
        for basis in inputs:
            assert _tracked(c, basis) == _tracked(plain, basis), basis
        if case % 4 == 0:
            for j in range(1 << n):
                got = apply_circuit(new_basis_state(width, j), c)
                ref = apply_circuit(new_basis_state(width, j), plain)
                assert (got._branches is None) == (ref._branches is None)
                dense += got._branches is None
                assert np.max(np.abs(got.amplitudes - ref.amplitudes)) <= 1e-12
    assert dense  # float tables did fall back to the dense kernel


def test_kickback_block_past_2048_patterns():
    # n = 11: 2048 input patterns, so every pattern's control tuple is
    # made for one call; m = 2 keeps the gates at 4096 or fewer.
    n, m = 11, 2
    rng = random.Random(11)
    table = _dyadic_table(n, [(rng.randrange(4), 2) for _ in range(1 << n)])
    c = build_phase_estimator(table, m)
    want = _gate_by_gate_estimator(table, m)
    assert serialize(c) == serialize(want)
    assert c.gates == want.gates
    for j in (0, 1234, (1 << n) - 1):
        # track raises NotRepresentable where the dense kernel would run.
        index, _ = track(c, j)
        phase = table.phases[j]
        assert index == j | phase.numerator << (m - phase.denom_exponent) << n


def test_kickback_keeps_a_turn_whose_value_rounds_to_zero():
    # (2**54 - 1) / 2**54: its float value rounds to 0.0, but the turn is
    # not zero, so the block and the gate-by-gate estimator both hold it.
    turn = Turn(1 - 2**-53) + Turn(2**-54)
    table = PhaseTable(1, (Turn(0.0), turn))
    c = build_phase_estimator(table, 1)
    want = _gate_by_gate_estimator(table, 1)
    assert len(c.gates) == len(want.gates) == 3
    assert serialize(c) == serialize(want)
    assert c.gates == want.gates
