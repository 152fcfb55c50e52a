import itertools
import math

import numpy as np
import pytest

from helpers import max_amp_diff, random_circuit, random_gate, random_state
from qabacus import (
    ArrayContents, ArrayLayout, Circuit, Control, Hadamard, NotDeterministic,
    Phase, StateVector, Swap, apply_circuit, apply_gate, build_qft,
    create_state, deterministic_outcome, marginal_distribution,
    new_basis_state, outcome_distribution, read_all, run_count,
    sample_outcomes,
)
from qabacus.reference import ref_circuit_matrix, ref_dft_matrix, ref_gate_matrix
from qabacus.turns import DyadicTurn, Turn


def test_new_basis_state_examples():
    assert np.array_equal(new_basis_state(1, 0).amplitudes, [1, 0])
    assert np.array_equal(new_basis_state(2, 3).amplitudes, [0, 0, 0, 1])
    s = new_basis_state(3, 5)  # |q2 q1 q0> = |101>
    assert s.amplitudes[5] == 1
    assert np.sum(np.abs(s.amplitudes)) == 1


def test_new_basis_state_rejects_bad_args():
    with pytest.raises(ValueError):
        new_basis_state(0, 0)
    with pytest.raises(ValueError):
        new_basis_state(25, 0)
    with pytest.raises(ValueError):
        new_basis_state(2, 4)
    with pytest.raises(ValueError):
        new_basis_state(2, -1)


def test_new_basis_state_accepts_index_like_integers():
    s = new_basis_state(3, np.int64(2))
    assert s.amplitudes[2] == 1 and np.sum(np.abs(s.amplitudes)) == 1
    assert new_basis_state(2, np.uint8(3)).amplitudes[3] == 1
    with pytest.raises(ValueError, match="out of range"):
        new_basis_state(3, np.int64(8))
    for bad in (2.0, np.float64(2.0), "2", None):
        with pytest.raises(ValueError, match="must be an integer"):
            new_basis_state(3, bad)


def test_one_pass_norm_edge_cases():
    for bad in ([1e200, 0], [math.nan, 0], [math.inf, 0], [-math.inf, 0],
                [0, complex(0, -math.inf)], [complex(math.inf, math.nan), 0]):
        with pytest.raises(ValueError):
            StateVector(1, bad)
    rng = np.random.default_rng(12)
    v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    v /= np.linalg.norm(v)
    for sumsq, ok in ((1 + 2e-12, False), (1 - 2e-12, False),
                      (1 + 5e-13, True), (1 - 5e-13, True)):
        for n, amps in ((6, v * math.sqrt(sumsq)), (1, [math.sqrt(sumsq), 0])):
            if ok:
                StateVector(n, amps)
            else:
                with pytest.raises(ValueError, match="not normalized"):
                    StateVector(n, amps)


def test_statevector_requires_normalization():
    with pytest.raises(ValueError):
        StateVector(1, [1.0, 1.0])
    with pytest.raises(ValueError):
        StateVector(2, [1.0, 0.0])  # wrong length
    for bad in ([math.nan, 0], [math.inf, 0], [complex(1, math.nan), 0]):
        with pytest.raises(ValueError):
            StateVector(1, bad)  # not finite


def test_amplitudes_are_read_only():
    s = new_basis_state(1, 0)
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.5


def test_hadamard_on_zero():
    s = apply_gate(new_basis_state(1, 0), Hadamard(0))
    r = 1 / math.sqrt(2)
    assert max_amp_diff(s, StateVector(1, [r, r])) <= 1e-15


def test_quarter_phase_on_one():
    s = apply_gate(new_basis_state(1, 1), Phase(DyadicTurn(1, 2), 0))
    assert abs(s.amplitudes[1] - 1j) <= 1e-12
    assert s.amplitudes[0] == 0


def test_controlled_phase_matches_dense_matrix():
    # half-turn phase, control q1, target q0, checked against the
    # explicitly built 4x4 matrix
    gate = Phase(DyadicTurn(1, 1), 0, (Control(1),))
    matrix = ref_gate_matrix(gate, 2)
    for basis in range(4):
        got = apply_gate(new_basis_state(2, basis), gate)
        want = matrix @ new_basis_state(2, basis).amplitudes
        assert np.max(np.abs(got.amplitudes - want)) <= 1e-15
    flipped = apply_gate(new_basis_state(2, 3), gate)
    assert flipped.amplitudes[3] == -1
    untouched = apply_gate(new_basis_state(2, 1), gate)
    assert untouched.amplitudes[1] == 1


def test_apply_gate_rejects_out_of_range():
    with pytest.raises(ValueError):
        apply_gate(new_basis_state(2, 0), Hadamard(2))


def test_apply_circuit_empty_and_double_h():
    s = new_basis_state(2, 2)
    assert np.array_equal(apply_circuit(s, Circuit(2)).amplitudes, s.amplitudes)
    hh = Circuit(1, (Hadamard(0), Hadamard(0)))
    back = apply_circuit(new_basis_state(1, 0), hh)
    assert max_amp_diff(back, new_basis_state(1, 0)) <= 1e-12


def test_apply_circuit_equals_gate_fold():
    rng = np.random.default_rng(0)
    c = random_circuit(3, 8, rng)
    s = random_state(3, rng)
    folded = s
    for g in c.gates:
        folded = apply_gate(folded, g)
    assert max_amp_diff(apply_circuit(s, c), folded) <= 1e-13


def test_qft2_on_zero_is_uniform():
    # oracle: dense Fourier matrix applied to the basis vector
    want = ref_dft_matrix(2) @ new_basis_state(2, 0).amplitudes
    got = apply_circuit(new_basis_state(2, 0), build_qft(2))
    assert np.max(np.abs(got.amplitudes - want)) <= 1e-12
    assert np.allclose(got.amplitudes, 0.25 ** 0.5)


def test_apply_circuit_width_mismatch():
    with pytest.raises(ValueError):
        apply_circuit(new_basis_state(2, 0), Circuit(3))


def test_outcome_distribution_examples():
    assert outcome_distribution(new_basis_state(1, 0)) == {0: 1.0}
    r = 1 / math.sqrt(2)
    dist = outcome_distribution(StateVector(1, [r, r]))
    assert dist[0] == pytest.approx(0.5)
    assert dist[1] == pytest.approx(0.5)
    assert abs(sum(dist.values()) - 1) <= 1e-10


def test_deterministic_outcome_examples():
    assert deterministic_outcome(new_basis_state(3, 5), 1e-9) == 5
    uniform = StateVector(2, [0.5] * 4)
    with pytest.raises(NotDeterministic):
        deterministic_outcome(uniform, 1e-9)
    with pytest.raises(ValueError):
        deterministic_outcome(uniform, 0.0)
    with pytest.raises(ValueError):
        deterministic_outcome(uniform, 1.0)


def test_marginal_distribution_bit_mapping():
    s = new_basis_state(2, 2)  # |q1 q0> = |10>
    assert marginal_distribution(s, [1]) == {1: 1.0}
    assert marginal_distribution(s, [0]) == {0: 1.0}
    # requested order defines the output bits: qubits[i] -> bit i
    assert marginal_distribution(s, [1, 0]) == {1: 1.0}
    assert marginal_distribution(s, [0, 1]) == {2: 1.0}
    with pytest.raises(ValueError):
        marginal_distribution(s, [])
    with pytest.raises(ValueError):
        marginal_distribution(s, [0, 0])


def _loop_marginal(state, qubits):
    out = [0.0] * (1 << len(qubits))
    for index, p in enumerate(state.probabilities()):
        out[sum(((index >> q) & 1) << bit
                for bit, q in enumerate(qubits))] += float(p)
    return out


def test_marginal_distribution_matches_loop_reference():
    rng = np.random.default_rng(41)
    eps = np.finfo(np.float64).eps
    for n in range(1, 6):
        state = random_state(n, rng)
        for k in range(1, n + 1):
            # Each entry sums 2**(n-k) probabilities totalling at most 1,
            # so two summation orders differ by at most eps per term.
            tolerance = eps * (1 << (n - k))
            for qubits in itertools.permutations(range(n), k):
                dist = marginal_distribution(state, qubits)
                for key, expected in enumerate(_loop_marginal(state, qubits)):
                    assert abs(dist.get(key, 0.0) - expected) <= tolerance, \
                        (n, qubits, key)


def test_norm_preserved_across_random_gates():
    rng = np.random.default_rng(42)
    s = random_state(4, rng)
    for _ in range(200):
        s = apply_gate(s, random_gate(4, rng))
        assert abs(np.sum(np.abs(s.amplitudes) ** 2) - 1.0) <= 1e-12


def test_gate_linearity_against_dense_matrices():
    rng = np.random.default_rng(5)
    for _ in range(40):
        gate = random_gate(3, rng)
        matrix = ref_gate_matrix(gate, 3)
        s = random_state(3, rng)
        got = apply_gate(s, gate).amplitudes
        want = matrix @ s.amplitudes
        assert np.max(np.abs(got - want)) <= 1e-12


def test_phase_gates_are_diagonal():
    rng = np.random.default_rng(9)
    s = random_state(3, rng)
    # quarter turns multiply by exact units: magnitudes are bit-identical
    for k in range(4):
        out = apply_gate(s, Phase(DyadicTurn(k, 2), 1, (Control(0),)))
        assert np.array_equal(np.abs(out.amplitudes), np.abs(s.amplitudes))
    # finer turns may re-round the touched amplitudes by at most 1 ulp
    out = apply_gate(s, Phase(Turn(0.1234), 1, (Control(0),)))
    np.testing.assert_allclose(np.abs(out.amplitudes), np.abs(s.amplitudes),
                               rtol=3e-16, atol=0)
    # amplitudes outside the controlled slice are never touched at all
    idx = [i for i in range(8) if not ((i >> 0) & 1 and (i >> 1) & 1)]
    assert np.array_equal(out.amplitudes[idx], s.amplitudes[idx])


def test_dense_matrix_equivalence_up_to_six_qubits():
    rng = np.random.default_rng(17)
    for n in range(1, 7):
        c = random_circuit(n, 10, rng)
        matrix = ref_circuit_matrix(c)
        s = random_state(n, rng)
        got = apply_circuit(s, c).amplitudes
        want = matrix @ s.amplitudes
        assert np.max(np.abs(got - want)) <= 1e-10


def test_swap_matches_dense_matrix():
    rng = np.random.default_rng(23)
    gate = Swap(0, 2)
    matrix = ref_gate_matrix(gate, 3)
    s = random_state(3, rng)
    got = apply_gate(s, gate).amplitudes
    assert np.max(np.abs(got - matrix @ s.amplitudes)) == 0.0


def test_sample_outcomes_on_basis_state():
    rng = np.random.default_rng(1)
    assert sample_outcomes(new_basis_state(3, 6), 20, rng) == [6] * 20
    with pytest.raises(ValueError):
        sample_outcomes(new_basis_state(1, 0), 0)


def test_tolerance_that_is_not_a_number_is_a_value_error():
    state = new_basis_state(2, 1)
    for bad in (None, "x", [0.5]):
        with pytest.raises(ValueError) as err:
            deterministic_outcome(state, bad)
        assert str(err.value) == f"tolerance must be in (0, 1), got {bad!r}"
    with pytest.raises(ValueError, match="^tolerance must be in"):
        read_all(create_state(ArrayContents((1, 2)), ArrayLayout(1, 2)),
                 ArrayLayout(1, 2), None)
    with pytest.raises(ValueError, match="^tolerance must be in"):
        run_count([1], tolerance="x")
