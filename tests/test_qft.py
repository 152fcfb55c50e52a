import numpy as np
import pytest

from helpers import max_amp_diff, random_state
from qabacus import (
    Circuit, Hadamard, analytic_fourier_state, apply_circuit,
    build_inverse_qft, build_qft, deterministic_outcome, gate_count_report,
    invert, new_basis_state,
)
from qabacus.reference import ref_dft_state


def test_single_qubit_qft_is_hadamard():
    assert build_qft(1) == Circuit(1, (Hadamard(0),))


def test_qft_of_zero_is_uniform():
    s = apply_circuit(new_basis_state(3, 0), build_qft(3))
    assert np.allclose(s.amplitudes, 1 / np.sqrt(8), atol=1e-12)


def test_qft_matches_analytic_state():
    s = apply_circuit(new_basis_state(3, 5), build_qft(3))
    assert max_amp_diff(s, analytic_fourier_state(5, 3)) <= 1e-10


def test_qft_matches_analytic_state_exhaustive():
    for n in range(1, 6):
        c = build_qft(n)
        for d in range(1 << n):
            s = apply_circuit(new_basis_state(n, d), c)
            assert max_amp_diff(s, analytic_fourier_state(d, n)) <= 1e-10


def test_inverse_qft_recovers_basis_states():
    n = 3
    roundtrip = Circuit(n, build_qft(n).gates + build_inverse_qft(n).gates)
    for d in range(8):
        s = apply_circuit(new_basis_state(n, d), roundtrip)
        assert deterministic_outcome(s, 1e-9) == d


def test_inverse_qft_decodes_fourier_states():
    s = apply_circuit(analytic_fourier_state(5, 3), build_inverse_qft(3))
    assert deterministic_outcome(s, 1e-9) == 5
    s = apply_circuit(analytic_fourier_state(0, 4), build_inverse_qft(4))
    assert deterministic_outcome(s, 1e-9) == 0


def test_inverse_is_structural_inverse():
    for n in (1, 2, 4):
        assert build_inverse_qft(n) == invert(build_qft(n))


def test_unitarity_on_random_states():
    rng = np.random.default_rng(31)
    n = 5
    forward, backward = build_qft(n), build_inverse_qft(n)
    for _ in range(10):
        s = random_state(n, rng)
        back = apply_circuit(apply_circuit(s, forward), backward)
        assert max_amp_diff(s, back) <= 1e-10


def test_gate_count_formula():
    for n in range(1, 9):
        report = gate_count_report(build_qft(n))
        assert report["h"] == n
        assert report["cphase"] == n * (n - 1) // 2
        assert report["swap"] == n // 2
        assert report["phase"] == 0 and report["x"] == 0


def test_analytic_state_of_zero_is_positive_uniform():
    s = analytic_fourier_state(0, 3)
    assert np.allclose(s.amplitudes.imag, 0.0, atol=1e-15)
    assert np.all(s.amplitudes.real > 0)


def test_analytic_state_per_qubit_phases():
    # encoding 5 on 3 qubits puts turns 1/2, 1/4, 5/8 on qubits 2, 1, 0
    s = analytic_fourier_state(5, 3)
    base = s.amplitudes[0]
    for qubit, turn in ((2, 0.5), (1, 0.25), (0, 0.625)):
        ratio = s.amplitudes[1 << qubit] / base
        assert abs(ratio - np.exp(2j * np.pi * turn)) <= 1e-12


def test_analytic_state_magnitudes_flat():
    for n in (1, 3, 5):
        for d in (0, 1, (1 << n) - 1):
            s = analytic_fourier_state(d, n)
            assert np.max(np.abs(np.abs(s.amplitudes) - 2 ** (-n / 2))) <= 1e-12


def test_analytic_state_matches_reference_sum():
    for n in range(1, 6):
        for d in range(1 << n):
            assert max_amp_diff(analytic_fourier_state(d, n),
                                ref_dft_state(d, n)) <= 1e-12


def test_argument_validation():
    with pytest.raises(ValueError):
        build_qft(0)
    with pytest.raises(ValueError):
        build_qft(25)
    with pytest.raises(ValueError):
        analytic_fourier_state(8, 3)
    with pytest.raises(ValueError):
        analytic_fourier_state(-1, 3)
