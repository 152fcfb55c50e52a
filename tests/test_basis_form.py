"""The basis form of StateVector: the same checks, readouts and results as
the dense form, and no 2**n array unless something reads ``amplitudes``."""

import math
import tracemalloc

import numpy as np
import pytest

from qabacus import (
    Circuit, NotDeterministic, StateVector, apply_circuit,
    build_qft_phase_estimator, deterministic_outcome, marginal_distribution, new_basis_state,
    outcome_distribution, run_count, sample_outcomes,
)
from qabacus.statevector import _Branches
from qabacus.turns import MAX_DYADIC_EXPONENT, DyadicTurn

# The phase numerator of 13/16 turn, whose dense amplitude has |a|^2
# rounded to 1 - 2**-53, so the dense form cannot clear a tolerance of
# 1e-17 (where 1 - tolerance rounds to 1).  The basis form reads 1.
_SHORT = 13 << (MAX_DYADIC_EXPONENT - 4)


def _both_forms(n, index, phase):
    """The state e^{2*pi*i*phase/2**52}|index> once in basis form and
    once dense."""
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[index] = DyadicTurn(phase, MAX_DYADIC_EXPONENT).phase_factor()
    return StateVector(n, _Branches(index, phase)), StateVector(n, amps)


def _outcome(state, qubits, tolerance):
    """deterministic_outcome's result, or its exception's type and text."""
    try:
        if qubits is None:
            return deterministic_outcome(state, tolerance)
        return deterministic_outcome(state, tolerance, qubits=qubits)
    except (ValueError, NotDeterministic) as exc:
        return type(exc), str(exc)


QUBIT_ARGS = [None, [0], [2], [4, 0], [0, 4], [1, 3, 2], range(5), range(2, 5),
              [], [1, 1], [5], [-1], [True], [0.5], ["0"], [np.int64(3)]]
TOLERANCES = [1e-9, 0.25, 1e-17, 0.0, 1.0, math.nan, None, "x"]


@pytest.mark.parametrize("phase", [0, 3 << (MAX_DYADIC_EXPONENT - 2), _SHORT],
                         ids=["one", "-i", "short"])
@pytest.mark.parametrize("qubits", QUBIT_ARGS, ids=repr)
def test_readout_is_the_same_in_both_forms(qubits, phase):
    basis, dense = _both_forms(5, 0b10110, phase)
    for tolerance in TOLERANCES:
        if phase == _SHORT and tolerance == 1e-17:
            continue  # the dense rounding alone; see the next test
        want = _outcome(dense, qubits, tolerance)
        assert _outcome(basis, qubits, tolerance) == want, tolerance


def test_readout_table_covers_every_branch():
    basis, dense = _both_forms(5, 0b10110, _SHORT)
    assert _outcome(basis, [4, 0], 1e-9) == 0b01
    # One branch carries probability exactly 1: no rounding margin.
    assert _outcome(basis, None, 1e-17) == 22
    assert _outcome(dense, None, 1e-17) == (
        NotDeterministic, "largest outcome probability is 1 (index 22), "
        "below 1 - 1e-17")
    # Two branches apart in qubit 0 alone: each carries 1/2, whatever its
    # phase, and only a readout that skips qubit 0 is deterministic.
    split = StateVector(5, _Branches(np.array([22, 23], dtype=np.int64),
                                     np.array([0, _SHORT], dtype=np.int64)))
    assert _outcome(split, [4, 1], 1e-17) == 0b11
    assert _outcome(split, [0, 4], 0.25) == (
        NotDeterministic, "largest outcome probability is 0.5 (index 2), "
        "below 1 - 0.25")
    assert _outcome(basis, [1, 1], 1e-9) == (
        ValueError, "duplicate qubits in (1, 1)")
    assert _outcome(basis, [], 1e-9) == (ValueError, "qubits must be non-empty")
    # The tolerance is checked before the qubits.
    assert _outcome(basis, [], None) == (
        ValueError, "tolerance must be in (0, 1), got None")


def test_basis_amplitudes_are_read_only_and_cached():
    state = new_basis_state(3, 5)
    amps = state.amplitudes
    assert state.amplitudes is amps
    assert np.array_equal(amps, [0, 0, 0, 0, 0, 1, 0, 0])
    with pytest.raises(ValueError):
        amps[5] = 0.5
    out = apply_circuit(state, Circuit(3))
    with pytest.raises(ValueError):
        out.amplitudes[0] = 1


def test_basis_form_checks_width_index_and_accepts_the_tolerance():
    for phase in (0, 1, _SHORT):
        assert StateVector(2, _Branches(3, phase)).amplitudes[3] == \
            DyadicTurn(phase, MAX_DYADIC_EXPONENT).phase_factor()
    with pytest.raises(ValueError, match=r"^basis index out of range"):
        StateVector(2, _Branches(4))
    with pytest.raises(ValueError, match="^basis index must be an integer"):
        StateVector(2, _Branches(True))
    with pytest.raises(ValueError) as err:
        new_basis_state(25, 0)
    assert str(err.value) == "register width must be in [1, 24] qubits, got 25"


_I64 = np.int64


@pytest.mark.parametrize("index, phase, text", [
    (np.array([0, 1], dtype=np.int32), np.zeros(2, _I64),
     "branch form needs two int64 arrays of 2[*][*]s > 1 entries"),
    (np.array([0, 1], _I64), np.zeros(4, _I64), "branch form needs"),
    (np.array([1], _I64), np.zeros(1, _I64), "branch form needs"),
    (np.array([0, 1, 2], _I64), np.zeros(3, _I64), "branch form needs"),
    (np.array([-1, 1], _I64), np.zeros(2, _I64),
     "branch index out of range for 2 qubits"),
    (np.array([0, 4], _I64), np.zeros(2, _I64), "branch index out of range"),
    (np.array([0, 1], _I64), np.array([0, 1 << 52], _I64),
     "branch phase out of range"),
    (np.array([2, 2], _I64), np.zeros(2, _I64),
     "branch indices must be distinct"),
], ids=["int32", "shape-mismatch", "one-branch", "three-branches",
        "negative-index", "index-out-of-range", "phase-2**52", "duplicates"])
def test_branch_form_refuses_malformed_arrays(index, phase, text):
    with pytest.raises(ValueError, match=f"^{text}"):
        StateVector(2, _Branches(index, phase))


def test_distributions_and_samples_agree_between_forms():
    basis, dense = _both_forms(4, 0b1001, 5 << 45)
    assert np.array_equal(basis.probabilities(), dense.probabilities())
    assert outcome_distribution(basis) == outcome_distribution(dense)
    for qubits in ([0], [3, 0], [1, 2], range(4)):
        assert marginal_distribution(basis, qubits) == \
            marginal_distribution(dense, qubits)
    assert sample_outcomes(basis, 16, np.random.default_rng(5)) == \
        sample_outcomes(dense, 16, np.random.default_rng(5))


# Allocation, not time: each figure is tracemalloc's peak over one call
# after a warm-up call.

def _peak_mib(call) -> float:
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_counting_16_bits_builds_no_dense_array():
    # 21 qubits: a dense array would be 32 MiB.
    assert _peak_mib(lambda: run_count([1, 0] * 8)) < 1.0


def test_qft_estimator_at_8_bits_builds_no_dense_array():
    # 16 qubits: a dense array would be 1 MiB.
    def estimate():
        circuit = build_qft_phase_estimator(8)
        state = apply_circuit(new_basis_state(16, 173), circuit)
        assert deterministic_outcome(state, qubits=range(8, 16)) == 173

    assert _peak_mib(estimate) < 0.5


def test_amplitudes_build_the_dense_array_once():
    dense_mib = 16 * 2**21 / 2**20
    state = new_basis_state(21, 5)
    tracemalloc.start()
    try:
        state.amplitudes
        first = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.reset_peak()
        state.amplitudes
        second = tracemalloc.get_traced_memory()[1] / 2**20 - first
    finally:
        tracemalloc.stop()
    assert dense_mib <= first < dense_mib + 1
    assert second < 0.01
