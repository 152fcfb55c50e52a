"""Dense complex state vectors and gate-application kernels.

The state of ``n`` qubits is a numpy array of ``2**n`` complex128
amplitudes.  Qubit 0 is the least significant bit of the basis index,
so basis state ``|q_{n-1} ... q_1 q_0>`` sits at index
``sum(q_b << b)``.  Kernels work on ``(2,)*n`` reshaped views, which
keeps every gate application a handful of vectorized slice operations.
"""

import math
from typing import Iterable, Sequence

import numpy as np

from .circuit import Circuit, Gate, Hadamard, Phase, Swap, X

__all__ = [
    "MAX_QUBITS", "NORM_TOLERANCE", "NotDeterministic", "StateVector",
    "new_basis_state", "apply_gate", "apply_circuit", "outcome_distribution",
    "marginal_distribution", "deterministic_outcome", "sample_outcomes",
]

# Hard cap keeping desk-scale runs safe (2**24 amplitudes = 256 MiB).
# Reassign qabacus.statevector.MAX_QUBITS to raise it.
MAX_QUBITS = 24

NORM_TOLERANCE = 1e-12

_SQRT_HALF = 1.0 / math.sqrt(2.0)


def _check_width(num_qubits: int) -> None:
    """Reject a register width outside [1, MAX_QUBITS].  The cap is read
    at call time, so reassigning MAX_QUBITS takes effect everywhere."""
    if not isinstance(num_qubits, int) or not 1 <= num_qubits <= MAX_QUBITS:
        raise ValueError(
            f"register width must be in [1, {MAX_QUBITS}] qubits, "
            f"got {num_qubits!r}")


def _check_tolerance(tolerance: float) -> None:
    """Reject a readout tolerance outside (0, 1), NaN included."""
    if not 0.0 < tolerance < 1.0:
        raise ValueError(f"tolerance must be in (0, 1), got {tolerance}")


class NotDeterministic(Exception):
    """No single outcome carries probability >= 1 - tolerance."""


class StateVector:
    """Immutable normalized amplitude vector over a qubit register."""

    __slots__ = ("_num_qubits", "_amplitudes")

    def __init__(self, num_qubits: int, amplitudes: Iterable[complex]):
        _check_width(num_qubits)
        amps = np.array(amplitudes, dtype=np.complex128)
        if amps.shape != (1 << num_qubits,):
            raise ValueError(
                f"expected {1 << num_qubits} amplitudes for {num_qubits} "
                f"qubits, got shape {amps.shape}")
        sumsq = float(np.sum(amps.real * amps.real + amps.imag * amps.imag))
        if abs(sumsq - 1.0) > NORM_TOLERANCE:
            raise ValueError(f"state is not normalized: sum |a|^2 = {sumsq!r}")
        amps.flags.writeable = False
        self._num_qubits = num_qubits
        self._amplitudes = amps

    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    @property
    def amplitudes(self) -> np.ndarray:
        """Read-only view of the 2**n amplitudes."""
        return self._amplitudes

    @property
    def dim(self) -> int:
        return 1 << self._num_qubits

    def probabilities(self) -> np.ndarray:
        a = self._amplitudes
        return a.real * a.real + a.imag * a.imag

    def __repr__(self) -> str:
        return f"StateVector(num_qubits={self._num_qubits})"


def new_basis_state(num_qubits: int, basis: int) -> StateVector:
    """The computational basis state |basis> on num_qubits qubits."""
    _check_width(num_qubits)
    if not isinstance(basis, int) or not 0 <= basis < (1 << num_qubits):
        raise ValueError(
            f"basis index {basis!r} out of range for {num_qubits} qubits")
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[basis] = 1.0
    return StateVector(num_qubits, amps)


def _slices(n: int, bits: dict[int, int]) -> tuple:
    """Index tuple selecting the amplitudes whose qubit q equals bits[q].

    On a (2,)*n view, qubit q is axis n-1-q.
    """
    idx: list = [slice(None)] * n
    for q, b in bits.items():
        idx[n - 1 - q] = b
    return tuple(idx)


def _apply_gate_inplace(amps: np.ndarray, n: int, gate: Gate) -> None:
    view = amps.reshape((2,) * n)
    if isinstance(gate, Hadamard):
        s0 = _slices(n, {gate.target: 0})
        s1 = _slices(n, {gate.target: 1})
        top = view[s0].copy()
        bot = view[s1]
        view[s0] = (top + bot) * _SQRT_HALF
        view[s1] = (top - bot) * _SQRT_HALF
    elif isinstance(gate, X):
        s0 = _slices(n, {gate.target: 0})
        s1 = _slices(n, {gate.target: 1})
        tmp = view[s0].copy()
        view[s0] = view[s1]
        view[s1] = tmp
    elif isinstance(gate, Phase):
        bits = {c.qubit: 1 if c.positive else 0 for c in gate.controls}
        bits[gate.target] = 1
        view[_slices(n, bits)] *= gate.turn.phase_factor()
    elif isinstance(gate, Swap):
        s10 = _slices(n, {gate.a: 1, gate.b: 0})
        s01 = _slices(n, {gate.a: 0, gate.b: 1})
        tmp = view[s10].copy()
        view[s10] = view[s01]
        view[s01] = tmp
    else:
        raise ValueError(f"not a gate: {gate!r}")


def _check_gate_fits(gate: Gate, num_qubits: int) -> None:
    worst = max(gate.qubits)
    if worst >= num_qubits:
        raise ValueError(
            f"gate {gate!r} touches qubit {worst} but the state has "
            f"{num_qubits} qubits")


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """New state with one gate applied.  Norm is preserved to 1e-12."""
    _check_gate_fits(gate, state.num_qubits)
    amps = state.amplitudes.copy()
    _apply_gate_inplace(amps, state.num_qubits, gate)
    return StateVector(state.num_qubits, amps)


def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    """Left-fold of apply_gate over the circuit's gate sequence."""
    if circuit.num_qubits != state.num_qubits:
        raise ValueError(
            f"circuit width {circuit.num_qubits} != state width "
            f"{state.num_qubits}")
    amps = state.amplitudes.copy()
    for gate in circuit.gates:
        _apply_gate_inplace(amps, state.num_qubits, gate)
    return StateVector(state.num_qubits, amps)


def outcome_distribution(state: StateVector) -> dict[int, float]:
    """Measurement distribution {basis index: probability}, zero entries
    omitted.  Probabilities sum to 1 within 1e-10."""
    probs = state.probabilities()
    nz = np.nonzero(probs)[0]
    return {int(i): float(probs[i]) for i in nz}


def _marginal_probs(state: StateVector, qubits: Sequence[int]) -> np.ndarray:
    qs = tuple(qubits)
    if not qs:
        raise ValueError("qubits must be non-empty")
    if len(set(qs)) != len(qs):
        raise ValueError(f"duplicate qubits in {qs}")
    for q in qs:
        if not 0 <= q < state.num_qubits:
            raise ValueError(f"qubit {q} out of range")
    idx = np.arange(state.dim)
    keys = np.zeros(state.dim, dtype=np.int64)
    for bit, q in enumerate(qs):
        keys |= ((idx >> q) & 1) << bit
    return np.bincount(keys, weights=state.probabilities(),
                       minlength=1 << len(qs))


def marginal_distribution(state: StateVector,
                          qubits: Sequence[int]) -> dict[int, float]:
    """Distribution over a sub-register; qubits[i] becomes bit i of the
    returned keys.  Zero entries omitted."""
    probs = _marginal_probs(state, qubits)
    nz = np.nonzero(probs)[0]
    return {int(i): float(probs[i]) for i in nz}


def deterministic_outcome(state: StateVector, tolerance: float = 1e-9, *,
                          qubits: Sequence[int] | None = None) -> int:
    """The unique index with probability >= 1 - tolerance.

    Reads the whole register, or just ``qubits`` (qubits[i] = bit i of
    the result) when given.  Raises NotDeterministic if no index clears
    the threshold.
    """
    _check_tolerance(tolerance)
    if qubits is None:
        probs = state.probabilities()
    else:
        probs = _marginal_probs(state, qubits)
    best = int(np.argmax(probs))
    p = float(probs[best])
    if p < 1.0 - tolerance:
        raise NotDeterministic(
            f"largest outcome probability is {p:.6g} (index {best}), "
            f"below 1 - {tolerance:g}")
    return best


def sample_outcomes(state: StateVector, shots: int,
                    rng: np.random.Generator | None = None) -> list[int]:
    """Born-rule samples of the full register.  Not needed for the
    deterministic circuits in this package, but handy for exploration."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if rng is None:
        rng = np.random.default_rng()
    probs = state.probabilities()
    probs = probs / probs.sum()
    return [int(s) for s in rng.choice(state.dim, size=shots, p=probs)]
