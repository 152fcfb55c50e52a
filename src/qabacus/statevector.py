"""State vectors, in dense or branch form, and gate-application kernels.

The state of ``n`` qubits has ``2**n`` complex128 amplitudes.  Qubit 0
is the least significant bit of the basis index, so basis state
``|q_{n-1} ... q_1 q_0>`` sits at index ``sum(q_b << b)``.

A ``StateVector`` holds them in one of two forms.  The dense form is the
numpy array itself.  The branch form is exact:
``2**(-s/2) * sum_b e^{2*pi*i*phase_b/2**52} |index_b>`` over ``B = 2**s``
distinct basis indices, with exact phase numerators, so it is normalized
by construction.  With one branch it is the basis form that
``new_basis_state`` makes, held in plain ints; with more it is held in
int64 arrays, and a quantum array 2**(-m/2) * sum_j |j, d_j> is the case
of one branch per index j.  ``apply_circuit`` keeps the branch form for
every circuit that ``tracking.track`` runs exactly, so the counter, the
phase estimators, encode-then-decode, array creation and array updates
go from input to readout without a ``2**n`` array, and
``deterministic_outcome`` reads the branches themselves.  A dense input
stays dense, even when it holds a single basis state.  The dense array
of a branch-form state is built on the first read of ``amplitudes``.

numpy is imported inside the functions that make or read an array: the
dense branch of ``StateVector``, the first read of ``amplitudes``,
marginals, sampling, and a branch form of more than one branch.  A run
that stays in basis form never imports it, which keeps numpy's import
off the start-up of ``qabacus count``.

Kernels work on ``(2,)*n`` reshaped views of the dense form, which keeps
every gate application a handful of vectorized slice operations.
"""

from __future__ import annotations

import math
import numbers
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .circuit import Circuit, Gate, Hadamard, Phase, X, _check_int
from .tracking import NotRepresentable, track
from .turns import MAX_DYADIC_EXPONENT, DyadicTurn

if TYPE_CHECKING:
    import numpy as np

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


def _check_width(num_qubits: int) -> int:
    """The register width as an int in [1, MAX_QUBITS].  The cap is read
    at call time, so reassigning MAX_QUBITS takes effect everywhere."""
    # The type only: an out-of-range width keeps the text below.
    num_qubits = _check_int(num_qubits, "register width", -math.inf)
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ValueError(
            f"register width must be in [1, {MAX_QUBITS}] qubits, "
            f"got {num_qubits}")
    return num_qubits


def _check_tolerance(tolerance: float) -> None:
    """Reject a readout tolerance that is not a number in (0, 1), NaN
    included."""
    if not (isinstance(tolerance, numbers.Real) and 0.0 < tolerance < 1.0):
        raise ValueError(f"tolerance must be in (0, 1), got {tolerance!r}")


class NotDeterministic(Exception):
    """No single outcome carries probability >= 1 - tolerance."""


class _Branches(NamedTuple):
    """The branch form: ``2**(-s/2) * e^{2*pi*i*phase_b / 2**52}`` at
    basis index ``index_b`` for each of ``B = 2**s`` branches, zero
    elsewhere.  ``index`` and ``phase`` are ints for one branch and int64
    arrays for more."""

    index: int | np.ndarray
    phase: int | np.ndarray = 0


def _check_branches(num_qubits: int, form: _Branches) -> _Branches:
    """The branch form with its fields checked: the index or indices in
    range (and distinct), the phase numerators in [0, 2**52), a power-of-
    two branch count above one for the array case."""
    index, phase = form
    turn = 1 << MAX_DYADIC_EXPONENT
    if getattr(index, "ndim", 0) == 0:
        return _Branches(_check_int(index, "basis index", 0, 1 << num_qubits),
                         _check_int(phase, "phase", 0, turn))
    import numpy as np
    index, phase = np.asarray(index), np.asarray(phase)
    size = index.size
    if not (index.shape == phase.shape == (size,) and size > 1
            and not size & (size - 1)
            and index.dtype == phase.dtype == np.int64):
        raise ValueError("branch form needs two int64 arrays of 2**s > 1 "
                         "entries")
    if index.min() < 0 or index.max() >= 1 << num_qubits:
        raise ValueError(f"branch index out of range for {num_qubits} qubits")
    if phase.min() < 0 or phase.max() >= turn:
        raise ValueError("branch phase out of range")
    ordered = np.sort(index)
    if (ordered[1:] == ordered[:-1]).any():
        raise ValueError("branch indices must be distinct")
    index.flags.writeable = False
    phase.flags.writeable = False
    return _Branches(index, phase)


class StateVector:
    """Immutable normalized state of a qubit register.

    ``amplitudes`` is either the dense array of ``2**n`` amplitudes or
    the private branch form ``StateVector(n, _Branches(index, phase))``.
    Both forms are checked here: the width against MAX_QUBITS, then the
    shape and the norm of the dense form, or the indices and phases of
    the branch form.  A branch-form state builds its dense array on the
    first read of ``amplitudes`` and keeps it.
    """

    __slots__ = ("_num_qubits", "_amplitudes", "_branches")

    def __init__(self, num_qubits: int, amplitudes: Iterable[complex]):
        num_qubits = _check_width(num_qubits)
        if isinstance(amplitudes, _Branches):
            branches = _check_branches(num_qubits, amplitudes)
            amps = None
        else:
            import numpy as np
            amps = np.array(amplitudes, dtype=np.complex128)
            if amps.shape != (1 << num_qubits,):
                raise ValueError(
                    f"expected {1 << num_qubits} amplitudes for {num_qubits} "
                    f"qubits, got shape {amps.shape}")
            # One pass; a NaN or infinite amplitude makes the sum NaN or inf.
            sumsq = float(np.vdot(amps, amps).real)
            if not abs(sumsq - 1.0) <= NORM_TOLERANCE:  # NaN fails too
                raise ValueError(
                    f"state is not normalized: sum |a|^2 = {sumsq!r}")
            amps.flags.writeable = False
            branches = None
        self._num_qubits = num_qubits
        self._amplitudes = amps
        self._branches = branches

    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    @property
    def amplitudes(self) -> np.ndarray:
        """Read-only view of the 2**n amplitudes."""
        if self._amplitudes is None:
            import numpy as np
            index, phase = self._branches
            amps = np.zeros(1 << self._num_qubits, dtype=np.complex128)
            if not isinstance(index, int):
                turns = phase / float(1 << MAX_DYADIC_EXPONENT)
                amps[index] = (1.0 / math.sqrt(index.size)) * np.exp(
                    2j * math.pi * turns)
            else:
                amps[index] = DyadicTurn(
                    phase, MAX_DYADIC_EXPONENT).phase_factor()
            amps.flags.writeable = False
            self._amplitudes = amps
        return self._amplitudes

    @property
    def dim(self) -> int:
        return 1 << self._num_qubits

    def probabilities(self) -> np.ndarray:
        a = self.amplitudes
        return a.real * a.real + a.imag * a.imag

    def __repr__(self) -> str:
        return f"StateVector(num_qubits={self._num_qubits})"


def new_basis_state(num_qubits: int, basis: int) -> StateVector:
    """The computational basis state |basis> on num_qubits qubits, in
    basis form."""
    return StateVector(num_qubits, _Branches(basis))


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
    else:  # Swap
        s10 = _slices(n, {gate.a: 1, gate.b: 0})
        s01 = _slices(n, {gate.a: 0, gate.b: 1})
        tmp = view[s10].copy()
        view[s10] = view[s01]
        view[s01] = tmp


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """New state with one gate applied.  Norm is preserved to 1e-12."""
    return apply_circuit(state, Circuit(state.num_qubits, (gate,)))


def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    """The state after every gate of the circuit, in order.

    A branch-form input (``new_basis_state``, an earlier tracked run or a
    loaded array) runs first as exact dyadic phase bookkeeping
    (``tracking.track``), and the result is in branch form.  A dense
    input, even one that holds a single basis state, or a circuit the
    bookkeeping cannot represent, runs gate by gate on a copy of the
    dense amplitudes.
    """
    if circuit.num_qubits != state.num_qubits:
        raise ValueError(
            f"circuit width {circuit.num_qubits} != state width "
            f"{state.num_qubits}")
    branches = state._branches
    if branches is not None:
        try:
            index, phase = track(circuit, branches.index, branches.phase)
        except NotRepresentable:
            pass
        else:
            return StateVector(state.num_qubits, _Branches(index, phase))
    amps = state.amplitudes.copy()
    for gate in circuit.gates:
        _apply_gate_inplace(amps, state.num_qubits, gate)
    return StateVector(state.num_qubits, amps)


def outcome_distribution(state: StateVector) -> dict[int, float]:
    """Measurement distribution {basis index: probability}, zero entries
    omitted.  Probabilities sum to 1 within 1e-10."""
    return marginal_distribution(state, range(state.num_qubits))


def _check_qubits(state: StateVector, qubits: Sequence[int]) -> tuple[int, ...]:
    """The readout qubits as distinct ints in range, at least one."""
    qs = tuple(_check_int(q, "qubit", 0, state.num_qubits) for q in qubits)
    if not qs:
        raise ValueError("qubits must be non-empty")
    if len(set(qs)) != len(qs):
        raise ValueError(f"duplicate qubits in {qs}")
    return qs


def _marginal_probs(state: StateVector, qubits: Sequence[int]) -> np.ndarray:
    import numpy as np
    qs = _check_qubits(state, qubits)
    # Qubit q is axis n-1-q; qubits[-1] leads so that qubits[i] is bit i.
    n = state.num_qubits
    probs = state.probabilities().reshape((2,) * n)
    return np.einsum(probs, list(range(n)),
                     [n - 1 - q for q in reversed(qs)]).reshape(-1)


def marginal_distribution(state: StateVector,
                          qubits: Sequence[int]) -> dict[int, float]:
    """Distribution over a sub-register; qubits[i] becomes bit i of the
    returned keys.  Zero entries omitted."""
    probs = _marginal_probs(state, qubits)
    nz = probs.nonzero()[0]
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
        qubits = range(state.num_qubits)
    branches = state._branches
    if branches is None:
        probs = _marginal_probs(state, qubits)
        best = int(probs.argmax())
        p = float(probs[best])
    else:
        # Each branch's outcome is its index bits, re-ordered; every
        # branch carries 1/B, whatever its phase.
        index = branches.index
        best = sum(((index >> q) & 1) << bit
                   for bit, q in enumerate(_check_qubits(state, qubits)))
        p = 1.0
        if not isinstance(index, int):
            # The most frequent outcome, the lowest of a tie, as argmax
            # picks it from the marginal.
            import numpy as np
            outcomes, counts = np.unique(best, return_counts=True)
            top = int(counts.argmax())
            best = int(outcomes[top])
            p = int(counts[top]) / index.size
    if p < 1.0 - tolerance:
        raise NotDeterministic(
            f"largest outcome probability is {p:.6g} (index {best}), "
            f"below 1 - {tolerance:g}")
    return best


def sample_outcomes(state: StateVector, shots: int,
                    rng: np.random.Generator | None = None) -> list[int]:
    """Born-rule samples of the full register.  Not needed for the
    deterministic circuits in this package, but handy for exploration."""
    shots = _check_int(shots, "shots", 1)
    if rng is None:
        import numpy as np
        rng = np.random.default_rng()
    probs = state.probabilities()
    probs = probs / probs.sum()
    return [int(s) for s in rng.choice(state.dim, size=shots, p=probs)]
