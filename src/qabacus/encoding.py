"""Integer encoding as per-qubit phase shifts.

An integer d fits on an n-qubit register as the Fourier image of |d>:
after a Hadamard layer, qubit l is rotated by the binary-fraction turn
``fourier_phase(d, l, n)``.  No controlled gates are involved, so the
data lives purely in phases and amplitude magnitudes stay flat at
2**(-n/2).  Decoding is the inverse QFT with swaps followed by a
deterministic readout.
"""

from .circuit import Circuit, Control, Gate, Hadamard, Phase
from .qft import build_inverse_qft
from .statevector import StateVector, apply_circuit, deterministic_outcome, \
    new_basis_state
from .turns import DyadicTurn

__all__ = [
    "fourier_phase", "encoding_phase_gates", "build_encoder", "encode_value",
    "decode_register", "encode_signed", "decode_signed",
]


def fourier_phase(d: int, l: int, n: int) -> DyadicTurn:
    """Turn carried by qubit l of the Fourier image of |d> on n qubits:
    (d mod 2**(n-l)) / 2**(n-l), exact."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"register width must be >= 1, got {n!r}")
    if not isinstance(l, int) or not 0 <= l < n:
        raise ValueError(f"qubit index {l!r} out of range for {n} qubits")
    if not isinstance(d, int) or not 0 <= d < (1 << n):
        raise ValueError(f"value {d!r} out of range for {n} qubits")
    width = n - l
    return DyadicTurn(d % (1 << width), width)


def encoding_phase_gates(value: int, num_qubits: int, *, offset: int = 0,
                         controls: tuple[Control, ...] = ()) -> tuple[Gate, ...]:
    """The phase layer writing ``value`` into a Fourier-space register.

    One gate per qubit, most significant first; qubit offset+l gets the
    turn fourier_phase(value, l, num_qubits).  Optional controls are
    attached to every gate, which conditions the whole addition.  In
    Fourier space these layers compose additively: stacking the layers
    for a and b equals the layer for (a + b) mod 2**num_qubits.
    """
    return tuple(
        Phase(fourier_phase(value, l, num_qubits), offset + l, controls)
        for l in range(num_qubits - 1, -1, -1))


def build_encoder(d: int, n: int) -> Circuit:
    """Hadamard layer plus the phase layer for d: applied to |0...0> it
    produces the Fourier image of |d> exactly.

    Values outside [0, 2**n) are rejected rather than silently reduced.
    """
    return Circuit.from_blocks(n, [
        ("prep", [Hadamard(l) for l in range(n - 1, -1, -1)]),
        ("encode", encoding_phase_gates(d, n)),
    ])


def encode_value(d: int, n: int) -> StateVector:
    """Run the encoder on |0...0>."""
    return apply_circuit(new_basis_state(n, 0), build_encoder(d, n))


def decode_register(state: StateVector, tolerance: float = 1e-9) -> int:
    """Inverse QFT + swaps, then deterministic readout.  Raises
    NotDeterministic if the state is not the Fourier image of a basis
    state."""
    decoded = apply_circuit(state, build_inverse_qft(state.num_qubits))
    return deterministic_outcome(decoded, tolerance)


def encode_signed(value: int, n: int) -> StateVector:
    """Two's-complement convenience wrapper: encodes value mod 2**n for
    value in [-2**(n-1), 2**(n-1))."""
    half = 1 << (n - 1)
    if not isinstance(value, int) or not -half <= value < half:
        raise ValueError(
            f"signed value {value!r} out of range for {n} qubits")
    return encode_value(value % (1 << n), n)


def decode_signed(state: StateVector, tolerance: float = 1e-9) -> int:
    """Inverse of encode_signed."""
    d = decode_register(state, tolerance)
    half = 1 << (state.num_qubits - 1)
    return d - (1 << state.num_qubits) if d >= half else d
