"""Integer encoding as per-qubit phase shifts.

An integer d fits on an n-qubit register as the Fourier image of |d>:
after a Hadamard layer, qubit l is rotated by the binary-fraction turn
``fourier_phase(d, l, n)``, which ``qft`` defines and this module
re-exports.  No controlled gates are involved, so the data lives purely
in phases and amplitude magnitudes stay flat at 2**(-n/2).  That layer
is ``qft``'s Fourier adder applied to the zero register, and
``encoding_phase_gates`` is the adder's checked public face.  The encoder
is the shared phase frame without a readout; decoding is the inverse QFT
with swaps followed by a deterministic readout.
"""

from .circuit import Circuit, Control, Gate, _check_int
from .qft import _fourier_add, _phase_frame, build_inverse_qft, fourier_phase
from .statevector import StateVector, _check_width, apply_circuit, \
    deterministic_outcome, new_basis_state

__all__ = [
    "fourier_phase", "encoding_phase_gates", "build_encoder", "encode_value",
    "decode_register", "encode_signed", "decode_signed",
]


def encoding_phase_gates(value: int, num_qubits: int, *,
                         controls: tuple[Control, ...] = ()) -> tuple[Gate, ...]:
    """The phase layer writing ``value`` into a Fourier-space register.

    One gate per qubit, most significant first; qubit l gets the turn
    fourier_phase(value, l, num_qubits).  Optional controls are
    attached to every gate, which conditions the whole addition.  In
    Fourier space these layers compose additively: stacking the layers
    for a and b equals the layer for (a + b) mod 2**num_qubits.
    The width must be at least 1 and ``value`` in [0, 2**num_qubits).
    """
    num_qubits = _check_int(num_qubits, "register width", 1)
    value = _check_int(value, "value", 0, 1 << num_qubits)
    return _fourier_add(value, range(num_qubits), controls)


def build_encoder(d: int, n: int) -> Circuit:
    """Hadamard layer plus the phase layer for d: applied to |0...0> it
    produces the Fourier image of |d> exactly.

    Values outside [0, 2**n) are rejected rather than silently reduced.
    """
    n = _check_width(n)
    return _phase_frame(n, range(n), [("encode", encoding_phase_gates(d, n))])


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
    n = _check_width(n)
    half = 1 << (n - 1)
    value = _check_int(value, "signed value", -half, half)
    return encode_value(value % (1 << n), n)


def decode_signed(state: StateVector, tolerance: float = 1e-9) -> int:
    """Inverse of encode_signed."""
    d = decode_register(state, tolerance)
    half = 1 << (state.num_qubits - 1)
    return d - (1 << state.num_qubits) if d >= half else d
