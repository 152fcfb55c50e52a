"""The Fourier turn, the QFT builders, the analytic Fourier state, the
Fourier adder and the phase frame every phase-writing builder shares.

Convention: the forward transform maps |d> to
``2**(-n/2) * sum_k exp(+i*2*pi*k*d/2**n) |k>``.  The trailing swap
network is always included, so qubit ``l`` of the result carries
the binary-fraction phase ``fourier_phase(d, l, n) = (d mod 2**(n-l)) /
2**(n-l)`` turns and a plain bit-ordered readout recovers ``d`` after
the inverse transform.

The paper's mechanism is one frame around that transform: Hadamards
prepare a register, blocks of phase gates write turns onto it, and an
inverse QFT reads the phase out as a basis state.  ``_phase_frame``
builds it for the counter, both phase estimators, the encoder and both
array creators.

Adding a value to a register held in Fourier space is one layer of
phase gates (Draper's QFT adder): ``_fourier_add`` writes it, with
``_fourier_turn`` as the turn of each qubit.  The counter's per-input
kicks, the QFT estimator's powers, the encoder and the array creators
and updater are all such layers, optionally under controls; the generic
array creator writes only the qubits of each layer it keeps, by the
same turn rule.
"""

from .circuit import Circuit, Control, Gate, Hadamard, Phase, Swap, _check_int
from .statevector import StateVector, _check_width
from .turns import DyadicTurn

__all__ = [
    "fourier_phase", "build_qft", "build_inverse_qft", "analytic_fourier_state",
]


def fourier_phase(d: int, l: int, n: int) -> DyadicTurn:
    """Turn carried by qubit l of the Fourier image of |d> on n qubits:
    (d mod 2**(n-l)) / 2**(n-l), exact."""
    n = _check_int(n, "register width", 1)
    l = _check_int(l, "qubit index", 0, n)
    d = _check_int(d, "value", 0, 1 << n)
    return _fourier_turn(d, n - l)


def _fourier_turn(d: int, width: int) -> DyadicTurn:
    """``fourier_phase`` without its checks: (d mod 2**width) / 2**width,
    the turn of the qubit with ``width - 1`` qubits above it."""
    return DyadicTurn(d % (1 << width), width)


def _fourier_add(value: int, register: range,
                 controls: tuple[Control, ...] = ()) -> tuple[Phase, ...]:
    """The layer adding ``value`` to the Fourier-space ``register``.

    Qubit ``register.start + l`` gets ``fourier_phase(value, l,
    len(register))``, most significant first, each gate under
    ``controls``.  Layers compose additively: the layers for a and b
    stacked equal the layer for (a + b) mod 2**len(register).  Every
    caller has checked ``value`` against the register width.
    """
    width = len(register)
    return tuple(Phase(_fourier_turn(value, width - l), register.start + l,
                       controls) for l in range(width - 1, -1, -1))


def _qft_gates(n: int, offset: int = 0, *,
               inverse: bool = False) -> list[Gate]:
    """Gates of the forward or inverse transform on qubits
    [offset, offset + n) of a wider register.

    The inverse is the forward sequence reversed with every turn
    negated, which is what ``invert`` would make of it.
    """
    sign = -1 if inverse else 1
    gates: list[Gate] = []
    for t in range(n - 1, -1, -1):
        gates.append(Hadamard(offset + t))
        for c in range(t - 1, -1, -1):
            gates.append(Phase(DyadicTurn(sign, t - c + 1), offset + t,
                               (Control(offset + c),)))
    for i in range(n // 2):
        gates.append(Swap(offset + i, offset + n - 1 - i))
    return gates[::-1] if inverse else gates


def build_qft(n: int) -> Circuit:
    """Forward Fourier transform on n qubits.

    Exactly n Hadamards and n*(n-1)/2 controlled phase gates with turns
    1/2**k, plus floor(n/2) trailing swaps.
    """
    n = _check_width(n)
    return Circuit(n, _qft_gates(n))


def build_inverse_qft(n: int) -> Circuit:
    """Inverse Fourier transform; maps analytic_fourier_state(d, n) back
    to |d> deterministically."""
    n = _check_width(n)
    return Circuit(n, _qft_gates(n, inverse=True))


def analytic_fourier_state(d: int, n: int) -> StateVector:
    """The Fourier image of |d> built directly from its product form,
    without running any gates.  Serves as an independent target for the
    gate-level builders."""
    import numpy as np
    n = _check_width(n)
    d = _check_int(d, "value", 0, 1 << n)
    idx = np.arange(1 << n)
    turns = np.zeros(1 << n)
    for b in range(n):
        turns = turns + ((idx >> b) & 1) * fourier_phase(d, b, n).value
    amps = np.exp(2j * np.pi * turns) * (2.0 ** (-n / 2.0))
    return StateVector(n, amps)


def _phase_frame(width: int, prepared: range, kicks,
                 readout: range | None = None) -> Circuit:
    """The prepare, write-phases, read-out frame on ``width`` qubits.

    A ``"prep"`` block of Hadamards on the ``prepared`` qubits, most
    significant first; the ``(label, gates)`` blocks of ``kicks``, where
    the gates may be one ``_TableKick``; and,
    given ``readout``, a ``"readout"`` inverse QFT with swaps on those
    qubits.  The width is checked before any kick gate is generated.
    """
    width = _check_width(width)
    blocks = [("prep", [Hadamard(q) for q in reversed(prepared)]), *kicks]
    if readout is not None:
        blocks.append(("readout", _qft_gates(len(readout), readout.start,
                                             inverse=True)))
    return Circuit.from_blocks(width, blocks)
