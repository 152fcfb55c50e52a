"""Quantum Fourier transform builders and the analytic Fourier state.

Convention: the forward transform maps |d> to
``2**(-n/2) * sum_k exp(+i*2*pi*k*d/2**n) |k>``.  With the trailing
swap network enabled (the default), qubit ``l`` of the result carries
the binary-fraction phase ``fourier_phase(d, l, n) = (d mod 2**(n-l)) /
2**(n-l)`` turns, so a plain bit-ordered readout recovers ``d`` after
the inverse transform.
"""

import numpy as np

from .circuit import Circuit, Control, Gate, Hadamard, Phase, Swap
from .statevector import StateVector, _check_width
from .turns import DyadicTurn

__all__ = ["build_qft", "build_inverse_qft", "analytic_fourier_state"]


def _qft_gates(n: int, offset: int = 0, *, inverse: bool = False,
               with_swaps: bool = True) -> list[Gate]:
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
    if with_swaps:
        for i in range(n // 2):
            gates.append(Swap(offset + i, offset + n - 1 - i))
    return gates[::-1] if inverse else gates


def build_qft(n: int, with_swaps: bool = True) -> Circuit:
    """Forward Fourier transform on n qubits.

    Exactly n Hadamards and n*(n-1)/2 controlled phase gates with turns
    1/2**k, plus floor(n/2) trailing swaps when with_swaps is set.
    """
    _check_width(n)
    return Circuit(n, _qft_gates(n, with_swaps=with_swaps))


def build_inverse_qft(n: int, with_swaps: bool = True) -> Circuit:
    """Inverse Fourier transform; maps analytic_fourier_state(d, n) back
    to |d> deterministically."""
    _check_width(n)
    return Circuit(n, _qft_gates(n, inverse=True, with_swaps=with_swaps))


def analytic_fourier_state(d: int, n: int) -> StateVector:
    """The Fourier image of |d> built directly from its product form,
    without running any gates.  Serves as an independent target for the
    gate-level builders."""
    _check_width(n)
    if not isinstance(d, int) or not 0 <= d < (1 << n):
        raise ValueError(f"value {d!r} out of range for {n} qubits")
    idx = np.arange(1 << n)
    turns = np.zeros(1 << n)
    for b in range(n):
        width = n - b
        turn = (d % (1 << width)) / (1 << width)  # exact: dyadic
        turns = turns + ((idx >> b) & 1) * turn
    amps = np.exp(2j * np.pi * turns) * (2.0 ** (-n / 2.0))
    return StateVector(n, amps)
