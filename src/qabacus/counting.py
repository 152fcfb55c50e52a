"""Deterministic counting of 1s (or 0s) in a qubit register.

Each input qubit in the counted state nudges every ancilla by a fixed
phase increment, like tokens on abacus rods; an inverse QFT then turns
the accumulated phase into the binary count.  The counting stage uses
exactly n*m two-qubit controlled phases for n inputs and m ancillas,
which is the O(n log n) gate bound.

Register layout: input = qubits 0..n-1, ancillas = qubits n..n+m-1.
The circuit leaves the input register unchanged and is deterministic
for every basis input because the accumulated phase count/2**m is
always an exact m-bit dyadic.
"""

import enum

from .circuit import Circuit, Control, Phase
from .phase_estimation import PhaseTable, _kickback_frame
from .statevector import apply_circuit, deterministic_outcome, new_basis_state
from .turns import DyadicTurn

__all__ = [
    "CountTarget", "ancilla_width", "count_phase_table",
    "build_count_stage", "build_counter", "run_count", "MAX_COUNT_BITS",
]

MAX_COUNT_BITS = 16


class CountTarget(enum.Enum):
    ONES = "ones"
    ZEROS = "zeros"


def ancilla_width(n: int, *, allow_wraparound: bool = False) -> int:
    """Ancilla qubits needed to hold a count over n inputs.

    The default ceil(log2(n + 1)) represents every count 0..n exactly.
    With allow_wraparound the width drops to ceil(log2 n) (minimum 1)
    and the readout becomes count mod 2**m, so the all-ones input wraps
    to 0 whenever n is a power of two.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"register length must be >= 1, got {n!r}")
    if allow_wraparound:
        return max(1, (n - 1).bit_length())
    return n.bit_length()


def _count_of(q: int, n: int, target: CountTarget) -> int:
    ones = q.bit_count()
    return ones if target is CountTarget.ONES else n - ones


def count_phase_table(n: int, target: CountTarget = CountTarget.ONES, *,
                      allow_wraparound: bool = False) -> PhaseTable:
    """Eigenphase table of the counting unitary: entry q is
    count(q) / 2**m as an exact dyadic turn."""
    m = ancilla_width(n, allow_wraparound=allow_wraparound)
    phases = tuple(DyadicTurn(_count_of(q, n, target), m)
                   for q in range(1 << n))
    return PhaseTable(n, phases)


def _counting_circuit(n: int, target: CountTarget, allow_wraparound: bool, *,
                      readout: bool) -> Circuit:
    m = ancilla_width(n, allow_wraparound=allow_wraparound)
    positive = target is CountTarget.ONES
    count = (Phase(DyadicTurn(1, m - l), n + l,
                   (Control(k, positive=positive),))
             for k in range(n) for l in range(m - 1, -1, -1))
    return _kickback_frame(n, m, [("count", count)], readout=readout)


def build_count_stage(n: int, target: CountTarget = CountTarget.ONES, *,
                      allow_wraparound: bool = False) -> Circuit:
    """Ancilla preparation plus the n*m counting rotations, without the
    readout transform.

    Every input qubit k contributes the turn 1/2**(m-l) to ancilla l,
    controlled on qubit k being 1 (or 0 when counting zeros, via an
    open-dot control)."""
    return _counting_circuit(n, target, allow_wraparound, readout=False)


def build_counter(n: int, target: CountTarget = CountTarget.ONES, *,
                  allow_wraparound: bool = False) -> Circuit:
    """Full counter: counting stage followed by inverse QFT + swaps on
    the ancillas.  Applied to a basis input |q>, the ancilla register
    ends in |count(q)> and the input register is unchanged."""
    return _counting_circuit(n, target, allow_wraparound, readout=True)


def run_count(bits, target: CountTarget = CountTarget.ONES, *,
              allow_wraparound: bool = False, tolerance: float = 1e-9) -> int:
    """Count by simulation: build the counter, run it on the basis state
    given by ``bits`` (bits[k] = state of input qubit k) and read the
    ancilla register deterministically."""
    bits = list(bits)
    if not 1 <= len(bits) <= MAX_COUNT_BITS:
        raise ValueError(
            f"bit sequence length must be in [1, {MAX_COUNT_BITS}], got {len(bits)}")
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"bits must be 0 or 1, got {bits}")
    n = len(bits)
    circuit = build_counter(n, target, allow_wraparound=allow_wraparound)
    m = circuit.num_qubits - n
    basis = sum(b << k for k, b in enumerate(bits))
    state = apply_circuit(new_basis_state(n + m, basis), circuit)
    return deterministic_outcome(state, tolerance, qubits=range(n, n + m))
