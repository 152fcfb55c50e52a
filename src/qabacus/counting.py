"""Deterministic counting of 1s (or 0s) in a qubit register.

Each input qubit in the counted state adds 1 to the ancilla register
in Fourier space, like a token moved on an abacus rod: one ``qft``
Fourier-adder layer under a control on that input.  An inverse QFT then
turns the accumulated phase into the binary count.  The counting stage uses
exactly n*m two-qubit controlled phases for n inputs and m ancillas,
which is the O(n log n) gate bound.

Register layout: input = qubits 0..n-1, ancillas = qubits n..n+m-1.
The circuit leaves the input register unchanged and is deterministic
for every basis input because the accumulated phase count/2**m is
always an exact m-bit dyadic.

The one bound on n is the register width n + m, which ``_phase_frame``
checks before any gate is made: 19 counted bits at the 24-qubit cap.
``run_count`` runs in the simulator's basis form, so no width it
accepts builds a dense array.
"""

import enum
import operator

from .circuit import Circuit, Control, _check_int
from .phase_estimation import PhaseTable
from .qft import _fourier_add, _phase_frame
from .statevector import apply_circuit, deterministic_outcome, new_basis_state
from .turns import DyadicTurn

__all__ = [
    "CountTarget", "ancilla_width", "count_phase_table",
    "build_count_stage", "build_counter", "run_count",
]


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
    n = _check_int(n, "register length", 1)
    if allow_wraparound:
        return max(1, (n - 1).bit_length())
    return n.bit_length()


def _check_target(target) -> None:
    """Reject anything but a CountTarget: a string such as "ones" would
    otherwise fail the identity tests below and count zeros."""
    if not isinstance(target, CountTarget):
        raise ValueError(f"count target must be a CountTarget, got {target!r}")


def _count_of(q: int, n: int, target: CountTarget) -> int:
    ones = q.bit_count()
    return ones if target is CountTarget.ONES else n - ones


def count_phase_table(n: int, target: CountTarget = CountTarget.ONES, *,
                      allow_wraparound: bool = False) -> PhaseTable:
    """Eigenphase table of the counting unitary: entry q is
    count(q) / 2**m as an exact dyadic turn."""
    _check_target(target)
    m = ancilla_width(n, allow_wraparound=allow_wraparound)
    phases = tuple(DyadicTurn(_count_of(q, n, target), m)
                   for q in range(1 << n))
    return PhaseTable(n, phases)


def _counting_circuit(n: int, target: CountTarget, allow_wraparound: bool, *,
                      readout: bool) -> Circuit:
    _check_target(target)
    m = ancilla_width(n, allow_wraparound=allow_wraparound)
    positive = target is CountTarget.ONES
    ancillas = range(n, n + m)
    count = (gate for k in range(n)
             for gate in _fourier_add(1, ancillas, (Control(k, positive),)))
    return _phase_frame(n + m, ancillas, [("count", count)],
                        ancillas if readout else None)


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


def _check_bits(bits) -> list[int]:
    """The bits as plain ints; numpy integers pass, floats do not."""
    bits = list(bits)
    try:
        ints = [operator.index(b) for b in bits]
    except TypeError:
        ints = None
    if ints is None or any(b not in (0, 1) for b in ints):
        raise ValueError(f"bits must be 0 or 1, got {bits}")
    return ints


def _read_count(counter: Circuit, bits: list[int],
                tolerance: float = 1e-9) -> int:
    """Run a counter built for len(bits) inputs on the basis state given
    by ``bits`` and read its ancilla register deterministically."""
    n, width = len(bits), counter.num_qubits
    basis = sum(b << k for k, b in enumerate(bits))
    state = apply_circuit(new_basis_state(width, basis), counter)
    return deterministic_outcome(state, tolerance, qubits=range(n, width))


def run_count(bits, target: CountTarget = CountTarget.ONES, *,
              allow_wraparound: bool = False, tolerance: float = 1e-9) -> int:
    """Count by simulation: build the counter, run it on the basis state
    given by ``bits`` (bits[k] = state of input qubit k) and read the
    ancilla register deterministically."""
    bits = _check_bits(bits)
    counter = build_counter(len(bits), target, allow_wraparound=allow_wraparound)
    return _read_count(counter, bits, tolerance)
