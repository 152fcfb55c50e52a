"""QFT-based phase estimation over diagonal unitaries.

A diagonal unitary is represented by its ``PhaseTable``: one eigenphase
turn per computational basis state of the n-qubit input register.  The
estimator circuit places ``m`` ancilla qubits above the input register
(input = qubits 0..n-1, ancillas = qubits n..n+m-1), kicks the phases
of the controlled powers of the unitary onto the ancillas, and reads
the estimate out through an inverse QFT with swaps.

When every eigenphase is an m-bit dyadic, the readout is exact: the
estimator is deterministic for every basis input.
"""

import math
from dataclasses import dataclass

from .circuit import Circuit, Control, Hadamard, Phase
from .qft import _qft_gates
from .statevector import _check_width
from .turns import DyadicTurn, Turn

__all__ = [
    "PhaseTable", "qft_phase_table", "diagonal_power", "build_phase_estimator",
    "analytic_outcome_probability", "is_zero_failure",
    "build_qft_phase_estimator",
]


@dataclass(frozen=True)
class PhaseTable:
    """Diagonal of a diagonal unitary: entry j is the eigenphase turn of
    basis state |j>, i.e. eigenvalue e^{i*2*pi*phases[j]}."""

    num_input_qubits: int
    phases: tuple[Turn, ...]

    def __post_init__(self):
        n = self.num_input_qubits
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"num_input_qubits must be >= 1, got {n!r}")
        object.__setattr__(self, "phases", tuple(self.phases))
        if len(self.phases) != 1 << n:
            raise ValueError(
                f"expected {1 << n} phases for {n} qubits, got {len(self.phases)}")
        for p in self.phases:
            if not isinstance(p, Turn):
                raise ValueError(f"phase entries must be Turns, got {p!r}")

    @classmethod
    def from_values(cls, num_input_qubits: int, values) -> "PhaseTable":
        """Coerce floats (or Turns) into a table."""
        phases = tuple(v if isinstance(v, Turn) else Turn(float(v))
                       for v in values)
        return cls(num_input_qubits, phases)


def qft_phase_table(n: int) -> PhaseTable:
    """The table with eigenphase j/2**n at entry j; estimating it with
    m = n ancillas reproduces the Fourier coefficients of the input."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    return PhaseTable(n, tuple(DyadicTurn(j, n) for j in range(1 << n)))


def diagonal_power(table: PhaseTable, l: int) -> PhaseTable:
    """Table of the unitary raised to 2**l: each entry becomes its
    principal value (2**l * phase) mod 1."""
    if not isinstance(l, int) or l < 0:
        raise ValueError(f"power exponent must be >= 0, got {l!r}")
    return PhaseTable(table.num_input_qubits,
                      tuple(p.times_pow2(l) for p in table.phases))


def build_phase_estimator(table: PhaseTable, m: int) -> Circuit:
    """Phase estimator with m ancillas over the table's diagonal unitary.

    Each controlled power is lowered to one multi-controlled phase gate
    per basis state with a nonzero principal phase: the ancilla is the
    target and the input bit pattern forms the controls (open dots for
    0-bits).  Exponential in n but exact; structured circuits such as
    the counter avoid this generic lowering.
    """
    n = table.num_input_qubits
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"ancilla count must be >= 1, got {m!r}")
    kickback = (
        Phase(phase, n + l, tuple(Control(b, positive=bool((j >> b) & 1))
                                  for b in range(n - 1, -1, -1)))
        for l in range(m)
        for j, phase in enumerate(diagonal_power(table, l).phases)
        if not phase.is_zero())
    return _kickback_frame(n, m, [("kickback", kickback)])


def analytic_outcome_probability(phi: Turn, m: int, j: int) -> float:
    """Probability that an m-ancilla estimation of eigenphase phi reads
    out j, from the closed form of the readout amplitude.

    Equal to |2**-m * sum_{k=0}^{2**m - 1} e^{i*2*pi*k*(phi - j/2**m)}|^2,
    evaluated through the Dirichlet kernel away from the exact case.
    """
    if not isinstance(phi, Turn):
        raise ValueError(f"phi must be a Turn, got {phi!r}")
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"m must be >= 1, got {m!r}")
    if not isinstance(j, int) or not 0 <= j < (1 << m):
        raise ValueError(f"outcome {j!r} out of range for {m} ancillas")
    size = 1 << m
    delta = (phi.value - j / size) % 1.0
    if delta == 0.0 or delta == 1.0:
        return 1.0
    ratio = math.sin(math.pi * size * delta) / (size * math.sin(math.pi * delta))
    return ratio * ratio


def is_zero_failure(table: PhaseTable, m: int) -> bool:
    """True iff every eigenphase has a finite binary expansion of at most
    m bits, i.e. estimation with m ancillas is deterministic."""
    if not isinstance(m, int) or m < 0:
        raise ValueError(f"m must be >= 0, got {m!r}")
    for p in table.phases:
        k = p.dyadic_exponent()
        if k is None or k > m:
            return False
    return True


def build_qft_phase_estimator(n: int) -> Circuit:
    """The m = n estimator for the table with eigenphase j/2**n.

    The controlled powers collapse into ladders of two-qubit controlled
    phase gates (turn 1/2**k) from each ancilla onto the input bits, so
    the circuit stays polynomial.  For every basis input |j> the
    deterministic readout is j, and the input register is untouched.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")

    def powers():
        for l in range(n - 1, -1, -1):
            yield f"power 2^{l}", [
                Phase(DyadicTurn(1, n - l - k), k, (Control(n + l),))
                for k in range(n - 1 - l, -1, -1)]

    return _kickback_frame(n, n, powers())


def _kickback_frame(n: int, m: int, kicks, *, readout: bool = True) -> Circuit:
    """The phase-kickback mechanism shared by the counter and both
    estimators, on n input qubits with m ancillas above them.

    Hadamards put the ancillas in uniform superposition ("prep"), the
    ``(label, gates)`` blocks of ``kicks`` write phases onto them, and
    with ``readout`` an inverse QFT with swaps on the ancillas turns the
    phase into a basis state.  The width is checked before any kick
    gate is generated.
    """
    _check_width(n + m)
    blocks = [("prep", [Hadamard(n + l) for l in range(m - 1, -1, -1)]),
              *kicks]
    if readout:
        blocks.append(("readout", _qft_gates(m, offset=n, inverse=True)))
    return Circuit.from_blocks(n + m, blocks)
