"""QFT-based phase estimation over diagonal unitaries.

A diagonal unitary is represented by its ``PhaseTable``: one eigenphase
turn per computational basis state of the n-qubit input register.  The
estimator circuit places ``m`` ancilla qubits above the input register
(input = qubits 0..n-1, ancillas = qubits n..n+m-1) and runs the kicks
of the controlled powers of the unitary inside ``qft``'s phase frame:
Hadamards on the ancillas, the kicks, then an inverse QFT with swaps on
the ancillas that reads the estimate out.

When every eigenphase is an m-bit dyadic, the readout is exact: the
estimator is deterministic for every basis input.  The QFT estimator's
controlled power 2**l is one ``qft`` Fourier-adder layer: it adds 1 to
the low n - l input qubits in Fourier space under ancilla l.
"""

import math
from dataclasses import dataclass

from .circuit import Circuit, Control, _check_int, _TableKick
from .qft import _fourier_add, _phase_frame
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
        n = _check_int(self.num_input_qubits, "num_input_qubits", 1)
        object.__setattr__(self, "num_input_qubits", n)
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
    n = _check_int(n, "n", 1)
    return PhaseTable(n, tuple(DyadicTurn(j, n) for j in range(1 << n)))


def diagonal_power(table: PhaseTable, l: int) -> PhaseTable:
    """Table of the unitary raised to 2**l: each entry becomes its
    principal value (2**l * phase) mod 1."""
    l = _check_int(l, "power exponent", 0)
    return PhaseTable(table.num_input_qubits,
                      tuple(p.times_pow2(l) for p in table.phases))


def build_phase_estimator(table: PhaseTable, m: int) -> Circuit:
    """Phase estimator with m ancillas over the table's diagonal unitary.

    Controlled power 2**l is lowered to one multi-controlled phase gate
    per basis state j whose principal phase ``phases[j].times_pow2(l)``
    is nonzero: ancilla l is the target and the bit pattern of j forms
    the controls (open dots for 0-bits).  Exponential in n but exact;
    structured circuits such as the counter avoid this generic lowering.
    The circuit holds these gates as one ``"kickback"`` block and makes
    them only when its ``gates`` are read: ``serialize`` writes them from
    the table, and a basis input |j> runs only the powers of entry j.
    """
    n = table.num_input_qubits
    m = _check_int(m, "ancilla count", 1)
    ancillas = range(n, n + m)
    return _phase_frame(n + m, ancillas,
                        [("kickback", _TableKick(table, m))], ancillas)


def analytic_outcome_probability(phi: Turn, m: int, j: int) -> float:
    """Probability that an m-ancilla estimation of eigenphase phi reads
    out j, from the closed form of the readout amplitude.

    Equal to |2**-m * sum_{k=0}^{2**m - 1} e^{i*2*pi*k*(phi - j/2**m)}|^2,
    evaluated through the Dirichlet kernel away from the exact case.
    """
    if not isinstance(phi, Turn):
        raise ValueError(f"phi must be a Turn, got {phi!r}")
    m = _check_int(m, "m", 1)
    j = _check_int(j, "outcome", 0, 1 << m)
    size = 1 << m
    delta = (phi.value - j / size) % 1.0
    if delta == 0.0 or delta == 1.0:
        return 1.0
    ratio = math.sin(math.pi * size * delta) / (size * math.sin(math.pi * delta))
    return ratio * ratio


def is_zero_failure(table: PhaseTable, m: int) -> bool:
    """True iff every eigenphase has a finite binary expansion of at most
    m bits, i.e. estimation with m ancillas is deterministic."""
    m = _check_int(m, "m", 0)
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
    n = _check_int(n, "n", 1)
    powers = ((f"power 2^{l}", _fourier_add(1, range(n - l), (Control(n + l),)))
              for l in range(n - 1, -1, -1))
    ancillas = range(n, 2 * n)
    return _phase_frame(2 * n, ancillas, powers, ancillas)

