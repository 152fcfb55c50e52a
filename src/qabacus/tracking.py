"""Exact dyadic phase bookkeeping for circuits that map a basis state to
a basis state.

In the counter, the phase estimators and encode-then-decode, the input
qubits stay classical and every other qubit is either a bit or
``(|0> + e^{2*pi*i*theta}|1>)/sqrt(2)`` with theta an exact dyadic.  So
a run is a handful of integer phase additions: each qubit is held as a
bit or as a theta numerator over 2**MAX_DYADIC_EXPONENT, plus one global
phase numerator, all taken mod one turn.  Anything else (two superposed
qubits meeting in one phase gate, a Hadamard on a theta outside
{0, 1/2}, a non-dyadic turn that has to be added, a qubit left
superposed at the end) raises ``NotRepresentable``.
"""

from .circuit import Circuit, Hadamard, Phase, X
from .turns import MAX_DYADIC_EXPONENT, DyadicTurn

__all__ = ["NotRepresentable", "track"]

_MASK = (1 << MAX_DYADIC_EXPONENT) - 1   # one turn
_HALF = 1 << (MAX_DYADIC_EXPONENT - 1)   # half a turn


class NotRepresentable(Exception):
    """The circuit leaves the bit-or-dyadic-phase product form."""


def _numerator(turn) -> int:
    """The turn as a numerator over 2**MAX_DYADIC_EXPONENT, exactly."""
    k = turn.dyadic_exponent()
    if k is None:
        raise NotRepresentable(f"turn {turn!r} is not a dyadic")
    return turn.numerator << (MAX_DYADIC_EXPONENT - k)


def track(circuit: Circuit, basis: int) -> tuple[int, DyadicTurn]:
    """Run ``circuit`` on the basis state |basis> exactly.

    Returns the output basis index and the global phase it carries.
    Raises NotRepresentable if the state leaves product form or does not
    end on a basis state.
    """
    n = circuit.num_qubits
    bit: list = [(basis >> q) & 1 for q in range(n)]   # None: superposed
    theta = [0] * n
    glob = 0
    for gate in circuit.gates:
        if isinstance(gate, Phase):
            # A diagonal gate: the controls and the target are all conditions.
            conditions = [(c.qubit, c.positive) for c in gate.controls]
            conditions.append((gate.target, True))
            superposed = []
            for q, want in conditions:
                if bit[q] is None:
                    superposed.append((q, want))
                elif bit[q] != want:
                    break  # a failed bit condition: the gate is the identity
            else:
                if len(superposed) > 1:
                    raise NotRepresentable(
                        f"{gate!r} conditions on two superposed qubits")
                turn = _numerator(gate.turn)
                if not superposed:
                    glob += turn
                elif superposed[0][1]:
                    theta[superposed[0][0]] += turn
                else:  # open dot: the turn lands on |0>
                    glob += turn
                    theta[superposed[0][0]] -= turn
        elif isinstance(gate, Hadamard):
            q = gate.target
            if bit[q] is not None:
                theta[q] = bit[q] * _HALF
                bit[q] = None
            else:
                t = theta[q] & _MASK
                if t & (_HALF - 1):
                    raise NotRepresentable(
                        f"Hadamard on qubit {q} with theta {t}/{_MASK + 1}")
                bit[q] = t >> (MAX_DYADIC_EXPONENT - 1)
        elif isinstance(gate, X):
            q = gate.target
            if bit[q] is not None:
                bit[q] ^= 1
            else:
                glob += theta[q]
                theta[q] = -theta[q]
        else:  # Swap
            a, b = gate.a, gate.b
            bit[a], bit[b] = bit[b], bit[a]
            theta[a], theta[b] = theta[b], theta[a]
    if None in bit:
        raise NotRepresentable(
            f"qubit {bit.index(None)} ends in superposition")
    out = sum(b << q for q, b in enumerate(bit))
    return out, DyadicTurn(glob & _MASK, MAX_DYADIC_EXPONENT)
