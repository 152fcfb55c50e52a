"""Exact dyadic phase bookkeeping for circuits that map a basis state to
a basis state, or to a sum of basis states of equal weight.

In the counter, the phase estimators and encode-then-decode, the input
qubits stay classical and every other qubit is either a bit or
``(|0> + e^{2*pi*i*theta}|1>)/sqrt(2)`` with theta an exact dyadic.  So
a run is a handful of integer phase additions: each qubit is held as a
bit or as a theta numerator over 2**MAX_DYADIC_EXPONENT, plus one global
phase numerator, all taken mod one turn.

A quantum array is such a state on every one of its branches: the
branch form ``2**(-s/2) * sum_b e^{2*pi*i*phase_b} |index_b>`` over
``B = 2**s`` branches.  A phase gate that conditions on two or more
superposed qubits splits its superposed controls into branches, exactly:
each split doubles the branches, halves their weight, and adds the
control's theta to the phase of its |1> half.  Within a branch a split
qubit is a bit, so every other rule holds branch by branch.  One branch
(the basis form, which the counter, the estimators and encode-then-decode
never leave) is held in plain ints; more branches are held in int64
arrays, where the numerators wrap mod 2**64, a multiple of one turn.

Anything else (a Hadamard on a qubit this run split, whose halves only
interference could merge back; a Hadamard on a theta outside {0, 1/2};
a non-dyadic turn that has to be added; a qubit left superposed at the
end; two branches ending on one index) raises ``NotRepresentable``.
"""

from .circuit import Circuit, Hadamard, Phase, X
from .turns import MAX_DYADIC_EXPONENT

__all__ = ["NotRepresentable", "track"]

_MASK = (1 << MAX_DYADIC_EXPONENT) - 1   # one turn
_HALF = 1 << (MAX_DYADIC_EXPONENT - 1)   # half a turn


class NotRepresentable(Exception):
    """The circuit leaves the branch form."""


def _numerator(turn) -> int | None:
    """The turn as a numerator over 2**MAX_DYADIC_EXPONENT, exactly, or
    None if it is not that fine a dyadic."""
    k = turn.dyadic_exponent()
    return None if k is None else turn.numerator << (MAX_DYADIC_EXPONENT - k)


def _any(value) -> bool:
    """Whether an int, or any entry of an int64 array, is nonzero."""
    return bool(value) if isinstance(value, int) else bool(value.any())


def _where(index, mask: int, match: int):
    """The branches whose index matches ``match`` under ``mask``: None
    for no branch, a position for one, else an array of positions."""
    import numpy as np
    hit = np.flatnonzero((index & mask) == match)
    return None if not hit.size else int(hit[0]) if hit.size == 1 else hit


def _add(value, turn: int, hit):
    """``value`` plus ``turn`` on the branches ``hit`` (True for every
    branch).  Every array ``value`` is one this run made, so a partial
    hit adds in place; one branch adds in Python ints, which a numpy
    scalar could not do without an overflow warning."""
    if hit is True:
        return value + turn
    if isinstance(hit, int):
        value[hit] = (int(value[hit]) + turn) & _MASK
    else:
        value[hit] += turn
    return value


def _split(q: int, index, glob, theta: list):
    """Split superposed qubit ``q`` into its |0> and |1> halves: the
    branches, then the same branches with bit q set and theta[q] added to
    their phase.  Every theta is kept on both halves; ``theta`` is
    updated in place and the new (index, glob) returned as int64 arrays."""
    import numpy as np
    th, theta[q] = theta[q], None
    for r, t in enumerate(theta):
        if t is not None:
            theta[r] = np.append(t & _MASK, t & _MASK)
    return (np.append(index, index | (1 << q)),
            np.append(glob & _MASK, (glob + th) & _MASK))


def _block_gates(block, index, theta: list) -> list:
    """The gates of a ``_TableKick`` that can fire on this state.  On one
    branch whose n input qubits are all bits, input pattern j's powers
    alone, as plain phases: every other pattern fails a bit control, and
    every control of pattern j holds.  Else all of the block's gates."""
    n = block.table.num_input_qubits
    if isinstance(index, int) and all(t is None for t in theta[:n]):
        return [Phase(turn, n + l)
                for l, _, turn in block.terms((index & ((1 << n) - 1),))]
    return block.gates()


def track(circuit: Circuit, index, phase=0):
    """Run ``circuit`` exactly on the branch form with branch indices
    ``index`` and phase numerators ``phase`` over 2**MAX_DYADIC_EXPONENT:
    plain ints for one branch, int64 arrays for several.

    Returns the output's (index, phase) in the same types, as arrays
    once the run has split; ``len(index) / len(input index)`` is 2**(new
    splits).  Phases are taken mod one turn.  Raises NotRepresentable
    where the state leaves the branch form (see the module docstring).
    """
    n = circuit.num_qubits
    theta: list = [None] * n   # None: a bit, held in ``index``
    glob = phase if isinstance(phase, int) else phase.copy()
    branched = 0               # the qubits this run split, as a bit mask
    # The last bit-condition test on an array index (index, mask, match,
    # branches hit): runs of gates under one control pattern share it.
    last = (None, 0, 0, True)
    for part in circuit._parts:
        if not isinstance(part, tuple):
            part = _block_gates(part, index, theta)
        for gate in part:
            if isinstance(gate, Phase):
                # A diagonal gate: the controls and the target are all
                # conditions.  Bit conditions hold on the branches whose
                # index matches ``match`` under ``mask``.  One branch stops at
                # its first failed bit condition, the target first: the gate
                # is then the identity.
                one, failed = isinstance(index, int), False
                t = gate.target
                mask = match = 0
                if theta[t] is None:
                    if one and not index >> t & 1:
                        continue
                    mask = match = 1 << t
                superposed = []
                for c in gate.controls:
                    q = c.qubit
                    if theta[q] is None:
                        if one and (index >> q & 1) != c.positive:
                            failed = True
                            break
                        mask |= 1 << q
                        match |= c.positive << q
                    else:
                        superposed.append(c)
                if failed:
                    continue
                hit = True
                if mask and not one:
                    if last[0] is not index or last[1:3] != (mask, match):
                        last = (index, mask, match, _where(index, mask, match))
                    hit = last[3]
                    if hit is None:
                        continue  # failed on every branch
                if superposed and (len(superposed) > 1 or theta[t] is not None):
                    if n > 63:
                        raise NotRepresentable(
                            f"{n} qubits do not fit int64 branch indices")
                    for c in superposed:
                        index, glob = _split(c.qubit, index, glob, theta)
                        branched |= 1 << c.qubit
                        mask |= 1 << c.qubit
                        match |= c.positive << c.qubit
                    superposed = []
                    hit = _where(index, mask, match)
                    last = (index, mask, match, hit)
                turn = _numerator(gate.turn)
                if turn is None:
                    raise NotRepresentable(f"turn {gate.turn!r} is not a dyadic")
                if theta[t] is not None:
                    theta[t] = _add(theta[t], turn, hit)
                elif not superposed:
                    glob = _add(glob, turn, hit)
                elif superposed[0].positive:
                    q = superposed[0].qubit
                    theta[q] = _add(theta[q], turn, hit)
                else:  # open dot: the turn lands on |0>
                    q = superposed[0].qubit
                    glob = _add(glob, turn, hit)
                    theta[q] = _add(theta[q], -turn, hit)
            elif isinstance(gate, Hadamard):
                q = gate.target
                if theta[q] is None:
                    if branched >> q & 1:
                        raise NotRepresentable(
                            f"Hadamard on qubit {q}, which this run split")
                    theta[q] = (index >> q & 1) * _HALF
                    index = index & ~(1 << q)
                else:
                    th = theta[q] & _MASK
                    if _any(th & (_HALF - 1)):
                        raise NotRepresentable(f"Hadamard on qubit {q} with a "
                                               "theta outside {0, 1/2}")
                    index = index | (th >> (MAX_DYADIC_EXPONENT - 1)) << q
                    theta[q] = None
            elif isinstance(gate, X):
                q = gate.target
                if theta[q] is None:
                    index = index ^ (1 << q)
                else:
                    glob = glob + theta[q]
                    theta[q] = -theta[q]
            else:  # Swap
                a, b = gate.a, gate.b
                flip = (index >> a ^ index >> b) & 1
                index = index ^ (flip << a | flip << b)
                theta[a], theta[b] = theta[b], theta[a]
                flip = (branched >> a ^ branched >> b) & 1
                branched ^= flip << a | flip << b
    for q, th in enumerate(theta):
        if th is not None:
            raise NotRepresentable(f"qubit {q} ends in superposition")
    if not isinstance(index, int):
        # Branches split in this run differ in their split bits, but a
        # Hadamard on a bit that differs between input branches can bring
        # two of them to one index, where only interference could merge them.
        import numpy as np
        ordered = np.sort(index)
        if (ordered[1:] == ordered[:-1]).any():
            raise NotRepresentable("two branches end on one basis index")
    return index, glob & _MASK
