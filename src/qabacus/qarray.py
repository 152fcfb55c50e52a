"""Quantum arrays: a superposition sum_j |j, d_j> with phase-based updates.

The register splits into m index qubits (most significant, qubits
p..p+m-1) and p data qubits (least significant, qubits 0..p-1), so
basis index = j * 2**p + d.  Array length is always 2**m; shorter
arrays are caller-padded with zeros.

Creation runs in ``qft``'s phase frame: Hadamards on every qubit, one
Fourier-adder layer per element under its index-pattern controls, then
an inverse QFT on the data part.  Updates move the data part into
Fourier space, add a constant with one adder layer under the index
predicate's controls, and transform back - data wraps mod 2**p, the
only behavior consistent with phase addition.

The simulator runs both exactly in ``statevector``'s branch form: the
first index-pattern gate splits the index qubits into the 2**m branches
|j, d_j>, and every later gate acts branch by branch, so an array costs
2**m indices and phases, not 2**(m+p) amplitudes.  ``read_all`` reads
the values straight off such a state.  A creation with no
index-controlled gate (all values equal) leaves its index qubits
superposed and runs dense.
"""

from dataclasses import dataclass

from .circuit import Circuit, Control, Phase, _check_int, _patterns
from .qft import _fourier_add, _fourier_turn, _phase_frame, _qft_gates
from .statevector import StateVector, _Branches, _check_tolerance, \
    _check_width, apply_circuit, new_basis_state

__all__ = [
    "ArrayLayout", "IndexPredicate", "ArrayContents", "MalformedArray",
    "build_create", "build_create_arithmetic", "arithmetic_contents",
    "build_update_add", "create_state", "read_all",
]


class MalformedArray(Exception):
    """The state is not of array form: some index lacks a single
    deterministic data value."""


@dataclass(frozen=True)
class ArrayLayout:
    """Split of a register into index and data parts."""

    index_qubits: int
    data_qubits: int

    def __post_init__(self):
        m = _check_int(self.index_qubits, "index_qubits", 1)
        p = _check_int(self.data_qubits, "data_qubits", 1)
        object.__setattr__(self, "index_qubits", m)
        object.__setattr__(self, "data_qubits", p)
        _check_width(m + p)

    @property
    def num_qubits(self) -> int:
        return self.index_qubits + self.data_qubits

    @property
    def length(self) -> int:
        return 1 << self.index_qubits


@dataclass(frozen=True)
class IndexPredicate:
    """Selects indices j with (j & mask) == match."""

    mask: int
    match: int

    def __post_init__(self):
        object.__setattr__(self, "mask", _check_int(self.mask, "mask", 0))
        object.__setattr__(self, "match", _check_int(self.match, "match", 0))
        if self.match & ~self.mask:
            raise ValueError(
                f"match {self.match:#b} has bits outside mask {self.mask:#b}")

    @classmethod
    def all_indices(cls) -> "IndexPredicate":
        return cls(0, 0)

    @classmethod
    def even(cls) -> "IndexPredicate":
        return cls(1, 0)

    @classmethod
    def odd(cls) -> "IndexPredicate":
        return cls(1, 1)

    def selects(self, j: int) -> bool:
        return (j & self.mask) == self.match


@dataclass(frozen=True)
class ArrayContents:
    """The classical value map: values[j] is the element at index j."""

    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(
            _check_int(v, "value", 0) for v in self.values))

    def __len__(self) -> int:
        return len(self.values)


def _check_contents(contents: ArrayContents, layout: ArrayLayout) -> None:
    if len(contents) != layout.length:
        raise ValueError(
            f"layout holds {layout.length} elements, got {len(contents)} values "
            "(pad with zeros to a power of two)")
    limit = 1 << layout.data_qubits
    for j, v in enumerate(contents.values):
        if v >= limit:
            raise ValueError(
                f"value {v} at index {j} does not fit in "
                f"{layout.data_qubits} data qubits")


def _predicate_controls(predicate: IndexPredicate,
                        layout: ArrayLayout) -> tuple[Control, ...]:
    m, p = layout.index_qubits, layout.data_qubits
    if predicate.mask >> m:
        raise ValueError(
            f"predicate mask {predicate.mask:#b} exceeds {m} index qubits")
    return tuple(Control(p + b, bool(predicate.match >> b & 1))
                 for b in range(m - 1, -1, -1) if predicate.mask >> b & 1)


def build_create(contents: ArrayContents, layout: ArrayLayout) -> Circuit:
    """Creation circuit: applied to |0...0> it yields
    2**(-m/2) * sum_j |j, values[j]> within 1e-10.

    Each index pattern j gets the adder layer for values[j] under its
    pattern controls.  A data level whose turn is shared by all indices
    is emitted once as an uncontrolled gate, and zero turns are dropped;
    every other gate is multi-controlled - exponential in m but exact.
    Shared and zero levels are found from the integer residues, so only
    the gates the circuit keeps are built.
    """
    _check_contents(contents, layout)
    m, p, values = layout.index_qubits, layout.data_qubits, contents.values
    # Qubit l of the adder layer for v turns by (v mod 2**(p-l)) / 2**(p-l),
    # so that residue alone says whether a level is shared or zero.
    levels = range(p - 1, -1, -1)
    shared = {l for l in levels
              if len({v % (1 << (p - l)) for v in values}) == 1}

    def kept(v: int, hoisted: bool) -> list[int]:
        return [l for l in levels
                if (l in shared) == hoisted and v % (1 << (p - l))]

    gates = [Phase(_fourier_turn(values[0], p - l), l)
             for l in kept(values[0], True)]
    for controls, v in zip(_patterns(p, m), values):
        gates += [Phase(_fourier_turn(v, p - l), l, controls)
                  for l in kept(v, False)]
    return _phase_frame(layout.num_qubits, range(layout.num_qubits),
                        [("encode", gates)], range(p))


def arithmetic_contents(first: int, step: int,
                        layout: ArrayLayout) -> ArrayContents:
    """The contents an arithmetic-series creation produces:
    values[j] = (first + step * j) mod 2**p."""
    limit = 1 << layout.data_qubits
    first = _check_int(first, "first", 0, limit)
    step = _check_int(step, "step", 0, limit)
    return ArrayContents(tuple((first + step * j) % limit
                               for j in range(layout.length)))


def build_create_arithmetic(first: int, step: int,
                            layout: ArrayLayout) -> Circuit:
    """Creation circuit for values[j] = (first + step*j) mod 2**p.

    The series structure collapses the generic per-index lowering into
    p uncontrolled phases for ``first`` plus, for each index bit b, p
    singly-controlled phases adding step * 2**b - p*(m+1) phase gates,
    none of them multi-controlled.
    """
    m, p = layout.index_qubits, layout.data_qubits
    first = _check_int(first, "first", 0, 1 << p)
    step = _check_int(step, "step", 0, 1 << p)
    data = range(p)
    gates = list(_fourier_add(first, data))
    for b in range(m):
        gates += _fourier_add((step << b) % (1 << p), data, (Control(p + b),))
    return _phase_frame(layout.num_qubits, range(layout.num_qubits),
                        [("encode", gates)], data)


def build_update_add(addend: int, predicate: IndexPredicate,
                     layout: ArrayLayout) -> Circuit:
    """In-place modular add on every selected element, in one pass.

    QFT + swaps on the data part, one phase layer for the addend
    controlled on the index predicate, then the inverse transform.  Net
    effect: d_j <- (d_j + addend) mod 2**p exactly where the predicate
    selects j, d_j untouched otherwise.
    """
    p = layout.data_qubits
    addend = _check_int(addend, "addend", 0, 1 << p)
    controls = _predicate_controls(predicate, layout)
    return Circuit.from_blocks(layout.num_qubits, [
        ("to-fourier", _qft_gates(p)),
        ("add", _fourier_add(addend, range(p), controls)),
        ("from-fourier", _qft_gates(p, inverse=True)),
    ])


def create_state(contents: ArrayContents, layout: ArrayLayout) -> StateVector:
    """Run the creation circuit on |0...0>."""
    circuit = build_create(contents, layout)
    return apply_circuit(new_basis_state(layout.num_qubits, 0), circuit)


def read_all(state: StateVector, layout: ArrayLayout,
             tolerance: float = 1e-9) -> ArrayContents:
    """Simulator-privileged inspection of every element.

    Requires array form: each index branch must concentrate its
    probability mass on a single data value (within tolerance), else
    MalformedArray is raised.
    """
    _check_tolerance(tolerance)
    if state.num_qubits != layout.num_qubits:
        raise ValueError(
            f"state has {state.num_qubits} qubits, layout needs "
            f"{layout.num_qubits}")
    values = _branch_values(state, layout)
    if values is not None:
        return ArrayContents(tuple(values.tolist()))
    rows = state.probabilities().reshape(layout.length, 1 << layout.data_qubits)
    mass = rows.sum(axis=1)
    values = rows.argmax(axis=1)
    peak = rows.max(axis=1)
    light = mass < 0.5 / layout.length
    # The first offending index raises; its mass is checked before its peak.
    bad = (light | (peak < (1.0 - tolerance) * mass)).nonzero()[0]
    if bad.size:
        j = bad[0]
        if light[j]:
            raise MalformedArray(
                f"index {j} holds probability mass {mass[j]:.3g}, expected "
                f"about {1 / layout.length:.3g}")
        raise MalformedArray(
            f"index {j} has no deterministic value: best candidate {values[j]} "
            f"carries only {peak[j] / mass[j]:.6g} of its mass")
    return ArrayContents(tuple(values.tolist()))


def _branch_values(state: StateVector, layout: ArrayLayout):
    """The values of a branch-form state with exactly one branch per
    index j, as an int64 array in index order; None for any other state.
    Each such branch carries all of its index's mass, so the state is of
    array form whatever the tolerance."""
    branches = state._branches
    if branches is None or isinstance(branches.index, int) \
            or branches.index.size != layout.length:
        return None
    import numpy as np
    p = layout.data_qubits
    values = np.full(layout.length, -1, dtype=np.int64)
    values[branches.index >> p] = branches.index & ((1 << p) - 1)
    return None if (values < 0).any() else values


def _array_state(contents: ArrayContents, layout: ArrayLayout) -> StateVector:
    """The array state 2**(-m/2) * sum_j |j, values[j]> in branch form,
    every branch at phase 0, built without a circuit."""
    _check_contents(contents, layout)
    import numpy as np
    index = np.arange(layout.length, dtype=np.int64) << layout.data_qubits
    index |= np.array(contents.values, dtype=np.int64)
    return StateVector(layout.num_qubits, _Branches(
        index, np.zeros(layout.length, dtype=np.int64)))
