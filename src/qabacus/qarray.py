"""Quantum arrays: a superposition sum_j |j, d_j> with phase-based updates.

The register splits into m index qubits (most significant, qubits
p..p+m-1) and p data qubits (least significant, qubits 0..p-1), so
basis index = j * 2**p + d.  Array length is always 2**m; shorter
arrays are caller-padded with zeros.

Creation writes every element's Fourier phases under index-pattern
controls and finishes with an inverse QFT on the data part.  Updates
move the data part into Fourier space, add a constant by phase
rotations on the branches selected by an index predicate, and transform
back - data wraps mod 2**p, the only behavior consistent with phase
addition.
"""

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Control, Gate, Hadamard, Phase
from .encoding import encoding_phase_gates, fourier_phase
from .qft import _qft_gates
from .statevector import StateVector, _check_tolerance, _check_width, \
    apply_circuit, new_basis_state

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
        m, p = self.index_qubits, self.data_qubits
        if not isinstance(m, int) or m < 1:
            raise ValueError(f"index_qubits must be >= 1, got {m!r}")
        if not isinstance(p, int) or p < 1:
            raise ValueError(f"data_qubits must be >= 1, got {p!r}")
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
        if not isinstance(self.mask, int) or self.mask < 0:
            raise ValueError(f"mask must be a non-negative integer, got {self.mask!r}")
        if not isinstance(self.match, int) or self.match < 0:
            raise ValueError(f"match must be a non-negative integer, got {self.match!r}")
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
        object.__setattr__(self, "values", tuple(self.values))
        for v in self.values:
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"values must be non-negative integers, got {v!r}")

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


def _check_addend(value: int, p: int, role: str) -> None:
    if not isinstance(value, int) or not 0 <= value < (1 << p):
        raise ValueError(
            f"{role} must be reduced mod 2**{p}, got {value!r}")


def _index_controls(j: int, layout: ArrayLayout) -> tuple[Control, ...]:
    p, m = layout.data_qubits, layout.index_qubits
    return tuple(Control(p + b, positive=bool((j >> b) & 1))
                 for b in range(m - 1, -1, -1))


def _predicate_controls(predicate: IndexPredicate,
                        layout: ArrayLayout) -> tuple[Control, ...]:
    m, p = layout.index_qubits, layout.data_qubits
    if predicate.mask >> m:
        raise ValueError(
            f"predicate mask {predicate.mask:#b} exceeds {m} index qubits")
    return tuple(Control(p + b, positive=bool((predicate.match >> b) & 1))
                 for b in range(m - 1, -1, -1) if (predicate.mask >> b) & 1)


def _create_frame(layout: ArrayLayout, encode: list[Gate]) -> Circuit:
    """Shared by both creation builders: Hadamards on every qubit, the
    ``encode`` phase gates, then the inverse QFT on the data part."""
    return Circuit.from_blocks(layout.num_qubits, [
        ("prep", [Hadamard(q) for q in range(layout.num_qubits - 1, -1, -1)]),
        ("encode", encode),
        ("readout", _qft_gates(layout.data_qubits, inverse=True)),
    ])


def build_create(contents: ArrayContents, layout: ArrayLayout, *,
                 factor_common: bool = True) -> Circuit:
    """Creation circuit: applied to |0...0> it yields
    2**(-m/2) * sum_j |j, values[j]> within 1e-10.

    Each (index pattern, data level) pair with a nonzero turn becomes
    one multi-controlled phase gate - exponential in m but exact.  With
    factor_common, any level whose turn is shared by all indices is
    emitted once as an uncontrolled gate instead.
    """
    _check_contents(contents, layout)
    p = layout.data_qubits
    gates: list[Gate] = []
    turns = [[fourier_phase(v, l, p) for l in range(p)] for v in contents.values]
    common: list = [None] * p
    if factor_common:
        for l in range(p):
            first = turns[0][l]
            if all(turns[j][l] == first for j in range(1, layout.length)):
                common[l] = first
    for l in range(p - 1, -1, -1):
        if common[l] is not None and not common[l].is_zero():
            gates.append(Phase(common[l], l))
    for j in range(layout.length):
        controls = _index_controls(j, layout)
        for l in range(p - 1, -1, -1):
            if common[l] is not None:
                continue
            turn = turns[j][l]
            if turn.is_zero():
                continue
            gates.append(Phase(turn, l, controls))
    return _create_frame(layout, gates)


def arithmetic_contents(first: int, step: int,
                        layout: ArrayLayout) -> ArrayContents:
    """The contents an arithmetic-series creation produces:
    values[j] = (first + step * j) mod 2**p."""
    _check_addend(first, layout.data_qubits, "first")
    _check_addend(step, layout.data_qubits, "step")
    limit = 1 << layout.data_qubits
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
    _check_addend(first, layout.data_qubits, "first")
    _check_addend(step, layout.data_qubits, "step")
    m, p = layout.index_qubits, layout.data_qubits
    gates = list(encoding_phase_gates(first, p))
    for b in range(m):
        weight = (step << b) % (1 << p)
        gates.extend(encoding_phase_gates(weight, p,
                                          controls=(Control(p + b),)))
    return _create_frame(layout, gates)


def build_update_add(addend: int, predicate: IndexPredicate,
                     layout: ArrayLayout) -> Circuit:
    """In-place modular add on every selected element, in one pass.

    QFT + swaps on the data part, one phase layer for the addend
    controlled on the index predicate, then the inverse transform.  Net
    effect: d_j <- (d_j + addend) mod 2**p exactly where the predicate
    selects j, d_j untouched otherwise.
    """
    _check_addend(addend, layout.data_qubits, "addend")
    controls = _predicate_controls(predicate, layout)
    p = layout.data_qubits
    return Circuit.from_blocks(layout.num_qubits, [
        ("to-fourier", _qft_gates(p)),
        ("add", encoding_phase_gates(addend, p, controls=controls)),
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
    rows = state.probabilities().reshape(layout.length, 1 << layout.data_qubits)
    floor = 0.5 / layout.length
    values = []
    for j in range(layout.length):
        row = rows[j]
        mass = float(row.sum())
        if mass < floor:
            raise MalformedArray(
                f"index {j} holds probability mass {mass:.3g}, expected "
                f"about {1 / layout.length:.3g}")
        d = int(np.argmax(row))
        if float(row[d]) < (1.0 - tolerance) * mass:
            raise MalformedArray(
                f"index {j} has no deterministic value: best candidate {d} "
                f"carries only {float(row[d]) / mass:.6g} of its mass")
        values.append(d)
    return ArrayContents(tuple(values))
