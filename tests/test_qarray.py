import numpy as np
import pytest

from helpers import max_amp_diff
from qabacus import (
    ArrayContents, ArrayLayout, Hadamard, IndexPredicate, MalformedArray,
    Phase, StateVector, apply_circuit, arithmetic_contents, build_create,
    build_create_arithmetic, build_update_add, create_state,
    gate_count_report, marginal_distribution, new_basis_state, read_all,
)
from qabacus.circuit import Circuit
from qabacus.reference import ref_array_update

FIG_LAYOUT = ArrayLayout(2, 3)
FIG_VALUES = ArrayContents((1, 2, 0, 5))


def _multi_controlled(circuit):
    return [g for g in circuit.gates
            if isinstance(g, Phase) and len(g.controls) >= 2]


def test_layout_validation():
    with pytest.raises(ValueError):
        ArrayLayout(0, 3)
    with pytest.raises(ValueError):
        ArrayLayout(3, 0)
    with pytest.raises(ValueError):
        ArrayLayout(20, 5)
    assert FIG_LAYOUT.num_qubits == 5
    assert FIG_LAYOUT.length == 4


def test_predicate_validation_and_selection():
    with pytest.raises(ValueError):
        IndexPredicate(1, 2)  # match bit outside the mask
    even = IndexPredicate.even()
    assert [j for j in range(6) if even.selects(j)] == [0, 2, 4]
    odd = IndexPredicate.odd()
    assert [j for j in range(6) if odd.selects(j)] == [1, 3, 5]
    assert all(IndexPredicate.all_indices().selects(j) for j in range(8))


def test_contents_validation():
    with pytest.raises(ValueError):
        ArrayContents((1, -2))
    with pytest.raises(ValueError):
        build_create(ArrayContents((1, 2, 0)), FIG_LAYOUT)  # not 2**m values
    with pytest.raises(ValueError):
        build_create(ArrayContents((1, 2, 0, 8)), FIG_LAYOUT)  # 8 needs 4 bits


def test_create_places_mass_on_value_pairs():
    state = create_state(FIG_VALUES, FIG_LAYOUT)
    want = {j * 8 + v for j, v in enumerate(FIG_VALUES.values)}
    mags = np.abs(state.amplitudes)
    for idx in range(state.dim):
        if idx in want:
            assert abs(mags[idx] - 0.5) <= 1e-10
        else:
            assert mags[idx] <= 1e-10


def test_create_all_zero():
    layout = ArrayLayout(2, 2)
    state = create_state(ArrayContents((0, 0, 0, 0)), layout)
    mags = np.abs(state.amplitudes)
    for j in range(4):
        assert abs(mags[j * 4] - 0.5) <= 1e-10
    assert read_all(state, layout).values == (0, 0, 0, 0)


def test_create_matches_arithmetic_builder():
    gen = create_state(ArrayContents((1, 3, 5, 7)), FIG_LAYOUT)
    arith = apply_circuit(new_basis_state(5, 0),
                          build_create_arithmetic(1, 2, FIG_LAYOUT))
    assert max_amp_diff(gen, arith) <= 1e-10


def test_common_turn_factoring():
    layout = ArrayLayout(2, 2)
    same = ArrayContents((3, 3, 3, 3))
    factored = build_create(same, layout)
    assert not _multi_controlled(factored)
    state = apply_circuit(new_basis_state(4, 0), factored)
    assert read_all(state, layout).values == (3, 3, 3, 3)


def test_arithmetic_contents_and_values():
    layout = ArrayLayout(3, 4)
    contents = arithmetic_contents(3, 5, layout)
    assert contents.values == (3, 8, 13, 2, 7, 12, 1, 6)
    state = apply_circuit(new_basis_state(7, 0),
                          build_create_arithmetic(3, 5, layout))
    assert read_all(state, layout).values == contents.values


def test_arithmetic_zero_series():
    layout = ArrayLayout(2, 2)
    state = apply_circuit(new_basis_state(4, 0),
                          build_create_arithmetic(0, 0, layout))
    assert read_all(state, layout).values == (0, 0, 0, 0)


def test_arithmetic_builder_gate_budget():
    m, p = 3, 4
    layout = ArrayLayout(m, p)
    circuit = build_create_arithmetic(1, 2, layout)
    assert not _multi_controlled(circuit)
    # p*(m+1) encoding rotations plus the inverse-QFT's own phases
    phases = [g for g in circuit.gates if isinstance(g, Phase)]
    assert len(phases) == p * (m + 1) + p * (p - 1) // 2
    assert gate_count_report(circuit)["h"] == m + p + p


def test_arithmetic_rejects_unreduced_inputs():
    with pytest.raises(ValueError):
        build_create_arithmetic(8, 0, FIG_LAYOUT)
    with pytest.raises(ValueError):
        build_create_arithmetic(0, -1, FIG_LAYOUT)


def test_update_even_positions():
    state = create_state(FIG_VALUES, FIG_LAYOUT)
    update = build_update_add(1, IndexPredicate.even(), FIG_LAYOUT)
    got = read_all(apply_circuit(state, update), FIG_LAYOUT)
    assert got.values == (2, 2, 1, 5)
    assert got.values == ref_array_update(FIG_VALUES.values, 1,
                                          IndexPredicate.even(), 3)


def test_update_zero_is_identity():
    state = create_state(FIG_VALUES, FIG_LAYOUT)
    update = build_update_add(0, IndexPredicate.all_indices(), FIG_LAYOUT)
    after = apply_circuit(state, update)
    assert max_amp_diff(state, after) <= 1e-10


def test_update_wraps_modulo():
    layout = ArrayLayout(1, 3)
    state = create_state(ArrayContents((7, 0)), layout)
    update = build_update_add(1, IndexPredicate.all_indices(), layout)
    assert read_all(apply_circuit(state, update), layout).values == (0, 1)


def test_update_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_update_add(8, IndexPredicate.even(), FIG_LAYOUT)
    with pytest.raises(ValueError):
        build_update_add(1, IndexPredicate(mask=4, match=0), ArrayLayout(2, 2))


def test_update_composes():
    layout = ArrayLayout(2, 3)
    state = create_state(ArrayContents((6, 1, 4, 3)), layout)
    odd = IndexPredicate.odd()
    two_steps = apply_circuit(
        apply_circuit(state, build_update_add(3, odd, layout)),
        build_update_add(6, odd, layout))
    one_step = apply_circuit(state, build_update_add((3 + 6) % 8, odd, layout))
    assert max_amp_diff(two_steps, one_step) <= 1e-10
    assert read_all(two_steps, layout).values == (6, 2, 4, 4)


def test_read_all_requires_array_form():
    layout = ArrayLayout(1, 2)
    uniform = apply_circuit(new_basis_state(3, 0),
                            Circuit(3, tuple(Hadamard(q) for q in range(3))))
    with pytest.raises(MalformedArray):
        read_all(uniform, layout)
    with pytest.raises(ValueError):
        read_all(new_basis_state(4, 0), layout)  # width mismatch


def test_read_all_rejects_missing_index_mass():
    layout = ArrayLayout(1, 1)
    # all mass on index 0: index 1 holds nothing
    state = StateVector(2, [1.0, 0.0, 0.0, 0.0])
    with pytest.raises(MalformedArray):
        read_all(state, layout)


def _read_all_loop(state, layout, tolerance):
    """read_all as a plain loop over the index rows: the values, or the
    kind and index of the first row that fails."""
    rows = state.probabilities().reshape(layout.length, 1 << layout.data_qubits)
    values = []
    for j, row in enumerate(rows):
        mass = float(row.sum())
        if mass < 0.5 / layout.length:
            return "mass", j
        d = int(np.argmax(row))
        if float(row[d]) < (1.0 - tolerance) * mass:
            return "spread", j
        values.append(d)
    return tuple(values)


def _damaged_array_state(rng, layout):
    """An array state with a few rows drained into others or spread over
    two values, some by more than any tolerance and some by less."""
    size = 1 << layout.data_qubits
    probs = np.zeros((layout.length, size))
    probs[np.arange(layout.length), rng.integers(0, size, layout.length)] = 1.0
    for j in rng.integers(0, layout.length, int(rng.integers(0, 4))):
        frac = float(rng.choice([1e-13, 1e-6, 0.3, 0.6, 1.0]))
        moved = frac * probs[j]
        probs[j] -= moved
        if rng.integers(2):
            probs[int(rng.integers(layout.length))] += moved
        else:
            probs[j, int(rng.integers(size))] += moved.sum()
    amps = np.sqrt(probs.ravel() / probs.sum())
    amps = amps * np.exp(2j * np.pi * rng.random(amps.size))
    return StateVector(layout.num_qubits, amps)


def test_read_all_matches_plain_loop():
    rng = np.random.default_rng(2024)
    outcomes = set()
    for _ in range(400):
        layout = ArrayLayout(int(rng.integers(1, 5)), int(rng.integers(1, 4)))
        state = _damaged_array_state(rng, layout)
        tolerance = float(rng.choice([1e-9, 1e-3]))
        try:
            got = read_all(state, layout, tolerance).values
        except MalformedArray as exc:
            j, _, rest = str(exc).removeprefix("index ").partition(" ")
            got = ("mass" if rest.startswith("holds probability mass")
                   else "spread", int(j))
        assert got == _read_all_loop(state, layout, tolerance)
        outcomes.add(got[0] if got[0] in ("mass", "spread") else "values")
    assert outcomes == {"mass", "spread", "values"}


def test_create_read_roundtrip_exhaustive_2x2():
    layout = ArrayLayout(2, 2)
    for packed in range(256):
        values = tuple((packed >> (2 * j)) & 3 for j in range(4))
        state = create_state(ArrayContents(values), layout)
        assert read_all(state, layout).values == values


def test_randomized_update_matches_classical_reference():
    rng = np.random.default_rng(101)
    for _ in range(60):
        m = int(rng.integers(1, 4))
        p = int(rng.integers(1, 5))
        layout = ArrayLayout(m, p)
        values = tuple(int(v) for v in rng.integers(0, 1 << p, size=1 << m))
        addend = int(rng.integers(0, 1 << p))
        mask = int(rng.integers(0, 1 << m))
        match = int(rng.integers(0, 1 << m)) & mask
        predicate = IndexPredicate(mask, match)
        state = create_state(ArrayContents(values), layout)
        state = apply_circuit(state, build_update_add(addend, predicate, layout))
        got = read_all(state, layout)
        assert got.values == ref_array_update(values, addend, predicate, p)
        marginal = marginal_distribution(state, range(p, p + m))
        for j in range(1 << m):
            assert abs(marginal.get(j, 0.0) - 1 / (1 << m)) <= 1e-12


def test_create_read_roundtrip_past_2048_patterns():
    # m = 11: one index-pattern control tuple per element, 2048 of them.
    rng = np.random.default_rng(2048)
    layout = ArrayLayout(11, 2)
    values = tuple(int(v) for v in rng.integers(0, 4, size=layout.length))
    state = create_state(ArrayContents(values), layout)
    assert state._branches is not None  # branch form, not dense
    assert read_all(state, layout).values == values
