import numpy as np
import pytest

from helpers import max_amp_diff
from qabacus import (
    Circuit, Hadamard, NotDeterministic, Phase, analytic_fourier_state,
    apply_circuit, build_encoder, build_qft, decode_register, decode_signed,
    encode_signed, encode_value, encoding_phase_gates, fourier_phase,
    gate_count_report, new_basis_state,
)
from qabacus import Control, statevector
from qabacus.qft import _fourier_add, _qft_gates
from qabacus.reference import ref_dft_state
from qabacus.turns import DyadicTurn


def test_fourier_phase_examples():
    assert fourier_phase(5, 2, 3) == DyadicTurn(1, 1)
    assert fourier_phase(5, 1, 3) == DyadicTurn(1, 2)
    assert fourier_phase(5, 0, 3) == DyadicTurn(5, 3)
    assert fourier_phase(6, 0, 3) == DyadicTurn(3, 2)
    for l in range(4):
        assert fourier_phase(0, l, 4).is_zero()


def test_fourier_phase_validation():
    with pytest.raises(ValueError):
        fourier_phase(8, 0, 3)
    with pytest.raises(ValueError):
        fourier_phase(-1, 0, 3)
    with pytest.raises(ValueError):
        fourier_phase(1, 3, 3)


def test_encoder_structure():
    c = build_encoder(5, 3)
    assert c.gates[:3] == (Hadamard(2), Hadamard(1), Hadamard(0))
    phases = c.gates[3:]
    assert all(isinstance(g, Phase) and not g.controls for g in phases)
    assert [g.target for g in phases] == [2, 1, 0]
    assert [g.turn for g in phases] == [DyadicTurn(1, 1), DyadicTurn(1, 2),
                                        DyadicTurn(5, 3)]
    report = gate_count_report(c)
    assert report["h"] == 3 and report["phase"] == 3 and report["cphase"] == 0


def test_encoder_rejects_out_of_range_values():
    with pytest.raises(ValueError):
        build_encoder(8, 3)
    with pytest.raises(ValueError):
        build_encoder(-1, 3)


def test_encode_zero_is_uniform():
    s = encode_value(0, 3)
    assert np.allclose(s.amplitudes, 1 / np.sqrt(8), atol=1e-12)


def test_encoded_state_matches_analytic():
    assert max_amp_diff(encode_value(5, 3), analytic_fourier_state(5, 3)) <= 1e-12


def test_three_constructions_agree():
    n = 5
    qft = build_qft(n)
    for d in range(1 << n):
        enc = encode_value(d, n)
        via_qft = apply_circuit(new_basis_state(n, d), qft)
        analytic = analytic_fourier_state(d, n)
        assert max_amp_diff(enc, analytic) <= 1e-10
        assert max_amp_diff(enc, via_qft) <= 1e-10
        assert max_amp_diff(analytic, ref_dft_state(d, n)) <= 1e-10


def test_decode_examples():
    assert decode_register(encode_value(5, 3)) == 5
    assert decode_register(encode_value(0, 4)) == 0
    # measured bits of 5 on three qubits, most significant first
    d = decode_register(encode_value(5, 3))
    assert [(d >> b) & 1 for b in (2, 1, 0)] == [1, 0, 1]


def test_roundtrip_exhaustive():
    for n in range(1, 7):
        for d in range(1 << n):
            assert decode_register(encode_value(d, n), 1e-9) == d


def test_decode_rejects_non_fourier_states():
    with pytest.raises(NotDeterministic):
        decode_register(new_basis_state(2, 1))  # a basis state, not its image


def test_magnitudes_stay_flat():
    for n in (1, 4, 6):
        d = (1 << n) - 1
        s = encode_value(d, n)
        assert np.max(np.abs(np.abs(s.amplitudes) - 2 ** (-n / 2))) <= 1e-12


def test_phase_layers_add_values():
    n = 4
    for a, b in ((3, 5), (9, 9), (15, 1), (0, 7)):
        layered = apply_circuit(
            encode_value(a, n),
            Circuit(n, encoding_phase_gates(b, n)))
        want = encode_value((a + b) % (1 << n), n)
        assert max_amp_diff(layered, want) <= 1e-12
    # The same contract at an offset, the second layer under a control:
    # H on the register, the layer for a, the controlled layer for b and
    # the inverse QFT take a basis input to |(a + b) mod 2**w> on the
    # register where the control matches and to |a> where it does not,
    # leave every other qubit as it was and apply no dense gate.
    width, dense = 7, []
    kernel = statevector._apply_gate_inplace
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(statevector, "_apply_gate_inplace",
                      lambda amps, n, gate: dense.append(gate)
                      or kernel(amps, n, gate))
        for start, w, control, a, b in (
                (2, 3, Control(0), 5, 6), (1, 4, Control(6, False), 9, 12),
                (3, 2, Control(1), 3, 3), (4, 3, Control(0, False), 7, 1),
                (5, 2, Control(4, False), 0, 3)):
            register = range(start, start + w)
            circuit = Circuit(width, (
                *(Hadamard(q) for q in register), *_fourier_add(a, register),
                *_fourier_add(b, register, (control,)),
                *_qft_gates(w, start, inverse=True)))
            others = [q for q in range(width) if q not in register]
            for bits in range(1 << len(others)):
                basis = sum((bits >> i & 1) << q for i, q in enumerate(others))
                matches = (basis >> control.qubit & 1) == control.positive
                value = (a + b) % (1 << w) if matches else a
                out = apply_circuit(new_basis_state(width, basis), circuit)
                want = np.zeros(1 << width)
                want[basis | value << start] = 1.0
                assert np.max(np.abs(out.amplitudes - want)) <= 1e-12
    assert dense == []


def test_signed_wrappers():
    for v in (-8, -3, -1, 0, 5, 7):
        assert decode_signed(encode_signed(v, 4)) == v
    with pytest.raises(ValueError):
        encode_signed(8, 4)
    with pytest.raises(ValueError):
        encode_signed(-9, 4)


def test_encode_signed_checks_the_width_first():
    with pytest.raises(ValueError) as err:
        encode_signed(3, 0)
    assert str(err.value) == "register width must be in [1, 24] qubits, got 0"
    with pytest.raises(ValueError) as err:
        encode_signed(3, 1.5)
    assert str(err.value) == "register width must be an integer, got 1.5"
