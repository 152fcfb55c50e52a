import io
import json
import os
import pickle
import random
import zipfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qabacus import ArrayLayout, Circuit, StateVector, build_counter, serialize
from qabacus.cli import _load_state, _save_state, main

GOLDEN_DIR = Path(__file__).parent / "goldens"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_golden(capsys):
    code, out, err = run_cli(capsys, "count", "101")
    assert code == 0 and err == ""
    assert out == (GOLDEN_DIR / "cli_count_101.txt").read_text()


def test_count_zeros(capsys):
    code, out, _ = run_cli(capsys, "count", "0", "--target", "zeros")
    assert code == 0
    assert out.startswith("count=1 m=1 ")


def test_count_includes_circuit_when_asked(capsys):
    code, out, _ = run_cli(capsys, "count", "101", "--circuit")
    assert code == 0
    assert out.endswith(serialize(build_counter(3)))


def test_count_json(capsys):
    code, out, _ = run_cli(capsys, "count", "11111111", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["command"] == "count"
    assert blob["result"] == {"count": 8, "m": 4}
    assert blob["inputs"] == {"bits": "11111111", "target": "ones"}
    assert blob["gate_counts"]["cphase"] == 8 * 4


def test_count_builds_the_counter_once(capsys, monkeypatch):
    built = []
    init = Circuit.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Circuit, "__init__", counting_init)
    code, out, _ = run_cli(capsys, "count", "101", "--circuit")
    assert code == 0
    # the counter, and the counting stage cut from it for the gate counts
    assert len(built) == 2
    assert out.endswith(serialize(built[0]))
    assert built[1].gates == built[0].gates[:len(built[1].gates)]


def test_count_rejects_malformed_bits(capsys):
    code, out, err = run_cli(capsys, "count", "12x")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1  # one-line diagnostic
    code, _, _ = run_cli(capsys, "count", "0" * 17)
    assert code == 2


def test_encode_golden(capsys):
    code, out, err = run_cli(capsys, "encode", "5", "--qubits", "3")
    assert code == 0 and err == ""
    assert out == (GOLDEN_DIR / "cli_encode_5_q3.txt").read_text()


def test_encode_zero_turns(capsys):
    code, out, _ = run_cli(capsys, "encode", "0", "--qubits", "4")
    assert code == 0
    assert out.splitlines() == ["turns=0/1 0/1 0/1 0/1", "decoded=0"]


def test_encode_roundtrip_value(capsys):
    code, out, _ = run_cli(capsys, "encode", "11", "--qubits", "4")
    assert code == 0
    assert "decoded=11" in out


def test_encode_dump_state_rows(capsys):
    code, out, _ = run_cli(capsys, "encode", "5", "--qubits", "3",
                           "--dump-state")
    assert code == 0
    rows = out.splitlines()[2:]
    assert len(rows) == 8
    first = rows[0].split()
    assert first[0] == "000" and len(first) == 4


def test_encode_out_of_range(capsys):
    code, _, err = run_cli(capsys, "encode", "8", "--qubits", "3")
    assert code == 2
    assert "range" in err


def test_encode_checks_width_first(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(Circuit, "__init__",
                        lambda self, *args, **kwargs: built.append(self))
    for qubits in ("25", "60"):
        code, out, err = run_cli(capsys, "encode", "5", "--qubits", qubits)
        assert code == 2 and out == "", qubits
        assert err == ("error: register width must be in [1, 24] qubits, "
                       f"got {qubits}\n")
    assert built == []


def test_encode_builds_each_circuit_once(capsys, monkeypatch):
    built = []
    init = Circuit.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Circuit, "__init__", counting_init)
    code, _, _ = run_cli(capsys, "encode", "5", "--qubits", "3")
    assert code == 0
    # the encoder and the decoding inverse QFT
    assert len(built) == 2


def test_encode_json(capsys):
    code, out, _ = run_cli(capsys, "encode", "5", "--qubits", "3", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["result"]["turns"] == ["1/2", "1/4", "5/8"]
    assert blob["result"]["decoded"] == 5


def test_array_chain_golden(capsys, tmp_path):
    state = str(tmp_path / "array.npz")
    transcript = ""
    for argv in (["array", "create", "1,2,0,5", "-p", "3", "--state", state],
                 ["array", "dump", "--state", state],
                 ["array", "add", "1", "--where", "even", "--state", state],
                 ["array", "dump", "--state", state]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == "", argv
        transcript += out
    assert transcript == (GOLDEN_DIR / "cli_array_chain.txt").read_text()


JSON_GOLDEN_ARGVS = (
    ["count", "101"],
    ["count", "0110", "--target", "zeros"],
    ["encode", "5", "--qubits", "3"],
    ["array", "create", "1,2,0,5", "-p", "3", "--state", "s.npz"],
    ["array", "dump", "--state", "s.npz"],
    ["array", "add", "1", "--where", "even", "--state", "s.npz"],
    ["array", "add", "3", "--where", "mask=2,match=2", "--state", "s.npz"],
    ["array", "dump", "--state", "s.npz"],
    ["circuit", "print", "qft", "3"],
    ["circuit", "print", "iqft", "3"],
    ["circuit", "print", "qft-pea", "2"],
    ["circuit", "print", "counter", "3", "zeros"],
    ["circuit", "print", "encoder", "5", "3"],
)


def test_json_golden(capsys, tmp_path, monkeypatch):
    # A relative state path keeps "state_file" the same in every run.
    monkeypatch.chdir(tmp_path)
    transcript = ""
    for argv in JSON_GOLDEN_ARGVS:
        code, out, err = run_cli(capsys, *argv, "--json")
        assert code == 0 and err == "", argv
        assert out.count("\n") == 1, argv
        transcript += out
    assert transcript == (GOLDEN_DIR / "cli_json.txt").read_text()


def test_array_trivial_dump(capsys, tmp_path):
    state = str(tmp_path / "array.npz")
    run_cli(capsys, "array", "create", "0,0", "-p", "1", "--state", state)
    code, out, _ = run_cli(capsys, "array", "dump", "--state", state)
    assert code == 0
    assert out == "[0,0]\n"


def test_array_add_with_mask_predicate(capsys, tmp_path):
    state = str(tmp_path / "array.npz")
    run_cli(capsys, "array", "create", "1,2,3,4", "-p", "3", "--state", state)
    code, out, _ = run_cli(capsys, "array", "add", "2", "--where",
                           "mask=2,match=2", "--state", state)
    assert code == 0
    assert out.splitlines()[1] == "after=[1,2,5,6]"


def test_array_create_rejects_bad_shapes(capsys, tmp_path):
    state = str(tmp_path / "array.npz")
    code, _, err = run_cli(capsys, "array", "create", "1,2,3", "-p", "2",
                           "--state", state)
    assert code == 2 and "power of two" in err
    for argv in (["1,2", "-p", "2", "-m", "2"], ["1,9", "-p", "2"],
                 ["5", "-p", "2"]):
        code, out, err = run_cli(capsys, "array", "create", *argv,
                                 "--state", state)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv
    assert not os.path.exists(state)


def test_array_add_rejects_bad_predicate(capsys, tmp_path):
    state = str(tmp_path / "array.npz")
    run_cli(capsys, "array", "create", "1,2", "-p", "2", "--state", state)
    code, _, err = run_cli(capsys, "array", "add", "1", "--where", "sometimes",
                           "--state", state)
    assert code == 2 and "predicate" in err


def test_array_missing_state_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "array", "dump", "--state",
                           str(tmp_path / "absent.npz"))
    assert code == 2
    assert "array create" in err


def write_state(path, **arrays):
    """A hand-written state file with the given arrays."""
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def test_array_dump_detects_malformed_state(capsys, tmp_path):
    # a hand-written state that is not of array form: everything uniform
    state = tmp_path / "broken.npz"
    write_state(state, index_qubits=1, data_qubits=1,
                amplitudes=np.full(4, 0.5, dtype=np.complex128))
    code, _, err = run_cli(capsys, "array", "dump", "--state", str(state))
    assert code == 3
    assert "deterministic" in err


def test_array_dump_rejects_non_finite_state(capsys, tmp_path):
    state = tmp_path / "nan.npz"
    write_state(state, index_qubits=1, data_qubits=1,
                amplitudes=np.full(4, complex(float("nan"), 0.0)))
    code, out, err = run_cli(capsys, "array", "dump", "--state", str(state))
    assert code == 2 and out == ""
    assert "normalized" in err


def test_array_add_failed_write_keeps_old_state(capsys, tmp_path,
                                                 monkeypatch):
    state = tmp_path / "array.npz"
    run_cli(capsys, "array", "create", "1,2,0,5", "-p", "3",
            "--state", str(state))
    before = state.read_bytes()

    def failing_savez(fh, **arrays):
        fh.write(before[:100])
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(np, "savez", failing_savez)
    code, _, err = run_cli(capsys, "array", "add", "1", "--state", str(state))
    monkeypatch.undo()
    assert code == 2 and "No space left" in err
    assert state.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["array.npz"]
    code, out, _ = run_cli(capsys, "array", "dump", "--state", str(state))
    assert code == 0 and out == "[1,2,0,5]\n"


def test_state_file_round_trip_is_bit_exact(tmp_path):
    layout = ArrayLayout(2, 3)
    rng = np.random.default_rng(7)
    amps = rng.normal(size=32) + 1j * rng.normal(size=32)
    state = StateVector(5, amps / np.linalg.norm(amps))
    path = str(tmp_path / "state.npz")
    _save_state(path, layout, state)
    loaded_layout, loaded = _load_state(path)
    assert loaded_layout == layout
    assert loaded.amplitudes.dtype == np.complex128
    assert loaded.amplitudes.tobytes() == state.amplitudes.tobytes()


def test_array_default_state_file_is_npz(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(capsys, "array", "create", "1,2", "-p", "2")
    assert code == 0
    assert os.listdir(tmp_path) == ["qarray.npz"]
    with np.load(tmp_path / "qarray.npz", allow_pickle=False) as payload:
        assert sorted(payload.files) == ["amplitudes", "data_qubits",
                                         "index_qubits"]


def test_array_rejects_old_json_state(capsys, tmp_path):
    state = tmp_path / "qarray.json"
    state.write_text(json.dumps({
        "index_qubits": 1, "data_qubits": 1,
        "amplitudes": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
    }) + "\n")
    for argv in (["dump"], ["add", "1"]):
        code, out, err = run_cli(capsys, "array", *argv, "--state", str(state))
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv
        assert "old JSON state file" in err and "array create" in err


def _corrupt_states(good: bytes):
    amps = np.zeros(4, dtype=np.complex128)
    amps[0] = 1.0
    layout = {"index_qubits": 1, "data_qubits": 1}
    yield "truncated", good[:len(good) // 2]
    yield "random", np.random.default_rng(3).bytes(256)
    yield "empty", b""
    yield "no-amplitudes", layout
    yield "string-amplitudes", {**layout, "amplitudes": np.array(["1", "0", "0", "0"])}
    yield "real-amplitudes", {**layout, "amplitudes": amps.real}
    yield "2-D-amplitudes", {**layout, "amplitudes": amps.reshape(2, 2)}
    yield "short-amplitudes", {**layout, "amplitudes": amps[:3]}
    yield "object-amplitudes", {**layout, "amplitudes": np.array(
        [1 + 0j, 0j, 0j, 0j], dtype=object)}
    yield "float-layout", {**layout, "index_qubits": 1.0, "amplitudes": amps}
    yield "vector-layout", {**layout, "data_qubits": [1], "amplitudes": amps}
    yield "zero-layout", {**layout, "index_qubits": 0, "amplitudes": amps}
    npy = io.BytesIO()
    np.save(npy, amps)
    yield "npy", npy.getvalue()  # a bare array, not an archive
    yield "pickle", pickle.dumps({**layout, "amplitudes": amps})
    # an archive whose amplitudes header claims 16 TiB
    archive = io.BytesIO()
    with zipfile.ZipFile(archive, "w") as zf:
        for key, value in layout.items():
            with zf.open(f"{key}.npy", "w") as fh:
                np.lib.format.write_array(fh, np.array(value))
        with zf.open("amplitudes.npy", "w") as fh:
            np.lib.format.write_array_header_1_0(fh, {
                "descr": "<c16", "fortran_order": False, "shape": (1 << 40,)})
    yield "huge-header", archive.getvalue()


def test_array_rejects_corrupt_state_files(capsys, tmp_path):
    good = tmp_path / "good.npz"
    run_cli(capsys, "array", "create", "1,2,0,5", "-p", "3",
            "--state", str(good))
    for name, content in _corrupt_states(good.read_bytes()):
        state = tmp_path / f"{name}.npz"
        if isinstance(content, bytes):
            state.write_bytes(content)
        else:
            write_state(state, **content)
        before = state.read_bytes()
        for argv in (["dump"], ["add", "1"]):
            code, out, err = run_cli(capsys, "array", *argv,
                                     "--state", str(state))
            assert code == 2 and out == "", (name, argv)
            assert err.startswith("error: ") and err.count("\n") == 1, \
                (name, err)
            assert "Traceback" not in err
        assert state.read_bytes() == before, name


def test_array_dump_rejects_bad_tolerance(capsys, tmp_path):
    state = str(tmp_path / "array.npz")
    run_cli(capsys, "array", "create", "1,2,0,5", "-p", "3", "--state", state)
    for tolerance in ("nan", "2", "0"):
        code, out, err = run_cli(capsys, "array", "dump", "--tolerance",
                                 tolerance, "--state", state)
        assert code == 2 and out == "", tolerance
        assert "tolerance" in err


def test_circuit_print_golden(capsys):
    code, out, _ = run_cli(capsys, "circuit", "print", "qft", "3")
    assert code == 0
    assert out == (GOLDEN_DIR / "circuit_qft3.txt").read_text()


def test_circuit_print_counter_and_encoder(capsys):
    code, out, _ = run_cli(capsys, "circuit", "print", "counter", "3")
    assert code == 0
    assert out == (GOLDEN_DIR / "circuit_counter3.txt").read_text()
    code, out, _ = run_cli(capsys, "circuit", "print", "encoder", "5", "3")
    assert code == 0
    assert out == (GOLDEN_DIR / "circuit_encoder_5_3.txt").read_text()


def test_circuit_print_unknown_builder(capsys):
    code, _, err = run_cli(capsys, "circuit", "print", "teleporter", "3")
    assert code == 2
    assert "unknown builder" in err


def test_circuit_print_names_bad_parameter(capsys):
    for argv, builder, message in (
            (["qft", "x"], "qft", "n must be an integer, got 'x'"),
            (["encoder", "5", "q"], "encoder", "n must be an integer, got 'q'"),
            (["counter", "x"], "counter", "n must be an integer, got 'x'"),
            (["counter", "2", "sideways"], "counter",
             "target must be ones or zeros, got 'sideways'")):
        code, out, err = run_cli(capsys, "circuit", "print", *argv)
        assert code == 2 and out == "", argv
        assert err == f"error: builder {builder!r}: {message}\n"
    for argv in (["qft"], ["encoder", "5"], ["counter", "1", "ones", "2"]):
        code, out, err = run_cli(capsys, "circuit", "print", *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and "takes" in err, argv


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "count")[0] == 2          # missing operand
    assert run_cli(capsys, "frobnicate")[0] == 2     # unknown command
    assert run_cli(capsys)[0] == 2                   # no command


def test_damaged_state_files_load_or_raise_value_error(capsys, tmp_path):
    good = tmp_path / "good.npz"
    run_cli(capsys, "array", "create", "1,0", "-p", "1", "--state", str(good))
    data = good.read_bytes()
    rng = random.Random(5)
    damaged = [data[:k] for k in range(0, len(data), 16)]
    for _ in range(500):
        flipped = bytearray(data)
        for _ in range(rng.randint(1, 4)):
            flipped[rng.randrange(len(flipped))] = rng.randrange(256)
        damaged.append(bytes(flipped))
    state = str(tmp_path / "damaged.npz")
    for content in damaged:
        with open(state, "wb") as fh:
            fh.write(content)
        try:
            _load_state(state)
        except ValueError:
            pass


_FUZZ_INTS = st.sampled_from(["0", "1", "2", "3", "5", "8", "255", "-1", "x"])
# Widths stay at 8 qubits or below, or out of range: no example simulates
# more than 12 qubits (8 counted bits plus 4 ancillas).
_FUZZ_WIDTHS = st.sampled_from(["1", "2", "3", "4", "8", "0", "-1", "25", "60"])
_FUZZ_OPTIONS = st.lists(st.sampled_from([
    "--json", "--tolerance", "1e-9", "nan", "0", "2", "--circuit",
    "--dump-state", "--target", "ones", "zeros", "--where", "even", "odd",
    "mask=1,match=1", "mask=x", "-m", "-p", "--state", "--help",
]), max_size=2)
_FUZZ_STATES = st.sampled_from([
    None, "other.npz", "old.json", "junk.npz", "uniform.npz", ".",
    "missing/qarray.npz",
])


@st.composite
def _fuzz_argvs(draw):
    command = draw(st.sampled_from(
        ["count", "encode", "create", "add", "dump", "print"]))
    if command == "count":
        argv = ["count", draw(st.one_of(st.text("01", min_size=1, max_size=8),
                                        st.text("012x", max_size=8)))]
    elif command == "encode":
        argv = ["encode", draw(_FUZZ_INTS), "--qubits", draw(_FUZZ_WIDTHS)]
    elif command == "create":
        size = draw(st.sampled_from([1, 2, 4, 8]))
        values = draw(st.lists(st.one_of(st.sampled_from("0123"), _FUZZ_INTS),
                               min_size=size, max_size=size))
        argv = ["array", "create", ",".join(values),
                "-p", draw(_FUZZ_WIDTHS.filter(lambda w: w != "8"))]
        if draw(st.booleans()):
            argv += ["-m", draw(_FUZZ_WIDTHS.filter(lambda w: w != "8"))]
    elif command == "add":
        argv = ["array", "add", draw(_FUZZ_INTS), "--where",
                draw(st.sampled_from(["all", "even", "odd", "mask=1,match=1",
                                      "mask=3,match=9", "sometimes"]))]
    elif command == "dump":
        argv = ["array", "dump"]
    else:
        # Builder parameters mix small integers with short junk tokens.
        param = st.one_of(st.integers(-2, 6).map(str), _FUZZ_INTS,
                          st.sampled_from(["ones", "zeros"]),
                          st.text("0123xq-_ ", max_size=3))
        argv = ["circuit", "print",
                draw(st.sampled_from(["qft", "iqft", "qft-pea", "counter",
                                      "encoder", "teleporter"])),
                *draw(st.lists(param, max_size=3))]
    if argv[0] == "array":
        state = draw(_FUZZ_STATES)
        if state is not None:
            argv += ["--state", state]
    # Most examples stay well formed; some get a stray option or lose a token.
    if draw(st.integers(0, 2)) == 2:
        argv += draw(_FUZZ_OPTIONS)
    if draw(st.integers(0, 3)) == 3:
        del argv[draw(st.integers(0, len(argv) - 1))]
    return argv


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_fuzz_argvs())
def test_main_exits_0_2_or_3_on_any_argv(capsys, tmp_path, monkeypatch, argv):
    # The examples share one directory, so later ones meet the state
    # files earlier ones wrote, next to an old JSON state, a junk file and
    # a state that is not of array form.
    monkeypatch.chdir(tmp_path)
    if not os.path.exists("old.json"):
        Path("old.json").write_text('{"index_qubits": 1, "data_qubits": 1, '
                                    '"amplitudes": [[1.0, 0.0]]}\n')
        Path("junk.npz").write_bytes(b"PK\x03\x04" + bytes(60))
        write_state("uniform.npz", index_qubits=1, data_qubits=1,
                    amplitudes=np.full(4, 0.5, dtype=np.complex128))
    code, _, err = run_cli(capsys, *argv)
    assert code in (0, 2, 3), (argv, err)
    assert "Traceback" not in err
    if err.startswith("error: "):
        assert err.count("\n") == 1, (argv, err)
