import io
import json
import os
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qabacus import ArrayContents, ArrayLayout, Circuit, StateVector, \
    build_counter, create_state, read_all, serialize, statevector
from qabacus import cli
from qabacus.cli import _load_state, _save_state, main
from qabacus.qarray import _array_state
from qabacus.statevector import _Branches

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
    code, _, _ = run_cli(capsys, "count", "0" * 20)
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


def write_state(path, **fields):
    """A hand-written state file: one JSON object of the given fields."""
    Path(path).write_text(json.dumps(fields) + "\n")


def test_array_dump_detects_malformed_state(capsys, tmp_path):
    # a hand-written state whose value needs more than its data qubits
    state = tmp_path / "broken.json"
    write_state(state, index_qubits=1, data_qubits=1, values=[0, 2])
    code, out, err = run_cli(capsys, "array", "dump", "--state", str(state))
    assert code == 2 and out == ""
    assert "value 2 at index 1 does not fit in 1 data qubits" in err


def test_array_dump_rejects_non_finite_state(capsys, tmp_path):
    state = tmp_path / "nan.json"
    write_state(state, index_qubits=1, data_qubits=1,
                values=[float("nan"), 0])
    assert "[NaN, 0]" in state.read_text()
    code, out, err = run_cli(capsys, "array", "dump", "--state", str(state))
    assert code == 2 and out == ""
    assert "value must be an integer, got nan" in err


def test_array_rejects_old_amplitude_state(capsys, tmp_path):
    # The zip archive of an older version is not JSON.
    state = tmp_path / "old.npz"
    amps = np.zeros(4, dtype=np.complex128)
    amps[[0, 3]] = 2 ** -0.5
    np.savez(state, index_qubits=1, data_qubits=1, amplitudes=amps)
    for argv in (["dump"], ["add", "1"]):
        code, out, err = run_cli(capsys, "array", *argv, "--state", str(state))
        assert code == 2 and out == "", argv
        assert err.startswith(f"error: corrupt state file {str(state)!r}: ")
        assert err.count("\n") == 1, argv


def test_save_refuses_a_state_with_phases(tmp_path):
    layout = ArrayLayout(1, 1)
    contents = ArrayContents((0, 1))
    index = np.array([0b00, 0b11], dtype=np.int64)
    path = str(tmp_path / "state.npz")
    for phase in ([0, 1], [1 << 50, 1 << 50]):
        state = StateVector(2, _Branches(index,
                                         np.array(phase, dtype=np.int64)))
        assert read_all(state, layout) == contents
        with pytest.raises(ValueError, match="carries phases"):
            _save_state(path, layout, state, contents)
    assert not os.path.exists(path)


def test_array_add_failed_write_keeps_old_state(capsys, tmp_path,
                                                 monkeypatch):
    state = tmp_path / "array.json"
    run_cli(capsys, "array", "create", "1,2,0,5", "-p", "3",
            "--state", str(state))
    before = state.read_bytes()

    real_open = open

    def open_full_disk(file, mode="r", **kwargs):
        """A file opened for writing stores 20 characters, then fails."""
        fh = real_open(file, mode, **kwargs)
        if "w" in mode:
            write = fh.write

            def fail_midway(text):
                write(text[:20])
                raise OSError(28, "No space left on device")

            fh.write = fail_midway
        return fh

    # The module global shadows the builtin for the CLI's own calls only.
    monkeypatch.setattr(cli, "open", open_full_disk, raising=False)
    code, _, err = run_cli(capsys, "array", "add", "1", "--state", str(state))
    monkeypatch.undo()
    assert code == 2 and "No space left" in err
    assert state.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["array.json"]
    code, out, _ = run_cli(capsys, "array", "dump", "--state", str(state))
    assert code == 0 and out == "[1,2,0,5]\n"


def test_state_file_round_trip_is_bit_exact(tmp_path):
    layout = ArrayLayout(3, 5)
    rng = np.random.default_rng(7)
    contents = ArrayContents(tuple(int(v) for v in rng.integers(32, size=8)))
    state = create_state(contents, layout)
    path = str(tmp_path / "state.npz")
    _save_state(path, layout, state, contents)
    loaded_layout, loaded_contents = _load_state(path)
    assert loaded_layout == layout and loaded_contents == contents
    loaded = _array_state(loaded_contents, layout)
    # The same branches, in index order, every one at phase 0.
    order = np.argsort(state._branches.index)
    assert loaded._branches.index.tolist() == \
        state._branches.index[order].tolist()
    assert loaded._branches.phase.tolist() == [0] * 8
    assert loaded.amplitudes.tobytes() == state.amplitudes.tobytes()


def test_array_default_state_file_is_json(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(capsys, "array", "create", "1,2", "-p", "2")
    assert code == 0
    assert os.listdir(tmp_path) == ["qarray.json"]
    assert json.loads((tmp_path / "qarray.json").read_text()) == {
        "index_qubits": 1, "data_qubits": 2, "values": [1, 2]}


def test_array_rejects_old_json_state(capsys, tmp_path):
    state = tmp_path / "qarray.json"
    state.write_text(json.dumps({
        "index_qubits": 1, "data_qubits": 1,
        "amplitudes": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
    }) + "\n")
    for argv in (["dump"], ["add", "1"]):
        code, out, err = run_cli(capsys, "array", *argv, "--state", str(state))
        assert code == 2 and out == "", argv
        assert err == (f"error: corrupt state file {str(state)!r}: "
                       "missing key 'values'\n")


def _corrupt_states(good: bytes):
    """(name, content, a text its error holds): content is the file's
    bytes or the fields of a JSON object."""
    layout = {"index_qubits": 1, "data_qubits": 1}
    corrupt = "corrupt state file"
    yield "truncated", good[:len(good) // 2], corrupt
    yield "empty", b"", corrupt
    yield "random", np.random.default_rng(3).bytes(256), corrupt
    yield "non-utf-8", b'{"index_qubits": 1, "data_qubits": 1, ' \
        b'"values": [1, 0], "\xff": 0}', corrupt
    yield "top-list", b"[1, 0]", "not a JSON object: list"
    yield "top-number", b"5", "not a JSON object: int"
    yield "top-string", b'"qarray"', "not a JSON object: str"
    yield "no-values", layout, "missing key 'values'"
    yield "no-layout", {"data_qubits": 1, "values": [1, 0]}, \
        "missing key 'index_qubits'"
    for name, values in (("string", "10"), ("number", 10),
                         ("dict", {"0": 1, "1": 0})):
        yield f"{name}-values", {**layout, "values": values}, \
            "values must be a list"
    for name, entry in (("true", True), ("float", 1.5), ("string", "1"),
                        ("null", None), ("nan", float("nan"))):
        yield f"{name}-entry", {**layout, "values": [entry, 0]}, \
            f"value must be an integer, got {entry!r}"
    yield "negative-value", {**layout, "values": [1, -1]}, \
        "value out of range"
    yield "wide-value", {**layout, "values": [1, 2]}, \
        "value 2 at index 1 does not fit in 1 data qubits"
    yield "short-values", {**layout, "values": [1]}, \
        "layout holds 2 elements, got 1 values"
    for key, bad in (("index_qubits", 1.0), ("data_qubits", True),
                     ("index_qubits", 0)):
        yield f"{key}-{bad}", {**layout, key: bad, "values": [1, 0]}, key
    yield "over-cap", {"index_qubits": 1, "data_qubits": 24,
                       "values": [1, 0]}, "register width must be in [1, 24]"
    yield "deep", b"[" * 100_000, "maximum recursion depth"
    yield "long-int", b'{"index_qubits": 1, "data_qubits": 1, "values": [' \
        + b"1" * 5000 + b", 0]}", "digits"
    npz = io.BytesIO()
    np.savez(npz, **layout, values=np.array([1, 0], dtype=np.uint64))
    yield "npz", npz.getvalue(), corrupt


def test_array_rejects_corrupt_state_files(capsys, tmp_path):
    good = tmp_path / "good.json"
    run_cli(capsys, "array", "create", "1,2,0,5", "-p", "3",
            "--state", str(good))
    for name, content, text in _corrupt_states(good.read_bytes()):
        state = tmp_path / f"{name}.json"
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
            assert text in err, (name, err)
            assert "Traceback" not in err
        assert state.read_bytes() == before, name


def test_state_file_size_bound(capsys, tmp_path, monkeypatch):
    # Under a cap of c qubits no layout writes more than 3 * 2**(c - 1)
    # + 64 bytes, the largest being m = c - 1, p = 1; one byte more is
    # refused before it is parsed.
    path = str(tmp_path / "state.json")
    for cap in range(2, 11):
        monkeypatch.setattr(statevector, "MAX_QUBITS", cap)
        limit = (3 << (cap - 1)) + 64
        sizes = {}
        for m in range(1, cap):
            for p in range(1, cap - m + 1):
                layout = ArrayLayout(m, p)
                contents = ArrayContents(((1 << p) - 1,) * layout.length)
                _save_state(path, layout, create_state(contents, layout),
                            contents)
                sizes[m, p] = os.path.getsize(path)
                assert _load_state(path)[0] == layout
        assert max(sizes, key=sizes.get) == (cap - 1, 1)
        assert sizes[cap - 1, 1] <= limit
    # The largest file of a cap of 4, padded to the bound, still loads.
    monkeypatch.setattr(statevector, "MAX_QUBITS", 4)
    code, _, _ = run_cli(capsys, "array", "create", "1,1,1,1,1,1,1,1",
                         "-p", "1", "--state", path)
    assert code == 0
    text = Path(path).read_text()
    for size in (len(text), 88):
        Path(path).write_text(text.ljust(size))
        assert run_cli(capsys, "array", "dump", "--state", path) == \
            (0, "[1,1,1,1,1,1,1,1]\n", "")
    Path(path).write_text(text.ljust(89))
    assert run_cli(capsys, "array", "dump", "--state", path) == (
        2, "", f"error: corrupt state file {path!r}: longer than 88 bytes, "
               "the largest state a valid layout makes\n")


@pytest.mark.parametrize("argv, takes", [
    (["count", "101"], False),
    (["array", "add", "1"], False),
    (["array", "dump"], False),
    (["encode", "5", "--qubits", "3"], True),
    (["array", "create", "1,2,0,5", "-p", "3"], True),
], ids=["count", "array-add", "array-dump", "encode", "array-create"])
def test_array_dump_rejects_bad_tolerance(capsys, tmp_path, argv, takes):
    # Only encode and array create can read a dense state; every other
    # readout is exact, so it takes no tolerance, good or bad.
    state = str(tmp_path / "array.json")
    run_cli(capsys, "array", "create", "1,2,0,5", "-p", "3", "--state", state)
    if argv[0] == "array":
        argv = argv + ["--state", state]
    for tolerance in ("1e-9", "nan", "2", "0"):
        code, out, err = run_cli(capsys, *argv, "--tolerance", tolerance)
        if not takes:
            assert code == 2 and out == "", tolerance
            assert "unrecognized arguments: --tolerance" in err
        elif tolerance == "1e-9":
            assert code == 0 and err == "", tolerance
        else:
            assert (code, out) == (2, ""), tolerance
            assert err == f"error: tolerance must be in (0, 1), " \
                f"got {float(tolerance)!r}\n"


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


@pytest.mark.parametrize("argv, text", [
    (["array", "create", "1_0,2,3,0", "-p", "4"],
     "error: values must be a comma-separated integer list, got '1_0,2,3,0'"),
    (["array", "create", "10,\u0662,3,0", "-p", "4"],
     "error: values must be a comma-separated integer list, "
     "got '10,\u0662,3,0'"),
    (["array", "create", "10,2,+3,0", "-p", "4"],
     "error: values must be a comma-separated integer list, got '10,2,+3,0'"),
    (["array", "create", "1,2,3,0", "-p", "\u0664"],
     "error: argument -p: not an integer: '\u0664'"),
    (["array", "create", "1,2,3,0", "-p", "4", "-m", "+2"],
     "error: argument -m: not an integer: '+2'"),
    (["array", "add", "\u0663"], "error: argument addend: not an integer: "
                                 "'\u0663'"),
    (["array", "add", "3", "--where", "mask=0b1,match=0x1"],
     "error: predicate must be even, odd, all or mask=M,match=V, "
     "got 'mask=0b1,match=0x1'"),
    (["array", "add", "3", "--where", "mask=1,match=+1"],
     "error: predicate must be even, odd, all or mask=M,match=V, "
     "got 'mask=1,match=+1'"),
    (["array", "add", "1", "--where", "mask=3,1"],
     "error: predicate must be even, odd, all or mask=M,match=V, "
     "got 'mask=3,1'"),
    (["encode", "1_0", "--qubits", "4"],
     "error: argument value: not an integer: '1_0'"),
    (["encode", "10", "--qubits", "\u0664"],
     "error: argument --qubits: not an integer: '\u0664'"),
    (["circuit", "print", "qft", "+3"],
     "error: builder 'qft': n must be an integer, got '+3'"),
], ids=["values-underscore", "values-arabic-indic", "values-plus", "p", "m",
        "addend", "mask-prefix", "match-plus", "match-key", "encode-value",
        "encode-qubits", "builder-param"])
def test_integer_arguments_are_ascii_digits(capsys, tmp_path, argv, text):
    # Every integer argument is ASCII -?[0-9]+; nothing is written.
    state = tmp_path / "array.npz"
    run_cli(capsys, "array", "create", "1,2,3,0", "-p", "4",
            "--state", str(state))
    before = state.read_bytes()
    if argv[0] == "array":
        argv = argv + ["--state", str(state)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.splitlines()[-1].endswith(text)
    assert state.read_bytes() == before


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "count")[0] == 2          # missing operand
    assert run_cli(capsys, "frobnicate")[0] == 2     # unknown command
    assert run_cli(capsys)[0] == 2                   # no command


def test_damaged_state_files_load_or_raise_value_error(capsys, tmp_path):
    good = tmp_path / "good.json"
    run_cli(capsys, "array", "create", "1,0", "-p", "1", "--state", str(good))
    data = good.read_bytes()
    rng = random.Random(5)
    damaged = [data[:k] for k in range(0, len(data), 16)]
    for _ in range(500):
        flipped = bytearray(data)
        for _ in range(rng.randint(1, 4)):
            flipped[rng.randrange(len(flipped))] = rng.randrange(256)
        damaged.append(bytes(flipped))
    state = str(tmp_path / "damaged.json")
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
                    amplitudes=[[0.5, 0.0]] * 4)
    code, _, err = run_cli(capsys, *argv)
    assert code in (0, 2, 3), (argv, err)
    assert "Traceback" not in err
    if err.startswith("error: "):
        assert err.count("\n") == 1, (argv, err)
