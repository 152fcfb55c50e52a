import json
from pathlib import Path

from qabacus import build_counter, serialize
from qabacus.cli import main

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


def test_encode_json(capsys):
    code, out, _ = run_cli(capsys, "encode", "5", "--qubits", "3", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["result"]["turns"] == ["1/2", "1/4", "5/8"]
    assert blob["result"]["decoded"] == 5


def test_array_chain_golden(capsys, tmp_path):
    state = str(tmp_path / "array.json")
    transcript = ""
    for argv in (["array", "create", "1,2,0,5", "-p", "3", "--state", state],
                 ["array", "dump", "--state", state],
                 ["array", "add", "1", "--where", "even", "--state", state],
                 ["array", "dump", "--state", state]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == "", argv
        transcript += out
    assert transcript == (GOLDEN_DIR / "cli_array_chain.txt").read_text()


def test_array_trivial_dump(capsys, tmp_path):
    state = str(tmp_path / "array.json")
    run_cli(capsys, "array", "create", "0,0", "-p", "1", "--state", state)
    code, out, _ = run_cli(capsys, "array", "dump", "--state", state)
    assert code == 0
    assert out == "[0,0]\n"


def test_array_add_with_mask_predicate(capsys, tmp_path):
    state = str(tmp_path / "array.json")
    run_cli(capsys, "array", "create", "1,2,3,4", "-p", "3", "--state", state)
    code, out, _ = run_cli(capsys, "array", "add", "2", "--where",
                           "mask=2,match=2", "--state", state)
    assert code == 0
    assert out.splitlines()[1] == "after=[1,2,5,6]"


def test_array_create_rejects_bad_shapes(capsys, tmp_path):
    state = str(tmp_path / "array.json")
    code, _, err = run_cli(capsys, "array", "create", "1,2,3", "-p", "2",
                           "--state", state)
    assert code == 2 and "power of two" in err
    code, _, _ = run_cli(capsys, "array", "create", "1,2", "-p", "2", "-m", "2",
                         "--state", state)
    assert code == 2
    code, _, _ = run_cli(capsys, "array", "create", "1,9", "-p", "2",
                         "--state", state)
    assert code == 2


def test_array_add_rejects_bad_predicate(capsys, tmp_path):
    state = str(tmp_path / "array.json")
    run_cli(capsys, "array", "create", "1,2", "-p", "2", "--state", state)
    code, _, err = run_cli(capsys, "array", "add", "1", "--where", "sometimes",
                           "--state", state)
    assert code == 2 and "predicate" in err


def test_array_missing_state_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "array", "dump", "--state",
                           str(tmp_path / "absent.json"))
    assert code == 2
    assert "array create" in err


def test_array_dump_detects_malformed_state(capsys, tmp_path):
    # a hand-written state that is not of array form: everything uniform
    state = tmp_path / "broken.json"
    state.write_text(json.dumps({
        "index_qubits": 1, "data_qubits": 1,
        "amplitudes": [[0.5, 0.0], [0.5, 0.0], [0.5, 0.0], [0.5, 0.0]],
    }))
    code, _, err = run_cli(capsys, "array", "dump", "--state", str(state))
    assert code == 3
    assert "deterministic" in err


def test_array_dump_rejects_bad_tolerance(capsys, tmp_path):
    state = str(tmp_path / "array.json")
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


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "count")[0] == 2          # missing operand
    assert run_cli(capsys, "frobnicate")[0] == 2     # unknown command
    assert run_cli(capsys)[0] == 2                   # no command
