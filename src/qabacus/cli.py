"""Command-line front door.

Commands: count, encode, array create|add|dump, circuit print.  Output
is line-oriented and stable; --json swaps it for a single JSON object.
Exit codes: 0 ok, 2 usage or input error, 3 determinism violation.
"""

import argparse
import json
import sys

from .circuit import ParseError, gate_count_report, serialize
from .counting import CountTarget, ancilla_width, build_count_stage, \
    build_counter, run_count
from .encoding import build_encoder, decode_register, encode_value, \
    fourier_phase
from .phase_estimation import build_qft_phase_estimator
from .qarray import ArrayContents, ArrayLayout, IndexPredicate, MalformedArray, \
    build_create, build_update_add, read_all
from .qft import build_inverse_qft, build_qft
from .statevector import NotDeterministic, StateVector, apply_circuit, \
    new_basis_state
from .turns import format_turn

__all__ = ["main"]

DEFAULT_STATE_FILE = "qarray.json"

_GATE_KEY_ORDER = ("cphase", "h", "phase", "swap", "x", "total")


def _format_counts(counts: dict[str, int]) -> str:
    inner = ",".join(f"{k}={counts[k]}" for k in _GATE_KEY_ORDER)
    return f"gates{{{inner}}}"


def _format_values(values) -> str:
    return "[" + ",".join(str(v) for v in values) + "]"


def _emit_json(command: str, inputs: dict, result: dict,
               gate_counts: dict) -> None:
    blob = {"command": command, "inputs": inputs, "result": result,
            "gate_counts": gate_counts}
    print(json.dumps(blob, sort_keys=True))


def _parse_bits(text: str) -> list[int]:
    if not text or any(c not in "01" for c in text):
        raise ValueError(f"bit string must be over {{0,1}}, got {text!r}")
    # Text reads most significant qubit first; qubit k is bits[k].
    return [int(c) for c in reversed(text)]


def _parse_predicate(text: str) -> IndexPredicate:
    if text == "even":
        return IndexPredicate.even()
    if text == "odd":
        return IndexPredicate.odd()
    if text == "all":
        return IndexPredicate.all_indices()
    if text.startswith("mask="):
        try:
            mask_part, match_part = text.split(",")
            mask = int(mask_part.removeprefix("mask="), 0)
            match = int(match_part.removeprefix("match="), 0)
        except ValueError:
            raise ValueError(
                f"predicate must be even, odd, all or mask=M,match=V, got {text!r}"
            ) from None
        return IndexPredicate(mask, match)
    raise ValueError(
        f"predicate must be even, odd, all or mask=M,match=V, got {text!r}")


def _parse_values(text: str) -> ArrayContents:
    try:
        return ArrayContents(tuple(int(tok) for tok in text.split(",")))
    except ValueError:
        raise ValueError(f"values must be a comma-separated integer list, got {text!r}") \
            from None


def _dump_state_rows(state: StateVector) -> list[str]:
    rows = []
    probs = state.probabilities()
    for i in range(state.dim):
        if probs[i] <= 1e-12:
            continue
        a = state.amplitudes[i]
        bits = format(i, f"0{state.num_qubits}b")
        rows.append(f"{bits} {a.real:.10e} {a.imag:.10e} {probs[i]:.10e}")
    return rows


def _save_state(path: str, layout: ArrayLayout, state: StateVector) -> None:
    blob = {
        "index_qubits": layout.index_qubits,
        "data_qubits": layout.data_qubits,
        "amplitudes": [[a.real, a.imag] for a in state.amplitudes],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(blob, fh)
        fh.write("\n")


def _load_state(path: str) -> tuple[ArrayLayout, StateVector]:
    try:
        with open(path, encoding="utf-8") as fh:
            blob = json.load(fh)
    except FileNotFoundError:
        raise ValueError(
            f"no array state at {path!r}; run 'array create' first") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"corrupt state file {path!r}: {exc}") from None
    try:
        layout = ArrayLayout(blob["index_qubits"], blob["data_qubits"])
        amps = [complex(re, im) for re, im in blob["amplitudes"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"corrupt state file {path!r}: {exc}") from None
    return layout, StateVector(layout.num_qubits, amps)


def _cmd_count(args) -> int:
    bits = _parse_bits(args.bits)
    target = CountTarget(args.target)
    n = len(bits)
    m = ancilla_width(n)
    count = run_count(bits, target, tolerance=args.tolerance)
    # The reported counts cover the counting stage (ancilla prep plus the
    # n*m rotations); the fixed inverse-QFT readout is excluded.
    counts = gate_count_report(build_count_stage(n, target))
    if args.json:
        _emit_json("count", {"bits": args.bits, "target": target.value},
                   {"count": count, "m": m}, counts)
        return 0
    print(f"count={count} m={m} {_format_counts(counts)}")
    if args.circuit:
        print(serialize(build_counter(n, target)), end="")
    return 0


def _cmd_encode(args) -> int:
    d, n = args.value, args.qubits
    circuit = build_encoder(d, n)
    turns = [format_turn(fourier_phase(d, l, n)) for l in range(n - 1, -1, -1)]
    state = encode_value(d, n)
    decoded = decode_register(state, args.tolerance)
    if args.json:
        _emit_json("encode", {"value": d, "qubits": n},
                   {"turns": turns, "decoded": decoded},
                   gate_count_report(circuit))
        return 0
    print(f"turns={' '.join(turns)}")
    print(f"decoded={decoded}")
    if args.dump_state:
        for row in _dump_state_rows(state):
            print(row)
    return 0


def _cmd_array_create(args) -> int:
    contents = _parse_values(args.values)
    count = len(contents)
    if args.m is not None:
        m = args.m
        if count != 1 << m:
            raise ValueError(
                f"{count} values do not fill 2**{m} slots (pad with zeros)")
    else:
        m = (count - 1).bit_length()
        if count != 1 << m or count < 2:
            raise ValueError(
                f"value count {count} is not a power of two >= 2; "
                "pad with zeros or pass -m")
    layout = ArrayLayout(m, args.p)
    circuit = build_create(contents, layout)
    state = apply_circuit(new_basis_state(layout.num_qubits, 0), circuit)
    stored = read_all(state, layout, args.tolerance)
    _save_state(args.state, layout, state)
    counts = gate_count_report(circuit)
    if args.json:
        _emit_json("array-create",
                   {"values": list(contents.values), "index_qubits": m,
                    "data_qubits": args.p},
                   {"contents": list(stored.values), "state_file": args.state},
                   counts)
        return 0
    print(f"m={m} p={args.p} contents={_format_values(stored.values)}")
    return 0


def _cmd_array_add(args) -> int:
    layout, state = _load_state(args.state)
    predicate = _parse_predicate(args.where)
    before = read_all(state, layout, args.tolerance)
    circuit = build_update_add(args.addend, predicate, layout)
    state = apply_circuit(state, circuit)
    after = read_all(state, layout, args.tolerance)
    _save_state(args.state, layout, state)
    if args.json:
        _emit_json("array-add",
                   {"addend": args.addend, "where": args.where},
                   {"before": list(before.values), "after": list(after.values)},
                   gate_count_report(circuit))
        return 0
    print(f"before={_format_values(before.values)}")
    print(f"after={_format_values(after.values)}")
    return 0


def _cmd_array_dump(args) -> int:
    layout, state = _load_state(args.state)
    contents = read_all(state, layout, args.tolerance)
    if args.json:
        _emit_json("array-dump", {},
                   {"contents": list(contents.values)}, {})
        return 0
    print(_format_values(contents.values))
    return 0


def _builder_circuit(name: str, params: list[str]):
    def want(k):
        if len(params) != k:
            raise ValueError(f"builder {name!r} takes {k} argument(s), got {len(params)}")

    if name == "qft":
        want(1)
        return build_qft(int(params[0]))
    if name == "iqft":
        want(1)
        return build_inverse_qft(int(params[0]))
    if name == "qft-pea":
        want(1)
        return build_qft_phase_estimator(int(params[0]))
    if name == "counter":
        if len(params) not in (1, 2):
            raise ValueError(f"builder 'counter' takes N [ones|zeros], got {params}")
        target = CountTarget(params[1]) if len(params) == 2 else CountTarget.ONES
        return build_counter(int(params[0]), target)
    if name == "encoder":
        want(2)
        return build_encoder(int(params[0]), int(params[1]))
    raise ValueError(
        f"unknown builder {name!r}; choose qft, iqft, qft-pea, counter or encoder")


def _cmd_circuit_print(args) -> int:
    circuit = _builder_circuit(args.builder, args.params)
    text = serialize(circuit)
    if args.json:
        _emit_json("circuit-print",
                   {"builder": args.builder, "params": args.params},
                   {"text": text}, gate_count_report(circuit))
        return 0
    print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qabacus",
        description="Phase-based counting, integer encoding and quantum arrays "
                    "on a state-vector simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, tolerance=True):
        p.add_argument("--json", action="store_true",
                       help="emit one JSON object instead of text")
        if tolerance:
            p.add_argument("--tolerance", type=float, default=1e-9,
                           help="deterministic-readout threshold (default 1e-9)")

    p = sub.add_parser("count", help="count 1s or 0s in a bit string")
    p.add_argument("bits", help="input register, most significant qubit first")
    p.add_argument("--target", choices=["ones", "zeros"], default="ones")
    p.add_argument("--circuit", action="store_true",
                   help="also print the serialized counter circuit")
    add_common(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("encode", help="encode an integer as phase shifts")
    p.add_argument("value", type=int)
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--dump-state", action="store_true",
                   help="print 'bitstring re im prob' rows of the encoded state")
    add_common(p)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("array", help="create, update or dump a quantum array")
    asub = p.add_subparsers(dest="array_command", required=True)

    c = asub.add_parser("create", help="create an array from a value list")
    c.add_argument("values", help="comma-separated integers, e.g. 1,2,0,5")
    c.add_argument("-p", type=int, required=True, help="data qubits per element")
    c.add_argument("-m", type=int, default=None,
                   help="index qubits (default: inferred from the value count)")
    c.add_argument("--state", default=DEFAULT_STATE_FILE,
                   help=f"state file (default {DEFAULT_STATE_FILE})")
    add_common(c)
    c.set_defaults(func=_cmd_array_create)

    a = asub.add_parser("add", help="add a constant to selected elements")
    a.add_argument("addend", type=int)
    a.add_argument("--where", default="all",
                   help="even, odd, all or mask=M,match=V (default all)")
    a.add_argument("--state", default=DEFAULT_STATE_FILE)
    add_common(a)
    a.set_defaults(func=_cmd_array_add)

    d = asub.add_parser("dump", help="print the stored values")
    d.add_argument("--state", default=DEFAULT_STATE_FILE)
    add_common(d)
    d.set_defaults(func=_cmd_array_dump)

    p = sub.add_parser("circuit", help="inspect builder circuits")
    csub = p.add_subparsers(dest="circuit_command", required=True)
    pr = csub.add_parser("print", help="serialize a builder circuit")
    pr.add_argument("builder",
                    help="qft | iqft | qft-pea | counter | encoder")
    pr.add_argument("params", nargs="*", help="builder arguments")
    add_common(pr, tolerance=False)
    pr.set_defaults(func=_cmd_circuit_print)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except (NotDeterministic, MalformedArray) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
