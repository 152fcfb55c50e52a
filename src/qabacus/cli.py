"""Command-line front door.

Commands: count, encode, array create|add|dump, circuit print.  Output
is line-oriented and stable; --json swaps it for a single JSON object.
Exit codes: 0 ok, 2 usage or input error, 3 determinism violation.

Every integer argument is ASCII ``-?[0-9]+``, the one integer text that
circuit text reads too.  Only ``encode`` and ``array create`` take
``--tolerance``, as only they can read out a dense state; every other
readout is exact.  The array commands keep the array in a values-only
JSON state file: the layout and one value per index.  ``array dump``
prints those values as stored; ``array add`` builds the array state from
them, runs the update and reads the new values back.  A file that is not
such an object, a zip archive or an amplitude file of an older version
included, is refused as a corrupt state file.
"""

import argparse
import contextlib
import functools
import itertools
import json
import os
import sys
from collections.abc import Iterable, Iterator
from typing import NamedTuple

from . import statevector
from .circuit import Circuit, ParseError, gate_count_report, serialize
from .counting import CountTarget, _read_count, build_counter
from .encoding import build_encoder, decode_register, fourier_phase
from .phase_estimation import build_qft_phase_estimator
from .qarray import ArrayContents, ArrayLayout, IndexPredicate, MalformedArray, \
    _array_state, _check_contents, build_create, build_update_add, read_all
from .qft import build_inverse_qft, build_qft
from .statevector import NotDeterministic, StateVector, apply_circuit, \
    new_basis_state
from .turns import _int_from_text, format_turn

__all__ = ["main"]

DEFAULT_STATE_FILE = "qarray.json"

_GATE_KEY_ORDER = ("cphase", "h", "phase", "swap", "x", "total")


def _format_counts(counts: dict[str, int]) -> str:
    inner = ",".join(f"{k}={counts[k]}" for k in _GATE_KEY_ORDER)
    return f"gates{{{inner}}}"


def _format_values(values) -> str:
    return "[" + ",".join(str(v) for v in values) + "]"


class _Reply(NamedTuple):
    """What a command found.  ``main`` prints either ``text``, a sequence
    of output chunks written only in text mode, or the other three fields
    as one JSON object."""

    inputs: dict
    result: dict
    gate_counts: dict
    text: Iterable[str]


def _arg_int(text: str) -> int:
    """An integer option or operand, read by the one integer rule."""
    try:
        return _int_from_text(text, "argument")
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None


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
    mask_text, keyed, match_text = text.partition(",match=")
    if keyed and mask_text.startswith("mask="):
        try:
            mask = _int_from_text(mask_text.removeprefix("mask="), "mask")
            match = _int_from_text(match_text, "match")
        except ValueError:
            pass
        else:
            return IndexPredicate(mask, match)
    raise ValueError(
        f"predicate must be even, odd, all or mask=M,match=V, got {text!r}")


def _parse_values(text: str) -> ArrayContents:
    try:
        return ArrayContents(tuple(_int_from_text(tok, "value")
                                   for tok in text.split(",")))
    except ValueError:
        raise ValueError(f"values must be a comma-separated integer list, got {text!r}") \
            from None


def _dump_state_rows(state: StateVector) -> Iterator[str]:
    probs = state.probabilities()
    for i in (probs > 1e-12).nonzero()[0]:
        a = state.amplitudes[i]
        yield f"{i:0{state.num_qubits}b} {a.real:.10e} {a.imag:.10e} {probs[i]:.10e}\n"


def _save_state(path: str, layout: ArrayLayout, state: StateVector,
                contents: ArrayContents) -> None:
    """Write the layout and ``contents``, the values ``read_all`` found in
    ``state``.  A branch-form state must carry phase 0 on every branch, as
    every state the array commands make does: the file holds no phases."""
    import numpy as np
    branches = state._branches
    if branches is not None and np.any(branches.phase):
        raise ValueError("the array state carries phases, which a values-only "
                         "state file cannot hold")
    # One dumps call encodes the whole object in C; json.dump would hand
    # the file about two chunks per value.
    text = json.dumps({"index_qubits": layout.index_qubits,
                       "data_qubits": layout.data_qubits,
                       "values": contents.values})
    # Write a sibling file and rename it over the old one, so a failed
    # write never leaves a half-written state file behind.
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _load_state(path: str) -> tuple[ArrayLayout, ArrayContents]:
    """The layout and stored values of the state file at ``path``, checked
    as ``array create`` checks its input."""
    # The longest file _save_state writes: 2**(cap - 1) one-digit values,
    # each with its ", ", plus the keys.  Parsing a list of ints takes far
    # more memory than its text, so nothing longer is parsed.
    limit = (3 << (statevector.MAX_QUBITS - 1)) + 64
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        raise ValueError(
            f"no array state at {path!r}; run 'array create' first") from None
    with fh:
        # read(n) allocates n bytes up front, so ask for no more than the
        # file holds; a special file reports size 0 and gets one byte.
        data = fh.read(min(os.fstat(fh.fileno()).st_size, limit) + 1)
    try:
        if len(data) > limit:
            raise ValueError(f"longer than {limit} bytes, the largest state "
                             "a valid layout makes")
        blob = json.loads(data)
        if not isinstance(blob, dict):
            raise ValueError(f"not a JSON object: {type(blob).__name__}")
        layout = ArrayLayout(blob["index_qubits"], blob["data_qubits"])
        values = blob["values"]
        if not isinstance(values, list):
            raise ValueError(
                f"values must be a list, got {type(values).__name__}")
        contents = ArrayContents(tuple(values))
        _check_contents(contents, layout)
    except KeyError as exc:
        raise ValueError(
            f"corrupt state file {path!r}: missing key {exc}") from None
    # Deep nesting exhausts the parser's recursion.
    except (MemoryError, RecursionError, ValueError) as exc:
        raise ValueError(f"corrupt state file {path!r}: {exc}") from None
    return layout, contents


def _cmd_count(args) -> _Reply:
    bits = _parse_bits(args.bits)
    target = CountTarget(args.target)
    counter = build_counter(len(bits), target)
    count = _read_count(counter, bits)
    m = counter.num_qubits - len(bits)
    # The reported counts cover the counting stage (ancilla prep plus the
    # n*m rotations); the fixed inverse-QFT readout is excluded.
    readout = next(pos for pos, label in counter.labels if label == "readout")
    counts = gate_count_report(Circuit(counter.num_qubits, counter.gates[:readout]))
    text = [f"count={count} m={m} {_format_counts(counts)}\n"]
    if args.circuit:
        text.append(serialize(counter))
    return _Reply({"bits": args.bits, "target": target.value},
                  {"count": count, "m": m}, counts, text)


def _cmd_encode(args) -> _Reply:
    d, n = args.value, args.qubits
    circuit = build_encoder(d, n)
    turns = [format_turn(fourier_phase(d, l, n)) for l in range(n - 1, -1, -1)]
    state = apply_circuit(new_basis_state(n, 0), circuit)
    decoded = decode_register(state, args.tolerance)
    text = [f"turns={' '.join(turns)}\n", f"decoded={decoded}\n"]
    if args.dump_state:
        text = itertools.chain(text, _dump_state_rows(state))
    return _Reply({"value": d, "qubits": n}, {"turns": turns, "decoded": decoded},
                  gate_count_report(circuit), text)


def _cmd_array_create(args) -> _Reply:
    contents = _parse_values(args.values)
    # ArrayLayout and build_create reject any shape that does not fit.
    m = args.m if args.m is not None else (len(contents) - 1).bit_length()
    layout = ArrayLayout(m, args.p)
    circuit = build_create(contents, layout)
    state = apply_circuit(new_basis_state(layout.num_qubits, 0), circuit)
    stored = read_all(state, layout, args.tolerance)
    _save_state(args.state, layout, state, stored)
    return _Reply(
        {"values": list(contents.values), "index_qubits": m, "data_qubits": args.p},
        {"contents": list(stored.values), "state_file": args.state},
        gate_count_report(circuit),
        [f"m={m} p={args.p} contents={_format_values(stored.values)}\n"])


def _cmd_array_add(args) -> _Reply:
    layout, before = _load_state(args.state)
    predicate = _parse_predicate(args.where)
    circuit = build_update_add(args.addend, predicate, layout)
    state = apply_circuit(_array_state(before, layout), circuit)
    after = read_all(state, layout)
    _save_state(args.state, layout, state, after)
    return _Reply({"addend": args.addend, "where": args.where},
                  {"before": list(before.values), "after": list(after.values)},
                  gate_count_report(circuit),
                  [f"before={_format_values(before.values)}\n",
                   f"after={_format_values(after.values)}\n"])


def _cmd_array_dump(args) -> _Reply:
    _, contents = _load_state(args.state)
    return _Reply({}, {"contents": list(contents.values)}, {},
                  [_format_values(contents.values) + "\n"])


# Each builder, its parameter names in order, and how many of them are
# required.  The parameter "target" is a CountTarget, every other one an
# integer.
_BUILDERS = {
    "qft": (build_qft, ("n",), 1),
    "iqft": (build_inverse_qft, ("n",), 1),
    "qft-pea": (build_qft_phase_estimator, ("n",), 1),
    "counter": (build_counter, ("n", "target"), 1),
    "encoder": (build_encoder, ("value", "n"), 2),
}


def _builder_param(builder: str, name: str, text: str):
    parse, kind = (CountTarget, "ones or zeros") if name == "target" \
        else (lambda token: _int_from_text(token, name), "an integer")
    try:
        return parse(text)
    except ValueError:
        raise ValueError(
            f"builder {builder!r}: {name} must be {kind}, got {text!r}") from None


def _builder_circuit(builder: str, params: list[str]) -> Circuit:
    if builder not in _BUILDERS:
        raise ValueError(f"unknown builder {builder!r}; "
                         "choose qft, iqft, qft-pea, counter or encoder")
    build, names, required = _BUILDERS[builder]
    if not required <= len(params) <= len(names):
        takes = " or ".join(str(k) for k in range(required, len(names) + 1))
        raise ValueError(
            f"builder {builder!r} takes {takes} argument(s), got {len(params)}")
    return build(*(_builder_param(builder, name, text)
                   for name, text in zip(names, params)))


def _cmd_circuit_print(args) -> _Reply:
    circuit = _builder_circuit(args.builder, args.params)
    text = serialize(circuit)
    return _Reply({"builder": args.builder, "params": args.params},
                  {"text": text}, gate_count_report(circuit), [text])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qabacus",
        description="Phase-based counting, integer encoding and quantum arrays "
                    "on a state-vector simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    def declare(p, name, func, tolerance=False):
        """Give command parser ``p`` the common options, its handler and
        the ``command`` name of its JSON reply."""
        p.add_argument("--json", action="store_true",
                       help="emit one JSON object instead of text")
        if tolerance:
            p.add_argument("--tolerance", type=float, default=1e-9,
                           help="deterministic-readout threshold (default 1e-9)")
        p.set_defaults(func=func, json_command=name)

    p = sub.add_parser("count", help="count 1s or 0s in a bit string")
    p.add_argument("bits", help="input register, most significant qubit first")
    p.add_argument("--target", choices=["ones", "zeros"], default="ones")
    p.add_argument("--circuit", action="store_true",
                   help="also print the serialized counter circuit")
    declare(p, "count", _cmd_count)

    p = sub.add_parser("encode", help="encode an integer as phase shifts")
    p.add_argument("value", type=_arg_int)
    p.add_argument("--qubits", type=_arg_int, required=True)
    p.add_argument("--dump-state", action="store_true",
                   help="print 'bitstring re im prob' rows of the encoded state")
    declare(p, "encode", _cmd_encode, tolerance=True)

    p = sub.add_parser("array", help="create, update or dump a quantum array")
    asub = p.add_subparsers(dest="array_command", required=True)

    c = asub.add_parser("create", help="create an array from a value list")
    c.add_argument("values", help="comma-separated integers, e.g. 1,2,0,5")
    c.add_argument("-p", type=_arg_int, required=True,
                   help="data qubits per element")
    c.add_argument("-m", type=_arg_int, default=None,
                   help="index qubits (default: inferred from the value count)")
    c.add_argument("--state", default=DEFAULT_STATE_FILE,
                   help=f"state file (default {DEFAULT_STATE_FILE})")
    declare(c, "array-create", _cmd_array_create, tolerance=True)

    a = asub.add_parser("add", help="add a constant to selected elements")
    a.add_argument("addend", type=_arg_int)
    a.add_argument("--where", default="all",
                   help="even, odd, all or mask=M,match=V (default all)")
    a.add_argument("--state", default=DEFAULT_STATE_FILE)
    declare(a, "array-add", _cmd_array_add)

    d = asub.add_parser("dump", help="print the stored values")
    d.add_argument("--state", default=DEFAULT_STATE_FILE)
    declare(d, "array-dump", _cmd_array_dump)

    p = sub.add_parser("circuit", help="inspect builder circuits")
    csub = p.add_subparsers(dest="circuit_command", required=True)
    pr = csub.add_parser("print", help="serialize a builder circuit")
    pr.add_argument("builder",
                    help="qft | iqft | qft-pea | counter | encoder")
    pr.add_argument("params", nargs="*", help="builder arguments")
    declare(pr, "circuit-print", _cmd_circuit_print)

    return parser


# Parsing leaves the parser as it was, so one serves every call.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        reply = args.func(args)
    except (NotDeterministic, MalformedArray) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps({"command": args.json_command, "inputs": reply.inputs,
                          "result": reply.result,
                          "gate_counts": reply.gate_counts}, sort_keys=True))
    else:
        sys.stdout.writelines(reply.text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
