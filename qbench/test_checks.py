"""The benchmark's checks must pass right replies and fail wrong ones.

    python3 -m pytest qbench -q
"""

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from workloads import Tally, execute  # noqa: E402


def tally_of(workload, ops, reply_of) -> Tally:
    """Count ``ops`` as the benchmark does, with ``reply_of(op)`` standing
    in for the call into qabacus."""
    workload.run = reply_of
    tally = Tally()
    for op in ops:
        execute(workload, op, tally)
    return tally


def real_replies(workload, ops):
    return {id(op): workload.run(op) for op in ops}


def assert_all_wrong(tally: Tally, ops) -> None:
    assert tally.attempted == len(ops)
    assert tally.failed == len(ops)
    assert tally.wrong == len(ops)
    assert tally.latencies == []


def test_count_checks():
    workload = workloads.make("count-small", "")
    ops = workload.make_round(random.Random(7))
    replies = real_replies(workload, ops)

    right = tally_of(workload, ops, lambda op: replies[id(op)])
    assert right.failed == 0 and len(right.latencies) == len(ops)

    wrong = tally_of(workload, ops, lambda op: replies[id(op)] + 1)
    assert_all_wrong(wrong, ops)


def test_array_checks(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "SESSION_LAYOUTS", ((2, 3), (3, 2)))
    workload = workloads.make("array-session", str(tmp_path))
    ops = workload.make_round(random.Random(7))
    replies = real_replies(workload, ops)

    right = tally_of(workload, ops, lambda op: replies[id(op)])
    assert right.failed == 0 and len(right.latencies) == len(ops)

    def off_by_one(op):
        code, text = replies[id(op)]
        blob = json.loads(text)
        key = "after" if op.kind == "add" else "contents"
        values = blob["result"][key]
        values[-1] = (values[-1] + 1) % 4
        return code, json.dumps(blob)

    assert_all_wrong(tally_of(workload, ops, off_by_one), ops)
    assert_all_wrong(tally_of(workload, ops, lambda op: (2, "")), ops)


def test_estimate_checks():
    workload = workloads.make("estimate", "")
    ops = workload.make_round(random.Random(7))
    replies = real_replies(workload, ops)

    right = tally_of(workload, ops, lambda op: replies[id(op)])
    assert right.failed == 0 and len(right.latencies) == len(ops)

    def wrong_readout(op):
        readout, circuit, text = replies[id(op)]
        return readout ^ 1, circuit, text

    def lost_gate(op):
        readout, circuit, text = replies[id(op)]
        return readout, circuit, text.rstrip("\n").rsplit("\n", 1)[0] + "\n"

    assert_all_wrong(tally_of(workload, ops, wrong_readout), ops)
    assert_all_wrong(tally_of(workload, ops, lost_gate), ops)


def test_raised_operation_is_failed_and_run_goes_on():
    workload = workloads.make("count-small", "")
    ops = workload.make_round(random.Random(7))

    def boom(op):
        raise ValueError("boom")

    tally = tally_of(workload, ops, boom)
    assert tally.attempted == tally.failed == len(ops)
    assert tally.wrong == 0


def test_tracer_spans_counts_and_uninstall():
    import qabacus
    from tracing import Tracer

    original = qabacus.run_count
    workload = workloads.make("count-small", "")
    ops = workload.make_round(random.Random(7))[:4]
    tracer = Tracer()
    tracer.install()
    try:
        tally = Tally()
        for op in ops:
            execute(workload, op, tally, lambda op: tracer.start_op(),
                    lambda op: tracer.end_op())
    finally:
        tracer.uninstall()
    assert qabacus.run_count is original
    assert tally.failed == 0 and tracer.ops == len(ops)

    names = {tracer.names[row[0]] for row in tracer.spans}
    assert {"op", "counting.run_count", "counting.build_counter",
            "statevector.apply_circuit", "circuit.Circuit"} <= names
    # The counter for n = 1 (m = 1) has 3 gates on 2 qubits; for n = 2
    # (m = 2), 10 gates on 4 qubits.  Each width runs once per target.
    metrics = tracer.metrics()
    assert metrics["statevector.gates_applied"] == (3 + 3 + 10 + 10) / 4
    assert metrics["statevector.amplitude_updates"] == \
        (2 * 3 * 2**2 + 2 * 10 * 2**4) / 4
    assert metrics["statevector.max_qubits"] == 4
    assert metrics["circuit.gates_built_per_applied"] >= 1
    self_ns, incl_ns = tracer.self_and_inclusive_ns()
    assert sum(self_ns.values()) == incl_ns["op"]
