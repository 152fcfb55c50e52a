"""The four closed-loop workloads and the checks on their outputs.

A workload turns a seeded ``random.Random`` into rounds of operations.
Every round of a workload has the same operation shapes in the same
order; only the contents (bits, values, addends, predicates, phase
tables, basis inputs) come from the seed.  So every run does the same
mix of work, and a run that stops at a round boundary has the same
share of each shape whatever its length.

Each operation carries the answer it must produce.  That answer is
worked out here, in plain Python, from the generated inputs alone: the
simulator and ``qabacus.reference`` take no part in it.

An operation has three parts: ``run`` (the timed call into qabacus),
``check`` (untimed, returns True when the reply is right) and the
tally kept by ``execute``.  A wrong reply or a raised exception counts
as a failed operation and never stops the run.
"""

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass, field

import qabacus as qa
from qabacus import cli


@dataclass
class Op:
    """One operation: what to call, with which inputs, and the reply
    it must give."""

    kind: str
    args: tuple
    expect: object


@dataclass
class Tally:
    """Outcome of the operations run so far."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0          # failed because the reply was wrong, not raised
    latencies: list = field(default_factory=list)   # seconds, ok ops only
    busy_s: float = 0.0     # time inside operations, failed ones included

    @classmethod
    def merge(cls, tallies) -> "Tally":
        total = cls()
        for t in tallies:
            total.attempted += t.attempted
            total.failed += t.failed
            total.wrong += t.wrong
            total.latencies.extend(t.latencies)
            total.busy_s += t.busy_s
        return total


def execute(workload, op: Op, tally: Tally, on_start=None, on_end=None) -> None:
    """Run one operation, time it, check it and count it.

    ``on_start``/``on_end`` bracket exactly the timed call; the traced
    run uses them to record spans only inside operations.
    """
    tally.attempted += 1
    if on_start is not None:
        on_start(op)
    t0 = time.perf_counter()
    try:
        reply = workload.run(op)
    except Exception:  # a raised operation is a failed one; keep going
        dt = time.perf_counter() - t0
        if on_end is not None:
            on_end(op)
        tally.busy_s += dt
        tally.failed += 1
        return
    dt = time.perf_counter() - t0
    if on_end is not None:
        on_end(op)
    tally.busy_s += dt
    try:
        ok = workload.check(op, reply)
    except Exception:  # an unreadable reply is a wrong one
        ok = False
    if ok:
        tally.latencies.append(dt)
    else:
        tally.failed += 1
        tally.wrong += 1


class CountWorkload:
    """Each operation is one ``run_count`` call on random bits.

    A round is every (n, target) pair of the workload's widths, in
    order, with fresh random bits for each.
    """

    def __init__(self, widths: range):
        self.widths = widths

    def make_round(self, rng) -> list[Op]:
        ops = []
        for n in self.widths:
            for target in (qa.CountTarget.ONES, qa.CountTarget.ZEROS):
                bits = [rng.getrandbits(1) for _ in range(n)]
                ones = sum(bits)
                expect = ones if target is qa.CountTarget.ONES else n - ones
                ops.append(Op("count", (bits, target), expect))
        return ops

    def run(self, op: Op):
        bits, target = op.args
        return qa.run_count(bits, target)

    def check(self, op: Op, reply) -> bool:
        return isinstance(reply, int) and reply == op.expect

    def close(self) -> None:
        pass


# (index qubits m, data qubits p): m + p runs from 12 to 16.
SESSION_LAYOUTS = ((4, 8), (6, 7), (8, 6), (5, 10), (8, 8))
ADDS_PER_SESSION = 4


def _predicate(rng, m: int) -> tuple[str, int, int]:
    """A random --where text with the (mask, match) it means."""
    kind = rng.choice(("even", "odd", "all", "mask"))
    if kind == "even":
        return "even", 1, 0
    if kind == "odd":
        return "odd", 1, 1
    if kind == "all":
        return "all", 0, 0
    mask = rng.randrange(1, 1 << m)
    match = rng.randrange(1 << m) & mask
    return f"mask={mask},match={match}", mask, match


class ArraySessionWorkload:
    """Each operation is one in-process ``qabacus.cli.main([..., "--json"])``
    call on a state file in ``workdir``.

    A round is one session per layout in SESSION_LAYOUTS: ``array
    create`` with random values, ADDS_PER_SESSION ``array add`` calls
    with a random addend and a random ``--where``, then ``array dump``.
    The expected replies come from a classical model of the array kept
    while the round is generated.
    """

    def __init__(self, workdir: str):
        self.state = os.path.join(workdir, "qarray.json")

    def make_round(self, rng) -> list[Op]:
        ops = []
        state = ["--state", self.state, "--json"]
        for m, p in SESSION_LAYOUTS:
            size = 1 << p
            model = [rng.randrange(size) for _ in range(1 << m)]
            argv = ["array", "create", ",".join(map(str, model)),
                    "-p", str(p), "-m", str(m)] + state
            ops.append(Op("create", tuple(argv),
                          {"command": "array-create",
                           "contents": list(model)}))
            for _ in range(ADDS_PER_SESSION):
                addend = rng.randrange(size)
                where, mask, match = _predicate(rng, m)
                before = list(model)
                model = [(v + addend) % size if (j & mask) == match else v
                         for j, v in enumerate(model)]
                argv = ["array", "add", str(addend), "--where", where] + state
                ops.append(Op("add", tuple(argv),
                              {"command": "array-add", "before": before,
                               "after": list(model)}))
            ops.append(Op("dump", ("array", "dump") + tuple(state),
                          {"command": "array-dump", "contents": list(model)}))
        return ops

    def run(self, op: Op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.args))
        return code, out.getvalue()

    def check(self, op: Op, reply) -> bool:
        code, text = reply
        if code != 0:
            return False
        blob = json.loads(text)
        expect = dict(op.expect)
        if blob.get("command") != expect.pop("command"):
            return False
        result = blob.get("result", {})
        return all(result.get(key) == value for key, value in expect.items())

    def state_file_bytes(self, op: Op, *, done: bool) -> int:
        """Bytes of state file the operation reads (asked before it runs)
        or writes (asked once it is done)."""
        touches = ("create", "add") if done else ("add", "dump")
        return os.path.getsize(self.state) if op.kind in touches else 0

    def close(self) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.state)


QFT_WIDTHS = range(2, 9)
GENERIC_INPUTS = range(3, 8)
GENERIC_ANCILLAS = range(3, 7)


class EstimateWorkload:
    """Each operation builds a phase estimator, serializes it as
    ``circuit print`` does, runs it on a random basis input |j> and
    reads the ancillas.

    A round is ``build_qft_phase_estimator(n)`` for every n in
    QFT_WIDTHS, then ``build_phase_estimator`` over a random m-bit
    dyadic PhaseTable for every (n, m) in GENERIC_INPUTS x
    GENERIC_ANCILLAS.  The readout must be j for the QFT estimator and
    the table numerator at j for the generic one; outside the timed
    call, the serialized text must parse back to the same circuit.
    """

    def make_round(self, rng) -> list[Op]:
        ops = []
        for n in QFT_WIDTHS:
            j = rng.randrange(1 << n)
            ops.append(Op("qft", (n, j), j))
        for n in GENERIC_INPUTS:
            for m in GENERIC_ANCILLAS:
                numerators = [rng.randrange(1 << m) for _ in range(1 << n)]
                table = qa.PhaseTable(
                    n, tuple(qa.DyadicTurn(k, m) for k in numerators))
                j = rng.randrange(1 << n)
                ops.append(Op("generic", (n, m, table, j), numerators[j]))
        return ops

    def run(self, op: Op):
        if op.kind == "qft":
            n, j = op.args
            circuit = qa.build_qft_phase_estimator(n)
        else:
            n, m, table, j = op.args
            circuit = qa.build_phase_estimator(table, m)
        text = qa.serialize(circuit)
        width = circuit.num_qubits
        state = qa.apply_circuit(qa.new_basis_state(width, j), circuit)
        readout = qa.deterministic_outcome(state, qubits=range(n, width))
        return readout, circuit, text

    def check(self, op: Op, reply) -> bool:
        readout, circuit, text = reply
        return readout == op.expect and qa.parse(text) == circuit

    def close(self) -> None:
        pass


def make(name: str, workdir: str):
    """The workload called ``name``; ``workdir`` holds its temporary files."""
    if name == "count-small":
        return CountWorkload(range(1, 11))
    if name == "count-wide":
        return CountWorkload(range(14, 17))
    if name == "array-session":
        return ArraySessionWorkload(workdir)
    if name == "estimate":
        return EstimateWorkload()
    raise ValueError(f"unknown workload {name!r}")
