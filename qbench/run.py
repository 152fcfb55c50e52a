"""Closed-loop benchmark of qabacus: one caller, one process, no threads,
no think time.

    python3 qbench/run.py --workload count-small --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it runs whole rounds of operations until ``--seconds``
have passed and at least MIN_OPS operations are done, times cold starts
of the workload (``setup_s``) spread over that span, and reports the
end-to-end metrics.  With ``--trace 1`` it runs a fixed number of rounds
twice on the same inputs, first plain and then with the tracer
installed, and reports the per-layer metrics plus both throughputs.
The spans go to ``.qbench-out/`` in the repository root.

Every metric is printed by name and unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  See README.md in this directory.
"""

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from tracing import Tracer  # noqa: E402

try:
    from workloads import Tally, execute, make  # noqa: E402
except ImportError as exc:  # no qabacus sources next to the benchmark
    MISSING = exc
else:
    MISSING = None

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])

# Every timed run completes at least this many operations, so at least
# ten latency samples lie beyond the 90th percentile.
MIN_OPS = 100

# Cold starts per timed run; setup_s is their median.
COLD_STARTS = 7

# Stretches of consecutive rounds a timed run is cut into; each timing
# is the median of its value over the stretches.
SEGMENTS = 5

# Rounds per second of --seconds in each half of a traced run (plain,
# then traced), fixed so that the same seed and --seconds give the same
# operations and therefore the same counts.  At --seconds 25 each half
# takes 4-12 s on a 2-core Xeon.
TRACE_ROUNDS_PER_SECOND = {
    "count-small": 15.0,
    "count-wide": 0.35,
    "array-session": 0.1,
    "estimate": 1.0,
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def cold_start_seconds(name: str, seed: int) -> float:
    """Wall time from launching a fresh interpreter to the end of the
    workload's first operation."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "coldstart.py"), name, str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        t1 = time.perf_counter()
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
        code = proc.wait()
    if first.strip() != "done" or code != 0:
        raise RuntimeError(f"cold start of {name} exited with code {code} "
                           f"after printing {first + rest!r}")
    return t1 - t0


def measure(workload, seed: int, *, seconds: float | None = None,
            rounds: int | None = None, on_start=None, on_end=None,
            between_rounds=None):
    """Run whole rounds from ``seed``, one Tally per round: a fixed
    number, or until ``seconds`` have passed and MIN_OPS operations are
    done.

    The first round is a warm-up that is run and checked but not
    counted, so first-call costs in the process land in setup_s only.
    ``between_rounds(elapsed_s)`` is called after every counted round.
    """
    rng = random.Random(seed)
    for op in workload.make_round(rng):
        execute(workload, op, Tally())
    tallies = []
    attempted = 0
    start = time.perf_counter()
    while True:
        tally = Tally()
        for op in workload.make_round(rng):
            execute(workload, op, tally, on_start, on_end)
        tallies.append(tally)
        attempted += tally.attempted
        elapsed = time.perf_counter() - start
        if between_rounds is not None:
            between_rounds(elapsed)
        if rounds is not None:
            if len(tallies) >= rounds:
                return tallies
        elif elapsed >= seconds and attempted >= MIN_OPS:
            return tallies


def segments(rounds: list, count: int) -> list:
    """``rounds`` merged into ``count`` runs of consecutive rounds (fewer
    if there are fewer rounds)."""
    count = min(count, len(rounds))
    return [Tally.merge(rounds[k * len(rounds) // count:
                               (k + 1) * len(rounds) // count])
            for k in range(count)]


def banded_quantile(values, q: float) -> float:
    """The q-quantile of ``values`` as the mean of the samples ranked
    within q +/- 0.05.

    The operations of a workload come in shapes of very different cost,
    so their latencies fall in separate groups.  A plain order statistic
    that lands in the gap between two groups jumps from one group's
    edge to the other's between runs; the band mixes the two in the
    fixed proportion the rounds give them.
    """
    ranked = sorted(values)
    lo = int(len(ranked) * (q - 0.05))
    hi = max(lo + 1, int(len(ranked) * (q + 0.05)))
    return statistics.fmean(ranked[lo:hi])


def ops_per_s(tally) -> float:
    """Operations completed per second spent inside operations."""
    return len(tally.latencies) / tally.busy_s


def end_to_end(workload, args):
    """The end-to-end metrics of one timed run, and its tallies."""
    setup = []

    def spread_cold_starts(elapsed):
        # Spread the cold starts evenly over the run, so that setup_s
        # samples the machine over the same span as the other metrics.
        while (len(setup) < COLD_STARTS
               and elapsed >= len(setup) * args.seconds / COLD_STARTS):
            setup.append(cold_start_seconds(args.workload, args.seed))

    rounds = measure(workload, args.seed, seconds=args.seconds,
                     between_rounds=spread_cold_starts)
    # Each timing is the median over SEGMENTS stretches of the run, so a
    # burst of host contention, or a spell free of it, that covers less
    # than half of the run does not move the figure.
    parts = segments(rounds, SEGMENTS)
    if not all(part.latencies for part in parts):
        raise RuntimeError("every operation of a stretch of the run failed")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "ops_per_s": statistics.median(ops_per_s(p) for p in parts),
        "latency_p50_s": statistics.median(
            banded_quantile(p.latencies, 0.5) for p in parts),
        "latency_p90_s": statistics.median(
            banded_quantile(p.latencies, 0.9) for p in parts),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": peak_kib / 1024,
    }
    return values, rounds


def per_layer(workload, args):
    """The per-layer metrics of one traced run, and its tallies."""
    rounds = max(1, round(args.seconds * TRACE_ROUNDS_PER_SECOND[args.workload]))
    plain = Tally.merge(measure(workload, args.seed, rounds=rounds))

    tracer = Tracer()
    file_bytes = 0
    counts_io = hasattr(workload, "state_file_bytes")

    def on_start(op):
        nonlocal file_bytes
        if counts_io:
            file_bytes += workload.state_file_bytes(op, done=False)
        tracer.start_op()

    def on_end(op):
        nonlocal file_bytes
        tracer.end_op()
        if counts_io:
            file_bytes += workload.state_file_bytes(op, done=True)

    tracer.install()
    try:
        traced = Tally.merge(measure(workload, args.seed, rounds=rounds,
                                     on_start=on_start, on_end=on_end))
    finally:
        tracer.uninstall()

    out_dir = ROOT / ".qbench-out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl")

    values = tracer.metrics()
    values["cli.state_file_bytes"] = file_bytes / tracer.ops
    values["trace.untraced_ops_per_s"] = ops_per_s(plain)
    values["trace.traced_ops_per_s"] = ops_per_s(traced)
    return values, [plain, traced]


def main(argv=None) -> int:
    args = parse_args(argv)
    if MISSING is not None:
        print(f"error: cannot import the program from {ROOT / 'src'}: {MISSING}",
              file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".qbench-tmp-") as workdir:
        workload = make(args.workload, workdir)
        try:
            if args.trace:
                values, tallies = per_layer(workload, args)
            else:
                values, tallies = end_to_end(workload, args)
        finally:
            workload.close()

    # BENCHMARK.json fixes the names, units and order of the metrics.
    listed = SPEC["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    wrong = sum(t.wrong for t in tallies)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print(f"attempted {attempted} failed {failed} (wrong replies {wrong})")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
