"""Run the benchmark over a fixed seed list and keep every run's result.

Runs ``python3 qbench/run.py --workload W --seed S --seconds T --trace 0``
unedited, in the checkout ``--root`` (by default the repository this
script sits in), for each workload named in that checkout's
BENCHMARK.json and each seed in ``SEEDS``; ``T`` is that file's
``run_seconds``.  After these timed runs it runs the same command once
per workload with ``--trace 1`` at the first seed, whose per-layer
metrics (gate counts, self times) go in ``traced``.  Each run's last
standard-output line (the benchmark's JSON result) is kept verbatim,
one entry per run; nothing is averaged.  The file also records the
commands, the CPU count, Python, numpy and the checkout's git sha.

    python3 scripts/bench_snapshot.py --tag after
    python3 scripts/bench_snapshot.py --tag before --root ../parent

Writes ``BENCH_<tag>.json`` in the root of the repository this script
sits in.

``--layers`` instead times the library's layers in this process, with
the ``qabacus`` of the checkout ``--root`` first on the import path, and
prints one line per layer: over the ``estimate`` workload's grid, the
build, ``serialize``, apply plus readout and ``parse`` of each estimator
kind, per round; then one ``run_count`` call at 8 and at 16 bits, the
control that estimator changes should not move; then ``build_create``
and the ``serialize`` of its circuit at each ``ARRAY_LAYOUTS`` (m, p);
then, for the generic estimator at ``WIDE_GENERIC`` (n, m), the build
plus the first read of ``gates``, and ``serialize``.  Each figure is the
best and the median of ``LAYER_REPS`` repetitions.

    python3 scripts/bench_snapshot.py --layers
    python3 scripts/bench_snapshot.py --layers --root ../parent

Uses only the standard library.
"""

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

SEEDS = (11, 12, 13)
COMMAND = ["python3", "qbench/run.py"]

LAYER_REPS = 9
# The estimate workload's grid: the QFT estimator at each width, the
# generic one over a random m-bit dyadic table at each (n, m).
QFT_WIDTHS = range(2, 9)
GENERIC_INPUTS = range(3, 8)
GENERIC_ANCILLAS = range(3, 7)
COUNT_BITS = (8, 16)
COUNT_CALLS = 200
# The array-session workload's five layouts, then one with 2**11 index
# patterns; and a generic estimator with 2**11 input patterns.
ARRAY_LAYOUTS = ((4, 8), (6, 7), (8, 6), (5, 10), (8, 8), (11, 4))
WIDE_GENERIC = (11, 4)


def _run(args: list[str], cwd: Path) -> str:
    return subprocess.run(args, cwd=cwd, check=True, capture_output=True,
                          text=True).stdout


def _host(root: Path) -> dict:
    python = _run(COMMAND[:1] + ["-c", "import sys; print(sys.version)"], root)
    numpy = _run(COMMAND[:1] + ["-c", "import numpy; print(numpy.__version__)"],
                 root)
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": python.strip(),
        "numpy": numpy.strip(),
        "git_sha": _run(["git", "rev-parse", "HEAD"], root).strip(),
        "git_dirty": bool(_run(["git", "status", "--porcelain",
                                "--untracked-files=no"], root).strip()),
    }


def _layers(root: Path) -> None:
    """Print the layer timings of the ``qabacus`` under ``root``."""
    sys.path.insert(0, str(root / "src"))
    import qabacus as qa

    rng = random.Random(1)
    ops = [("qft", n, n, None, rng.randrange(1 << n)) for n in QFT_WIDTHS]
    for n in GENERIC_INPUTS:
        for m in GENERIC_ANCILLAS:
            table = qa.PhaseTable(n, tuple(qa.DyadicTurn(rng.randrange(1 << m), m)
                                           for _ in range(1 << n)))
            ops.append(("generic", n, m, table, rng.randrange(1 << n)))
    inputs = {bits: [[rng.getrandbits(1) for _ in range(bits)]
                     for _ in range(COUNT_CALLS)] for bits in COUNT_BITS}
    arrays = [(qa.ArrayLayout(m, p), qa.ArrayContents(tuple(
        rng.randrange(1 << p) for _ in range(1 << m)))) for m, p in ARRAY_LAYOUTS]
    wide_n, wide_m = WIDE_GENERIC
    wide = qa.PhaseTable(wide_n, tuple(qa.DyadicTurn(rng.randrange(1 << wide_m),
                                                     wide_m)
                                       for _ in range(1 << wide_n)))
    layers = ("build", "serialize", "apply+readout", "parse")
    totals: dict[str, list[float]] = {}
    clock = time.perf_counter
    for _ in range(LAYER_REPS):
        spent = dict.fromkeys(((kind, layer) for kind in ("qft", "generic")
                               for layer in layers), 0.0)
        for kind, n, m, table, j in ops:
            t0 = clock()
            if kind == "qft":
                circuit = qa.build_qft_phase_estimator(n)
            else:
                circuit = qa.build_phase_estimator(table, m)
            t1 = clock()
            text = qa.serialize(circuit)
            t2 = clock()
            state = qa.apply_circuit(qa.new_basis_state(n + m, j), circuit)
            readout = qa.deterministic_outcome(state, qubits=range(n, n + m))
            t3 = clock()
            back = qa.parse(text)
            t4 = clock()
            want = j if kind == "qft" else table.phases[j].numerator << (
                m - table.phases[j].denom_exponent)
            if readout != want or back != circuit:
                raise SystemExit(f"wrong reply for {kind} n={n} m={m} j={j}")
            for layer, dt in zip(layers, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
                spent[kind, layer] += dt
        for (kind, layer), dt in spent.items():
            totals.setdefault(f"{kind} {layer} per round", []).append(dt)
        for bits, calls in inputs.items():
            t0 = clock()
            for call in calls:
                qa.run_count(call)
            totals.setdefault(f"run_count {bits} bits per call", []).append(
                (clock() - t0) / COUNT_CALLS)
        for layout, contents in arrays:
            shape = f"m={layout.index_qubits} p={layout.data_qubits}"
            t0 = clock()
            circuit = qa.build_create(contents, layout)
            t1 = clock()
            qa.serialize(circuit)
            t2 = clock()
            totals.setdefault(f"build_create {shape}", []).append(t1 - t0)
            totals.setdefault(f"serialize create {shape}", []).append(t2 - t1)
        shape = f"n={wide_n} m={wide_m}"
        t0 = clock()
        qa.build_phase_estimator(wide, wide_m).gates
        t1 = clock()
        qa.serialize(qa.build_phase_estimator(wide, wide_m))
        t2 = clock()
        totals.setdefault(f"generic {shape} build+gates", []).append(t1 - t0)
        totals.setdefault(f"generic {shape} serialize", []).append(t2 - t1)
    print(f"qabacus from {root / 'src'}, best and median of {LAYER_REPS}")
    for name, times in totals.items():
        print(f"{name:<36} {min(times) * 1e3:8.3f} ms "
              f"{statistics.median(times) * 1e3:8.3f} ms")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tag")
    parser.add_argument("--layers", action="store_true",
                        help="time the library's layers instead")
    parser.add_argument("--root", type=Path, default=REPO,
                        help="checkout whose qbench/run.py runs, or with "
                        "--layers whose src/qabacus is timed")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if args.layers:
        _layers(root)
        return 0
    if args.tag is None:
        parser.error("--tag is required without --layers")
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = str(spec["run_seconds"])
    out = REPO / f"BENCH_{args.tag}.json"

    workloads = [w["name"] for w in spec["workloads"]]

    def run(workload: str, seed: int, trace: str) -> dict:
        cmd = COMMAND + ["--workload", workload, "--seed", str(seed),
                         "--seconds", seconds, "--trace", trace]
        print(" ".join(cmd), file=sys.stderr, flush=True)
        last = _run(cmd, root).rstrip("\n").rsplit("\n", 1)[-1]
        return {"workload": workload, "seed": seed, "last_line": last}

    runs = [run(w, seed, "0") for w in workloads for seed in SEEDS]
    traced = [run(w, SEEDS[0], "1") for w in workloads]

    snapshot = {
        "tag": args.tag,
        "command": COMMAND + ["--workload", "W", "--seed", "S", "--seconds",
                              seconds, "--trace", "0"],
        "traced_command": COMMAND + ["--workload", "W", "--seed",
                                     str(SEEDS[0]), "--seconds", seconds,
                                     "--trace", "1"],
        "seeds": list(SEEDS),
        "host": _host(root),
        "runs": runs,
        "traced": traced,
    }
    out.write_text(json.dumps(snapshot, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
