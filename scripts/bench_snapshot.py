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
sits in.  Uses only the standard library.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

SEEDS = (11, 12, 13)
COMMAND = ["python3", "qbench/run.py"]


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--root", type=Path, default=REPO,
                        help="checkout whose qbench/run.py runs")
    args = parser.parse_args(argv)
    root = args.root.resolve()
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
