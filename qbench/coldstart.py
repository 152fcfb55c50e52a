"""One cold start of a workload, for the ``setup_s`` metric.

Run by ``run.py`` in a fresh interpreter: it imports the workload (and
with it qabacus), makes the first round of inputs from the seed and
runs the first operation.  It prints ``done`` the moment that call
returns, then ``ok`` or ``failed`` once the reply is checked.

    python3 qbench/coldstart.py <workload> <seed>
"""

import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the src path above)


def main(name: str, seed: int) -> int:
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".qbench-tmp-") as workdir:
        workload = workloads.make(name, workdir)
        op = workload.make_round(random.Random(seed))[0]
        tally = workloads.Tally()
        workloads.execute(workload, op, tally,
                          on_end=lambda _op: print("done", flush=True))
        workload.close()
    print("ok" if tally.failed == 0 else "failed", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
