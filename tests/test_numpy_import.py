"""numpy is imported only where a dense array is made or read.

Every case runs in a fresh interpreter, because an import made by one
case would hide a missing or an unwanted one in the next.  The exact
path (counting, both phase estimators on a basis input, circuit text)
must give its answer without importing numpy; each dense entry point
must give its answer when it is the first thing to need numpy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN_DIR = Path(__file__).parent / "goldens"

PRELUDE = """\
import contextlib, io, json, sys
import qabacus as qa

def cli_out(*argv):
    from qabacus import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()

"""


def run_fresh(code: str, cwd) -> None:
    """Run PRELUDE plus ``code`` in a new interpreter; fail on any error."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", PRELUDE + code], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


COUNTER3 = (GOLDEN_DIR / "circuit_counter3.txt").read_text()

EXACT_PATH = {
    "import": "from qabacus import cli\n",
    "run_count": """
assert qa.run_count([1, 0, 1, 1]) == 3
assert qa.run_count([1, 0, 1, 1], qa.CountTarget.ZEROS) == 1
assert qa.run_count([1] * 16) == 16
""",
    "cli-count": """
assert cli_out("count", "1011") == (
    "count=3 m=3 gates{cphase=12,h=3,phase=0,swap=0,x=0,total=15}\\n")
""",
    "cli-count-json": """
blob = json.loads(cli_out("count", "0110", "--target", "zeros", "--json"))
assert blob["result"] == {"count": 2, "m": 3}
""",
    "circuit-print": f"""
assert cli_out("circuit", "print", "counter", "3") == {COUNTER3!r}
""",
    "qft-estimator": """
c = qa.build_qft_phase_estimator(5)
state = qa.apply_circuit(qa.new_basis_state(c.num_qubits, 19), c)
assert qa.deterministic_outcome(state, qubits=range(5, c.num_qubits)) == 19
""",
    "generic-estimator": """
table = qa.PhaseTable(3, tuple(qa.DyadicTurn(k, 4)
                               for k in (5, 0, 15, 7, 1, 12, 9, 3)))
c = qa.build_phase_estimator(table, 4)
state = qa.apply_circuit(qa.new_basis_state(c.num_qubits, 6), c)
assert qa.deterministic_outcome(state, qubits=range(3, c.num_qubits)) == 9
""",
    "parse-serialize": """
circuits = [qa.build_counter(4), qa.build_qft_phase_estimator(3),
            qa.build_create(qa.ArrayContents((1, 2, 0, 5)), qa.ArrayLayout(2, 3)),
            qa.Circuit(2, (qa.Phase(qa.Turn(0.1), 0, (qa.Control(1),)),))]
for c in circuits:
    assert qa.parse(qa.serialize(c)) == c
""",
}


@pytest.mark.parametrize("code", EXACT_PATH.values(), ids=EXACT_PATH.keys())
def test_exact_path_never_imports_numpy(code, tmp_path):
    run_fresh(code + 'assert "numpy" not in sys.modules\n', tmp_path)


DENSE_PATH = {
    "analytic_fourier_state": """
import cmath
amps = qa.analytic_fourier_state(5, 3).amplitudes
assert all(abs(a - cmath.exp(2j * cmath.pi * k * 5 / 8) / 8 ** 0.5) < 1e-12
           for k, a in enumerate(amps))
""",
    "dense-constructor": """
assert qa.deterministic_outcome(qa.StateVector(2, [0, 0, 1, 0])) == 2
""",
    "amplitudes": """
assert qa.new_basis_state(2, 1).amplitudes.tolist() == [0, 1, 0, 0]
""",
    "create_state-read_all": """
layout = qa.ArrayLayout(2, 3)
state = qa.create_state(qa.ArrayContents((1, 2, 0, 5)), layout)
assert qa.read_all(state, layout).values == (1, 2, 0, 5)
""",
    "marginal_distribution": """
assert qa.marginal_distribution(qa.new_basis_state(3, 5), [0, 2]) == {3: 1.0}
""",
    "sample_outcomes": """
assert qa.sample_outcomes(qa.new_basis_state(3, 5), 4) == [5] * 4
""",
    "cli-dump-state": """
rows = cli_out("encode", "5", "--qubits", "3", "--dump-state").splitlines()
assert rows[:3] == ["turns=1/2 1/4 5/8", "decoded=5",
                    "000 3.5355339059e-01 0.0000000000e+00 1.2500000000e-01"]
assert [row[:3] for row in rows[2:]] == [f"{i:03b}" for i in range(8)]
""",
}


@pytest.mark.parametrize("code", DENSE_PATH.values(), ids=DENSE_PATH.keys())
def test_dense_entry_points_import_numpy_themselves(code, tmp_path):
    run_fresh(code + 'assert "numpy" in sys.modules\n', tmp_path)


def test_state_file_commands_import_numpy_themselves(tmp_path):
    """array create and array add each in their own interpreter, so that
    building the array state and saving it each meet numpy first."""
    golden = (GOLDEN_DIR / "cli_array_chain.txt").read_text().splitlines(True)
    chain = [(["array", "create", "1,2,0,5", "-p", "3"], golden[:1]),
             (["array", "add", "1", "--where", "even"], golden[2:4])]
    for argv, lines in chain:
        argv += ["--state", str(tmp_path / "array.npz")]
        run_fresh(f"assert cli_out(*{argv!r}) == {''.join(lines)!r}\n"
                  'assert "numpy" in sys.modules\n', tmp_path)


def test_array_dump_never_imports_numpy(tmp_path):
    """array dump prints the stored values without building a state: after
    each step of the array chain golden, run here, a fresh interpreter
    dumps the file, as text and as JSON."""
    from qabacus import cli
    golden = (GOLDEN_DIR / "cli_array_chain.txt").read_text().splitlines(True)
    state = str(tmp_path / "array.npz")
    steps = [(["array", "create", "1,2,0,5", "-p", "3"], golden[1]),
             (["array", "add", "1", "--where", "even"], golden[4])]
    for argv, line in steps:
        assert cli.main(argv + ["--state", state]) == 0
        values = json.loads(line)
        run_fresh(f"assert cli_out('array', 'dump', '--state', {state!r}) "
                  f"== {line!r}\n"
                  f"blob = json.loads(cli_out('array', 'dump', '--json', "
                  f"'--state', {state!r}))\n"
                  f"assert blob['result'] == {{'contents': {values!r}}}\n"
                  'assert "numpy" not in sys.modules\n', tmp_path)
    assert len(golden) == 5
