"""Check that the tests catch each mutation of the exact paths.

Each row of MUTATIONS names one exact source snippet under ``src/``, its
replacement, and the tests expected to fail once the snippet is
replaced.  The script copies ``src/`` to a temporary directory, runs
every named test on the unmutated copy (they must pass), then for each
row applies that one edit to the copy, runs
``python -m pytest -q -x`` on the row's tests with the copy first on
PYTHONPATH, and restores the file.  A mutation the tests still pass on
has survived.  Prints one line per row; exits 1 if any mutation
survived and 2 if the unmutated copy fails or a snippet is not found
exactly once.  Uses only the standard library; a tier-1 test checks
that every snippet occurs exactly once in ``src/``.

    python3 scripts/mutation_check.py                 # every row
    python3 scripts/mutation_check.py split-theta ... # the named rows
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent


class Mutation(NamedTuple):
    name: str
    path: str            # the mutated file, relative to src/
    snippet: str         # occurs exactly once in that file
    replacement: str
    tests: tuple[str, ...]   # pytest node ids, relative to the repository


_TRACKING = "qabacus/tracking.py"
_TESTS = "tests/test_tracking.py::"
_NAMED = _TESTS + "test_named_rules"
_CASES = _TESTS + "test_named_cases_go_dense_and_match"
_SPLITS = _TESTS + "test_split_rules"
_CHAINS = _TESTS + "test_array_chains_track_and_match_dense_loop"
_EXIT = _TESTS + "test_one_branch_stops_at_the_first_failed_bit_control"
_ESTIMATORS = (_TESTS + "test_estimators_run_tracked",
               "tests/test_phase_estimation.py::"
               "test_estimator_reads_out_eigenphase_index")
_CIRCUIT = "qabacus/circuit.py"
_WIDTH = "tests/test_circuit.py::test_circuit_width_covers_every_qubit_of_a_gate"
_PATTERNS = "tests/test_circuit.py::test_patterns_enumerate_every_control_tuple"
_SHARED = "tests/test_circuit.py::test_serialize_formats_shared_control_tuples_exactly"
_BLOCK = "tests/test_phase_estimation.py::test_kickback_block_matches_its_gates"
_POW2 = ("tests/test_turns.py::test_times_pow2_principal_value",
         "tests/test_turns.py::test_dyadic_times_pow2_matches_fraction")

MUTATIONS = (
    # The rules of the one-branch tracker.
    Mutation("open-dot-theta", _TRACKING,
             "theta[q] = _add(theta[q], -turn, hit)",
             "theta[q] = _add(theta[q], turn, hit)", (_NAMED,)),
    Mutation("open-dot-global", _TRACKING,
             "                    glob = _add(glob, turn, hit)\n"
             "                    theta[q] = _add(theta[q], -turn, hit)\n",
             "                    theta[q] = _add(theta[q], -turn, hit)\n",
             (_NAMED,)),
    Mutation("x-moves-theta-to-global", _TRACKING,
             "                    glob = glob + theta[q]\n", "", (_NAMED,)),
    Mutation("x-negates-theta", _TRACKING,
             "theta[q] = -theta[q]", "theta[q] = theta[q]", (_NAMED,)),
    Mutation("any-theta-at-h", _TRACKING,
             "if _any(th & (_HALF - 1)):", "if False:", (_CASES,)),
    Mutation("failed-bit-condition", _TRACKING,
             "if one and not index >> t & 1:", "if False:", (_NAMED,)),
    Mutation("early-exit-polarity", _TRACKING,
             "if one and (index >> q & 1) != c.positive:",
             "if one and (index >> q & 1) == c.positive:", (_NAMED, _EXIT)),
    Mutation("end-check", _TRACKING,
             "        if th is not None:\n            raise NotRepresentable",
             "        if False:\n            raise NotRepresentable",
             (_CASES,)),
    # The split rules.
    Mutation("split-on-one-control-and-target", _TRACKING,
             "if superposed and (len(superposed) > 1 or theta[t] is not None):",
             "if len(superposed) > 1:", (_CASES, _CHAINS)),
    Mutation("split-theta", _TRACKING,
             "(glob + th) & _MASK", "glob & _MASK", (_SPLITS,)),
    Mutation("split-scale", "qabacus/statevector.py",
             "(1.0 / math.sqrt(index.size))", "1.0", (_SPLITS, _CHAINS)),
    Mutation("branches-distinct", "qabacus/statevector.py",
             "if (ordered[1:] == ordered[:-1]).any():\n        raise ValueError",
             "if False:\n        raise ValueError",
             ("tests/test_basis_form.py::"
              "test_branch_form_refuses_malformed_arrays",)),
    Mutation("split-control-polarity", _TRACKING,
             "match |= c.positive << c.qubit", "pass", (_SPLITS, _CHAINS)),
    Mutation("hadamard-on-split-qubit", _TRACKING,
             "if branched >> q & 1:", "if False:", (_CASES,)),
    Mutation("branches-collide", _TRACKING,
             "if (ordered[1:] == ordered[:-1]).any():\n"
             "            raise NotRepresentable",
             "if False:\n            raise NotRepresentable",
             (_SPLITS,)),
    Mutation("stale-condition-memo", _TRACKING,
             "if last[0] is not index or last[1:3] != (mask, match):",
             "if last[0] is not index:", (_CHAINS,)),
    # The gate and circuit model.
    Mutation("phase-top-from-target", _CIRCUIT,
             '"_top", max(qubits))', '"_top", target)', (_WIDTH,)),
    Mutation("swap-top-from-a", _CIRCUIT,
             '"_top", max(a, b))', '"_top", a)', (_WIDTH,)),
    Mutation("pattern-polarity", _CIRCUIT,
             "(Control(q, False), Control(q, True))",
             "(Control(q, True), Control(q, False))", (_PATTERNS,)),
    Mutation("patterns-qubit-order", _CIRCUIT,
             "for q in range(first + width - 1, first - 1, -1)",
             "for q in range(first, first + width)", (_PATTERNS,)),
    Mutation("serialize-memo-key", _CIRCUIT,
             "key = id(gate.controls)", "key = len(gate.controls)", (_SHARED,)),
    # The generic estimator's kickback block.
    Mutation("kickback-power-shift", _CIRCUIT,
             "(l, j, phases[j].times_pow2(l))",
             "(l, j, phases[j].times_pow2(l + 1))",
             _ESTIMATORS),
    Mutation("block-gate-count", _CIRCUIT,
             "min(p.denom_exponent, m)", "p.denom_exponent", (_BLOCK,)),
    Mutation("block-control-polarity", _CIRCUIT,
             "f\"{'+' if c.positive else '-'}{c.qubit} \"",
             "f\"{'-' if c.positive else '+'}{c.qubit} \"", (_BLOCK,)),
    Mutation("block-track-pattern", _TRACKING,
             "block.terms((index & ((1 << n) - 1),))",
             "block.terms(((index ^ 1) & ((1 << n) - 1),))", (_BLOCK,)),
    # Readout and the state file.
    Mutation("readout-bit-order", "qabacus/statevector.py",
             "((index >> q) & 1) << bit", "((index >> q) & 1) << q",
             ("tests/test_basis_form.py::test_readout_is_the_same_in_both_forms",)),
    Mutation("multi-branch-readout", "qabacus/statevector.py",
             "p = int(counts[top]) / index.size", "p = 1.0",
             ("tests/test_basis_form.py::test_readout_table_covers_every_branch",)),
    Mutation("save-ignores-phases", "qabacus/cli.py",
             "np.any(branches.phase)", "False",
             ("tests/test_cli.py::test_save_refuses_a_state_with_phases",)),
    Mutation("state-values-list", "qabacus/cli.py",
             "if not isinstance(values, list):", "if False:",
             ("tests/test_cli.py::test_array_rejects_corrupt_state_files",)),
    Mutation("state-size-bound", "qabacus/cli.py",
             "if len(data) > limit:", "if False:",
             ("tests/test_cli.py::test_state_file_size_bound",)),
    Mutation("state-check-contents", "qabacus/cli.py",
             "_check_contents(contents, layout)", "None",
             ("tests/test_cli.py::test_array_dump_detects_malformed_state",)),
    # Materialization, the Fourier adder and the array readout.
    Mutation("one-branch-phase-factor", "qabacus/statevector.py",
             "amps[index] = DyadicTurn(\n"
             "                    phase, MAX_DYADIC_EXPONENT).phase_factor()",
             "amps[index] = 1.0",
             (_TESTS + "test_random_circuits_match_reference",)),
    Mutation("adder-drops-controls", "qabacus/qft.py",
             "register.start + l,\n                       controls)",
             "register.start + l,\n                       ())",
             ("tests/test_counting.py::test_counter_basis_examples",)),
    Mutation("adder-ignores-register-start", "qabacus/qft.py",
             "_fourier_turn(value, width - l), register.start + l,",
             "_fourier_turn(value, width - l), l,",
             ("tests/test_counting.py::test_counter_basis_examples",)),
    Mutation("predicate-polarity", "qabacus/qarray.py",
             "bool(predicate.match >> b & 1)", "not predicate.match >> b & 1",
             ("tests/test_qarray.py::test_update_even_positions",)),
    Mutation("read-all-mass-before-peak", "qabacus/qarray.py",
             "if light[j]:",
             "if not peak[j] < (1.0 - tolerance) * mass[j]:",
             ("tests/test_qarray.py::test_read_all_matches_plain_loop",)),
    Mutation("branch-values-order", "qabacus/qarray.py",
             "values[branches.index >> p] = ", "values[:] = ",
             ("tests/test_qarray.py::test_create_read_roundtrip_exhaustive_2x2",)),
    # Power-of-two scaling of a turn.
    Mutation("times-pow2-clamp", "qabacus/turns.py",
             "k = max(self._denom_exponent - exponent, 0)",
             "k = self._denom_exponent - exponent", _POW2),
    Mutation("times-pow2-shift", "qabacus/turns.py",
             "k = max(self._denom_exponent - exponent, 0)",
             "k = max(self._denom_exponent - exponent - 1, 0)", _POW2),
)


def _passes(src: Path, tests, workdir: Path) -> bool:
    """Whether the tests pass with ``src`` first on PYTHONPATH.  They run
    in ``workdir``, so hypothesis keeps the failing examples of mutated
    code out of the repository's example database; no bytecode is
    written, so a restored file is never shadowed by a stale one."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *(str(REPO / test) for test in tests)],
        cwd=workdir, env=env, capture_output=True, text=True)
    return done.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("names", nargs="*", help="rows to run (default all)")
    args = parser.parse_args(argv)
    rows = [m for m in MUTATIONS if not args.names or m.name in args.names]
    unknown = set(args.names) - {m.name for m in MUTATIONS}
    if unknown:
        parser.error(f"unknown rows: {', '.join(sorted(unknown))}")
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(REPO / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        tests = sorted({test for m in rows for test in m.tests})
        if not _passes(src, tests, Path(tmp)):
            print("the unmutated copy fails its tests")
            return 2
        survivors = []
        for m in rows:
            path = src / m.path
            text = path.read_text()
            if text.count(m.snippet) != 1:
                print(f"{m.name}: snippet occurs {text.count(m.snippet)} "
                      f"times in {m.path}")
                return 2
            path.write_text(text.replace(m.snippet, m.replacement))
            try:
                t0 = time.perf_counter()
                caught = not _passes(src, m.tests, Path(tmp))
            finally:
                path.write_text(text)
            print(f"{'caught  ' if caught else 'SURVIVED'} {m.name} "
                  f"({time.perf_counter() - t0:.1f} s)", flush=True)
            if not caught:
                survivors.append(m.name)
    print(f"{len(rows) - len(survivors)} of {len(rows)} caught in "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
