"""Spans and counts for the traced run, recorded from outside qabacus.

``Tracer.install`` wraps every public function of every measured
qabacus module, in every module namespace that binds it, and the
constructors of ``Circuit`` and ``StateVector``.  A wrapper records a
span (name, start, end, parent, operation) only while an operation is
being timed, so the benchmark's own input generation and checks leave
no trace.  Spans stay in memory until the run ends.

A span is named after the module that defines the function, so a call
to ``apply_circuit`` through ``qabacus.counting`` is still a
``statevector`` span.  A module's self time is the time of its spans
minus the time of their child spans.
"""

import functools
import importlib
import inspect
import json
import time

# The measured layers, in the order the per-layer metrics list them.
# ``qabacus.reference`` is left out: only tests use it.
MODULES = ("turns", "circuit", "statevector", "qft", "phase_estimation",
           "counting", "encoding", "qarray", "cli")

# Functions whose inclusive time per operation is reported on its own.
TIMED_FUNCTIONS = (
    "statevector.new_basis_state", "statevector.apply_circuit",
    "statevector.deterministic_outcome", "qarray.build_create",
    "qarray.build_update_add", "qarray.create_state", "qarray.read_all",
)

OP_SPAN = "op"


class Tracer:
    """Spans and counts of the operations run while it is installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # One row per span: [name id, start ns, end ns, parent row, op].
        self.spans: list[list[int]] = []
        self._stack: list[int] = []
        self._op_row = -1
        self.active = False
        self.ops = 0
        self.gates_built = 0
        self.gates_applied = 0
        self.amplitude_updates = 0
        self.max_qubits = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def _open(self, name_id: int) -> int:
        row = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name_id, time.perf_counter_ns(), 0, parent,
                           self.ops - 1])
        self._stack.append(row)
        return row

    def _close(self, row: int) -> None:
        self.spans[row][2] = time.perf_counter_ns()
        self._stack.pop()

    def start_op(self) -> None:
        """Open the root span of the next operation and start recording."""
        self.ops += 1
        self.active = True
        self._op_row = self._open(self._name_id(OP_SPAN))

    def end_op(self) -> None:
        """Close the operation's root span and stop recording."""
        # A raised operation can leave spans open; close them here.
        while self._stack and self._stack[-1] != self._op_row:
            self._close(self._stack[-1])
        self._close(self._op_row)
        self.active = False

    def _wrap(self, func, name: str, after=None):
        name_id = self._name_id(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not self.active:
                return func(*args, **kwargs)
            row = self._open(name_id)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(row)
            if after is not None:
                after(args, kwargs)
            return result

        return traced

    # -- counts --------------------------------------------------------

    def _count_circuit_applied(self, args, kwargs) -> None:
        circuit = args[1] if len(args) > 1 else kwargs["circuit"]
        self.gates_applied += len(circuit.gates)
        self.amplitude_updates += len(circuit.gates) << circuit.num_qubits

    def _count_circuit_built(self, args, kwargs) -> None:
        self.gates_built += len(args[0].gates)

    def _count_state_built(self, args, kwargs) -> None:
        self.max_qubits = max(self.max_qubits, args[0].num_qubits)

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap the measured functions and constructors in place."""
        modules = [importlib.import_module(f"qabacus.{m}") for m in MODULES]
        modules.append(importlib.import_module("qabacus"))
        counters = {"statevector.apply_circuit": self._count_circuit_applied}
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = obj.__module__.removeprefix("qabacus.")
                if layer not in MODULES:
                    continue
                if obj not in wrappers:
                    name = f"{layer}.{obj.__name__}"
                    wrappers[obj] = self._wrap(obj, name, counters.get(name))
                self._set(module, attr, wrappers[obj])
        from qabacus.circuit import Circuit
        from qabacus.statevector import StateVector
        self._set(Circuit, "__init__",
                  self._wrap(Circuit.__init__, "circuit.Circuit",
                             self._count_circuit_built))
        self._set(StateVector, "__init__",
                  self._wrap(StateVector.__init__, "statevector.StateVector",
                             self._count_state_built))

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every wrapped name back."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------

    def self_and_inclusive_ns(self) -> tuple[dict[str, int], dict[str, int]]:
        """Self time per span name, and inclusive time per span name
        counting only spans with no enclosing span of the same name."""
        child_ns = [0] * len(self.spans)
        for name_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns: dict[str, int] = {}
        incl_ns: dict[str, int] = {}
        for row, (name_id, start, end, parent, _) in enumerate(self.spans):
            name = self.names[name_id]
            self_ns[name] = self_ns.get(name, 0) + (end - start) - child_ns[row]
            outer = parent
            while outer >= 0 and self.spans[outer][0] != name_id:
                outer = self.spans[outer][3]
            if outer < 0:
                incl_ns[name] = incl_ns.get(name, 0) + (end - start)
        return self_ns, incl_ns

    def metrics(self) -> dict[str, float]:
        """Per-operation means of the layer metrics (see BENCHMARK.json)."""
        ops = max(self.ops, 1)
        self_ns, incl_ns = self.self_and_inclusive_ns()
        out: dict[str, float] = {}
        for layer in MODULES:
            total = sum(ns for name, ns in self_ns.items()
                        if name.split(".", 1)[0] == layer)
            out[f"{layer}.self_s"] = total / 1e9 / ops
        for name in TIMED_FUNCTIONS:
            out[f"{name}_s"] = incl_ns.get(name, 0) / 1e9 / ops
        out["circuit.gates_built"] = self.gates_built / ops
        out["circuit.gates_built_per_applied"] = (
            self.gates_built / self.gates_applied if self.gates_applied else 0.0)
        out["statevector.gates_applied"] = self.gates_applied / ops
        out["statevector.amplitude_updates"] = self.amplitude_updates / ops
        out["statevector.max_qubits"] = float(self.max_qubits)
        return out

    def write(self, path) -> None:
        """Spans as JSON lines: a header with the names, then one
        ``[name, start_ns, end_ns, parent, op]`` row per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "ops": self.ops}) + "\n")
            for row in self.spans:
                fh.write(json.dumps(row) + "\n")
