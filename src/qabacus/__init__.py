"""qabacus: phase-based counting, integer encoding and quantum arrays
on a dense state-vector simulator.

numpy is needed only on the dense path and for branch forms of more
than one branch (quantum arrays), and is imported there, on first use.
Importing the package, ``run_count``, both phase estimators run
on a ``new_basis_state`` input, ``serialize``/``parse`` and the
``qabacus count``, ``qabacus circuit print`` and ``qabacus array dump``
commands never import it; ``qabacus encode``, ``array create``,
``array add``, ``create_state``, ``read_all``,
``analytic_fourier_state``, marginals and sampling do.
"""

from .circuit import (
    Circuit, Control, Gate, Hadamard, ParseError, Phase, Swap, X,
    gate_count_report, invert, lower_negative_controls, parse, serialize,
)
from .counting import (
    CountTarget, ancilla_width, build_count_stage, build_counter,
    count_phase_table, run_count,
)
from .encoding import (
    build_encoder, decode_register, decode_signed, encode_signed,
    encode_value, encoding_phase_gates, fourier_phase,
)
from .phase_estimation import (
    PhaseTable, analytic_outcome_probability, build_phase_estimator,
    build_qft_phase_estimator, diagonal_power, is_zero_failure,
    qft_phase_table,
)
from .qarray import (
    ArrayContents, ArrayLayout, IndexPredicate, MalformedArray,
    arithmetic_contents, build_create, build_create_arithmetic,
    build_update_add, create_state, read_all,
)
from .qft import analytic_fourier_state, build_inverse_qft, build_qft
from .statevector import (
    MAX_QUBITS, NotDeterministic, StateVector, apply_circuit, apply_gate,
    deterministic_outcome, marginal_distribution, new_basis_state,
    outcome_distribution, sample_outcomes,
)
from .turns import DyadicTurn, Turn, format_turn, parse_turn

__version__ = "0.1.0"

__all__ = [
    "Circuit", "Control", "Gate", "Hadamard", "ParseError", "Phase", "Swap",
    "X", "gate_count_report", "invert",
    "lower_negative_controls", "parse", "serialize",
    "CountTarget", "ancilla_width", "build_count_stage", "build_counter",
    "count_phase_table", "run_count",
    "build_encoder", "decode_register", "decode_signed", "encode_signed",
    "encode_value", "encoding_phase_gates", "fourier_phase",
    "PhaseTable", "analytic_outcome_probability", "build_phase_estimator",
    "build_qft_phase_estimator", "diagonal_power", "is_zero_failure",
    "qft_phase_table",
    "ArrayContents", "ArrayLayout", "IndexPredicate", "MalformedArray",
    "arithmetic_contents", "build_create", "build_create_arithmetic",
    "build_update_add", "create_state", "read_all",
    "analytic_fourier_state", "build_inverse_qft", "build_qft",
    "MAX_QUBITS", "NotDeterministic", "StateVector", "apply_circuit",
    "apply_gate", "deterministic_outcome", "marginal_distribution",
    "new_basis_state", "outcome_distribution", "sample_outcomes",
    "DyadicTurn", "Turn", "format_turn", "parse_turn",
]
