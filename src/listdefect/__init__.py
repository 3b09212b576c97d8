"""listdefect: distributed list defective graph coloring, simulated.

A deterministic synchronous round engine with per-message bit accounting,
the oriented list defective coloring algorithms built on conflict-family
type tables, recursive color-space reduction, the arbdefective
degree-halving framework, and centralized sequential solvers that serve
as ground-truth oracles.
"""

from .conflict import (
    ConflictParams,
    NodeType,
    TypeTable,
    build_type_table,
    residue_restrict,
    tau_g_conflict,
)
from .errors import (
    BudgetViolation,
    CapExceeded,
    ColorNotInList,
    ConditionViolated,
    FailFast,
    GreedyExhausted,
    InfeasibleParams,
    InvalidGraph,
    InvalidInstance,
    ListDefectError,
    ListTooSmall,
    MissingColor,
    MissingOrientation,
    NodeFailure,
    RoundLimitExceeded,
)
from .generate import make_graph, make_instance
from .graphs import (
    ColoredGraph,
    ColoringOutput,
    LdcInstance,
    ValidityReport,
    check_existence_condition,
    instance_from_json,
    instance_to_json,
    validate_ldc,
)
from .linial import (
    defective_linial,
    linial_coloring,
    linial_palette,
    linial_schedule,
)
from .oldc_basic import OldcConfig, gamma_class_of, multi_defect_oldc, single_defect_oldc
from .oldc_main import ClassBudget, LambdaProfile, MainConfig, lambda_profile, main_oldc, two_phase_oldc
from .oracle import exhaustive_solve, sequential_arbdefective, sequential_ldc
from .reductions import (
    OldcInner,
    OracleInner,
    StageRow,
    arbdefective_subroutine,
    congest_pipeline,
    degree_halving_framework,
    preset_message,
    space_reduced_oldc,
)
from .runtime import (
    ColorListField,
    IndexField,
    Message,
    NodeView,
    Pow2DefectField,
    RawField,
    RoundTrace,
    message_bits,
    network,
    run,
)

__version__ = "0.1.0"
