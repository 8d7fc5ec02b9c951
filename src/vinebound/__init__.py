"""Exact verification toolkit for sharp circumference bounds obtained from
vines on longest paths in 2-connected graphs."""

from .errors import (
    CycleValidationError,
    EarCapError,
    GraphParseError,
    InternalInvariantError,
    NotTwoConnectedError,
    PathValidationError,
    PreconditionError,
    ResourceLimitError,
    SolveBudgetError,
    VineboundError,
    VineSearchCapError,
)
from .graphs import (
    Cycle,
    Graph,
    Path,
    articulation_points,
    is_connected,
    is_two_connected,
    parse_graph,
    require_two_connected,
    serialize_graph,
    two_connectivity_failure,
    validate_cycle,
    validate_path,
)
from .solvers import (
    DEFAULT_LIMITS,
    SolveLimits,
    all_longest_paths,
    longest_cycle,
    longest_cycle_oracle,
    longest_path,
    longest_path_oracle,
)
from .vines import (
    DEFAULT_EAR_CAP,
    DEFAULT_STATE_CAP,
    Ear,
    Vine,
    VineEnumeration,
    VineVerdict,
    enumerate_ears,
    enumerate_vines,
    find_min_vine,
    verify_vine,
)
from .bounds import (
    BoundReport,
    DiracVerdict,
    Inequality1Verdict,
    Inequality2Verdict,
    SegmentDecomposition,
    analyze,
    analyze_all_vines,
    build_q0,
    build_qj,
    build_qstar,
    circumference_bound,
    circumference_bound_squared,
    decompose,
    dirac_check,
    verify_all_longest_paths,
    verify_all_vines,
    verify_vine_against,
)
from .families import (
    ExtremalSpec,
    FuzzConfig,
    FuzzReport,
    InstanceRecord,
    check_graph,
    extremal_cycle_length,
    extremal_graph,
    extremal_path_length,
    extremal_segment_lengths,
    fuzz_campaign,
    random_two_connected,
)

__version__ = "0.1.0"
