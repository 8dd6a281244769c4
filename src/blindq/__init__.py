"""Discrete-event simulation of preemptive GI/GI/1 queues under blind
scheduling policies, with regenerative estimators and sweep tooling."""

from .distributions import (
    ARRIVAL_SUBSTREAM,
    POLICY_SUBSTREAM,
    SIZE_SUBSTREAM,
    DistributionSpec,
    deterministic,
    exponential_mean,
    format_spec,
    hyperexponential,
    make_stream,
    moments,
    pareto,
    parse_spec,
    sample_block,
    scaled,
    system_load,
    uniform,
)
from .errors import (
    BlindqError,
    EmptyInstanceError,
    InsufficientDataError,
    InternalConsistencyError,
    ParameterError,
    ParseError,
    UnstableSystemError,
)
from .estimators import (
    AnalysisParams,
    ExponentFit,
    INIdentityReport,
    MomentEstimate,
    RatioRow,
    TailSplit,
    check_IN_identity,
    exponent_fit,
    functional_moment,
    holder_diagnostic,
    ratio_curve,
    regen_mean_sojourn,
    tail_split,
)
from .instance import (
    CycleRecord,
    Instance,
    InstanceMeta,
    busy_periods,
    cycles_to_csv,
    generate,
    parse,
    scale,
    scaling_exponent,
    serialize,
)
from .simulator import (
    POLICY_NAMES,
    SimResult,
    brute_force_min_flow,
    jobs_to_csv,
    make_policy,
    sim_cycles_to_csv,
    simulate,
    summary_stats,
)

__version__ = "0.1.0"
