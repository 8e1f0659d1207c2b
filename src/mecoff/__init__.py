"""Device-energy-efficient multi-task offloading: models, search, tuning
and a benchmark harness."""

from .allocate import (
    FeasibleSet,
    enumerate_feasible,
    order_units,
)
from .correlation import (
    FilterAction,
    FilterDecision,
    Frame,
    dedup,
    filter_multi,
    filter_single,
    merge_shared_source,
    pearson,
)
from .errors import (
    ConfigError,
    ConstraintViolationError,
    DegenerateSignalError,
    InvalidParameterError,
)
from .harness import SweepRow, SweepSpec, emit, load_rows, run_sweep
from .methods import METHOD_IDS, MethodResult, run_method
from .model import (
    ChannelState,
    DeviceCaps,
    MecCaps,
    Unit,
    local_energy,
    local_latency,
    mec_latency,
    snr,
    tx_energy,
    tx_latency,
    uplink_rate,
)
from .scenario import (
    Scenario,
    ScenarioConfig,
    UserScenario,
    demo_config,
    generate,
    load_config,
    sample_channel,
    save_config,
)
from .schedule import (
    Assignment,
    ConstraintReport,
    Placement,
    ScheduleResult,
    Violation,
    assignment_from_bits,
    check_constraints,
    evaluate,
    local_sequence,
    mec_pipeline,
)
from .tune import (
    TunedSolution,
    min_feasible_frequency,
    min_feasible_power,
    optimize_user,
    tx_energy_total,
)

__version__ = "0.1.0"
