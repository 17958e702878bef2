"""dramwc: cycle-accurate memory-controller simulation and worst-case
interference bound analysis for bank-partitioned multicore systems."""

from .device import (
    DDR3_1066,
    BankState,
    ChannelState,
    CommandKind,
    DataBurst,
    TimingError,
    TimingParams,
    apply_command,
    command_ready,
    decompose_request,
    earliest_ready,
    make_timing,
)
from .scheduler import (
    Controller,
    MemRequest,
    Mode,
    ScheduleTrace,
    SchedulerConfig,
    SimulationStalled,
    solo_service,
)
from .workload import (
    GeneratorKind,
    GeneratorSpec,
    MshrConfig,
    MshrFile,
    ScenarioError,
    ScenarioSpec,
    StagedRequest,
    Workload,
    build_adversarial,
    run_scenario,
    scenario_from_text,
    scenario_to_text,
)
from .analysis import (
    bounds,
    read_queue_delay,
    write_drain_delay,
)
from .checks import TraceInvariantError, validate_trace
from .keyvalue import InputError

__version__ = "0.1.0"
