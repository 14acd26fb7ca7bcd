"""Deterministic packet pacing: ring, clock, sync, scheduling and simulation."""

from .clock import DualClock, EphcClock, MergeAction, merge_estimate
from .engine import (
    BeLoad,
    Bridge,
    FlowDef,
    GateWindow,
    PacketRecord,
    Scenario,
    SimResult,
    inter_arrival_jitter,
    pdv,
    run,
)
from .errors import (
    DegenerateInterval,
    InsertError,
    InsufficientSamples,
    InvalidConfig,
    NoSlotAvailable,
    NotPlaceholder,
    OutOfWindow,
    Overflow,
    OwnershipViolation,
    PacersimError,
    ParseError,
    PayloadTooLarge,
    RingUnderrun,
    ServoDiverged,
    ValidationError,
)
from .insertion import InsertMode, OutboundPacket, insert_best_effort, target_counter, try_insert
from .ptp import (
    PtpConfig,
    PtpErrorModel,
    SyncTrace,
    compute_offset,
    delta_drift,
    delta_ts,
    estimate_freq_ratio,
    ma_filter,
    run_sync_sim,
)
from .ring import (
    BEST_EFFORT,
    DmaRing,
    RingConfig,
    SlotState,
    TransmittedRecord,
    relative_throughput,
)
from .scheduling import (
    FlowSpec,
    GeneratorParams,
    ProblemInstance,
    Solution,
    SolveResult,
    SolveStatus,
    SweepPoint,
    enumerate_feasible,
    generate_instance,
    generate_instances,
    hyperperiod,
    solve,
    sweep_schedulability,
    utilization,
    validate,
)
from .traffic import BeQueue, RtQueue, ServicePolicy, ServiceReport, service

__version__ = "0.1.0"
