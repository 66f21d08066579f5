"""Simulation and verification lab for two-valued FIFO packet buffering.

An online threshold policy (lazy multi-packet preemption, parameter
beta), a greedy baseline, exact offline optima, an executable form of
the policy's accounting argument, and the closed-form competitive-ratio
theory — all on exact rational arithmetic.
"""

from .analysis import (
    AnalysisReport,
    Chain,
    ChargeLedger,
    ChargeRecord,
    CheckResult,
    CheckStatus,
    InstanceAnalysis,
    LedgerError,
    RatioReport,
    RoptTrace,
    analyze,
    build_ledger,
    policy_ratio,
    run_ropt,
    verify_ledger,
    verify_ropt,
)
from .generators import (
    GenConfig,
    adversarial_search,
    demo_instance,
    greedy_blocking,
    random_instance,
)
from .model import (
    ArrivalKey,
    Instance,
    InstanceParseError,
    InvalidInstanceError,
    Packet,
    PacketClass,
    Rat,
    build_instance,
    format_instance,
    format_rat,
    make_packet,
    parse_instance,
    parse_rat,
    total_value,
    validate_instance,
)
from .offline import (
    OptResult,
    brute_force_opt,
    dp_opt,
    feasible,
    opt_containing,
)
from .simulate import (
    EventKind,
    Policy,
    RunTrace,
    StepEvent,
    format_trace,
    run,
    trace_lines,
)
from .theory import (
    DEFAULT_BETA,
    BoundBreakdown,
    competitive_bound,
    discriminant_sign,
    optimal_beta,
    stability_condition,
)

__version__ = "0.1.0"
