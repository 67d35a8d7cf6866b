"""fogsim: deterministic fog-cluster simulation with multi-criteria allocation."""

from .engine import Scenario, Simulation, generate_workload, run
from .metrics import RequestRecord, RunTrace, build_report
from .model import (
    Application,
    FogNode,
    MetricsReport,
    NetworkLink,
    NetworkPath,
    PriceBook,
    ReservationState,
    ScoreCard,
    SlaTerms,
    Task,
    Tier,
    UsageLedger,
    validate,
)
from .policies import MigrationDecision, baseline_allocate, handle_deadline_change, mc_allocate, reserve
from .scoring import score_device

__all__ = [
    "Application",
    "FogNode",
    "MetricsReport",
    "MigrationDecision",
    "NetworkLink",
    "NetworkPath",
    "PriceBook",
    "RequestRecord",
    "ReservationState",
    "RunTrace",
    "Scenario",
    "ScoreCard",
    "Simulation",
    "SlaTerms",
    "Task",
    "Tier",
    "UsageLedger",
    "baseline_allocate",
    "build_report",
    "generate_workload",
    "handle_deadline_change",
    "mc_allocate",
    "reserve",
    "run",
    "score_device",
    "validate",
]

__version__ = "0.1.0"
