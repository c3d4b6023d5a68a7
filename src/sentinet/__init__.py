"""sentinet: discrete-event simulator of a self-healing, sleep-scheduled
wireless sensor network with guard-to-guard link adaptation."""

from .channel import Frame, MessageKind, RadioConfig, compute_lqi
from .config import LinkControlMode, RunConfig
from .energy import EnergyConfig, EnergyLedger, summarize, tx_cost
from .engine import ClockViolationError, Engine, Event, EventKind
from .metrics import coverage_fraction, sentinel_components
from .protocol import Node, NodeStatus, ProtocolViolationError
from .sim import RunResult, Simulation, healing_report, run_simulation, write_outputs
from .weibull import WeibullParams, hazard_rate, sample_sleep_time, update_probe_rate

__version__ = "0.1.0"

__all__ = [
    "ClockViolationError", "Engine", "EnergyConfig", "EnergyLedger", "Event",
    "EventKind", "Frame", "LinkControlMode", "MessageKind", "Node",
    "NodeStatus", "ProtocolViolationError", "RadioConfig", "RunConfig",
    "RunResult", "Simulation", "WeibullParams", "compute_lqi",
    "coverage_fraction", "hazard_rate", "healing_report", "run_simulation",
    "sample_sleep_time", "sentinel_components", "summarize", "tx_cost",
    "update_probe_rate", "write_outputs",
]
