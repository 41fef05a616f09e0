"""Discrete-event simulation kernel: engine, faults, RNG, resources, stats."""

from .engine import Engine
from .faults import (
    Fault,
    FaultInjector,
    FaultKind,
    FaultPlan,
    named_plan,
    plan_names,
)
from .resources import HostCpu
from .rng import RngRegistry
from .stats import RateMeter, TimeWeighted

__all__ = [
    "Engine",
    "Fault",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "named_plan",
    "plan_names",
    "HostCpu",
    "RngRegistry",
    "RateMeter",
    "TimeWeighted",
]
