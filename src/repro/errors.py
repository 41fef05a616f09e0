"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while the
subclasses keep failure modes distinguishable.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SimulationError",
    "ScheduleError",
    "NetworkError",
    "AddressError",
    "TraceFormatError",
    "ConfigurationError",
    "CardinalityError",
    "ScorecardError",
    "UnknownMetricError",
    "ScoreValueError",
    "WeightingError",
    "MeasurementError",
]


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class SimulationError(ReproError):
    """Raised for misuse of the discrete-event simulation kernel."""


class ScheduleError(SimulationError):
    """Raised when an event is scheduled in the past or on a stopped engine."""


class NetworkError(ReproError):
    """Base class for errors in the network substrate."""


class AddressError(NetworkError):
    """Raised for malformed IPv4 addresses or exhausted subnets."""


class TraceFormatError(NetworkError):
    """Raised when a serialized packet trace cannot be parsed."""


class ConfigurationError(ReproError):
    """Raised when a component is assembled with invalid options."""


class CardinalityError(ConfigurationError):
    """Raised when IDS subprocess wiring violates the Figure-2 cardinalities."""


class ScorecardError(ReproError):
    """Base class for scorecard-methodology errors."""


class UnknownMetricError(ScorecardError):
    """Raised when a metric name is not present in the catalog in use."""


class ScoreValueError(ScorecardError):
    """Raised when a metric score is outside the discrete 0..4 range."""


class WeightingError(ScorecardError):
    """Raised for invalid requirement sets or weight derivations."""


class MeasurementError(ReproError):
    """Raised when an evaluation experiment cannot produce an observation."""
