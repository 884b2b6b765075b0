"""Exception hierarchy for the library.

All library errors derive from :class:`ReproError` so callers can catch one
base class; subsystems raise the most specific subclass that applies.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigurationError(ReproError):
    """A protocol or simulation was configured with invalid parameters."""


class SimulationError(ReproError):
    """The discrete-event engine was driven incorrectly (e.g. time ran
    backwards, or an event was scheduled after shutdown)."""


class UnknownNodeError(ReproError):
    """An operation referenced a node the network has never seen."""


class CodecError(ReproError):
    """A wire message could not be encoded or decoded."""


class ProtocolError(ReproError):
    """A protocol state machine received input that violates its contract."""


class ServiceError(ReproError):
    """The client-facing service layer rejected or failed an operation."""


class RateLimitedError(ServiceError):
    """A client exceeded its publish rate budget (token bucket empty)."""
