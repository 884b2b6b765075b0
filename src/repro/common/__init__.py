"""Shared building blocks: identifiers, messages, interfaces, RNG, errors."""

from .errors import (
    CodecError,
    ConfigurationError,
    ProtocolError,
    ReproError,
    SimulationError,
    UnknownNodeError,
)
from .ids import MessageId, NodeId, SequenceGenerator, simulated_node_ids
from .interfaces import Clock, FailureCallback, Host, ProbeCallback, TimerHandle, Transport
from .messages import (
    Message,
    decode_message,
    encode_message,
    register_message,
    registered_message_types,
    wire_name_of,
)
from .rng import SeedSequence, choice_or_none, sample_up_to

__all__ = [
    "CodecError",
    "Clock",
    "ConfigurationError",
    "FailureCallback",
    "Host",
    "Message",
    "MessageId",
    "NodeId",
    "ProbeCallback",
    "ProtocolError",
    "ReproError",
    "SeedSequence",
    "SequenceGenerator",
    "SimulationError",
    "TimerHandle",
    "Transport",
    "UnknownNodeError",
    "choice_or_none",
    "decode_message",
    "encode_message",
    "register_message",
    "registered_message_types",
    "sample_up_to",
    "simulated_node_ids",
    "wire_name_of",
]
