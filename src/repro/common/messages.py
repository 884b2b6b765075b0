"""Message base class, registry and generic wire codec.

Every protocol message in the library is a frozen dataclass deriving from
:class:`Message`.  Registering the class with :func:`register_message` gives
it two things:

* **dispatch** — simulated nodes and the asyncio runtime route incoming
  messages to protocol handlers by message type;
* **a wire format** — the runtime serialises messages to JSON lines using
  the dataclass fields, with :class:`~repro.common.ids.NodeId` and
  :class:`~repro.common.ids.MessageId` values tagged so they round-trip.

The simulator never serialises messages (objects are passed by reference,
which keeps the event loop fast); only the asyncio runtime pays the codec
cost.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Iterable, Type, TypeVar

from .errors import CodecError
from .ids import MessageId, NodeId

_NODE_TAG = "@node"
_MSGID_TAG = "@msgid"


class Message:
    """Base class for all protocol messages.

    Subclasses are frozen dataclasses; the sender, when a protocol needs it,
    is an explicit field (mirroring Algorithm 1 in the paper, where messages
    carry ``myself``).
    """

    __slots__ = ()


M = TypeVar("M", bound=Message)

_REGISTRY_BY_NAME: dict[str, Type[Message]] = {}
_REGISTRY_BY_TYPE: dict[Type[Message], str] = {}


def register_message(wire_name: str) -> Callable[[Type[M]], Type[M]]:
    """Class decorator registering a message type under ``wire_name``.

    Names must be unique across the whole library; a collision raises
    :class:`CodecError` at import time, which is the earliest possible
    failure point.
    """

    def decorator(cls: Type[M]) -> Type[M]:
        if wire_name in _REGISTRY_BY_NAME:
            raise CodecError(f"duplicate message wire name: {wire_name!r}")
        if not dataclasses.is_dataclass(cls):
            raise CodecError(f"{cls.__name__} must be a dataclass to be registered")
        if cls.__dictoffset__:
            # The simulator allocates millions of message instances per
            # figure; a per-instance __dict__ roughly doubles that memory
            # traffic.  Slots are an enforced invariant, not a convention:
            # declare messages with @dataclass(frozen=True, slots=True).
            raise CodecError(
                f"{cls.__name__} must use __slots__ (declare with "
                f"@dataclass(frozen=True, slots=True))"
            )
        _REGISTRY_BY_NAME[wire_name] = cls
        _REGISTRY_BY_TYPE[cls] = wire_name
        return cls

    return decorator


def wire_name_of(message: Message) -> str:
    """Return the registered wire name for a message instance."""
    try:
        return _REGISTRY_BY_TYPE[type(message)]
    except KeyError:
        raise CodecError(f"unregistered message type: {type(message).__name__}") from None


def registered_message_types() -> Iterable[Type[Message]]:
    """All message classes known to the registry (useful for tests)."""
    return tuple(_REGISTRY_BY_NAME.values())


def encode_value(value: Any) -> Any:
    """Encode one field value (a broadcast payload, say) into a
    JSON-compatible value; raises :class:`CodecError` on a type the wire
    cannot carry."""
    if isinstance(value, NodeId):
        return [_NODE_TAG, value.host, value.port]
    if isinstance(value, MessageId):
        return [_MSGID_TAG, value.origin.host, value.origin.port, value.sequence]
    if isinstance(value, (list, tuple)):
        return [encode_value(item) for item in value]
    if isinstance(value, dict):
        encoded = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise CodecError(f"dict payload keys must be strings, got {key!r}")
            encoded[key] = encode_value(item)
        return {"@dict": encoded}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise CodecError(f"cannot encode value of type {type(value).__name__}: {value!r}")


def _decode_value(value: Any) -> Any:
    if isinstance(value, list):
        if len(value) == 3 and value[0] == _NODE_TAG:
            return NodeId(str(value[1]), int(value[2]))
        if len(value) == 4 and value[0] == _MSGID_TAG:
            return MessageId(NodeId(str(value[1]), int(value[2])), int(value[3]))
        # Message dataclasses declare their sequence fields as tuples (they
        # are frozen); decoding to tuples makes encode/decode a round trip.
        return tuple(_decode_value(item) for item in value)
    if isinstance(value, dict):
        inner = value.get("@dict")
        if isinstance(inner, dict):
            return {key: _decode_value(item) for key, item in inner.items()}
        raise CodecError(f"malformed dict payload: {value!r}")
    return value


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`; raises :class:`CodecError` on any
    malformed input, as :func:`decode_message` does."""
    try:
        return _decode_value(value)
    except RecursionError as exc:
        raise CodecError("value nested too deeply") from exc
    except (OverflowError, TypeError, ValueError) as exc:
        raise CodecError("malformed value") from exc


def encode_message(message: Message) -> dict:
    """Encode a registered message into a JSON-compatible dict."""
    fields = {}
    for field in dataclasses.fields(message):
        fields[field.name] = encode_value(getattr(message, field.name))
    return {"type": wire_name_of(message), "fields": fields}


def decode_message(payload: dict) -> Message:
    """Inverse of :func:`encode_message`.

    Raises :class:`CodecError` on unknown types or malformed payloads —
    including well-formed JSON of the wrong shape (``"fields": 3``, an
    unhashable type name, a non-numeric or infinite port, a field nested
    deeper than the interpreter's recursion limit) — rather than letting
    the underlying exception escape, so transport code can treat any
    :class:`CodecError` as a corrupt frame.
    """
    try:
        wire_name = payload["type"]
        cls = _REGISTRY_BY_NAME.get(wire_name)
        if cls is None:
            raise CodecError(f"unknown message wire name: {wire_name!r}")
        decoded = {name: _decode_value(value) for name, value in payload["fields"].items()}
        expected = {field.name for field in dataclasses.fields(cls)}
        if set(decoded) != expected:
            raise CodecError(
                f"field mismatch for {wire_name!r}: got {sorted(decoded)}, "
                f"expected {sorted(expected)}"
            )
        # Registered messages use plain typed fields, so tuples arrive as lists;
        # the dataclasses involved accept sequences for their collection fields.
        return cls(**decoded)
    except CodecError:
        raise
    except RecursionError as exc:
        # No repr of the payload here: it is as deep as what just overflowed.
        raise CodecError("message payload nested too deeply") from exc
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise CodecError(f"malformed message payload: {payload!r}") from exc
