"""Tests for the message registry and generic wire codec."""

import typing
from dataclasses import dataclass, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import CodecError
from repro.common.ids import MessageId, NodeId
from repro.common.messages import (
    Message,
    decode_message,
    encode_message,
    register_message,
    registered_message_types,
    wire_name_of,
)
from repro.core.messages import ForwardJoin, Join, Shuffle
from repro.gossip.messages import GossipData
from repro.protocols import cyclon, scamp, xbot  # noqa: F401  (registers their messages)

node_ids = st.builds(
    NodeId,
    st.text(min_size=1, max_size=8, alphabet="abcdefgh"),
    st.integers(min_value=1, max_value=65535),
)
message_ids = st.builds(MessageId, node_ids, st.integers(min_value=0, max_value=10**9))

#: Every message type the library registers (tests register their own too).
LIBRARY_TYPES = sorted(
    (cls for cls in registered_message_types() if cls.__module__.startswith("repro.")),
    key=lambda cls: cls.__module__ + "." + cls.__name__,
)

_SAMPLES = {
    NodeId: NodeId("h", 9001),
    MessageId: MessageId(NodeId("o", 9000), 7),
    int: 3,
    bool: True,
    str: "d1",
    typing.Any: ("payload", 1, None),
    typing.Optional[NodeId]: NodeId("r", 9002),
    tuple[NodeId, ...]: (NodeId("a", 1), NodeId("b", 2)),
    tuple[tuple[NodeId, int], ...]: ((NodeId("a", 1), 4), (NodeId("b", 2), 0)),
}


def _sample(cls):
    """One instance of ``cls`` with a representative value in every field."""
    hints = typing.get_type_hints(cls)
    return cls(**{field.name: _SAMPLES[hints[field.name]] for field in fields(cls)})


def _json_values():
    scalars = (
        st.none()
        | st.booleans()
        | st.integers(min_value=-(2**70), max_value=2**70)
        | st.floats()
        | st.text(max_size=6)
        | st.sampled_from(["@node", "@msgid", "@dict"])
    )
    return st.recursive(
        scalars,
        lambda children: st.lists(children, max_size=5)
        | st.dictionaries(st.text(max_size=6) | st.just("@dict"), children, max_size=4),
        max_leaves=24,
    )


def _framed_payloads():
    """Arbitrary JSON values, many of them shaped like real frames so the
    decoder gets past the type lookup into field decoding."""
    values = _json_values()
    names = st.sampled_from(
        sorted(wire_name_of(_sample(cls)) for cls in LIBRARY_TYPES)
    ) | values
    field_names = st.sampled_from(
        sorted({field.name for cls in LIBRARY_TYPES for field in fields(cls)})
    ) | st.text(max_size=6)
    frames = st.builds(
        lambda name, body: {"type": name, "fields": body},
        names,
        st.dictionaries(field_names, values, max_size=5) | values,
    )
    return values | frames


class TestRegistry:
    def test_wire_name_of_registered(self):
        assert wire_name_of(Join(NodeId("a", 1))) == "hyparview.join"

    def test_unregistered_type_raises(self):
        @dataclass(frozen=True, slots=True)
        class Rogue(Message):
            x: int

        with pytest.raises(CodecError):
            wire_name_of(Rogue(1))

    def test_duplicate_name_rejected(self):
        with pytest.raises(CodecError):

            @register_message("hyparview.join")
            @dataclass(frozen=True, slots=True)
            class Clash(Message):
                x: int

    def test_non_dataclass_rejected(self):
        with pytest.raises(CodecError):

            @register_message("not.a.dataclass")
            class Bad(Message):
                pass

    def test_all_protocol_messages_registered(self):
        names = {cls.__name__ for cls in registered_message_types()}
        for expected in (
            "Join",
            "ForwardJoin",
            "Neighbor",
            "Disconnect",
            "Shuffle",
            "ShuffleReply",
            "GossipData",
            "CyclonShuffleRequest",
            "ScampSubscribe",
            "PlumtreeGossip",
        ):
            assert expected in names


class TestCodec:
    def test_join_roundtrip(self):
        message = Join(NodeId("host", 1234))
        assert decode_message(encode_message(message)) == message

    def test_forward_join_roundtrip(self):
        message = ForwardJoin(NodeId("n", 1), 6, NodeId("s", 2))
        assert decode_message(encode_message(message)) == message

    def test_shuffle_roundtrip_with_tuple_field(self):
        exchange = (NodeId("a", 1), NodeId("b", 2), NodeId("c", 3))
        message = Shuffle(NodeId("o", 1), NodeId("s", 2), 4, exchange)
        decoded = decode_message(encode_message(message))
        assert decoded == message
        assert isinstance(decoded.exchange, tuple)

    def test_gossip_data_roundtrip_with_payload(self):
        message = GossipData(MessageId(NodeId("o", 1), 7), "payload", 3, NodeId("s", 2))
        assert decode_message(encode_message(message)) == message

    def test_decode_unknown_type(self):
        with pytest.raises(CodecError):
            decode_message({"type": "no.such.message", "fields": {}})

    def test_decode_malformed_payload(self):
        with pytest.raises(CodecError):
            decode_message({"nope": 1})
        with pytest.raises(CodecError):
            decode_message("not a dict")
        # Well-formed JSON of the wrong shape is a corrupt frame too.
        for fields in (3, {"new_node": ["@node", "h", "abc"]}, {"new_node": ["@node", "h", 1e999]}):
            with pytest.raises(CodecError):
                decode_message({"type": "hyparview.join", "fields": fields})
        with pytest.raises(CodecError):
            decode_message({"type": ["x"], "fields": {}})
        deep = 1
        for _ in range(5_000):  # nested past the recursion limit
            deep = [deep]
        with pytest.raises(CodecError, match="nested too deeply"):
            decode_message({"type": "hyparview.join", "fields": {"new_node": deep}})

    def test_decode_field_mismatch(self):
        encoded = encode_message(Join(NodeId("a", 1)))
        encoded["fields"]["extra"] = 1
        with pytest.raises(CodecError):
            decode_message(encoded)
        del encoded["fields"]["extra"]
        del encoded["fields"]["new_node"]
        with pytest.raises(CodecError):
            decode_message(encoded)

    def test_unencodable_value_rejected(self):
        message = GossipData(MessageId(NodeId("o", 1), 0), object(), 0, NodeId("s", 1))
        with pytest.raises(CodecError):
            encode_message(message)

    @given(node_ids, st.integers(min_value=0, max_value=255), node_ids)
    def test_forward_join_roundtrip_property(self, new_node, ttl, sender):
        message = ForwardJoin(new_node, ttl, sender)
        assert decode_message(encode_message(message)) == message

    @given(
        message_ids,
        st.one_of(
            st.none(),
            st.integers(min_value=-(10**9), max_value=10**9),
            st.text(max_size=64),
            st.booleans(),
            st.lists(st.integers(min_value=0, max_value=9), max_size=5),
        ),
        st.integers(min_value=0, max_value=64),
        node_ids,
    )
    def test_gossip_roundtrip_property(self, mid, payload, hops, sender):
        message = GossipData(mid, payload, hops, sender)
        decoded = decode_message(encode_message(message))
        assert decoded.message_id == message.message_id
        assert decoded.hops == message.hops
        assert decoded.sender == message.sender
        # JSON-style lists come back as tuples; values are preserved.
        if isinstance(payload, list):
            assert list(decoded.payload) == payload
        else:
            assert decoded.payload == payload

    @pytest.mark.parametrize(
        "cls", LIBRARY_TYPES, ids=lambda cls: wire_name_of(_sample(cls))
    )
    def test_every_registered_type_roundtrips(self, cls):
        message = _sample(cls)
        decoded = decode_message(encode_message(message))
        assert decoded == message
        assert type(decoded) is cls

    @settings(max_examples=300, deadline=None)
    @given(_framed_payloads())
    def test_decode_returns_a_message_or_raises_codec_error(self, payload):
        try:
            message = decode_message(payload)
        except CodecError:
            return
        assert isinstance(message, Message)
