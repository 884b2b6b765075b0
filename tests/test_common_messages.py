"""Tests for the message registry and generic wire codec."""

from dataclasses import dataclass

import pytest
from hypothesis import given
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

node_ids = st.builds(
    NodeId,
    st.text(min_size=1, max_size=8, alphabet="abcdefgh"),
    st.integers(min_value=1, max_value=65535),
)
message_ids = st.builds(MessageId, node_ids, st.integers(min_value=0, max_value=10**9))


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
