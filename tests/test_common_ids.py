"""Unit tests for node and message identifiers."""

import copy
import json
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.common.ids import MessageId, NodeId, SequenceGenerator, simulated_node_ids
from repro.common.messages import decode_message, encode_message
from repro.experiments.reporting import json_safe
from repro.gossip.messages import GossipData


class TestNodeId:
    def test_structural_equality(self):
        assert NodeId("a", 1) == NodeId("a", 1)
        assert NodeId("a", 1) != NodeId("a", 2)
        assert NodeId("a", 1) != NodeId("b", 1)

    def test_hashable_and_usable_in_sets(self):
        nodes = {NodeId("a", 1), NodeId("a", 1), NodeId("b", 2)}
        assert len(nodes) == 2

    def test_ordering_is_total(self):
        nodes = [NodeId("b", 1), NodeId("a", 2), NodeId("a", 1)]
        assert sorted(nodes) == [NodeId("a", 1), NodeId("a", 2), NodeId("b", 1)]

    def test_str(self):
        assert str(NodeId("host", 80)) == "host:80"

    @given(st.text(min_size=1), st.integers(min_value=0, max_value=65535))
    def test_wire_roundtrip(self, host, port):
        node = NodeId(host, port)
        assert NodeId.from_wire(node.to_wire()) == node


class TestMessageId:
    def test_wire_roundtrip(self):
        mid = MessageId(NodeId("x", 1), 42)
        assert MessageId.from_wire(mid.to_wire()) == mid

    def test_str(self):
        assert str(MessageId(NodeId("x", 1), 7)) == "x:1#7"

    def test_ordering_groups_by_origin(self):
        a0 = MessageId(NodeId("a", 1), 0)
        a1 = MessageId(NodeId("a", 1), 1)
        b0 = MessageId(NodeId("b", 1), 0)
        assert sorted([b0, a1, a0]) == [a0, a1, b0]


class TestSimulatedNodeIds:
    def test_count_and_uniqueness(self):
        ids = simulated_node_ids(100)
        assert len(ids) == 100
        assert len(set(ids)) == 100

    def test_empty(self):
        assert simulated_node_ids(0) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            simulated_node_ids(-1)

    def test_base_port_offsets(self):
        ids = simulated_node_ids(3, base_port=5000)
        assert [node.port for node in ids] == [5000, 5001, 5002]


class TestSequenceGenerator:
    def test_monotone_unique(self):
        gen = SequenceGenerator(NodeId("a", 1))
        ids = [gen.next_id() for _ in range(10)]
        assert len(set(ids)) == 10
        assert [mid.sequence for mid in ids] == list(range(10))

    def test_distinct_origins_never_collide(self):
        gen_a = SequenceGenerator(NodeId("a", 1))
        gen_b = SequenceGenerator(NodeId("b", 1))
        assert gen_a.next_id() != gen_b.next_id()

    def test_start_offset(self):
        gen = SequenceGenerator(NodeId("a", 1), start=100)
        assert gen.next_id().sequence == 100


class TestCachedHashContract:
    """Identifiers are named tuples: hashing, equality, ordering and pickling
    are the tuple's own, and nothing process-specific is stored.  (The class
    and test names date from PR 14's cached-hash dataclasses; each still
    pins the same promise, now kept by C code instead of a ``_hash`` slot.)"""

    NODE = NodeId("node-7", 10007)
    MESSAGE = MessageId(NODE, 1 << 33)

    def test_hash_is_the_structural_hash(self):
        assert hash(self.NODE) == hash(("node-7", 10007))
        assert hash(self.MESSAGE) == hash((self.NODE, 1 << 33))
        assert hash(MessageId(NodeId("node-7", 10007), 1 << 33)) == hash(self.MESSAGE)
        assert NodeId.__hash__ is tuple.__hash__ and MessageId.__eq__ is tuple.__eq__

    def test_fields_are_exactly_what_they_were(self):
        assert NodeId._fields == ("host", "port")
        assert MessageId._fields == ("origin", "sequence")
        assert self.NODE == ("node-7", 10007) and tuple(self.MESSAGE) == (self.NODE, 1 << 33)
        assert (self.NODE.host, self.NODE.port) == ("node-7", 10007)
        assert (self.MESSAGE.origin, self.MESSAGE.sequence) == (self.NODE, 1 << 33)
        assert NodeId(port=10007, host="node-7") == self.NODE
        assert self.NODE._replace(port=1) == NodeId("node-7", 1)
        assert repr(self.NODE) == "NodeId(host='node-7', port=10007)"
        assert repr(self.MESSAGE) == f"MessageId(origin={self.NODE!r}, sequence={1 << 33})"
        # A tuple to Python, still a record in artifacts.
        assert json_safe(self.MESSAGE) == {
            "origin": {"host": "node-7", "port": 10007},
            "sequence": 1 << 33,
        }
        assert json_safe({self.NODE: [self.NODE]}) == {
            "node-7:10007": [{"host": "node-7", "port": 10007}]
        }

    def test_frozen_and_slotted(self):
        with pytest.raises(AttributeError):
            self.NODE.port = 1
        with pytest.raises(AttributeError):
            self.MESSAGE.sequence = 1
        with pytest.raises(TypeError):
            self.NODE[1] = 1
        assert not hasattr(self.NODE, "__dict__")
        assert not hasattr(self.MESSAGE, "__dict__")

    def test_ordering_is_the_tuples(self):
        nodes = [NodeId("b", 1), NodeId("a", 2), NodeId("a", 1)]
        assert sorted(nodes) == sorted(tuple(node) for node in nodes)
        assert max(MessageId(nodes[2], 9), MessageId(nodes[0], 0)).origin == nodes[0]
        with pytest.raises(TypeError):
            NodeId("a", 1) < NodeId(1, "a")  # fields compare pairwise, as they always did

    def test_wire_codec_round_trip_carries_no_hash(self):
        """Identifiers are tested before the generic sequence branch: nested
        in a payload tuple they come back as identifiers, not as lists."""
        payload = ("view", (self.NODE, NodeId("node-8", 10008)), {"last": self.MESSAGE})
        message = GossipData(self.MESSAGE, payload, 2, self.NODE)
        frame = encode_message(message)
        assert "_hash" not in repr(frame)
        decoded = decode_message(json.loads(json.dumps(frame)))
        assert decoded == message
        assert type(decoded.payload[1][0]) is NodeId
        assert type(decoded.payload[2]["last"]) is MessageId
        assert type(decoded.message_id.origin) is NodeId

    def test_pickle_rebuilds_the_hash_and_is_stable(self):
        blob = pickle.dumps((self.NODE, self.MESSAGE), protocol=pickle.HIGHEST_PROTOCOL)
        assert blob == pickle.dumps((self.NODE, self.MESSAGE), protocol=pickle.HIGHEST_PROTOCOL)
        assert str(hash(self.NODE)).encode() not in blob
        node, message = pickle.loads(blob)
        assert (node, message) == (self.NODE, self.MESSAGE)
        assert type(node) is NodeId and type(message) is MessageId
        assert message.origin is node  # sharing inside one blob survives
        assert copy.deepcopy(self.MESSAGE) == self.MESSAGE

    def test_id_pickled_under_another_hash_seed_is_found_in_a_dict(self):
        """String hashes differ per process: a cached hash that travelled in
        the pickle would miss every dict in the receiving process."""
        script = (
            "import pickle, sys\n"
            "from repro.common.ids import MessageId, NodeId\n"
            "node = NodeId('node-7', 10007)\n"
            "sys.stdout.buffer.write(pickle.dumps((node, MessageId(node, 1 << 33), hash(node))))\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        mine = os.environ.get("PYTHONHASHSEED", "random")
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": "4242" if mine != "4242" else "17"}
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, check=True, timeout=60
        ).stdout
        node, message, foreign_hash = pickle.loads(out)
        assert foreign_hash != hash(self.NODE)  # the other process hashed differently
        assert {self.NODE: "n"}[node] == "n" and node in {self.NODE}
        assert {self.MESSAGE: "m"}[message] == "m" and message in {self.MESSAGE}
