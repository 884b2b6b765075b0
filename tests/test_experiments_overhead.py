"""Tests for the message-overhead accounting cell (``overhead``)."""

from conftest import run_cell

from repro.experiments.params import ExperimentParams

PARAMS = ExperimentParams.scaled(80, stabilization_cycles=8)


def overhead(protocol: str, *, cycles: int, messages: int) -> dict:
    return run_cell("overhead", (protocol,), messages=messages, cycles=cycles)


class TestOverheadAccounting:
    def test_hyparview_cycle_cost_tracks_shuffle_walk(self):
        result = overhead("hyparview", cycles=5, messages=5)
        walk_cost = PARAMS.hyparview.effective_shuffle_ttl + 1
        assert 1.0 <= result["control_per_node_cycle"] <= walk_cost + 6
        assert "Shuffle" in result["control_breakdown"]
        assert "ShuffleReply" in result["control_breakdown"]

    def test_cyclon_cycle_cost_is_two_messages(self):
        result = overhead("cyclon", cycles=5, messages=5)
        assert abs(result["control_per_node_cycle"] - 2.0) < 0.3
        assert set(result["control_breakdown"]) <= {
            "CyclonShuffleRequest",
            "CyclonShuffleReply",
        }

    def test_scamp_cycle_cost_is_heartbeats(self):
        result = overhead("scamp", cycles=5, messages=5)
        assert "ScampHeartbeat" in result["control_breakdown"]
        # One heartbeat per PartialView entry per cycle: ~(c+1) ln n.
        assert result["control_per_node_cycle"] > 4.0

    def test_flood_data_cost_is_sum_of_views(self):
        result = overhead("hyparview", cycles=2, messages=10)
        # Each of the n nodes forwards to ~(capacity - 1) peers, the origin
        # to capacity: data per broadcast ~ n * (capacity - 1).
        capacity = PARAMS.hyparview.active_view_capacity
        expected = PARAMS.n * (capacity - 1)
        assert 0.7 * expected <= result["data_per_broadcast"] <= 1.3 * expected
        assert result["broadcast_control_per_broadcast"] < 1.0

    def test_plumtree_splits_data_and_control(self):
        result = overhead("plumtree", cycles=2, messages=10)
        flood = overhead("hyparview", cycles=2, messages=10)
        assert result["data_per_broadcast"] < flood["data_per_broadcast"]
        assert result["broadcast_control_per_broadcast"] > 0  # IHAVE traffic

    def test_payload_messages_count_as_data(self):
        """Both payload types (``GossipData``, ``PlumtreeGossip``) count as
        data: every node but the origin receives each stable broadcast at
        least once, and no payload leaks into the control counts."""
        for protocol in ("hyparview", "plumtree"):
            result = overhead(protocol, cycles=2, messages=5)
            assert result["data_per_broadcast"] >= PARAMS.n - 1, protocol
            assert not {"GossipData", "PlumtreeGossip"} & set(result["control_breakdown"])
