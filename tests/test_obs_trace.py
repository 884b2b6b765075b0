"""Tests for causal dissemination tracing (repro.obs.trace).

Three layers: the :class:`TraceSegment` sink contract (filtering,
bounding, tuple shape), the :class:`MessageView` broadcast-tree
reconstruction over synthetic records, and the end-to-end properties the
tentpole promises — tracing off costs nothing and changes nothing,
tracing on yields identical traces across the workers x cells x
snapshot-cache execution matrix and across the Kernel seam.
"""

from __future__ import annotations

import io

import pytest

from repro.common.errors import ConfigurationError
from repro.experiments.params import ExperimentParams
from repro.experiments.reporting import TRACE_SCHEMA, load_artifact
from repro.experiments.runner import run_and_report, run_scenarios
from repro.experiments.scenario import Scenario
from repro.obs.context import activate_collector, current_collector, deactivate_collector
from repro.obs.trace import DisseminationTrace, MessageView, TraceCollector, TraceSegment


class FakeGossip:
    """Duck-typed payload message: message_id plus a hop counter."""

    def __init__(self, mid, hops=None):
        self.message_id = mid
        if hops is not None:
            self.hops = hops


class FakeJoin:
    """Membership-style message: no message_id, must never be recorded."""


@pytest.fixture(autouse=True)
def _no_leaked_collector():
    deactivate_collector()
    yield
    deactivate_collector()


class TestTraceSegment:
    def test_records_only_messages_with_an_id(self):
        segment = TraceSegment()
        segment.record(0.0, "send", "a", "b", FakeJoin())
        segment.record(0.0, "probe", "a", "b", None)
        assert segment.records == []
        segment.record(0.5, "send", "a", "b", FakeGossip("a#0", hops=1))
        assert segment.records == [(0.5, "send", "FakeGossip", "a", "b", "a#0", 1)]

    def test_depth_falls_back_to_round_then_none(self):
        class Rounded:
            message_id = "a#1"
            round = 3

        class Flat:
            message_id = "a#2"

        segment = TraceSegment()
        segment.record(0.0, "send", "a", "b", Rounded())
        segment.record(0.0, "send", "a", "b", Flat())
        assert segment.records[0][6] == 3
        assert segment.records[1][6] is None

    def test_bounded_drops_newest_and_counts(self):
        segment = TraceSegment(limit=3)
        for i in range(10):
            segment.record(float(i), "send", "a", "b", FakeGossip(f"a#{i}"))
        assert len(segment.records) == 3
        assert segment.dropped == 7
        # The tree prefix survives; the newest records are the dropped ones.
        assert [r[0] for r in segment.records] == [0.0, 1.0, 2.0]

    def test_export_is_json_safe(self):
        segment = TraceSegment()
        segment.record(0.0, "send", "a", "b", FakeGossip("a#0", hops=1))
        exported = segment.export()
        assert exported == {
            "records": [[0.0, "send", "FakeGossip", "a", "b", "a#0", 1]],
            "dropped": 0,
        }


class TestTraceCollector:
    def test_empty_segments_dropped_at_export(self):
        collector = TraceCollector()
        collector.new_segment()  # stabilization build: never records
        busy = collector.new_segment()
        busy.record(0.0, "send", "a", "b", FakeGossip("a#0"))
        collector.new_segment()
        assert len(collector.export()) == 1

    def test_activation_is_process_local_and_idempotent(self):
        assert current_collector() is None
        collector = TraceCollector()
        activate_collector(collector)
        assert current_collector() is collector
        deactivate_collector()
        deactivate_collector()
        assert current_collector() is None


def _records_for_tree():
    """A two-hop broadcast with one redundant delivery, an ack and a drop."""
    return [
        (0.00, "send", "GossipData", "a:1", "b:1", "a:1#0", 1),
        (0.01, "deliver", "GossipData", "a:1", "b:1", "a:1#0", 1),
        (0.01, "send", "GossipData", "b:1", "c:1", "a:1#0", 2),
        (0.02, "deliver", "GossipData", "b:1", "c:1", "a:1#0", 2),
        (0.02, "send", "GossipData", "a:1", "c:1", "a:1#0", 1),
        (0.03, "deliver", "GossipData", "a:1", "c:1", "a:1#0", 1),  # redundant
        (0.03, "deliver", "GossipAck", "c:1", "b:1", "a:1#0", None),
        (0.04, "drop-loss", "GossipData", "a:1", "d:1", "a:1#0", 1),
    ]


class TestMessageView:
    def test_tree_reconstruction(self):
        view = MessageView(0, "a:1#0", _records_for_tree())
        assert view.origin == "a:1"
        assert view.deliveries == 2
        assert view.depth == 2
        assert [(e.parent, e.child, e.depth) for e in view.edges] == [
            ("a:1", "b:1", 1),
            ("b:1", "c:1", 2),
        ]
        assert view.redundant == 1
        assert view.acks == 1
        assert view.drops == 1
        assert view.max_fanout == 1
        assert view.time_to_full_delivery == pytest.approx(0.02)
        assert view.hop_latencies() == [pytest.approx(0.01)] * 2

    def test_send_matching_is_fifo_per_link(self):
        records = [
            (0.0, "send", "GossipData", "a", "b", "a#0", 1),
            (0.5, "send", "GossipData", "a", "b", "a#0", 1),
            (1.0, "deliver", "GossipData", "a", "b", "a#0", 1),
        ]
        view = MessageView(0, "a#0", records)
        assert view.edges[0].send_time == 0.0
        assert view.edges[0].latency == pytest.approx(1.0)

    def test_depth_chains_when_message_has_no_counter(self):
        records = [
            (0.0, "deliver", "BRBSend", "a", "b", "a#0", None),
            (0.1, "deliver", "BRBSend", "b", "c", "a#0", None),
        ]
        view = MessageView(0, "a#0", records)
        assert [e.depth for e in view.edges] == [1, 2]
        assert view.depth == 2

    def test_summary_is_json_safe_and_complete(self):
        summary = MessageView(0, "a:1#0", _records_for_tree()).summary()
        assert summary["message"] == "0/a:1#0"
        assert summary["deliveries"] == 2
        assert summary["mean_fanout"] == pytest.approx(1.0)
        assert summary["hop_latency_mean"] == pytest.approx(0.01)

    def test_chrome_trace_shape(self):
        trace = MessageView(0, "a:1#0", _records_for_tree()).chrome_trace()
        events = trace["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        hops = [e for e in events if e["ph"] == "X"]
        assert len(metadata) == 3  # a:1, b:1, c:1 tracks
        assert len(hops) == 2
        assert hops[0]["ts"] == pytest.approx(0.0)
        assert hops[0]["dur"] == pytest.approx(10_000.0)  # 0.01 s in us
        assert trace["otherData"]["message"] == "0/a:1#0"


class TestDisseminationTrace:
    def _two_segments(self):
        return DisseminationTrace(
            [
                {"records": [[0.0, "send", "GossipData", "a", "b", "a#0", 1]], "dropped": 2},
                {
                    "records": [
                        [0.0, "send", "GossipData", "a", "b", "a#0", 1],
                        [0.1, "send", "GossipData", "b", "c", "b#0", 1],
                    ],
                    "dropped": 0,
                },
            ]
        )

    def test_counts_and_key_order(self):
        trace = self._two_segments()
        assert trace.segment_count == 2
        assert trace.record_count == 3
        assert trace.dropped_records == 2
        assert trace.message_keys() == ["0/a#0", "1/a#0", "1/b#0"]

    def test_bare_id_resolves_only_when_unique(self):
        trace = self._two_segments()
        assert trace.message("b#0").key == "1/b#0"
        with pytest.raises(KeyError, match="qualify it as"):
            trace.message("a#0")
        assert trace.message("0/a#0").segment == 0

    def test_unknown_ids_are_structured_errors(self):
        trace = self._two_segments()
        with pytest.raises(KeyError, match="unknown message id"):
            trace.message("z#9")
        with pytest.raises(KeyError, match="unknown"):
            trace.message("7/a#0")

    def test_from_artifact_selects_replicate(self):
        artifact = {
            "schema": "repro-trace/1",
            "replicates": [
                {"replicate": 0, "segments": []},
                {
                    "replicate": 1,
                    "segments": [
                        {"records": [[0.0, "send", "GossipData", "a", "b", "a#0", 1]], "dropped": 0}
                    ],
                },
            ],
        }
        assert DisseminationTrace.from_artifact(artifact, replicate=1).record_count == 1
        with pytest.raises(ConfigurationError, match=r"replicate 9 not in .* \(have \[0, 1\]\)"):
            DisseminationTrace.from_artifact(artifact, replicate=9)


class TestScenarioIntegration:
    def test_tracing_off_attaches_nothing(self):
        scenario = Scenario(
            "hyparview", ExperimentParams.scaled(40, seed=7, stabilization_cycles=3)
        )
        assert scenario.network.trace is None

    def test_membership_traffic_records_nothing(self):
        # Stabilization (joins, shuffles, probes) carries no message_id, so
        # an attached segment stays empty — the property that keeps traces
        # identical whether bases are rebuilt or thawed from the cache.
        collector = TraceCollector()
        activate_collector(collector)
        scenario = Scenario(
            "hyparview", ExperimentParams.scaled(40, seed=7, stabilization_cycles=3)
        )
        scenario.build_overlay()
        scenario.run_cycles(2)
        assert scenario.network.trace is not None
        assert scenario.network.trace.records == []
        assert collector.export() == []

    def test_broadcast_records_and_reconstructs(self):
        collector = TraceCollector()
        activate_collector(collector)
        scenario = Scenario(
            "hyparview", ExperimentParams.scaled(40, seed=7, stabilization_cycles=3)
        )
        scenario.build_overlay()
        summary = scenario.send_broadcast()
        segments = collector.export()
        assert len(segments) == 1
        view = DisseminationTrace(segments)
        keys = view.message_keys()
        assert len(keys) == 1
        message = view.message(keys[0])
        # The reconstructed tree agrees with the tracker's own count.
        assert message.deliveries == summary.delivered - 1  # origin self-delivers
        assert message.depth >= 1

    def test_freeze_strips_the_trace_sink(self):
        collector = TraceCollector()
        activate_collector(collector)
        scenario = Scenario(
            "hyparview", ExperimentParams.scaled(40, seed=7, stabilization_cycles=3)
        )
        scenario.build_overlay()
        frozen = scenario.freeze()
        assert b"TraceSegment" not in frozen
        # The live scenario keeps its sink after freezing...
        assert scenario.network.trace is not None
        # ...and a thaw under an active collector gets a *fresh* segment.
        thawed = Scenario.thaw(frozen)
        assert thawed.network.trace is not None
        assert thawed.network.trace is not scenario.network.trace
        deactivate_collector()
        assert Scenario.thaw(frozen).network.trace is None


def _traced_fig2(**overrides):
    traces: dict[str, list] = {}
    overrides.setdefault("workers", 1)
    run_scenarios(["fig2_reliability"], "smoke", trace_sink=traces.__setitem__, **overrides)
    return traces["fig2_reliability"]


@pytest.fixture(scope="module")
def fig2_traces():
    return _traced_fig2()


class TestExecutionMatrix:
    def test_traces_identical_across_workers_cells_and_cache(self, fig2_traces):
        assert fig2_traces, "fig2 smoke produced no trace"
        assert any(e["segments"] for e in fig2_traces)
        assert fig2_traces == _traced_fig2(snapshot_cache=False)
        assert fig2_traces == _traced_fig2(workers=2)


class TestArtifactRoundTrip:
    def test_trace_file_beside_the_bench_file(self, tmp_path, fig2_traces):
        run_and_report(
            ["fig2_reliability"], "smoke", trace=True, out_dir=tmp_path, stream=io.StringIO()
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "BENCH_fig2_reliability.json",
            "TRACE_fig2_reliability.json",
        ]
        artifact = load_artifact(tmp_path / "TRACE_fig2_reliability.json", TRACE_SCHEMA)
        assert artifact["replicates"] == fig2_traces
        reloaded = DisseminationTrace.from_artifact(artifact, replicate=0)
        original = DisseminationTrace(fig2_traces[0]["segments"])
        assert reloaded.message_keys() == original.message_keys()
        assert reloaded.summary_rows() == original.summary_rows()

    def test_each_trace_is_handed_over_once_its_scenario_is_done(self):
        events = []
        run_scenarios(
            ["fig1_hyparview_reference", "fig2_reliability"], "smoke", n=32, messages=2,
            trace_sink=lambda scenario_id, entries: events.append(("trace", scenario_id)),
            progress=lambda note: events.append(("unit", note.split()[0])),
        )
        assert events.index(("trace", "fig1_hyparview_reference")) < events.index(
            ("unit", "fig2_reliability")
        )
        assert events[-1] == ("trace", "fig2_reliability")

    def test_tracing_needs_an_output_directory(self):
        with pytest.raises(ConfigurationError, match="output directory"):
            run_and_report(["fig2_reliability"], "smoke", trace=True, out_dir=None)

    @pytest.mark.parametrize(
        "replicates",
        [
            {"replicate": 0},
            [[0, []]],
            [{"replicate": 0, "segments": {"records": []}}],
            [{"replicate": 0, "segments": [{"records": [], "dropped": "0"}]}],
            [{"replicate": 0, "segments": [{"records": [[0.0, "send"]], "dropped": 0}]}],
            [{"replicate": 0, "segments": [{"records": ["a#0"], "dropped": 0}]}],
            [{"replicate": 0, "segments": [
                {"records": [[0.0, "send", "GossipData", "a", "b", 7, 1]], "dropped": 0}
            ]}],
            [{"replicate": 0, "segments": [
                {"records": [["0", "send", "GossipData", "a", "b", "a#0", 1]], "dropped": 0}
            ]}],
            [{"replicate": 0, "segments": [
                {"records": [[0.0, "send", "GossipData", None, "b", "a#0", 1]], "dropped": 0}
            ]}],
            [{"replicate": 0, "segments": [
                {"records": [[0.0, "send", "GossipData", "a", "b", "a#0", "1"]], "dropped": 0}
            ]}],
        ],
    )
    def test_malformed_replicates_are_configuration_errors(self, replicates):
        with pytest.raises(ConfigurationError, match="trace artifact"):
            DisseminationTrace.from_artifact({"replicates": replicates}, replicate=0)

    def test_a_boolean_replicate_is_not_an_index(self):
        artifact = {"replicates": [{"replicate": True, "segments": []}]}
        with pytest.raises(ConfigurationError, match="replicate 1 not in"):
            DisseminationTrace.from_artifact(artifact, replicate=1)
