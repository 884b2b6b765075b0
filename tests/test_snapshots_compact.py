"""Compact snapshot encoding: blob size, byte-identity, replay fidelity.

The tentpole claim of the snapshot rework: replacing each stream's pickled
``random.Random`` state (~2.5 KB) with its ``(seed, words-consumed)`` pair
shrinks ``Scenario.freeze()`` blobs by >= 5x at paper scale — verified here
on a scaled-down proxy — while freeze/thaw stays a behavioural no-op.
"""

from __future__ import annotations

import io
import pickle
import random

from repro.common.rng import StreamRandom
from repro.experiments.params import ExperimentParams
from repro.experiments.scenario import Scenario
from repro.experiments.snapshots import SnapshotCache, stabilized_scenario

PROXY = ExperimentParams.scaled(150, seed=11, stabilization_cycles=8)


def _legacy_freeze(scenario: Scenario) -> bytes:
    """Freeze with the pre-compact encoding: full MT state per stream.

    Reproduces what ``pickle`` emitted before :class:`StreamRandom` — the
    624-word generator state instead of the (seed, words) pair — via a
    dispatch-table override, so the size comparison needs no old checkout.
    """
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.dispatch_table = {
        StreamRandom: lambda stream: (random.Random, (), stream.getstate())
    }
    pickler.dump(scenario)
    return buffer.getvalue()


class TestBlobSize:
    def test_compact_encoding_shrinks_blobs_5x(self):
        """The acceptance criterion, on the scaled-down proxy: compact
        blobs are >= 5x smaller than the full-RNG-state encoding."""
        scenario = stabilized_scenario("hyparview", PROXY)
        compact = scenario.freeze()
        legacy = _legacy_freeze(scenario)
        ratio = len(legacy) / len(compact)
        assert ratio >= 5.0, f"only {ratio:.1f}x smaller ({len(legacy)} -> {len(compact)})"

    def test_per_node_footprint_is_small(self):
        scenario = stabilized_scenario("hyparview", PROXY)
        blob = scenario.freeze()
        # Three streams/node at ~2.5 KB each used to put the floor above
        # 7.5 KB/node; the compact encoding fits node + protocol state in
        # a fraction of that.
        assert len(blob) / PROXY.n < 2500


class TestFreezeThawByteIdentity:
    def test_streams_refreeze_byte_identically(self):
        """Every RNG stream in a thawed scenario re-encodes to exactly the
        bytes it was frozen from — the (seed, words) pair is a fixed point
        of the round trip, with no drift in offsets across trips.

        (Whole-blob equality is deliberately not asserted: pickling
        oscillates by a few memo/set-iteration bytes that predate the
        compact encoding and are invisible to behaviour; the snapshot
        cache guarantees identity by handing out one blob, and artifact
        identity is pinned end-to-end elsewhere.)
        """
        scenario = stabilized_scenario("cyclon", PROXY)

        def stream_bytes(s: Scenario) -> dict:
            blobs = {"harness": pickle.dumps(s._rng), "network": pickle.dumps(s.network._rng)}
            for node_id, node in s.nodes.items():
                blobs[f"node/{node_id}"] = pickle.dumps(node.rng)
                blobs[f"membership/{node_id}"] = pickle.dumps(
                    s.membership(node_id)._rng
                )
            return blobs

        original = stream_bytes(scenario)
        thawed = Scenario.thaw(scenario.freeze())
        assert stream_bytes(thawed) == original
        again = Scenario.thaw(thawed.freeze())
        assert stream_bytes(again) == original

    def test_snapshot_cache_checkouts_unaffected_by_compact_encoding(self):
        """Hit and miss still hand out byte-identical state."""
        cache = SnapshotCache()
        miss = cache.frozen("hyparview", PROXY)
        hit = cache.frozen("hyparview", PROXY)
        assert miss == hit
        assert cache.stats()["hits"] == 1

    def test_thawed_randomness_matches_unfrozen_continuation(self):
        """The replayed streams continue bit-identically: a thawed copy
        and the never-frozen original produce the same failures, the same
        traffic and the same measurements."""
        original = stabilized_scenario("cyclon", PROXY)
        thawed = Scenario.thaw(original.freeze())
        assert original.fail_fraction(0.4) == thawed.fail_fraction(0.4)
        a = [s.reliability for s in original.send_broadcasts(3)]
        b = [s.reliability for s in thawed.send_broadcasts(3)]
        assert a == b
        original.run_cycles(2)
        thawed.run_cycles(2)
        edges_a = {n: original.membership(n).out_neighbors() for n in original.node_ids}
        edges_b = {n: thawed.membership(n).out_neighbors() for n in thawed.node_ids}
        assert edges_a == edges_b
