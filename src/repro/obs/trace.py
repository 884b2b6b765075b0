"""Causal dissemination tracing and broadcast-tree reconstruction.

The simulator's :class:`~repro.sim.network.Network` (and the live
:class:`~repro.runtime.transport.AsyncioTransport`) accept a trace sink
with a ``record(time, kind, src, dst, message)`` method.
:class:`TraceSegment` is that sink: it keeps only events that carry a
gossip ``message_id`` (membership and overlay-maintenance traffic records
nothing, which is what keeps traces identical whether a run rebuilds its
stabilized base or thaws it from the snapshot cache) and stores them as
compact tuples.

A :class:`TraceCollector` hands out one segment per scenario
construction/thaw — thawed copies restart per-origin sequence counters,
so the same ``MessageId`` legitimately recurs across grid cells and the
segment boundary is what keeps them apart.

:class:`DisseminationTrace` consumes the collected segments (or a
``TRACE_*.json`` artifact) and reconstructs, per message, the broadcast
tree: parent/child edges with hop depth, per-hop latency, fan-out,
time-to-full-delivery and the redundancy/ack/drop overlay.  It also
exports a single message as Chrome trace-event JSON (load it in
``chrome://tracing`` or Perfetto).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence

from ..common.errors import ConfigurationError

#: Message types that carry the broadcast payload: their first delivery at a
#: node is that node's position in the broadcast tree.
PAYLOAD_TYPES = frozenset({"GossipData", "PlumtreeGossip", "BRBSend"})

#: Acknowledgement overlay (reliable-delivery and BRB phase acks).
ACK_TYPES = frozenset({"GossipAck", "BRBAck"})

#: Default cap on records kept per segment.  When full, *new* records are
#: counted in ``dropped`` and discarded (the tree prefix stays intact);
#: the runner surfaces the drop count on stderr so truncation is visible.
DEFAULT_SEGMENT_LIMIT = 500_000


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_segment(segment: object) -> bool:
    """Whether ``segment`` has :meth:`TraceSegment.export`'s shape."""
    if not isinstance(segment, dict) or not _is_int(segment.get("dropped")):
        return False
    records = segment.get("records")
    return isinstance(records, list) and all(
        isinstance(r, list)
        and len(r) == 7
        and isinstance(r[0], float)
        and all(isinstance(field, str) for field in r[1:6])
        and (r[6] is None or _is_int(r[6]))
        for r in records
    )


class TraceSegment:
    """Network trace sink for one scenario lifetime.

    Records are ``(time, kind, type, src, dst, message_id, depth)`` tuples
    with stringified endpoints/ids; ``depth`` is the message's own hop
    counter (``hops`` for flood/reliable gossip, ``round`` for Plumtree)
    or ``None`` for messages that do not carry one.
    """

    __slots__ = ("records", "dropped", "_limit")

    def __init__(self, limit: int = DEFAULT_SEGMENT_LIMIT) -> None:
        self.records: list[tuple] = []
        self.dropped = 0
        self._limit = limit

    def record(self, time: float, kind: str, src: Any, dst: Any, message: Any) -> None:
        """Trace-sink entry point (``Network.trace`` / ``AsyncioTransport.trace``)."""
        if getattr(message, "message_id", None) is None:
            return
        if len(self.records) >= self._limit:
            self.dropped += 1
            return
        depth = getattr(message, "hops", None)
        if depth is None:
            depth = getattr(message, "round", None)
        self.records.append(
            (time, kind, type(message).__name__, str(src), str(dst), str(message.message_id), depth)
        )

    def export(self) -> dict:
        """JSON-safe form of this segment (tuples become lists downstream)."""
        return {"records": [list(r) for r in self.records], "dropped": self.dropped}


class TraceCollector:
    """Hands out trace segments, one per scenario construction/thaw.

    Empty segments (stabilization builds, frozen bases) are dropped at
    export so the collected trace is identical whether intermediate bases
    were rebuilt or served from the snapshot cache.
    """

    def __init__(self, segment_limit: int = DEFAULT_SEGMENT_LIMIT) -> None:
        self._segments: list[TraceSegment] = []
        self._segment_limit = segment_limit

    def new_segment(self) -> TraceSegment:
        segment = TraceSegment(self._segment_limit)
        self._segments.append(segment)
        return segment

    def export(self) -> list[dict]:
        """JSON-safe list of the non-empty segments, in creation order."""
        return [s.export() for s in self._segments if s.records]


@dataclass(frozen=True, slots=True)
class HopEdge:
    """One edge of a reconstructed broadcast tree."""

    parent: str
    child: str
    depth: int
    send_time: Optional[float]
    deliver_time: float

    @property
    def latency(self) -> Optional[float]:
        if self.send_time is None:
            return None
        return self.deliver_time - self.send_time


class MessageView:
    """The reconstructed dissemination record of one message in one segment."""

    def __init__(self, segment: int, mid: str, records: Sequence[tuple]) -> None:
        self.segment = segment
        self.mid = mid
        self.origin = mid.rsplit("#", 1)[0]
        self.counts: dict[str, int] = {}
        self.edges: list[HopEdge] = []
        self.redundant = 0
        self.acks = 0
        self.control = 0
        self.drops = 0
        self.first_time: Optional[float] = None
        self.last_delivery: Optional[float] = None
        self._build(records)

    def _build(self, records: Sequence[tuple]) -> None:
        pending: dict[tuple[str, str], list[float]] = {}
        delivered: set[str] = set()
        depth_of: dict[str, int] = {self.origin: 0}
        for time, kind, type_name, src, dst, _mid, depth in records:
            if self.first_time is None:
                self.first_time = time
            self.counts[kind] = self.counts.get(kind, 0) + 1
            payload = type_name in PAYLOAD_TYPES
            if kind == "send" and payload:
                pending.setdefault((src, dst), []).append(time)
            elif kind == "deliver":
                if payload:
                    sends = pending.get((src, dst))
                    send_time = sends.pop(0) if sends else None
                    if dst in delivered:
                        self.redundant += 1
                        continue
                    delivered.add(dst)
                    if depth is None:
                        depth = depth_of.get(src, 0) + 1
                    depth_of[dst] = depth
                    self.edges.append(HopEdge(src, dst, depth, send_time, time))
                    self.last_delivery = time
                elif type_name in ACK_TYPES:
                    self.acks += 1
                else:
                    self.control += 1
            elif kind.startswith("drop-"):
                self.drops += 1

    @property
    def key(self) -> str:
        return f"{self.segment}/{self.mid}"

    @property
    def deliveries(self) -> int:
        return len(self.edges)

    @property
    def depth(self) -> int:
        return max((e.depth for e in self.edges), default=0)

    @property
    def time_to_full_delivery(self) -> Optional[float]:
        if self.last_delivery is None or self.first_time is None:
            return None
        return self.last_delivery - self.first_time

    def fanout(self) -> dict[str, int]:
        """Children count per internal node of the broadcast tree."""
        out: dict[str, int] = {}
        for edge in self.edges:
            out[edge.parent] = out.get(edge.parent, 0) + 1
        return out

    @property
    def max_fanout(self) -> int:
        return max(self.fanout().values(), default=0)

    @property
    def mean_fanout(self) -> float:
        fanout = self.fanout()
        if not fanout:
            return 0.0
        return sum(fanout.values()) / len(fanout)

    def hop_latencies(self) -> list[float]:
        return [e.latency for e in self.edges if e.latency is not None]

    def summary(self) -> dict:
        """JSON-safe per-message summary (deterministic key order)."""
        latencies = self.hop_latencies()
        return {
            "message": self.key,
            "origin": self.origin,
            "deliveries": self.deliveries,
            "depth": self.depth,
            "max_fanout": self.max_fanout,
            "mean_fanout": self.mean_fanout,
            "redundant": self.redundant,
            "acks": self.acks,
            "control": self.control,
            "drops": self.drops,
            "time_to_full_delivery": self.time_to_full_delivery,
            "hop_latency_min": min(latencies) if latencies else None,
            "hop_latency_max": max(latencies) if latencies else None,
            "hop_latency_mean": (sum(latencies) / len(latencies)) if latencies else None,
        }

    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON for this message's broadcast tree.

        Each hop is a complete ("X") event on the receiving node's track,
        spanning send → deliver; redundant deliveries show as instant
        events.  Times are microseconds of simulated (or wall) time.
        """
        nodes = sorted({self.origin} | {e.child for e in self.edges} | {e.parent for e in self.edges})
        tid_of = {node: i for i, node in enumerate(nodes)}
        events: list[dict] = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": self.segment,
                "tid": tid,
                "args": {"name": node},
            }
            for node, tid in tid_of.items()
        ]
        for edge in self.edges:
            start = edge.send_time if edge.send_time is not None else edge.deliver_time
            events.append(
                {
                    "name": f"hop depth={edge.depth}",
                    "cat": "dissemination",
                    "ph": "X",
                    "pid": self.segment,
                    "tid": tid_of[edge.child],
                    "ts": start * 1e6,
                    "dur": (edge.deliver_time - start) * 1e6,
                    "args": {
                        "message": self.mid,
                        "parent": edge.parent,
                        "child": edge.child,
                        "depth": edge.depth,
                    },
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"message": self.key, "summary": self.summary()},
        }


class DisseminationTrace:
    """Query surface over collected trace segments.

    Accepts the JSON-safe segment dicts produced by
    :meth:`TraceCollector.export` (which is also the shape stored in
    ``TRACE_*.json`` artifacts), so post-hoc analysis of a written
    artifact and in-process analysis share one code path.
    """

    def __init__(self, segments: Iterable[dict]) -> None:
        self._segments = [
            {"records": [tuple(r) for r in seg.get("records", ())], "dropped": seg.get("dropped", 0)}
            for seg in segments
        ]

    @classmethod
    def from_artifact(cls, artifact: dict, replicate: int = 0) -> "DisseminationTrace":
        """Build from a ``repro-trace/1`` artifact, selecting one replicate.

        The artifact comes from a file, so its shape is checked: a missing
        replicate, or segments unlike :meth:`TraceSegment.export`'s, is a
        :class:`ConfigurationError`.
        """
        replicates = artifact.get("replicates")
        if not isinstance(replicates, list) or not all(isinstance(e, dict) for e in replicates):
            raise ConfigurationError("trace artifact: 'replicates' is not a list of objects")
        have = [entry.get("replicate") for entry in replicates]
        entry = next(
            (e for e, index in zip(replicates, have) if _is_int(index) and index == replicate),
            None,
        )
        if entry is None:
            raise ConfigurationError(f"replicate {replicate} not in trace artifact (have {have})")
        segments = entry.get("segments")
        if not isinstance(segments, list) or not all(map(_is_segment, segments)):
            raise ConfigurationError(
                f"trace artifact: replicate {replicate}'s segments are not "
                "{'records': [[time, kind, type, src, dst, message_id, depth], ...], "
                "'dropped': count} objects"
            )
        return cls(segments)

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    @property
    def record_count(self) -> int:
        return sum(len(s["records"]) for s in self._segments)

    @property
    def dropped_records(self) -> int:
        return sum(s["dropped"] for s in self._segments)

    def message_keys(self) -> list[str]:
        """``segment/message-id`` keys in order of first appearance."""
        keys: list[str] = []
        for index, segment in enumerate(self._segments):
            seen: set[str] = set()
            for record in segment["records"]:
                mid = record[5]
                if mid not in seen:
                    seen.add(mid)
                    keys.append(f"{index}/{mid}")
        return keys

    def message(self, key: str) -> MessageView:
        """Resolve ``key`` (``segment/mid`` or a bare unique ``mid``).

        Raises :class:`KeyError` for unknown ids and bare ids that occur
        in more than one segment.
        """
        segment_index: Optional[int] = None
        mid = key
        head, sep, tail = key.partition("/")
        if sep and head.isdecimal():
            segment_index, mid = int(head), tail
        if segment_index is None:
            matches = [
                i
                for i, seg in enumerate(self._segments)
                if any(r[5] == mid for r in seg["records"])
            ]
            if not matches:
                raise KeyError(f"unknown message id: {key!r}")
            if len(matches) > 1:
                raise KeyError(
                    f"message id {key!r} occurs in segments {matches}; "
                    f"qualify it as '<segment>/{mid}'"
                )
            segment_index = matches[0]
        if not 0 <= segment_index < len(self._segments):
            raise KeyError(f"unknown trace segment in message key: {key!r}")
        records = [r for r in self._segments[segment_index]["records"] if r[5] == mid]
        if not records:
            raise KeyError(f"unknown message id: {key!r}")
        return MessageView(segment_index, mid, records)

    def messages(self) -> list[MessageView]:
        return [self.message(key) for key in self.message_keys()]

    def summary_rows(self) -> list[list]:
        """One row per message for the CLI summary table."""
        rows = []
        for view in self.messages():
            summary = view.summary()
            rows.append(
                [
                    summary["message"],
                    summary["deliveries"],
                    summary["depth"],
                    summary["max_fanout"],
                    summary["redundant"],
                    summary["acks"],
                    summary["drops"],
                    summary["time_to_full_delivery"],
                ]
            )
        return rows
