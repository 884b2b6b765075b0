"""Byzantine reliable broadcast: Bracha quorums over the ack discipline.

HyParView assumes crash faults and honest peers; this layer tolerates
peers that *lie*.  :class:`BRBGossip` runs the classic SEND→ECHO→READY
phase protocol (Bracha 1987) on top of :class:`~repro.gossip.reliable.
ReliableGossip`'s per-copy ack + retransmit machinery, so every phase
message travels as a datagram with its own cancellable retransmit timer —
quorum tracking multiplies the timer load the reliable layer already
generates.

Protocol, per broadcast:

* **SEND** — the origin sends ``BRBSend(payload)`` point-to-point to the
  whole roster.  Relays never forward payloads, so a Byzantine relay
  cannot corrupt dissemination; payload mutation and equivocation are
  strictly *sender* behaviours, as in Bracha's model.
* **ECHO** — on the first SEND for a message id, a node echoes the
  payload's digest to its echo group.  A node echoes **at most once per
  message id** (the first value it saw), so an equivocating origin splits
  the honest votes and no value reaches an echo quorum.
* **READY** — a node sends READY for a digest when it collects an echo
  quorum for it, or — **amplification** — when ``f + 1`` READYs vouch for
  it (at least one is honest, so the digest is safe to commit to).
* **DELIVER** — on ``2f + 1`` READYs for one digest, once the payload
  itself is known (the SEND may still be in flight; delivery waits).

Two quorum modes (``BRBGossip(mode=...)``, chosen by
``ExperimentParams.brb_mode``):

* ``"bracha"`` — deterministic quorums over the full roster of size
  ``n``: with ``f = floor(FAULT_FRACTION * n)``, echo quorum
  ``ceil((n + f + 1) / 2)``, amplification ``f + 1``, delivery
  ``2f + 1``.  Safe and live for ``n > 3f``; per-broadcast cost O(n²).
* ``"sampled"`` — Scalable Byzantine Reliable Broadcast (Guerraoui et
  al.): each node draws *static* echo and ready samples of size
  ``k = ceil(3 * log2 n)`` from the roster via its own seeded
  :class:`~repro.common.rng.StreamRandom`, and applies the same
  thresholds with ``n -> k``.  Per-node cost drops to O(log n) per
  broadcast at a small probability of per-node delivery failure;
  READY amplification pulls unlucky nodes over the line in practice.
  Samples are drawn lazily on first use and deterministically per node,
  so artifacts stay byte-identical across worker processes.

The layer inherits the reliable layer's counters (acks, retransmissions,
give-ups — ack silence still feeds ``membership.report_failure``) and
adds :meth:`BRBGossip.brb_stats` for the quorum machinery.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Optional

from ..common.errors import ProtocolError
from ..common.ids import MessageId, NodeId
from ..common.interfaces import Host
from ..protocols.base import PeerSamplingService
from .base import DeliverCallback
from .messages import BRBAck, BRBEcho, BRBReady, BRBSend
from .reliable import ReliableGossip
from .tracker import BroadcastTracker

#: Quorum modes (see the module docstring).
BRB_MODES = ("bracha", "sampled")
#: The *assumed* adversary budget the quorum thresholds are sized for —
#: Bracha mode is safe and live while the actual Byzantine fraction stays
#: below it and ``n > 3f`` holds.
FAULT_FRACTION = 0.25
#: Sampled mode's group size per log2 of the roster (SBRB's
#: ``k = ceil(3 * log2 n)``).
SAMPLE_FACTOR = 3

#: Phase tags used in acked-channel keys and :class:`BRBAck` frames.
PHASE_SEND = "send"
PHASE_ECHO = "echo"
PHASE_READY = "ready"


def payload_digest(payload: Any) -> str:
    """A short, stable digest of a broadcast payload.

    ``repr`` round-trips every payload the experiments send (ints, strs,
    tuples, dicts built in deterministic order); 16 hex chars keep the
    quadratic echo phase cheap on the wire.
    """
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


class _BRBState:
    """Per-message quorum bookkeeping."""

    __slots__ = (
        "payloads",
        "echoes",
        "readies",
        "echoed",
        "ready_for",
        "delivered",
        "origin",
    )

    def __init__(self) -> None:
        #: digest -> payload, learned from SENDs (delivery needs the bytes).
        self.payloads: dict[str, Any] = {}
        #: digest -> distinct voters (own votes included).
        self.echoes: dict[str, set[NodeId]] = {}
        self.readies: dict[str, set[NodeId]] = {}
        #: the one digest this node echoed (first value seen), or None.
        self.echoed: Optional[str] = None
        #: the one digest this node committed READY to, or None.
        self.ready_for: Optional[str] = None
        self.delivered = False
        #: True on the broadcasting node (delivery reports hops=0 there).
        self.origin = False


class BRBGossip(ReliableGossip):
    """SEND→ECHO→READY Byzantine reliable broadcast with acked phases."""

    name = "brb-gossip"

    def __init__(
        self,
        host: Host,
        membership: PeerSamplingService,
        tracker: Optional[BroadcastTracker] = None,
        *,
        mode: str = "bracha",
        on_deliver: Optional[DeliverCallback] = None,
    ) -> None:
        super().__init__(host, membership, tracker, fanout=0, on_deliver=on_deliver)
        #: Quorum mode, one of :data:`BRB_MODES`.
        self.mode = mode
        #: full node roster; the harness injects it (see ``set_roster``).
        self._roster: tuple[NodeId, ...] = ()
        #: sampled mode: static per-node echo/ready samples, drawn lazily
        #: from the node's own RNG stream on first use.
        self._echo_sample: Optional[tuple[NodeId, ...]] = None
        self._ready_sample: Optional[tuple[NodeId, ...]] = None
        self._thresholds: Optional[tuple[int, int, int]] = None
        self._states: dict[MessageId, _BRBState] = {}
        self.echoes_sent = 0
        self.readies_sent = 0
        self.quorum_deliveries = 0

    # ------------------------------------------------------------------
    # Roster and quorum geometry
    # ------------------------------------------------------------------
    def set_roster(self, roster) -> None:
        """Install the full node roster (quorums are roster-relative).

        The scenario harness calls this right after stack construction —
        Bracha-style BRB needs the membership *set*, which the
        peer-sampling overlay deliberately does not provide.
        """
        self._roster = tuple(roster)
        self._echo_sample = None
        self._ready_sample = None
        self._thresholds = None

    @property
    def roster(self) -> tuple[NodeId, ...]:
        return self._roster

    def group_size(self) -> int:
        """Members of one quorum group (n in Bracha mode, k in sampled)."""
        n = len(self._roster)
        if self.mode == "bracha":
            return n
        k = math.ceil(SAMPLE_FACTOR * math.log2(n)) if n > 1 else 1
        return min(k, n)

    def thresholds(self) -> tuple[int, int, int]:
        """``(echo_quorum, ready_amplify, ready_deliver)`` for the roster."""
        if self._thresholds is None:
            if not self._roster:
                raise ProtocolError("BRB roster not set (call set_roster first)")
            group = self.group_size()
            f = math.floor(group * FAULT_FRACTION)
            self._thresholds = (
                math.ceil((group + f + 1) / 2),  # echo quorum
                f + 1,                           # READY amplification
                2 * f + 1,                       # delivery quorum
            )
        return self._thresholds

    def _peers(self) -> list[NodeId]:
        return [peer for peer in self._roster if peer != self.address]

    def _echo_targets(self) -> tuple[NodeId, ...]:
        if self.mode == "bracha":
            return tuple(self._peers())
        if self._echo_sample is None:
            self._echo_sample = self._draw_sample()
        return self._echo_sample

    def _ready_targets(self) -> tuple[NodeId, ...]:
        if self.mode == "bracha":
            return tuple(self._peers())
        if self._ready_sample is None:
            self._ready_sample = self._draw_sample()
        return self._ready_sample

    def _draw_sample(self) -> tuple[NodeId, ...]:
        peers = self._peers()
        k = min(self.group_size(), len(peers))
        return tuple(self._host.rng.sample(peers, k)) if k else ()

    # ------------------------------------------------------------------
    # Message plumbing
    # ------------------------------------------------------------------
    def handlers(self) -> dict:
        return {
            BRBSend: self.handle_send,
            BRBEcho: self.handle_echo,
            BRBReady: self.handle_ready,
            BRBAck: self.handle_brb_ack,
        }

    def broadcast(self, payload: Any = None) -> MessageId:
        """Broadcast ``payload``; the origin delivers via quorum like
        everyone else (no deliver-on-send — Bracha's totality argument
        needs the origin's delivery to certify the same ready quorum)."""
        if not self._roster:
            raise ProtocolError("BRB roster not set (call set_roster first)")
        message_id = self._sequence.next_id()
        if self._tracker is not None:
            self._tracker.on_broadcast(message_id, self.address, self._host.now())
        self._seen.add(message_id)
        state = self._state(message_id)
        state.origin = True
        digest = payload_digest(payload)
        state.payloads[digest] = payload
        message = BRBSend(message_id, payload, self.address)
        peers = self._peers()
        for peer in peers:
            self._send_copy((message_id, PHASE_SEND, peer), message)
        self._record_transmissions(message_id, len(peers))
        # The origin is its own first SEND witness.
        self._maybe_echo(state, message_id, digest)
        return message_id

    def handle_send(self, message: BRBSend) -> None:
        self._ack(message.sender, message.message_id, PHASE_SEND)
        state = self._state(message.message_id)
        digest = payload_digest(message.payload)
        first_payload = digest not in state.payloads
        if first_payload:
            state.payloads[digest] = message.payload
        self._maybe_echo(state, message.message_id, digest)
        if first_payload:
            # A late SEND may complete a delivery the READY quorum already
            # authorised while the payload was still in flight.
            self._maybe_deliver(state, message.message_id)

    def handle_echo(self, message: BRBEcho) -> None:
        self._ack(message.sender, message.message_id, PHASE_ECHO)
        state = self._state(message.message_id)
        if not self._note_vote(state.echoes, message.digest, message.sender):
            return
        echo_quorum, _amplify, _deliver = self.thresholds()
        if (
            state.ready_for is None
            and len(state.echoes[message.digest]) >= echo_quorum
        ):
            self._send_ready(state, message.message_id, message.digest)

    def handle_ready(self, message: BRBReady) -> None:
        self._ack(message.sender, message.message_id, PHASE_READY)
        state = self._state(message.message_id)
        if not self._note_vote(state.readies, message.digest, message.sender):
            return
        _echo_quorum, amplify, _deliver = self.thresholds()
        if (
            state.ready_for is None
            and len(state.readies[message.digest]) >= amplify
        ):
            # Amplification: f+1 READYs contain one honest commitment.
            self._send_ready(state, message.message_id, message.digest)
        self._maybe_deliver(state, message.message_id)

    def handle_brb_ack(self, ack: BRBAck) -> None:
        self._acked((ack.message_id, ack.phase, ack.sender))

    def has_delivered(self, message_id: MessageId) -> bool:
        state = self._states.get(message_id)
        return state is not None and state.delivered

    # ------------------------------------------------------------------
    # Phase transitions
    # ------------------------------------------------------------------
    def _state(self, message_id: MessageId) -> _BRBState:
        state = self._states.get(message_id)
        if state is None:
            state = _BRBState()
            self._states[message_id] = state
        return state

    @staticmethod
    def _note_vote(votes: dict[str, set[NodeId]], digest: str, voter: NodeId) -> bool:
        voters = votes.get(digest)
        if voters is None:
            voters = set()
            votes[digest] = voters
        if voter in voters:
            return False
        voters.add(voter)
        return True

    def _maybe_echo(self, state: _BRBState, message_id: MessageId, digest: str) -> None:
        if state.echoed is not None:
            return  # echo at most once per id: the first value wins
        state.echoed = digest
        self.echoes_sent += 1
        self._note_vote(state.echoes, digest, self.address)
        message = BRBEcho(message_id, digest, self.address)
        targets = self._echo_targets()
        for peer in targets:
            self._send_copy((message_id, PHASE_ECHO, peer), message)
        self._record_transmissions(message_id, len(targets))

    def _send_ready(self, state: _BRBState, message_id: MessageId, digest: str) -> None:
        state.ready_for = digest
        self.readies_sent += 1
        self._note_vote(state.readies, digest, self.address)
        message = BRBReady(message_id, digest, self.address)
        targets = self._ready_targets()
        for peer in targets:
            self._send_copy((message_id, PHASE_READY, peer), message)
        self._record_transmissions(message_id, len(targets))
        # In tiny groups the local vote can complete the delivery quorum.
        self._maybe_deliver(state, message_id)

    def _maybe_deliver(self, state: _BRBState, message_id: MessageId) -> None:
        if state.delivered:
            return
        _echo_quorum, _amplify, deliver = self.thresholds()
        for digest, voters in state.readies.items():
            if len(voters) >= deliver and digest in state.payloads:
                state.delivered = True
                self.quorum_deliveries += 1
                self._seen.add(message_id)
                hops = 0 if state.origin else 1
                self._deliver(message_id, state.payloads[digest], hops)
                return

    def _ack(self, peer: NodeId, message_id: MessageId, phase: str) -> None:
        # Ack before processing, duplicates included — the copy may be a
        # retransmission whose previous ack was lost.
        self._host.send(peer, BRBAck(message_id, phase, self.address))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def brb_stats(self) -> dict[str, int]:
        """The quorum machinery's counters (JSON-safe)."""
        return {
            "echoes_sent": self.echoes_sent,
            "readies_sent": self.readies_sent,
            "quorum_deliveries": self.quorum_deliveries,
            "undelivered": sum(
                1 for state in self._states.values() if not state.delivered
            ),
        }


__all__ = [
    "BRB_MODES",
    "BRBGossip",
    "payload_digest",
    "PHASE_ECHO",
    "PHASE_READY",
    "PHASE_SEND",
]
