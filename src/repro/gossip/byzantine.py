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

Two quorum modes (:class:`BRBConfig.mode`):

* ``"bracha"`` — deterministic quorums over the full roster of size
  ``n``: with ``f = floor(fault_fraction * n)``, echo quorum
  ``ceil((n + f + 1) / 2)``, amplification ``f + 1``, delivery
  ``2f + 1``.  Safe and live for ``n > 3f``; per-broadcast cost O(n²).
* ``"sampled"`` — Scalable Byzantine Reliable Broadcast (Guerraoui et
  al.): each node draws *static* echo and ready samples of size
  ``k = ceil(3 * log2 n)`` (default) from the roster via its own seeded
  :class:`~repro.common.rng.StreamRandom`, and applies the same
  thresholds with ``n -> k``.  Per-node cost drops to O(log n) per
  broadcast at a (tunable) probability of per-node delivery failure;
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
from dataclasses import dataclass
from typing import Any, Optional

from ..common.errors import ConfigurationError, ProtocolError
from ..common.ids import MessageId, NodeId
from ..common.interfaces import Host
from ..protocols.base import PeerSamplingService
from .base import DeliverCallback
from .messages import BRBAck, BRBEcho, BRBReady, BRBSend
from .reliable import ReliableConfig, ReliableGossip
from .tracker import BroadcastTracker

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


@dataclass(frozen=True, slots=True)
class BRBConfig:
    """Tuning of the Byzantine broadcast layer.

    ``fault_fraction`` is the *assumed* adversary budget the quorum
    thresholds are sized for — Bracha mode is safe and live while the
    actual Byzantine fraction stays below it and ``n > 3f`` holds.
    ``sample_size=None`` uses SBRB's ``ceil(3 * log2 n)`` in sampled
    mode.  The ack/retransmit knobs mirror :class:`~repro.gossip.
    reliable.ReliableConfig`, which validates them and says what they
    mean (``ack_timeout`` is the initial value and the floor of the
    per-peer timeout the channel learns, here as there).
    """

    mode: str = "bracha"
    fault_fraction: float = 0.25
    sample_size: Optional[int] = None
    ack_timeout: float = 0.05
    backoff: float = 2.0
    max_retries: int = 3

    def __post_init__(self) -> None:
        if self.mode not in ("bracha", "sampled"):
            raise ConfigurationError(
                f"BRB mode must be 'bracha' or 'sampled': {self.mode!r}"
            )
        if not 0.0 <= self.fault_fraction < 0.5:
            raise ConfigurationError(
                f"fault fraction must be in [0, 0.5): {self.fault_fraction}"
            )
        if self.sample_size is not None and self.sample_size < 1:
            raise ConfigurationError(f"sample size must be >= 1: {self.sample_size}")
        ReliableConfig(self.ack_timeout, self.backoff, self.max_retries)


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
        config: Optional[BRBConfig] = None,
        on_deliver: Optional[DeliverCallback] = None,
        seen_capacity: Optional[int] = None,
    ) -> None:
        config = config if config is not None else BRBConfig()
        super().__init__(
            host,
            membership,
            tracker,
            fanout=0,
            ack_timeout=config.ack_timeout,
            backoff=config.backoff,
            max_retries=config.max_retries,
            on_deliver=on_deliver,
            seen_capacity=seen_capacity,
        )
        self.config = config
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
        if self.config.mode == "bracha":
            return n
        k = self.config.sample_size
        if k is None:
            k = math.ceil(3 * math.log2(n)) if n > 1 else 1
        return min(k, n)

    def thresholds(self) -> tuple[int, int, int]:
        """``(echo_quorum, ready_amplify, ready_deliver)`` for the roster."""
        if self._thresholds is None:
            if not self._roster:
                raise ProtocolError("BRB roster not set (call set_roster first)")
            group = self.group_size()
            f = math.floor(group * self.config.fault_fraction)
            self._thresholds = (
                math.ceil((group + f + 1) / 2),  # echo quorum
                f + 1,                           # READY amplification
                2 * f + 1,                       # delivery quorum
            )
        return self._thresholds

    def _peers(self) -> list[NodeId]:
        return [peer for peer in self._roster if peer != self.address]

    def _echo_targets(self) -> tuple[NodeId, ...]:
        if self.config.mode == "bracha":
            return tuple(self._peers())
        if self._echo_sample is None:
            self._echo_sample = self._draw_sample()
        return self._echo_sample

    def _ready_targets(self) -> tuple[NodeId, ...]:
        if self.config.mode == "bracha":
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
        self._mark_seen(message_id)
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
                self._mark_seen(message_id)
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
    "BRBConfig",
    "BRBGossip",
    "payload_digest",
    "PHASE_ECHO",
    "PHASE_READY",
    "PHASE_SEND",
]
