"""Misbehaving peers are hosts, as in SBRB and Dynamic BRB: the network stays
honest and both fault drivers edit the node itself, through this module.

An ``AdversaryEvent`` swaps the ignored types' entries in the node's handler
table for a counting dropper (the frame was accepted: a reliable sender sees
success).  A ``MutationEvent`` swaps the node's send entry points for ones
that rewrite the targeted payloads or vote digests, per ``(sender,
message)`` by a pure hash, or per destination from the RNG when
equivocating.  Honest nodes pay nothing; a restarted process is honest; a
node misbehaves as the union of its open windows.  A trace sink sees
``drop-adversary``, and ``send`` then ``mutate-byz``.
"""

from __future__ import annotations

import dataclasses
import hashlib

from .plan import AdversaryEvent

#: The counters misbehaviour adds to a fault run's ``fault_stats``.
MISBEHAVIOUR_STATS = ("dropped_adversary", "mutated_byz", "equivocated_byz")


class _Victim:
    """One misbehaving incarnation: open windows, the handlers its drops
    replaced, and the type names it corrupts (-> equivocate?)."""

    __slots__ = ("incarnation", "windows", "honest", "mutate")

    def __init__(self, incarnation) -> None:
        self.incarnation = incarnation
        self.windows: dict = {}  # id(event) -> event
        self.honest: dict = {}  # message class -> the handler a dropper replaced
        self.mutate: dict[str, bool] = {}


class Misbehaviour:
    """The adversary and mutation windows open on one deployment.  A subclass
    names a substrate's seams: ``_incarnation`` (what a crash or restart
    changes), ``_record`` (trace), ``_bind_send`` / ``_unbind_send``."""

    def __init__(self, make_rng) -> None:
        self.dropped_adversary = self.mutated_byz = self.equivocated_byz = 0
        self._make_rng = make_rng
        self._rng = None  # made at the first equivocation
        self._victims: dict = {}  # node -> _Victim
        self._opened: dict[int, list] = {}  # id(event) -> the nodes it opened on

    def apply(self, event, nodes) -> None:
        """Open ``event``'s window on ``nodes``."""
        self._opened[id(event)] = list(nodes)
        for node in nodes:
            victim = self._victims.get(node)
            if victim is None or victim.incarnation != self._incarnation(node):
                victim = self._victims[node] = _Victim(self._incarnation(node))
            victim.windows[id(event)] = event
            self._refresh(node, victim)

    def clear(self, event) -> int:
        """Close ``event``'s window on the incarnations it opened on; returns
        how many nodes that was."""
        nodes = self._opened.pop(id(event), [])
        for node in nodes:
            victim = self._victims.get(node)
            if victim is not None and victim.incarnation == self._incarnation(node):
                victim.windows.pop(id(event), None)
                self._refresh(node, victim)
        return len(nodes)

    def corrupted_ids(self) -> set:
        """Ids of the running incarnations that corrupt their sends."""
        return {
            node.node_id
            for node, victim in self._victims.items()
            if victim.mutate and victim.incarnation == self._incarnation(node)
        }

    def _refresh(self, node, victim: _Victim) -> None:
        ignored, mutate = set(), {}
        for event in victim.windows.values():
            if isinstance(event, AdversaryEvent):
                ignored.update(event.drop_types)
            else:
                for name in event.target_types:
                    mutate[name] = mutate.get(name, False) or event.equivocate
        handlers, honest = node._handlers, victim.honest
        for cls in [cls for cls in honest if cls.__name__ not in ignored]:
            handlers[cls] = honest.pop(cls)
        for cls, handler in list(handlers.items()):
            if cls.__name__ in ignored and cls not in honest:
                honest[cls] = handler
                handlers[cls] = self._dropper(node)
        if mutate and not victim.mutate:
            self._bind_send(node, victim)
        elif victim.mutate and not mutate:
            self._unbind_send(node)
        victim.mutate = mutate

    def _dropper(self, node):
        def drop(message) -> None:
            self.dropped_adversary += 1
            self._record(node, "drop-adversary", node.node_id, node.node_id, message)

        return drop

    def _corrupting(self, node, victim: _Victim, honest):
        """``honest``, a ``(src, dsts, message, on_failure)`` fan-out, behind
        the victim's corruption: a targeted type leaves as one corrupted
        copy per destination, each followed by its ``mutate-byz``."""

        def send_all(src, dsts, message, on_failure) -> None:
            equivocate = victim.mutate.get(type(message).__name__)
            if equivocate is None:
                return honest(src, dsts, message, on_failure)
            for dst in dsts:
                honest(src, (dst,), self._corrupt(src, message, equivocate), on_failure)
                self._record(node, "mutate-byz", src, dst, message)

        return send_all

    def _corrupt(self, src, message, equivocate: bool):
        if equivocate:
            if self._rng is None:
                self._rng = self._make_rng()
            token = self._rng.getrandbits(32)
            self.equivocated_byz += 1
        else:
            key = f"byz/{src.host}:{src.port}/{getattr(message, 'message_id', message)}"
            token = int.from_bytes(hashlib.sha256(key.encode()).digest()[:4], "big")
            self.mutated_byz += 1
        if hasattr(message, "payload"):
            return dataclasses.replace(message, payload=("byz", token))
        if hasattr(message, "digest"):
            return dataclasses.replace(message, digest=f"byz:{token:08x}")
        return message  # the type carries no corruptible field: inert


class SimMisbehaviour(Misbehaviour):
    """On :class:`~repro.sim.node.SimNode`: the send slots are the transport's
    pre-bound ``_network_send`` and ``_network_send_all``, which
    ``SimNode.reset()`` rebinds."""

    def _incarnation(self, node):
        return node.generation if node.alive else None

    def _record(self, node, kind, src, dst, message) -> None:
        if node.network.trace is not None:
            node.network.trace.record(node.network.engine.now, kind, src, dst, message)

    def _bind_send(self, node, victim) -> None:
        send_all = self._corrupting(node, victim, node.network.send_all)
        node.transport._network_send_all = send_all
        node.transport._network_send = lambda src, dst, message, on_failure: send_all(
            src, (dst,), message, on_failure
        )

    def _unbind_send(self, node) -> None:
        node.transport.bind_honest_sends()


class LiveMisbehaviour(Misbehaviour):
    """On :class:`~repro.runtime.node.RuntimeNode`: the send slot is the
    transport instance's ``send``, ahead of the codec."""

    def _incarnation(self, node):
        return node.incarnation if node.started else None

    def _record(self, node, kind, src, dst, message) -> None:
        if node.transport.trace is not None:
            node.transport.trace.record(node._loop.time(), kind, src, dst, message)

    def _bind_send(self, node, victim) -> None:
        honest = node.transport.send

        def honest_all(_src, dsts, message, on_failure) -> None:
            for dst in dsts:
                honest(dst, message, on_failure)

        send_all = self._corrupting(node, victim, honest_all)
        # Transport.send_all loops over this instance-level send.
        node.transport.send = lambda dst, message, on_failure=None: send_all(
            node.node_id, (dst,), message, on_failure
        )

    def _unbind_send(self, node) -> None:
        del node.transport.send  # the class's own send shows through again


__all__ = ["LiveMisbehaviour", "MISBEHAVIOUR_STATS", "Misbehaviour", "SimMisbehaviour"]
