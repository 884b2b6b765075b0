"""Declarative protocol-stack registry: one construction path for sim and live.

A *stack* is a membership protocol plus a broadcast layer.  Historically the
simulator built stacks through an ``if/elif`` chain in
``Scenario._build_stack`` while the asyncio runtime hand-wired its own pair
in ``RuntimeNode.start`` — two code paths that could (and once did) drift.
This module replaces both with :class:`StackSpec`: a pair of factories keyed
by the stack's public name.

Factories receive a sans-io :class:`~repro.common.interfaces.Host` plus the
experiment parameter object, so the *same* spec builds the stack over the
discrete-event engine and over real TCP sockets.  The parameter object is
duck-typed (anything exposing ``hyparview`` — whose ``fanout`` the eager
layers read — and, as needed, ``cyclon``, ``brb_mode`` and
``latency_model``) to keep this module free of an import cycle with
:mod:`repro.experiments.params`, which derives its ``PROTOCOL_NAMES`` tuple
from this registry.  The runtime-capable stacks read ``hyparview`` alone.

Adding a protocol stack is one :func:`register_stack` call::

    register_stack(StackSpec(
        name="my-stack",
        membership=lambda host, params: MyMembership(host, params.myconfig),
        broadcast=lambda host, membership, params, tracker, on_deliver:
            EagerGossip(host, membership, tracker,
                        fanout=params.hyparview.fanout, on_deliver=on_deliver),
        runtime=True,   # constructible over the asyncio runtime too
    ))

Registration order is the canonical protocol order (it defines
``PROTOCOL_NAMES``), so append new stacks after the built-ins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from ..common.errors import ConfigurationError
from ..common.interfaces import Host
from ..core.protocol import HyParView
from ..gossip.byzantine import BRBGossip
from ..gossip.eager import EagerGossip
from ..gossip.flood import FloodBroadcast
from ..gossip.plumtree import Plumtree
from ..gossip.reliable import ReliableGossip
from ..sim.latency import build_latency_model
from .base import PeerSamplingService
from .cyclon import Cyclon
from .cyclon_acked import CyclonAcked
from .scamp import Scamp
from .xbot import XBot

#: ``(host, params) -> membership`` — the peer-sampling half of a stack.
MembershipFactory = Callable[[Host, Any], PeerSamplingService]

#: ``(host, membership, params, tracker, on_deliver) -> broadcast layer``.
BroadcastFactory = Callable[[Host, PeerSamplingService, Any, Any, Any], Any]


@dataclass(frozen=True, slots=True)
class StackSpec:
    """One named protocol stack: how to build membership and broadcast."""

    name: str
    membership: MembershipFactory
    broadcast: BroadcastFactory
    #: Whether the stack is constructible over the asyncio runtime.  The
    #: simulator can run every stack; a runtime stack must build from the
    #: runtime's parameter bag, which carries ``hyparview`` alone, and
    #: must not need the roster.  Every stack that sets it is run on a
    #: live cluster by the test suite.
    runtime: bool = False
    #: Whether the broadcast layer needs the full membership *set* injected
    #: after construction (``broadcast.set_roster(roster)``).  Quorum
    #: layers declare this: their thresholds are roster-relative, which a
    #: partial-view overlay cannot provide by design.  The registry — not
    #: each harness — resolves the capability in :meth:`build`, so the
    #: simulator and the live runtime share one code path.
    needs_roster: bool = False

    def build(
        self,
        membership_host: Host,
        gossip_host: Host,
        params: Any,
        tracker: Any = None,
        on_deliver: Optional[Callable] = None,
        roster: Optional[Sequence[Any]] = None,
    ) -> tuple[PeerSamplingService, Any]:
        """Construct the (membership, broadcast) pair over the given hosts.

        ``roster`` is the full membership set the harness knows; it is
        consumed only by stacks that declare :attr:`needs_roster`, and
        such a stack built without one is a configuration error.
        """
        membership = self.membership(membership_host, params)
        broadcast = self.broadcast(gossip_host, membership, params, tracker, on_deliver)
        if self.needs_roster:
            if roster is None:
                raise ConfigurationError(
                    f"stack {self.name!r} needs the full membership roster; "
                    f"pass roster=... to StackSpec.build"
                )
            broadcast.set_roster(roster)
        return membership, broadcast


_REGISTRY: dict[str, StackSpec] = {}


def register_stack(spec: StackSpec) -> StackSpec:
    """Register a stack under its name; duplicate names are a config bug."""
    if spec.name in _REGISTRY:
        raise ConfigurationError(f"duplicate stack name: {spec.name!r}")
    _REGISTRY[spec.name] = spec
    return spec


def get_stack(name: str) -> StackSpec:
    """Look up a registered stack; raises with the available names."""
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ConfigurationError(
            f"unknown protocol {name!r}; expected one of {stack_names()}"
        )
    return spec


def stack_names() -> tuple[str, ...]:
    """All registered stack names, in registration (canonical) order."""
    return tuple(_REGISTRY)


def runtime_stack_names() -> tuple[str, ...]:
    """The stacks constructible over the asyncio runtime."""
    return tuple(name for name, spec in _REGISTRY.items() if spec.runtime)


# ----------------------------------------------------------------------
# Built-in stacks, in the canonical order PROTOCOL_NAMES always listed.
# ----------------------------------------------------------------------
register_stack(StackSpec(
    name="hyparview",
    membership=lambda host, params: HyParView(host, params.hyparview),
    broadcast=lambda host, membership, params, tracker, on_deliver: FloodBroadcast(
        host, membership, tracker, on_deliver=on_deliver
    ),
    runtime=True,
))

register_stack(StackSpec(
    name="cyclon",
    membership=lambda host, params: Cyclon(host, params.cyclon),
    broadcast=lambda host, membership, params, tracker, on_deliver: EagerGossip(
        host, membership, tracker,
        fanout=params.hyparview.fanout, acked=False, on_deliver=on_deliver,
    ),
))

register_stack(StackSpec(
    name="cyclon-acked",
    membership=lambda host, params: CyclonAcked(host, params.cyclon),
    broadcast=lambda host, membership, params, tracker, on_deliver: EagerGossip(
        host, membership, tracker,
        fanout=params.hyparview.fanout, acked=True, on_deliver=on_deliver,
    ),
))

register_stack(StackSpec(
    name="scamp",
    membership=lambda host, params: Scamp(host),
    broadcast=lambda host, membership, params, tracker, on_deliver: EagerGossip(
        host, membership, tracker,
        fanout=params.hyparview.fanout, acked=False, on_deliver=on_deliver,
    ),
))

register_stack(StackSpec(
    name="plumtree",
    membership=lambda host, params: HyParView(host, params.hyparview),
    broadcast=lambda host, membership, params, tracker, on_deliver: Plumtree(
        host, membership, tracker, on_deliver=on_deliver
    ),
    runtime=True,
))

# HyParView's flood discipline (fanout 0 = whole active view) over
# *unreliable* transport, with per-copy acks and retransmit timers
# supplying the reliability and the failure signal instead of TCP.
register_stack(StackSpec(
    name="hyparview-reliable",
    membership=lambda host, params: HyParView(host, params.hyparview),
    broadcast=lambda host, membership, params, tracker, on_deliver: ReliableGossip(
        host, membership, tracker, fanout=0, on_deliver=on_deliver
    ),
    runtime=True,
))

# CyclonAcked's membership (it reacts to reported failures) under fanout
# gossip with acks and retransmissions.
register_stack(StackSpec(
    name="cyclon-reliable",
    membership=lambda host, params: CyclonAcked(host, params.cyclon),
    broadcast=lambda host, membership, params, tracker, on_deliver: ReliableGossip(
        host, membership, tracker,
        fanout=params.hyparview.fanout, on_deliver=on_deliver,
    ),
))


# Bracha/SBRB Byzantine reliable broadcast over the acked-datagram
# discipline, with HyParView supplying the failure-repair substrate.
# ``needs_roster`` makes the registry inject the full membership set
# post-construction — quorum thresholds are roster-relative, which a
# partial-view overlay cannot provide by design.
register_stack(StackSpec(
    name="hyparview-brb",
    membership=lambda host, params: HyParView(host, params.hyparview),
    broadcast=lambda host, membership, params, tracker, on_deliver: BRBGossip(
        host, membership, tracker, mode=params.brb_mode, on_deliver=on_deliver
    ),
    needs_roster=True,
))

register_stack(StackSpec(
    name="cyclon-brb",
    membership=lambda host, params: CyclonAcked(host, params.cyclon),
    broadcast=lambda host, membership, params, tracker, on_deliver: BRBGossip(
        host, membership, tracker, mode=params.brb_mode, on_deliver=on_deliver
    ),
    needs_roster=True,
))


# X-BOT: HyParView plus topology-aware optimisation swaps, pricing links by
# the jitter-free base delay of whatever latency world model the
# parameters select.  Parameter bags without a ``latency_model`` field
# (the live runtime's) get the constant model, whose uniform costs make
# the optimiser a no-op — safe degradation to plain HyParView.
register_stack(StackSpec(
    name="hyparview-xbot",
    membership=lambda host, params: XBot(
        host, params.hyparview, latency=build_latency_model(params)
    ),
    broadcast=lambda host, membership, params, tracker, on_deliver: FloodBroadcast(
        host, membership, tracker, on_deliver=on_deliver
    ),
    runtime=True,
))


__all__ = [
    "StackSpec",
    "get_stack",
    "register_stack",
    "runtime_stack_names",
    "stack_names",
]
