"""Simulated implementation of the sans-io :class:`Transport` interface."""

from __future__ import annotations

from typing import Callable, Optional

from ..common.ids import NodeId
from ..common.interfaces import FailureCallback, ProbeCallback, Transport
from ..common.messages import Message
from .network import Network


class SimTransport(Transport):
    """A node's handle on the simulated network fabric.

    Thin by design: all semantics (reliable vs. datagram, partitions, loss)
    live in :class:`~repro.sim.network.Network` so that tests can reason
    about one implementation.
    """

    __slots__ = ("_network", "_local", "_network_send", "_network_probe")

    def __init__(self, network: Network, local: NodeId) -> None:
        self._network = network
        self._local = local
        # Pre-bound network methods.  On CPython 3.11 a plain method call
        # measures the same; they stay because the two objects per node are
        # part of what a thaw allocates, and peak RSS over back-to-back
        # thaws is sensitive to that count (ROADMAP item 2).
        self._network_send = network.send
        self._network_probe = network.probe

    @property
    def local_address(self) -> NodeId:
        return self._local

    def send(
        self,
        dst: NodeId,
        message: Message,
        on_failure: Optional[FailureCallback] = None,
    ) -> None:
        self._network_send(self._local, dst, message, on_failure)

    def probe(self, dst: NodeId, on_result: ProbeCallback) -> None:
        self._network_probe(self._local, dst, on_result)

    def watch(self, dst: NodeId, on_down: Callable[[NodeId], None]) -> None:
        self._network.watch(self._local, dst, on_down)

    def unwatch(self, dst: NodeId) -> None:
        self._network.unwatch(self._local, dst)
