"""The peer-sampling service contract.

Section 1 of the paper frames a membership protocol as a *peer sampling
service* [8]: the layer a gossip protocol asks for targets.  Every
membership implementation in this library — HyParView itself and the
Cyclon / CyclonAcked / Scamp baselines — implements this interface, so the
gossip layers, the metrics collectors and the experiment harness are
completely protocol-agnostic.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import ClassVar, Collection

from ..common.ids import NodeId


class PeerSamplingService(ABC):
    """Abstract membership protocol as seen by the layers above it."""

    #: Human-readable protocol name used in reports and registries.
    name: ClassVar[str] = "abstract"

    @property
    @abstractmethod
    def address(self) -> NodeId:
        """Identity of the node this instance runs on."""

    @abstractmethod
    def join(self, contact: NodeId) -> None:
        """Enter the overlay through ``contact`` (a node already inside)."""

    @abstractmethod
    def gossip_targets(self, fanout: int, exclude: Collection[NodeId] = ()) -> list[NodeId]:
        """Peers the broadcast layer should forward a message to.

        Probabilistic protocols return ``fanout`` random members of their
        view; HyParView returns the *whole* active view (deterministic
        flooding — its fanout is fixed by the view size, Section 4.1).
        ``exclude`` carries the peer the message arrived from.
        """

    @abstractmethod
    def report_failure(self, peer: NodeId) -> None:
        """Upper-layer failure detection signal.

        Called when a reliable/acknowledged send to ``peer`` failed.  The
        protocol reacts per its semantics: HyParView replaces the peer from
        its passive view; CyclonAcked expunges it from the partial view;
        protocols without failure handling may ignore the signal.
        """

    @abstractmethod
    def cycle(self) -> None:
        """Execute one periodic membership round (shuffle, lease, ...).

        The experiment harness calls this in lock-step across all nodes,
        mirroring the paper's "membership cycles"; live deployments instead
        call :meth:`start` once.
        """

    @abstractmethod
    def out_neighbors(self) -> tuple[NodeId, ...]:
        """Current overlay out-edges (gossip-target view) for analytics."""

    def start(self) -> None:
        """Begin self-driven periodic behaviour (optional for simulations)."""

    def stop(self) -> None:
        """Stop self-driven periodic behaviour."""
