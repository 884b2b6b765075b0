"""Experiment parameters (Section 5.1) and the protocol stack registry.

``ExperimentParams.scaled(n)`` keeps every protocol relation intact
(Cyclon view = HyParView active + passive; shuffle length ≈ 40% of the
view; fanout fixed at 4) while sizing the log-sized views for ``n``; at
its anchor, ``scaled(10_000)`` is exactly the published Section 5.1
configuration, and smaller systems keep the comparisons the paper makes.  Scale is chosen where an experiment is run — a registry tier, or
``repro bench --n / --messages / --seed`` — never from the environment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..common.errors import ConfigurationError
from ..core.config import HyParViewConfig
from ..gossip.byzantine import BRB_MODES
from ..protocols.cyclon import CyclonConfig
from ..protocols.registry import stack_names
from ..sim.latency import LATENCY_MODEL_NAMES

#: Protocol names accepted by the scenario builder, derived from the
#: declarative stack registry (:mod:`repro.protocols.registry`) so the
#: simulator, the asyncio runtime and this tuple can never disagree.  The
#: ``*-reliable`` stacks run the ack+retransmit broadcast layer (datagrams
#: + per-copy acks + cancellable retransmit timers) over the named overlay.
PROTOCOL_NAMES = stack_names()


@dataclass(frozen=True, slots=True)
class ExperimentParams:
    """Everything a scenario needs to be reproducible.

    The broadcast fanout is ``hyparview.fanout`` (Section 5.1: active view
    = fanout + 1); the eager layers of the baselines read it there.
    """

    n: int = 1_000
    seed: int = 42
    stabilization_cycles: int = 50
    hyparview: HyParViewConfig = field(default_factory=HyParViewConfig)
    cyclon: CyclonConfig = field(default_factory=CyclonConfig)
    #: Which latency world model prices the links (``LATENCY_MODEL_NAMES``):
    #: ``"constant"`` is the paper's abstract model and the historical
    #: default (every pre-existing artifact is pinned with it); ``"zoned"``
    #: is the planetary RTT zone matrix the ``topo_*`` scenarios run on.
    latency_model: str = "constant"
    #: Quorum mode of the ``*-brb`` stacks (``BRB_MODES``): Bracha's
    #: full-roster quorums, or SBRB's sampled ones.
    brb_mode: str = "bracha"

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ConfigurationError(f"system size must be >= 2: {self.n}")
        if self.stabilization_cycles < 0:
            raise ConfigurationError(
                f"stabilisation cycles must be >= 0: {self.stabilization_cycles}"
            )
        if self.latency_model not in LATENCY_MODEL_NAMES:
            raise ConfigurationError(
                f"unknown latency model {self.latency_model!r}; "
                f"expected one of {LATENCY_MODEL_NAMES}"
            )
        if self.brb_mode not in BRB_MODES:
            raise ConfigurationError(
                f"unknown BRB mode {self.brb_mode!r}; expected one of {BRB_MODES}"
            )

    @classmethod
    def scaled(
        cls,
        n: int,
        seed: int = 42,
        stabilization_cycles: int = 50,
    ) -> "ExperimentParams":
        """Paper relations at system size ``n`` (views scale with log n)."""
        if n < 2:
            raise ConfigurationError(f"system size must be >= 2: {n}")
        hyparview = HyParViewConfig().scaled(n)
        cyclon_view = hyparview.active_view_capacity + hyparview.passive_view_capacity
        cyclon_view = min(cyclon_view, n - 1)
        shuffle_length = max(2, min(cyclon_view, round(0.4 * cyclon_view)))
        return cls(
            n=n,
            seed=seed,
            stabilization_cycles=stabilization_cycles,
            hyparview=hyparview,
            cyclon=CyclonConfig(view_size=cyclon_view, shuffle_length=shuffle_length),
        )
