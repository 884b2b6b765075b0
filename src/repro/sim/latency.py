"""Network latency models.

The paper's PeerSim experiments use an abstract message-exchange model; we
default to a small constant latency, and provide one richer model (a
zone-based planetary RTT matrix with per-message jitter) for the
wide-area fault and topology scenarios.

Every model exposes two views of a link:

* :meth:`LatencyModel.delay` — the per-message delay, drawn with the
  network's RNG stream (jitter lives here);
* :meth:`LatencyModel.base_delay` — the jitter-free structural cost of the
  link, a pure function of the two node identities.  This is what a
  topology optimiser (X-BOT) prices links by: because it needs no shared
  state, every node can price any link locally and two nodes always agree
  on a cost.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod

from ..common.errors import ConfigurationError
from ..common.ids import NodeId

#: One-way delay of the constant model, in seconds.  The harness also paces
#: broadcast streams in multiples of it, whatever model prices the links.
LATENCY_SECONDS = 0.01


class LatencyModel(ABC):
    """Maps a (src, dst) pair to a one-way message delay in seconds."""

    __slots__ = ()

    @abstractmethod
    def delay(self, src: NodeId, dst: NodeId, rng: random.Random) -> float:
        """One-way delay for a message from ``src`` to ``dst``."""

    @abstractmethod
    def base_delay(self, src: NodeId, dst: NodeId) -> float:
        """Jitter-free structural cost of the ``src``→``dst`` link.

        A pure function of the node identities: deterministic, symmetric,
        and computable by any node without coordination.
        """


class ConstantLatency(LatencyModel):
    """Every message takes exactly ``value`` seconds — the PeerSim-style
    abstract model used by the paper's experiments."""

    __slots__ = ("value",)

    def __init__(self, value: float = LATENCY_SECONDS) -> None:
        if value < 0:
            raise ConfigurationError(f"latency must be non-negative: {value}")
        self.value = value

    def delay(self, src: NodeId, dst: NodeId, rng: random.Random) -> float:
        return self.value

    def base_delay(self, src: NodeId, dst: NodeId) -> float:
        return self.value


class ZonedLatency(LatencyModel):
    """Planetary RTT world model: nodes live in latency zones (think cloud
    regions / continents) and link cost is a zone-pair matrix.

    Each node's zone is a stable hash of its identity, and each zone pair
    gets a base one-way delay drawn once from a seeded stream keyed by the pair:
    intra-zone links land in ``intra`` (single-digit-millisecond RTTs),
    cross-zone links in ``inter`` (defaults give ~80–250 ms RTTs, i.e.
    cross-continent).  Per-message ``delay`` multiplies the base by a
    uniform jitter factor drawn from the network's RNG stream, so the
    world model is deterministic while individual messages still spread.

    ``base_delay`` (the zone matrix, no jitter) is the link cost X-BOT
    reads: any two nodes price any link identically with no
    coordination, which is what lets the 4-node swap evaluate its
    aggregate-gain rule at a single participant.
    """

    __slots__ = ("zones", "intra", "inter", "jitter", "_zone_cache", "_pair_cache")

    def __init__(
        self,
        zones: int = 8,
        *,
        intra: tuple[float, float] = (0.003, 0.006),
        inter: tuple[float, float] = (0.04, 0.125),
        jitter: float = 0.25,
    ) -> None:
        if zones < 1:
            raise ConfigurationError(f"zone count must be >= 1: {zones}")
        for low, high in (intra, inter):
            if low < 0 or high < low:
                raise ConfigurationError(f"invalid latency range: [{low}, {high}]")
        if not 0 <= jitter < 1:
            raise ConfigurationError(f"jitter fraction must be in [0, 1): {jitter}")
        self.zones = zones
        self.intra = intra
        self.inter = inter
        self.jitter = jitter
        self._zone_cache: dict[NodeId, int] = {}
        self._pair_cache: dict[tuple[int, int], float] = {}

    def zone_of(self, node: NodeId) -> int:
        """The node's latency zone — a stable hash of its identity."""
        zone = self._zone_cache.get(node)
        if zone is None:
            stream = random.Random(f"{node.host}:{node.port}/zone")
            zone = stream.randrange(self.zones)
            self._zone_cache[node] = zone
        return zone

    def _pair_base(self, zone_a: int, zone_b: int) -> float:
        key = (zone_a, zone_b) if zone_a <= zone_b else (zone_b, zone_a)
        base = self._pair_cache.get(key)
        if base is None:
            low, high = self.intra if key[0] == key[1] else self.inter
            stream = random.Random(f"zone-pair:{key[0]}:{key[1]}/rtt")
            base = stream.uniform(low, high)
            self._pair_cache[key] = base
        return base

    def delay(self, src: NodeId, dst: NodeId, rng: random.Random) -> float:
        # ``_pair_base(zone_of(src), zone_of(dst))`` jittered by
        # ``rng.uniform(-jitter, jitter)``, in one frame on warm caches:
        # this runs once per frame sent.  The last line is ``uniform``'s
        # own expression, so every delay is the float it always was.
        zones = self._zone_cache
        zone_a = zones.get(src)
        if zone_a is None:
            zone_a = self.zone_of(src)
        zone_b = zones.get(dst)
        if zone_b is None:
            zone_b = self.zone_of(dst)
        base = self._pair_cache.get((zone_a, zone_b) if zone_a <= zone_b else (zone_b, zone_a))
        if base is None:
            base = self._pair_base(zone_a, zone_b)
        jitter = self.jitter
        if jitter == 0:
            return base
        return base * (1.0 + (-jitter + (jitter - -jitter) * rng.random()))

    def base_delay(self, src: NodeId, dst: NodeId) -> float:
        return self._pair_base(self.zone_of(src), self.zone_of(dst))


#: Model names selectable through ``ExperimentParams.latency_model``.
LATENCY_MODEL_NAMES = ("constant", "zoned")


def build_latency_model(params) -> LatencyModel:
    """Build the latency model an experiment (or live stack) asked for.

    Duck-typed on purpose: both the frozen ``ExperimentParams`` and the
    live runtime's parameter bag work, and anything without a
    ``latency_model`` attribute keeps the historical constant model —
    which is what pins every pre-existing artifact byte.
    """
    name = str(getattr(params, "latency_model", "constant"))
    if name == "constant":
        return ConstantLatency()
    if name == "zoned":
        return ZonedLatency()
    raise ConfigurationError(
        f"unknown latency model {name!r}; expected one of {LATENCY_MODEL_NAMES}"
    )
