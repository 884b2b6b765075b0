"""Message overhead accounting (paper future work, Section 6).

The paper planned to "measure the packet overhead of our approach due to
the use of TCP" on PlanetLab.  The simulator's per-type message counters
give the protocol-level half of that answer: how many *control* messages
(membership maintenance) each protocol spends per node per cycle, and how
many *data* copies each broadcast costs, on identical overlays.
"""

from __future__ import annotations

from dataclasses import dataclass

from .failures import stabilized_scenario
from .params import ExperimentParams

#: Message types that carry broadcast payloads; everything else is control.
DATA_TYPES = frozenset({"GossipData", "PlumtreeGossip"})


@dataclass(frozen=True, slots=True)
class OverheadResult:
    """Control/data traffic of one protocol on a stable overlay."""

    protocol: str
    n: int
    cycles: int
    messages: int
    #: membership maintenance messages per node per cycle
    control_per_node_cycle: float
    #: payload-carrying copies per broadcast
    data_per_broadcast: float
    #: non-payload messages sent during the broadcast batch (acks, IHAVEs,
    #: repair traffic; ~0 for a stable flood)
    broadcast_control_per_broadcast: float
    #: full per-type breakdown of the cycle phase
    control_breakdown: dict[str, int]


def run_overhead_experiment(
    protocol: str,
    params: ExperimentParams,
    *,
    cycles: int = 10,
    messages: int = 20,
) -> OverheadResult:
    """Count control vs data messages for ``protocol`` on a stable overlay."""
    scenario = stabilized_scenario(protocol, params)

    before = dict(scenario.network.stats.messages_by_type)
    scenario.run_cycles(cycles)
    after_cycles = dict(scenario.network.stats.messages_by_type)
    cycle_delta = {
        key: after_cycles.get(key, 0) - before.get(key, 0)
        for key in after_cycles
        if after_cycles.get(key, 0) != before.get(key, 0)
    }
    control_total = sum(
        count for key, count in cycle_delta.items() if key not in DATA_TYPES
    )

    scenario.send_broadcasts(messages)
    after_broadcasts = dict(scenario.network.stats.messages_by_type)
    broadcast_delta = {
        key: after_broadcasts.get(key, 0) - after_cycles.get(key, 0)
        for key in after_broadcasts
    }
    data_total = sum(broadcast_delta.get(key, 0) for key in DATA_TYPES)
    broadcast_control = sum(
        count for key, count in broadcast_delta.items() if key not in DATA_TYPES
    )

    return OverheadResult(
        protocol=protocol,
        n=params.n,
        cycles=cycles,
        messages=messages,
        control_per_node_cycle=control_total / (params.n * cycles),
        data_per_broadcast=data_total / messages,
        broadcast_control_per_broadcast=broadcast_control / messages,
        control_breakdown=cycle_delta,
    )
