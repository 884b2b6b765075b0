"""Graph properties after stabilisation: Table 1 and Figure 5.

Table 1 reports, per protocol, the average clustering coefficient, the
average shortest path and the maximum hops to delivery (averaged across
messages) after 50 membership cycles.  Figure 5 shows the in-degree
distribution of the same overlays.  HyParView's numbers concern its active
view (footnote 5 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..metrics.graph import OverlaySnapshot, PathStats
from ..metrics.reliability import max_hops
from ..metrics.stats import SummaryStats, summarize
from .failures import stabilized_scenario
from .params import ExperimentParams


@dataclass(frozen=True, slots=True)
class GraphPropertiesResult:
    """Table 1 row plus the Figure 5 histogram for one protocol."""

    protocol: str
    n: int
    average_clustering: float
    path_stats: PathStats
    #: mean over messages of the per-message maximum delivery hop count
    max_hops_to_delivery: float
    in_degree_histogram: dict[int, int]
    in_degree_stats: SummaryStats
    out_degree_stats: SummaryStats
    symmetry_fraction: float
    connected: bool


def run_graph_properties(
    protocol: str,
    params: ExperimentParams,
    *,
    messages: int = 50,
    path_sample_sources: Optional[int] = 100,
) -> GraphPropertiesResult:
    """Measure one protocol's Table 1 row / Figure 5 distribution."""
    scenario = stabilized_scenario(protocol, params)
    snapshot: OverlaySnapshot = scenario.snapshot()
    in_degrees = snapshot.in_degrees()
    out_degrees = snapshot.out_degrees()
    summaries = scenario.send_broadcasts(messages)
    return GraphPropertiesResult(
        protocol=protocol,
        n=params.n,
        average_clustering=snapshot.average_clustering(),
        path_stats=snapshot.shortest_paths(sample_sources=path_sample_sources),
        max_hops_to_delivery=max_hops(summaries),
        in_degree_histogram=snapshot.in_degree_histogram(),
        in_degree_stats=summarize(float(v) for v in in_degrees.values()),
        out_degree_stats=summarize(float(v) for v in out_degrees.values()),
        symmetry_fraction=snapshot.symmetry_fraction(),
        connected=snapshot.is_connected(),
    )


#: The protocols of Table 1 / Figure 5.
TABLE1_PROTOCOLS = ("cyclon", "scamp", "hyparview")
