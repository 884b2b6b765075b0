"""Observability plane shared by the simulator and the live runtime.

Two halves, both strictly pay-for-what-you-use:

* **Causal dissemination tracing** (:mod:`repro.obs.trace`,
  :mod:`repro.obs.context`) — per-message trace records (message id, hop
  depth, parent node) captured at the network seam, from which
  :class:`~repro.obs.trace.DisseminationTrace` reconstructs the broadcast
  tree of any message: depth, fan-out, per-hop latency, time-to-full
  delivery and the redundancy/ack overlay.  Tracing off means the hot
  path pays one ``if`` check and zero RNG draws; the pinned ``BENCH_*``
  artifacts stay byte-identical either way.
* **A unified metrics registry** (:mod:`repro.obs.metrics`,
  :mod:`repro.obs.collectors`, :mod:`repro.obs.http`) — typed
  ``Counter``/``Gauge`` instruments with a deterministic
  snapshot surface (embedded in the ``repro chaos`` report) and a
  dependency-free Prometheus text exposition endpoint for the live
  service layer.
"""

from .context import activate_collector, current_collector, deactivate_collector
from .metrics import Counter, Gauge, MetricsRegistry
from .trace import DisseminationTrace, TraceCollector, TraceSegment

__all__ = [
    "Counter",
    "DisseminationTrace",
    "Gauge",
    "MetricsRegistry",
    "TraceCollector",
    "TraceSegment",
    "activate_collector",
    "current_collector",
    "deactivate_collector",
]
