"""Observability: causal dissemination tracing.

:mod:`repro.obs.trace` and :mod:`repro.obs.context` capture per-message
trace records (message id, hop depth, parent node) at the network seam
(the simulator's ``Network``, the live ``AsyncioTransport``),
from which :class:`~repro.obs.trace.DisseminationTrace` reconstructs the
broadcast tree of any message: depth, fan-out, per-hop latency,
time-to-full delivery and the redundancy/ack overlay.  Tracing off means
the hot path pays one ``if`` check and zero RNG draws; the pinned
``BENCH_*`` artifacts stay byte-identical either way.

Live counters are not kept here: ``repro chaos`` reads them from the
service facades and transports that keep them
(:mod:`repro.service.bench`).
"""

from .context import activate_collector, current_collector, deactivate_collector
from .trace import DisseminationTrace, TraceCollector, TraceSegment

__all__ = [
    "DisseminationTrace",
    "TraceCollector",
    "TraceSegment",
    "activate_collector",
    "current_collector",
    "deactivate_collector",
]
