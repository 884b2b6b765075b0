"""Fold a ``cProfile`` run into self-time per layer.

A layer is a group of this repository's modules (plus the three stdlib
packages the live path leans on).  Every profiled function is charged to the
layer that owns its source file.  A function with no owning layer — a C
built-in, or a stdlib helper such as ``dataclasses`` or ``heapq`` — is
*transparent*: its self-time is charged to the layers of its callers, split
by the time the caller table attributes to each.  The layer totals therefore
sum to the profile's total self-time.

What this distorts: cProfile adds a fixed cost to every Python call and none
to work inside C, so call-heavy layers are over-charged relative to layers
that spend their time in a few long C calls.
"""

from __future__ import annotations

import cProfile
import pathlib
import pstats
from typing import Callable, Optional

_PERF_DIR = str(pathlib.Path(__file__).resolve().parent)

#: Source-file suffix → layer, first match wins.
_OWNERS: tuple[tuple[str, str], ...] = (
    ("repro/experiments/", "experiments"),
    ("repro/sim/node.py", "sim.node"),
    ("repro/sim/engine.py", "sim.engine"),
    ("repro/sim/sharded.py", "sim.engine"),
    ("repro/sim/shardproto.py", "sim.engine"),
    ("repro/sim/", "sim.network"),
    ("repro/core/views.py", "core.views"),
    ("repro/core/", "core.protocol"),
    ("repro/protocols/", "core.protocol"),
    ("repro/common/rng.py", "common.rng"),
    ("/random.py", "common.rng"),
    ("repro/common/messages.py", "common.messages"),
    ("repro/common/", "common.other"),
    ("repro/gossip/reliable.py", "gossip.reliable"),
    ("repro/gossip/tracker.py", "gossip.tracker"),
    ("repro/gossip/", "gossip"),
    ("repro/service/", "service"),
    ("repro/runtime/transport.py", "runtime.transport"),
    ("repro/runtime/delivery.py", "runtime.delivery"),
    ("repro/runtime/", "runtime.node"),
    ("/json/", "stdlib.json"),
    ("/asyncio/queues.py", "stdlib.asyncio.queues"),
    ("/asyncio/streams.py", "stdlib.asyncio.streams"),
    ("/asyncio/selector_events.py", "stdlib.asyncio.streams"),
    ("/asyncio/transports.py", "stdlib.asyncio.streams"),
    ("/asyncio/", "stdlib.asyncio.loop"),
    ("/selectors.py", "stdlib.asyncio.loop"),
)

FuncKey = tuple[str, int, str]


def owner_of(filename: str) -> Optional[str]:
    """The layer owning ``filename``; ``None`` for a transparent function."""
    if filename.startswith(_PERF_DIR):
        return "bench"
    path = filename.replace("\\", "/")
    for suffix, layer in _OWNERS:
        if suffix in path:
            return layer
    return None


def fold(stats: dict) -> dict[str, float]:
    """Self-seconds per layer from a ``pstats.Stats(...).stats`` table.

    ``stats`` maps ``(file, line, name)`` to ``(calls, primitive calls,
    self-time, cumulative time, callers)`` where ``callers`` maps each
    caller's key to the same four numbers restricted to calls from it.
    """
    shares: dict[FuncKey, dict[str, float]] = {}

    def owners(key: FuncKey, visiting: frozenset) -> dict[str, float]:
        """Layer → share of ``key``'s self-time that layer is charged."""
        known = shares.get(key)
        if known is not None:
            return known
        layer = owner_of(key[0])
        if layer is not None:
            result = {layer: 1.0}
        else:
            callers = {
                caller: row[2]
                for caller, row in stats[key][4].items()
                if caller in stats and caller not in visiting and caller != key
            }
            total = sum(callers.values())
            result = {}
            if total <= 0.0:
                # A root (the profiler's own enable/disable) or a cycle of
                # transparent functions: nobody to charge.
                result = {"other": 1.0}
            else:
                inner = visiting | {key}
                for caller, seconds in callers.items():
                    for name, share in owners(caller, inner).items():
                        result[name] = result.get(name, 0.0) + share * seconds / total
        if not visiting:
            shares[key] = result  # only cache answers computed without a cut
        return result

    totals: dict[str, float] = {}
    for key, row in stats.items():
        for layer, share in owners(key, frozenset()).items():
            totals[layer] = totals.get(layer, 0.0) + row[2] * share
    return totals


def total_self_time(stats: dict) -> float:
    return sum(row[2] for row in stats.values())


def calls(stats: dict, match: Callable[[str, str], bool]) -> int:
    """Total calls of the profiled functions ``match(file, name)`` accepts."""
    return sum(
        row[0] for (filename, _line, name), row in stats.items()
        if match(filename.replace("\\", "/"), name)
    )


def function_calls(stats: dict, file_suffix: str, *names: str) -> int:
    return calls(stats, lambda f, n: f.endswith(file_suffix) and n in names)


def module_calls(stats: dict, *file_suffixes: str) -> int:
    return calls(stats, lambda f, _n: f.endswith(file_suffixes))


def table(profile: cProfile.Profile) -> dict:
    return pstats.Stats(profile).stats
