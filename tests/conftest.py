"""Shared fixtures: a small wired world for protocol unit tests.

The ``World`` helper itself lives in :mod:`repro.testing` so test modules
can import it directly (``from repro.testing import World``) without
relying on pytest's conftest path magic.  ``FrameLog``,
``ignored_types`` and ``run_cell`` are test-only and live here (``from
conftest import FrameLog``).
"""

from __future__ import annotations

import random
from collections import namedtuple

import pytest

from repro.experiments.registry import RunContext, TierConfig, get_scenario
from repro.experiments.reporting import encode_artifact
from repro.experiments.runner import run_scenarios
from repro.experiments.scenario import Scenario
from repro.testing import World, check_acked_channel_quiescent, check_no_open_exchange

__all__ = ["FrameLog", "World", "ignored_types", "run_cell"]

Frame = namedtuple("Frame", "time kind src dst message_type")


class FrameLog(list):
    """A ``Network.trace`` sink that keeps every frame, membership traffic
    included (``TraceSegment`` keeps only gossip messages)."""

    def record(self, time, kind, src, dst, message) -> None:
        self.append(Frame(time, kind, src, dst, type(message).__name__))


def ignored_types(node) -> set[str]:
    """Type names a node's handler table routes to an adversary's dropper
    (a ``SimNode`` or a ``RuntimeNode``; see ``repro.faults.adversary``)."""
    return {
        cls.__name__
        for cls, handler in node._handlers.items()
        if getattr(handler, "__qualname__", "").endswith("_dropper.<locals>.drop")
    }


def run_cell(
    scenario_id, key, *, n=80, messages=10, cycles=8, seed=42, snapshots=None, **options
) -> dict:
    """One registered cell's result dict at a test's own scale, through
    ``spec.run_cell``: ``options`` are the tier options the cell reads
    (``fractions``, ``steps`` ...).  Without ``snapshots`` the cell
    stabilises its own base, as in the reference run."""
    config = TierConfig(n=n, messages=messages, stabilization_cycles=cycles, extra=options)
    return get_scenario(scenario_id).run_cell(RunContext(config, seed, snapshots), key)


@pytest.fixture
def world() -> World:
    return World()


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)


@pytest.fixture
def assert_modes_match_reference():
    """The orchestrator's whole execution matrix — workers in {1, 2, 3} x
    snapshot cache in {on, off} — against the reference run (one process,
    every cell stabilising its own base from scratch): byte-identical
    ``BENCH_*`` artifacts.  Keep the scale tiny: the uncached runs
    re-stabilise per cell."""

    def artifact_bytes(ids, scale, **mode) -> dict[str, str]:
        runs = run_scenarios(ids, "smoke", **mode, **scale)
        return {sid: encode_artifact(run.artifact()) for sid, run in runs.items()}

    def check(ids, **scale) -> None:
        reference = artifact_bytes(ids, scale, workers=1, snapshot_cache=False)
        for workers, cache in [(1, True), (2, True), (3, True), (2, False), (3, False)]:
            candidate = artifact_bytes(ids, scale, workers=workers, snapshot_cache=cache)
            assert candidate == reference, (workers, cache)

    return check


@pytest.fixture
def channel_and_exchanges_checked(monkeypatch):
    """Every ``Scenario.drain`` in this process ends with two named
    invariants: the acked channel is quiescent
    (``check_acked_channel_quiescent``) and no membership exchange is open
    (``check_no_open_exchange``).  Yields the list of drains checked, so a
    test can tell the hook really ran.  Use with ``workers=1``: worker
    processes are not patched."""
    drains: list[int] = []
    drain = Scenario.drain

    def checked_drain(scenario) -> int:
        fired = drain(scenario)
        check_acked_channel_quiescent(scenario)
        check_no_open_exchange(scenario)
        drains.append(fired)
        return fired

    monkeypatch.setattr(Scenario, "drain", checked_drain)
    return drains

