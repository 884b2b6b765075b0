"""Parallel experiment orchestrator.

Shards work across worker processes and aggregates results into versioned
JSON artifacts.  The schedulable atom is a :class:`WorkUnit`: one
``(scenario, replicate, cell)`` of a scenario's declared grid (see
:mod:`repro.experiments.registry`) — e.g. one (protocol, failure-fraction)
pair of Figure 2 — so a single replicate's grid fans out over every
worker.  There is no other way to execute a scenario: a one-point
experiment is a one-cell grid.

Each replicate derives its root seed from the sweep seed via
:meth:`SeedSequence.derive_seed`; all cells of a replicate share that seed,
and a cell's result depends only on ``(root_seed, scenario_id, tier,
replicate, overrides, cell key)`` — never on scheduling, worker identity or
cache state.  A run with ``--workers 8`` therefore produces byte-identical
artifacts to the reference run (``workers=1, snapshot_cache=False``: every
cell stabilises its own base from scratch), which is asserted in CI.

Workers keep a per-process :class:`~repro.experiments.snapshots.
SnapshotCache` of frozen stabilised base overlays, so a worker that
executes many cells of one protocol stabilises the base once and
rehydrates per cell with a single ``pickle.loads`` — the dominant cost at
paper scale.  To make that cache effective, the pool's scheduling atom is
an **affinity chunk**: a run of consecutive cells sharing one stabilised
base (e.g. every fraction of one protocol in a Figure 2 replicate).
Chunks are dispatched dynamically, so heterogeneous scenarios still
balance; when there are fewer chunks than workers, chunks are split so no
worker idles.  Each base is then stabilised once per worker that touches
it — usually once per sweep — restoring the session-wide sharing the old
ScenarioCache provided, but across process boundaries.

Per-unit and per-scenario wall-clock (plus kernel events/s, sampled from
the engine's process-wide fired-event counter) goes to the progress
stream (stderr) and nowhere else: timings never enter a file, so the
``BENCH_*`` artifacts stay deterministic.

The multiprocessing entry point (:func:`_execute_chunk`) is a
module-level function resolving scenarios by id from the registry, so it
works under both ``fork`` and ``spawn`` start methods; a one-worker run
maps it over the same chunks in process.
"""

from __future__ import annotations

import collections
import itertools
import multiprocessing
import pathlib
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Optional, Sequence

from ..common.errors import ConfigurationError
from ..common.rng import SeedSequence
from ..obs.context import activate_collector, deactivate_collector
from ..obs.trace import TraceCollector
from ..sim.engine import events_fired_total
from .registry import CellKey, RunContext, ScenarioSpec, TierConfig, get_scenario
from .reporting import (
    ARTIFACT_SCHEMA,
    TRACE_SCHEMA,
    Claim,
    check_claims,
    format_timings,
    render_report,
    write_artifact,
)
from .snapshots import SnapshotCache

#: Default root seed of a sweep (matches the experiment default).
DEFAULT_ROOT_SEED = 42

#: Per-worker-process cache of frozen stabilised overlays, created lazily
#: on first use inside each worker (and shared by serial in-process runs).
_WORKER_SNAPSHOTS: Optional[SnapshotCache] = None


def _worker_snapshots() -> SnapshotCache:
    global _WORKER_SNAPSHOTS
    if _WORKER_SNAPSHOTS is None:
        _WORKER_SNAPSHOTS = SnapshotCache()
    return _WORKER_SNAPSHOTS


_EMPTY_CACHE_STATS = {
    "entries": 0, "hits": 0, "misses": 0, "evictions": 0, "cached_bytes": 0,
}


def _cache_stats() -> dict:
    """This process's snapshot-cache counters (zeros when never used)."""
    if _WORKER_SNAPSHOTS is None:
        return dict(_EMPTY_CACHE_STATS)
    return _WORKER_SNAPSHOTS.stats()


def _cache_delta(before: dict, after: dict) -> dict:
    """Counter growth across one chunk, plus the cache's current size.

    Counters are deltas (summable across chunks and workers without double
    counting); ``entries`` / ``cached_bytes`` are the absolute cache size
    after the chunk, aggregated as a per-worker peak.
    """
    return {
        "hits": after["hits"] - before["hits"],
        "misses": after["misses"] - before["misses"],
        "evictions": after["evictions"] - before["evictions"],
        "entries": after["entries"],
        "cached_bytes": after["cached_bytes"],
    }


@dataclass(frozen=True, slots=True)
class WorkUnit:
    """One schedulable atom: one cell of one replicate's grid.

    Everything a worker needs travels in this (picklable) record: the
    replicate's context, resolved once by :func:`build_units`; the
    scenario's code is looked up in the registry inside the worker.
    """

    scenario_id: str
    replicate: int
    context: RunContext
    #: one cell key from the scenario's ``cells`` enumeration.
    cell: CellKey = ()
    #: whether the executing worker may serve stabilised bases from its
    #: snapshot cache (results are identical either way; this is purely
    #: a speed/memory knob).
    snapshot_cache: bool = True
    #: Collect a dissemination trace while the unit runs.  Never part of
    #: the BENCH artifact: trace output travels in ``UnitOutcome.trace``
    #: and lands in the separate ``TRACE_*`` file.
    trace: bool = False

    def describe(self) -> str:
        label = f"{self.scenario_id} replicate {self.replicate}"
        if self.cell:
            label += " cell " + "/".join(str(part) for part in self.cell)
        return label


def replicate_seed(root_seed: int, scenario_id: str, replicate: int) -> int:
    """The deterministic seed of one replicate (scheduling-independent).

    Cells of one replicate share the seed: every cell observes the same
    randomness whichever worker runs it.
    """
    return SeedSequence(root_seed).derive_seed(
        f"bench/{scenario_id}/replicate/{replicate}"
    )


def _resolve(
    spec: ScenarioSpec,
    tier: str,
    n: Optional[int],
    messages: Optional[int],
    replicates: Optional[int],
) -> TierConfig:
    """The scenario's config at ``tier`` with the sweep's overrides applied."""
    config = spec.tier(tier)
    return replace(
        config,
        n=config.n if n is None else n,
        messages=config.messages if messages is None else messages,
        replicates=config.replicates if replicates is None else replicates,
    )


@dataclass(frozen=True, slots=True)
class UnitOutcome:
    """What a worker sends back for one unit.

    ``elapsed`` and ``events`` are observability only (logged to stderr,
    never written to a file): artifacts are assembled exclusively from
    ``result`` and its unit's keys.
    ``events`` counts simulation-kernel events fired while the unit ran
    in its worker — elapsed and events together give per-unit kernel
    throughput.
    """

    unit: WorkUnit
    result: dict
    elapsed: float
    events: int = 0
    #: JSON-safe trace segments collected while the unit ran (``None``
    #: unless the unit asked for tracing); assembled into ``TRACE_*``
    #: artifacts by the orchestrator, never into ``BENCH_*``.
    trace: Optional[list] = None


def _affinity_key(unit: WorkUnit) -> tuple:
    """Units with equal keys reuse one stabilised base (cache affinity).

    The first cell component is the protocol for grid scenarios — the
    component that selects the base overlay.  Scenarios whose cells all
    share one base (fanout sweeps) declare ``cell_affinity`` in their spec
    to collapse the whole replicate into one chunk.
    """
    spec = get_scenario(unit.scenario_id)
    if spec.cell_affinity is not None:
        return (unit.scenario_id, unit.replicate, spec.cell_affinity(unit.cell))
    return (unit.scenario_id, unit.replicate, unit.cell[:1])


def build_chunks(units: Sequence[WorkUnit], workers: int) -> list[list[WorkUnit]]:
    """Partition units into the pool's scheduling atoms.

    Consecutive units sharing an affinity key form one chunk, executed
    serially by one worker against one cached base.  If that yields fewer
    chunks than workers (a single-grid sweep on a wide pool), chunks are
    split evenly — extra base stabilisations, but no idle workers.
    """
    chunks: list[list[WorkUnit]] = []
    previous: Optional[tuple] = None
    for unit in units:
        key = _affinity_key(unit)
        if previous is not None and key == previous:
            chunks[-1].append(unit)
        else:
            chunks.append([unit])
        previous = key
    pieces = -(-workers // len(chunks)) if 0 < len(chunks) < workers else 1
    if pieces > 1:
        split: list[list[WorkUnit]] = []
        for chunk in chunks:
            size = -(-len(chunk) // pieces)  # ceil division
            split.extend(chunk[i:i + size] for i in range(0, len(chunk), size))
        chunks = split
    return chunks


def _execute_chunk(chunk: list[WorkUnit]) -> tuple[list[UnitOutcome], dict]:
    """Worker entry point for one affinity chunk (units run in order).

    Returns the outcomes plus the chunk's snapshot-cache stats delta, so
    the orchestrator can surface cache behaviour (hits/misses/bytes) in
    the stderr timing summary without the cache leaving its worker.
    """
    before = _cache_stats()
    outcomes = [_execute_unit(unit) for unit in chunk]
    return outcomes, _cache_delta(before, _cache_stats())


def _execute_unit(unit: WorkUnit) -> UnitOutcome:
    """Run one unit in this process, with its snapshot cache."""
    started = time.perf_counter()
    events_before = events_fired_total()
    snapshots = _worker_snapshots() if unit.snapshot_cache else None
    collector = TraceCollector() if unit.trace else None
    if collector is not None:
        activate_collector(collector)
    try:
        result = get_scenario(unit.scenario_id).run_cell(
            replace(unit.context, snapshots=snapshots), unit.cell
        )
    finally:
        if collector is not None:
            deactivate_collector()
    return UnitOutcome(
        unit=unit,
        result=result,
        elapsed=time.perf_counter() - started,
        events=events_fired_total() - events_before,
        trace=collector.export() if collector is not None else None,
    )


@dataclass(frozen=True, slots=True)
class ScenarioRun:
    """Aggregated outcome of one scenario at one tier."""

    spec: ScenarioSpec
    tier: str
    config: TierConfig
    root_seed: int
    #: per-replicate ``{"replicate", "seed", "result"}`` records, in order.
    replicates: tuple[dict, ...]

    def artifact(self) -> dict:
        """The versioned JSON artifact for this run.

        Deliberately contains no timestamps, durations or host identity:
        the artifact is a pure function of ``(root_seed, scenario, tier,
        overrides)``, so parallel and serial runs encode identically and
        CI can diff artifacts across commits.
        """
        return {
            "schema": ARTIFACT_SCHEMA,
            "scenario": self.spec.id,
            "group": self.spec.group,
            "title": self.spec.title,
            "tier": self.tier,
            "root_seed": self.root_seed,
            "config": {
                "n": self.config.n,
                "messages": self.config.messages,
                "replicates": self.config.replicates,
                "stabilization_cycles": self.config.stabilization_cycles,
                "extra": dict(self.config.extra),
            },
            "replicates": list(self.replicates),
        }

    def _rows(self, record: dict) -> list[tuple[str, dict]]:
        context = RunContext(self.config, record["seed"])
        return self.spec.cell_rows(context, record["result"])

    def render(self) -> str:
        """The first replicate's report: one row per cell."""
        record = self.replicates[0]
        return render_report(
            f"{self.spec.title} (n={self.config.n})",
            record["result"], self.spec.grid, self._rows(record), self.spec.columns,
        )

    def check(self) -> list[tuple[Optional[Claim], Optional[str]]]:
        """Every claim and invariant evaluated on every replicate: each
        with ``None`` or its ``check failed:`` line."""
        spec, outcomes = self.spec, []
        for record in self.replicates:
            # With replicates, a failure names the one it holds for.
            name = spec.id if len(self.replicates) == 1 else f"{spec.id}[{record['replicate']}]"
            rows = self._rows(record)
            outcomes += check_claims(
                name, spec.claims, spec.invariant, rows, self.config.n, self.config.messages
            )
        return outcomes


@dataclass
class SweepTimings:
    """Wall-clock accounting for one orchestrator sweep.

    Collected from :class:`UnitOutcome`; deliberately kept outside
    :class:`ScenarioRun` so nothing timing-shaped can leak into ``BENCH_*``
    artifacts.  Rendered to stderr only (the per-scenario table and the
    snapshot-cache line).
    """

    #: scenario id -> summed worker-seconds over its units.
    scenario_seconds: dict[str, float] = field(default_factory=dict)
    #: scenario id -> unit count.
    scenario_units: dict[str, int] = field(default_factory=dict)
    #: scenario id -> summed kernel events fired over its units.
    scenario_events: dict[str, int] = field(default_factory=dict)
    #: snapshot-cache behaviour summed over chunks: hit/miss/eviction
    #: counters plus per-worker peak entries/bytes (logs only, never in
    #: BENCH artifacts).
    snapshot_cache: dict = field(default_factory=dict)
    wall_seconds: float = 0.0

    def record(self, outcome: UnitOutcome) -> None:
        scenario_id = outcome.unit.scenario_id
        self.scenario_seconds[scenario_id] = (
            self.scenario_seconds.get(scenario_id, 0.0) + outcome.elapsed
        )
        self.scenario_units[scenario_id] = self.scenario_units.get(scenario_id, 0) + 1
        self.scenario_events[scenario_id] = (
            self.scenario_events.get(scenario_id, 0) + outcome.events
        )

    def record_cache(self, delta: dict) -> None:
        cache = self.snapshot_cache
        for key in ("hits", "misses", "evictions"):
            cache[key] = cache.get(key, 0) + delta[key]
        for key in ("entries", "cached_bytes"):
            cache[key] = max(cache.get(key, 0), delta[key])

    def format_cache(self) -> str:
        """One stderr line summarising snapshot-cache behaviour."""
        cache = self.snapshot_cache
        if not cache:
            return "snapshot cache: (unused)"
        return (
            f"snapshot cache: {cache.get('hits', 0)} hits, "
            f"{cache.get('misses', 0)} misses, "
            f"{cache.get('evictions', 0)} evictions; peak "
            f"{cache.get('entries', 0)} entries / "
            f"{cache.get('cached_bytes', 0):,} bytes per worker"
        )


def build_units(
    scenario_ids: Sequence[str],
    tier: str,
    *,
    root_seed: int = DEFAULT_ROOT_SEED,
    n: Optional[int] = None,
    messages: Optional[int] = None,
    replicates: Optional[int] = None,
    snapshot_cache: bool = True,
    trace: bool = False,
) -> list[WorkUnit]:
    """Expand scenarios into the flat, deterministic work-unit list.

    Each scenario's config is resolved once, each replicate's context
    once; then one unit per ``(replicate, cell)``, in the scenario's
    declared axis order — protocol-major for grid sweeps, which the pool's
    chunking turns into per-worker cache affinity.
    """
    units: list[WorkUnit] = []
    for scenario_id in scenario_ids:
        spec = get_scenario(scenario_id)
        config = _resolve(spec, tier, n, messages, replicates)
        for replicate in range(config.replicates):
            context = RunContext(config, replicate_seed(root_seed, scenario_id, replicate))
            units.extend(
                WorkUnit(scenario_id, replicate, context, key, snapshot_cache, trace)
                for key in spec.cells(context)
            )
    return units


def _chunk_outcomes(
    chunks: list[list[WorkUnit]], workers: int
) -> Iterator[tuple[list[UnitOutcome], dict]]:
    """Run the chunks: in this process with one worker, else on a pool
    (completion order)."""
    if workers == 1 or len(chunks) == 1:
        yield from map(_execute_chunk, chunks)
        return
    context = multiprocessing.get_context(_start_method())
    with context.Pool(processes=min(workers, len(chunks))) as pool:
        yield from pool.imap_unordered(_execute_chunk, chunks)


def run_scenarios(
    scenario_ids: Sequence[str],
    tier: str,
    *,
    workers: int = 1,
    root_seed: int = DEFAULT_ROOT_SEED,
    n: Optional[int] = None,
    messages: Optional[int] = None,
    replicates: Optional[int] = None,
    snapshot_cache: bool = True,
    trace_sink: Optional[Callable[[str, list], None]] = None,
    progress: Optional[Callable[[str], None]] = None,
    timings: Optional[SweepTimings] = None,
) -> dict[str, ScenarioRun]:
    """Run scenarios at ``tier``, sharding work units over ``workers``.

    Returns runs keyed by scenario id, replicates ordered by index —
    identical regardless of worker count, snapshot caching or completion
    order.

    Handed a ``trace_sink``, workers collect dissemination-trace
    segments, and once a scenario's last unit is in the sink receives its
    id and one ``{"replicate", "segments"}`` record per replicate, segments
    flattened in cell-enumeration order (so the collected trace is
    identical across the workers × snapshot-cache matrix).  ``BENCH_*``
    artifacts are unaffected.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1: {workers}")
    started = time.perf_counter()
    units = build_units(
        scenario_ids, tier,
        root_seed=root_seed, n=n, messages=messages, replicates=replicates,
        snapshot_cache=snapshot_cache, trace=trace_sink is not None,
    )
    left = collections.Counter(unit.scenario_id for unit in units)
    done: dict[tuple[str, int, CellKey], UnitOutcome] = {}
    for outcomes, cache_delta in _chunk_outcomes(build_chunks(units, workers), workers):
        for outcome in outcomes:
            unit = outcome.unit
            done[unit.scenario_id, unit.replicate, unit.cell] = outcome
            if timings is not None:
                timings.record(outcome)
            if progress is not None:
                progress(f"{unit.describe()} done in {outcome.elapsed:.2f}s")
            left[unit.scenario_id] -= 1
            if trace_sink is not None and not left[unit.scenario_id]:
                trace_sink(unit.scenario_id, _take_trace(units, done, unit.scenario_id))
        if timings is not None:
            timings.record_cache(cache_delta)
    if timings is not None:
        timings.wall_seconds += time.perf_counter() - started

    # Reassemble in declared unit order (build_units keeps a scenario's and
    # a replicate's units together): completion order is scheduling noise.
    runs: dict[str, ScenarioRun] = {}
    for scenario_id, scenario_units in itertools.groupby(units, lambda unit: unit.scenario_id):
        spec = get_scenario(scenario_id)
        records = []
        for replicate, cells in itertools.groupby(scenario_units, lambda unit: unit.replicate):
            outcomes = [done[scenario_id, replicate, unit.cell] for unit in cells]
            context = outcomes[0].unit.context
            result = spec.merge_cells(
                context, {outcome.unit.cell: outcome.result for outcome in outcomes}
            )
            records.append({"replicate": replicate, "seed": context.seed, "result": result})
        runs[scenario_id] = ScenarioRun(
            spec=spec,
            tier=tier,
            config=context.config,
            root_seed=root_seed,
            replicates=tuple(records),
        )
    return runs


def _take_trace(units: list[WorkUnit], done: dict, scenario_id: str) -> list[dict]:
    """One scenario's trace records in declared unit order, taken out of ``done``."""
    entries = []
    mine = (unit for unit in units if unit.scenario_id == scenario_id)
    for replicate, cells in itertools.groupby(mine, lambda unit: unit.replicate):
        keys = [(scenario_id, replicate, unit.cell) for unit in cells]
        segments = [part for key in keys for part in done[key].trace or ()]
        entries.append({"replicate": replicate, "segments": segments})
        for key in keys:
            done[key] = replace(done[key], trace=None)
    return entries


def _start_method() -> str:
    """Prefer ``fork`` on Linux (cheap, and the CI platform); elsewhere
    keep the platform default — macOS lists fork as available but made
    spawn the default because forking after framework init is unsafe."""
    if sys.platform.startswith("linux"):
        return "fork"
    return multiprocessing.get_start_method(allow_none=False)


def write_artifacts(
    runs: dict[str, ScenarioRun], directory: pathlib.Path | str
) -> list[pathlib.Path]:
    """Persist every run as ``BENCH_<scenario>.json`` under ``directory``."""
    return [write_artifact(directory, run.artifact()) for run in runs.values()]


def run_and_report(
    scenario_ids: Sequence[str],
    tier: str,
    *,
    workers: int = 1,
    root_seed: int = DEFAULT_ROOT_SEED,
    n: Optional[int] = None,
    messages: Optional[int] = None,
    replicates: Optional[int] = None,
    snapshot_cache: bool = True,
    trace: bool = False,
    out_dir: Optional[pathlib.Path | str] = None,
    stream=None,
) -> dict[str, ScenarioRun]:
    """Run and persist; what the CLI does before it prints and checks.

    Timing (per unit, per scenario, total) is reported to ``stream``
    (default stderr) and nowhere else; it never enters a file, so the
    ``BENCH_*`` artifacts stay deterministic.

    With ``trace``, dissemination traces are collected and written as
    ``TRACE_*`` files beside the ``BENCH_*`` ones in ``out_dir``, which
    must be given, each once its scenario is done; a stderr summary
    surfaces record and drop counts so silent trace truncation is visible.
    """
    if trace and out_dir is None:
        raise ConfigurationError(
            "tracing writes TRACE_ files beside the BENCH_ artifacts: "
            "it needs an output directory (drop --no-artifacts)"
        )
    stream = stream if stream is not None else sys.stderr
    timings = SweepTimings()

    def write_trace(scenario_id: str, entries: list) -> None:
        segments = [segment for entry in entries for segment in entry["segments"]]
        print(
            f"trace [{scenario_id}]: {len(segments)} segment(s), "
            f"{sum(len(segment['records']) for segment in segments)} record(s), "
            f"{sum(segment['dropped'] for segment in segments)} dropped",
            file=stream,
        )
        trace_file = {
            "schema": TRACE_SCHEMA,
            "scenario": scenario_id,
            "tier": tier,
            "root_seed": root_seed,
            "replicates": entries,
        }
        path = write_artifact(out_dir, trace_file)  # type: ignore[arg-type]
        print(f"  wrote {path}", file=stream)

    runs = run_scenarios(
        scenario_ids, tier,
        workers=workers, root_seed=root_seed,
        n=n, messages=messages, replicates=replicates,
        snapshot_cache=snapshot_cache, trace_sink=write_trace if trace else None,
        progress=lambda note: print(f"  [{tier}] {note}", file=stream),
        timings=timings,
    )
    print(
        f"ran {len(scenario_ids)} scenario(s) at tier {tier!r} with "
        f"{workers} worker(s) in {timings.wall_seconds:.1f}s",
        file=stream,
    )
    print(
        format_timings(
            timings.scenario_seconds, timings.scenario_units, timings.scenario_events
        ),
        file=stream,
    )
    print(timings.format_cache(), file=stream)
    if out_dir is not None:
        for path in write_artifacts(runs, out_dir):
            print(f"  wrote {path}", file=stream)
    return runs
