"""Rendering and persistence of experiment results.

Two halves:

* **Plain text** — ``repro bench`` prints the same rows and series
  the paper's tables and figures report; these helpers keep that output
  aligned, stable and diff-friendly.
* **JSON artifacts** — the experiment orchestrator persists every scenario
  run as a versioned ``BENCH_<scenario>.json`` file.  Artifacts are
  canonically encoded (sorted keys, fixed indentation, no timestamps or
  host identity), so a parallel run is byte-identical to a serial run of
  the same seed and CI can diff benchmark trajectories across commits.

Wall-clock is never persisted: :func:`format_timings` renders it for
stderr, so every file written here stays a pure function of the seed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
from typing import Iterable, Mapping, Optional, Sequence

#: Version tag embedded in every artifact; bump on breaking layout changes.
ARTIFACT_SCHEMA = "repro-bench/1"

#: Version tag of the dissemination-trace artifacts (``TRACE_*.json``).
#: Traces are deterministic (pure functions of the seed, like ``BENCH_*``)
#: but live in their own files: tracing must never touch a BENCH byte.
TRACE_SCHEMA = "repro-trace/1"

#: Version tag of the metrics-snapshot artifacts (``METRICS_*.json``),
#: derived from the trace and equally deterministic.
METRICS_SCHEMA = "repro-metrics/1"


# ----------------------------------------------------------------------
# JSON artifacts
# ----------------------------------------------------------------------
def json_safe(value: object) -> object:
    """Recursively convert an experiment result into JSON-encodable data.

    Dataclasses and named tuples (identifiers) become dicts, mappings get
    string keys (sorted encoding needs homogeneous keys — degree histograms
    are keyed by ints), plain tuples become lists, and non-finite floats
    become ``None`` rather than the non-standard ``NaN``/``Infinity`` tokens.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: json_safe(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return {name: json_safe(item) for name, item in zip(value._fields, value)}
    if isinstance(value, Mapping):
        return {str(key): json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [json_safe(item) for item in items]
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    return str(value)


def encode_artifact(artifact: Mapping[str, object]) -> str:
    """Canonical text encoding: sorted keys, two-space indent, newline EOF.

    Byte-for-byte stability of this encoding is what the parallel-vs-serial
    determinism guarantee (and its CI check) is stated in terms of.
    """
    return json.dumps(json_safe(artifact), sort_keys=True, indent=2) + "\n"


def artifact_filename(scenario_id: str) -> str:
    """The on-disk name for one scenario's results."""
    return f"BENCH_{scenario_id}.json"


def write_artifact(
    directory: pathlib.Path | str, artifact: Mapping[str, object]
) -> pathlib.Path:
    """Persist one scenario artifact under ``directory``; returns the path."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / artifact_filename(str(artifact["scenario"]))
    path.write_text(encode_artifact(artifact))
    return path


def load_artifact(path: pathlib.Path | str) -> dict:
    """Read an artifact back; raises ``ValueError`` on schema mismatch."""
    data = json.loads(pathlib.Path(path).read_text())
    schema = data.get("schema")
    if schema != ARTIFACT_SCHEMA:
        raise ValueError(
            f"unsupported artifact schema {schema!r} in {path} "
            f"(expected {ARTIFACT_SCHEMA!r})"
        )
    return data


def trace_filename(scenario_id: str) -> str:
    """The on-disk name for one scenario's dissemination trace."""
    return f"TRACE_{scenario_id}.json"


def metrics_filename(scenario_id: str) -> str:
    """The on-disk name for one scenario's metrics snapshot."""
    return f"METRICS_{scenario_id}.json"


def trace_artifact(
    scenario_id: str,
    *,
    tier: str,
    root_seed: int,
    replicates: Sequence[Mapping[str, object]],
) -> dict:
    """The ``TRACE_<scenario>.json`` payload.

    ``replicates`` entries are ``{"replicate": i, "segments": [...]}``
    with segments flattened in cell-enumeration order, so the trace is
    byte-identical across the workers × snapshot-cache matrix.
    """
    return {
        "schema": TRACE_SCHEMA,
        "scenario": scenario_id,
        "tier": tier,
        "root_seed": root_seed,
        "replicates": list(replicates),
    }


def metrics_artifact(
    scenario_id: str,
    *,
    tier: str,
    root_seed: int,
    replicates: Sequence[Mapping[str, object]],
) -> dict:
    """The ``METRICS_<scenario>.json`` payload: per-replicate counter
    snapshots derived from the dissemination trace (deterministic)."""
    return {
        "schema": METRICS_SCHEMA,
        "scenario": scenario_id,
        "tier": tier,
        "root_seed": root_seed,
        "replicates": list(replicates),
    }


def write_trace_file(
    directory: pathlib.Path | str, trace: Mapping[str, object]
) -> pathlib.Path:
    """Persist one scenario's ``TRACE_*.json``; returns the path."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / trace_filename(str(trace["scenario"]))
    path.write_text(encode_artifact(trace))
    return path


def write_metrics_file(
    directory: pathlib.Path | str, metrics: Mapping[str, object]
) -> pathlib.Path:
    """Persist one scenario's ``METRICS_*.json``; returns the path."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / metrics_filename(str(metrics["scenario"]))
    path.write_text(encode_artifact(metrics))
    return path


def load_trace(path: pathlib.Path | str) -> dict:
    """Read a trace artifact back; raises ``ValueError`` on schema mismatch."""
    data = json.loads(pathlib.Path(path).read_text())
    schema = data.get("schema")
    if schema != TRACE_SCHEMA:
        raise ValueError(
            f"unsupported trace schema {schema!r} in {path} "
            f"(expected {TRACE_SCHEMA!r})"
        )
    return data


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    title: Optional[str] = None,
) -> str:
    """Render an aligned ASCII table."""
    materialized = [[_cell(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialized:
        for index, value in enumerate(row):
            widths[index] = max(widths[index], len(value))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in materialized:
        lines.append("  ".join(value.ljust(widths[i]) for i, value in enumerate(row)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def format_timings(
    scenario_seconds: Mapping[str, float],
    scenario_units: Mapping[str, int],
    scenario_events: Optional[Mapping[str, int]] = None,
) -> str:
    """Render per-scenario wall-clock totals for job logs.

    Strictly observability: this output goes to stderr/CI logs only and
    must never be embedded in ``BENCH_*.json`` artifacts, which are
    required to be deterministic.
    """
    if not scenario_seconds:
        return "per-scenario timings: (none)"
    events = scenario_events or {}
    rows = []
    for scenario_id, seconds in sorted(scenario_seconds.items()):
        fired = events.get(scenario_id, 0)
        rows.append(
            [
                scenario_id,
                scenario_units.get(scenario_id, 0),
                f"{seconds:.2f}s",
                f"{fired / seconds:,.0f}" if fired and seconds > 0 else "-",
            ]
        )
    return format_table(
        ["scenario", "units", "worker seconds", "kernel events/s"],
        rows,
        title="per-scenario timings (logs only, never in BENCH artifacts)",
    )


def format_phases(
    phases: Sequence[Mapping[str, object]],
    *,
    title: Optional[str] = None,
) -> str:
    """Render per-fault-phase aggregates (the ``faults_*`` scenarios).

    Each row is one named window of a fault-plan timeline with its message
    count and reliability aggregates, as produced by
    :func:`repro.faults.measure.measure_fault_plan`.
    """
    rows = []
    for phase in phases:
        rows.append(
            [
                phase["phase"],
                f"{phase['start']:g}..{phase['end']:g}s",
                phase["messages"],
                "-" if phase["average"] is None else f"{phase['average']:.4f}",
                "-" if phase["min"] is None else f"{phase['min']:.4f}",
                "-" if phase["atomic"] is None else f"{phase['atomic']:.4f}",
            ]
        )
    return format_table(
        ["phase", "window", "msgs", "avg reliability", "min", "atomic"],
        rows,
        title=title,
    )


def format_series(series: Sequence[float], *, per_line: int = 20) -> str:
    """Render a reliability series as wrapped rows of percentages."""
    chunks = []
    for start in range(0, len(series), per_line):
        chunk = series[start : start + per_line]
        chunks.append(
            f"  msgs {start:>4}-{start + len(chunk) - 1:<4} "
            + " ".join(f"{100 * value:5.1f}" for value in chunk)
        )
    return "\n".join(chunks)


def sparkline(series: Sequence[float], *, low: float = 0.0, high: float = 1.0) -> str:
    """One-character-per-point rendering of a series, for quick eyeballs."""
    blocks = " ▁▂▃▄▅▆▇█"
    if high <= low:
        return " " * len(series)
    out = []
    for value in series:
        normalized = (min(max(value, low), high) - low) / (high - low)
        out.append(blocks[round(normalized * (len(blocks) - 1))])
    return "".join(out)


def format_histogram(
    histogram: Mapping[int, int],
    *,
    max_width: int = 50,
    title: Optional[str] = None,
) -> str:
    """Render a degree histogram (Figure 5 style) with proportional bars."""
    if not histogram:
        return "(empty histogram)"
    peak = max(histogram.values())
    lines = [title] if title else []
    for degree in sorted(histogram):
        count = histogram[degree]
        bar = "#" * max(1, round(max_width * count / peak)) if count else ""
        lines.append(f"  in-degree {degree:>4}: {count:>6} {bar}")
    return "\n".join(lines)
