"""Rendering and persistence of experiment results.

Three parts:

* **Plain text** — ``repro bench`` prints the same rows and series
  the paper's tables and figures report; these helpers keep that output
  aligned, stable and diff-friendly.
* **Columns and claims** — a scenario declares its report columns and
  what the paper says about its cells as data (:class:`Column`,
  :class:`Claim`); :func:`render_report` prints every scenario and
  :func:`check_claims` checks every scenario, naming the figure and the
  numbers of each failed claim.
* **JSON artifacts** — the experiment orchestrator persists every scenario
  run as a versioned ``BENCH_<scenario>.json`` file, and its dissemination
  trace, when collected, as ``TRACE_<scenario>.json``.  Artifacts are
  canonically encoded (sorted keys, fixed indentation, no timestamps or
  host identity), so a parallel run is byte-identical to a serial run of
  the same seed and CI can diff benchmark trajectories across commits.

Wall-clock is never persisted: :func:`format_timings` renders it for
stderr, so every file written here stays a pure function of the seed.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import operator
import pathlib
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence

from ..common.errors import ConfigurationError
from ..metrics.reliability import atomic_fraction

#: Version tag of each artifact family; bump on breaking layout changes.
#: ``BENCH_*`` holds a scenario's results, ``TRACE_*`` its dissemination
#: trace.  Both are pure functions of the seed, but a trace lives in its
#: own file: tracing must never touch a BENCH byte.
ARTIFACT_SCHEMA = "repro-bench/1"
TRACE_SCHEMA = "repro-trace/1"

#: The file prefix each schema is written under.
ARTIFACT_PREFIXES = {ARTIFACT_SCHEMA: "BENCH", TRACE_SCHEMA: "TRACE"}


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
    # One growing buffer: ``json.dumps`` would first list every token of a
    # trace artifact, which runs to hundreds of MB.
    text = io.StringIO()
    text.writelines(json.JSONEncoder(sort_keys=True, indent=2).iterencode(json_safe(artifact)))
    text.write("\n")
    return text.getvalue()


def artifact_filename(scenario_id: str, schema: str = ARTIFACT_SCHEMA) -> str:
    """The on-disk name of one scenario's artifact of ``schema``."""
    return f"{ARTIFACT_PREFIXES[schema]}_{scenario_id}.json"


def write_artifact(
    directory: pathlib.Path | str, artifact: Mapping[str, object]
) -> pathlib.Path:
    """Persist one artifact under ``directory``, named by its scenario and
    schema; returns the path."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / artifact_filename(str(artifact["scenario"]), str(artifact["schema"]))
    path.write_text(encode_artifact(artifact))
    return path


def load_artifact(path: pathlib.Path | str, schema: str = ARTIFACT_SCHEMA) -> dict:
    """Read an artifact of ``schema`` back.  An unreadable file, invalid
    JSON or another schema is a :class:`ConfigurationError`."""
    try:
        data = json.loads(pathlib.Path(path).read_text())
    except OSError as error:
        raise ConfigurationError(f"cannot read artifact {path}: {error}") from error
    except (ValueError, RecursionError) as error:
        raise ConfigurationError(f"artifact {path} is not valid JSON: {error}") from error
    found = data.get("schema") if isinstance(data, dict) else None
    if found != schema:
        raise ConfigurationError(
            f"unsupported artifact schema {found!r} in {path} (expected {schema!r})"
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


# ----------------------------------------------------------------------
# Declared columns and claims: one report and one check for every scenario
# ----------------------------------------------------------------------
#: Below this size the paper's shapes are too noisy: BENCH claims skip it.
SHAPE_CHECK_MIN_N = 400

#: What a path may end in: ``series|tail`` is the mean of the last ten,
#: ``series|head`` of the first ten, ``series|atomic`` the share at 1.0.
REDUCERS: dict[str, Callable[[list], float]] = {
    "max": max, "min": min, "mean": lambda values: sum(values) / len(values),
    "head": lambda values: sum(values[:10]) / len(values[:10]) if values else 0.0,
    "tail": lambda values: sum(values[-10:]) / len(values[-10:]) if values else 0.0,
    "atomic": atomic_fraction,
}

COMPARATORS: dict[str, Callable[[object, object], bool]] = {
    "<": operator.lt, "<=": operator.le, "==": operator.eq, ">=": operator.ge, ">": operator.gt,
}


def resolve(value: object, path: str) -> object:
    """Read ``path`` from a result: dot-separated keys; on a list an integer
    is an index and a name picks the phase row of that name; a trailing
    ``|reducer`` reduces the list it reached.  ``None`` if a key is missing,
    an index is past the list's end, the path runs past a scalar or a
    reducer meets one."""
    path, _, reducer = path.partition("|")
    for part in filter(None, path.split(".")):
        if isinstance(value, list):
            if part.lstrip("-").isdigit():
                value = value[int(part)] if -len(value) <= int(part) < len(value) else None
            else:
                rows = (row for row in value if isinstance(row, Mapping))
                value = next((row for row in rows if row.get("phase") == part), None)
        else:
            value = value.get(part) if isinstance(value, Mapping) else None
        if value is None:
            return None
    if not reducer:
        return value
    return REDUCERS[reducer](value) if isinstance(value, list) else None


@dataclass(frozen=True, slots=True)
class Column:
    """A report column: header, path into a cell, format (``spark``: a sparkline)."""

    header: str
    path: str
    fmt: str = ".4f"

    def text(self, cell: dict) -> str:
        value: Any = resolve(cell, self.path)
        if value is None:
            return "-"
        return sparkline(value) if self.fmt == "spark" else format(value, self.fmt)


@dataclass(frozen=True, slots=True)
class Scale:
    """Where a claim holds: a system-size range, a minimum stream length,
    and cells the run's grid must hold (a thinned sweep is not the figure)."""

    min_n: int = 0
    max_n: Optional[int] = None
    min_messages: int = 0
    grid: tuple[str, ...] = ()


ANY = Scale()  # sanity bounds, and what the repo claims at any size
BENCH = Scale(min_n=SHAPE_CHECK_MIN_N)  # where the paper's shapes hold


@dataclass(frozen=True, slots=True)
class Ref:
    """A bound read from a cell, ``factor * metric + slack``.  ``cell`` is a
    label, an index into the grid's cells, or ``None`` for the claim's own."""

    cell: str | int | None
    metric: str
    slack: float = 0.0
    factor: float = 1.0


@dataclass(frozen=True, slots=True)
class Claim:
    """``metric op bound`` on every cell ``cells`` selects (a label, an
    ``fnmatch`` pattern or an index), where ``ref`` — a figure, a section or
    the repo's own extension — says it holds, at ``scale``."""

    ref: str
    cells: str | int
    metric: str
    op: str
    bound: float | Ref
    scale: Scale = BENCH


def _pick(rows: list[tuple[str, dict]], selector: str | int) -> list[tuple[str, dict]]:
    if isinstance(selector, int):
        return [rows[selector]]
    return [(label, cell) for label, cell in rows if fnmatchcase(label, selector)]


def _number(value: object) -> str:
    return format(value, ".4g") if isinstance(value, float) else str(value)


def check_claims(
    scenario: str, claims: Sequence[Claim], invariant: Optional[Callable[[dict], None]],
    rows: list[tuple[str, dict]], n: int, messages: int,
) -> Iterator[tuple[Optional[Claim], Optional[str]]]:
    """Every evaluation of a claim in scale on one replicate's cells, with
    ``None`` or its ``check failed:`` line; invariant failures first."""
    for label, cell in rows if invariant is not None else ():
        try:
            invariant(cell)  # type: ignore[misc]
        except AssertionError as error:
            yield None, f"check failed: {scenario} invariant: {label or '-'}: {error}"
    labels = dict(rows)
    for claim in claims:
        scale = claim.scale
        if not (scale.min_n <= n <= (scale.max_n or n) and messages >= scale.min_messages
                and labels.keys() >= set(scale.grid)):
            continue
        for label, cell in _pick(rows, claim.cells):
            bound, source = claim.bound, ""
            if isinstance(bound, Ref):
                if isinstance(bound.cell, str) and bound.cell not in labels:
                    continue
                name, other = (label, cell) if bound.cell is None else _pick(rows, bound.cell)[0]
                value = resolve(other, bound.metric)
                factor = f"{bound.factor:g} * " if bound.factor != 1.0 else ""
                slack = f" {bound.slack:+g}" if bound.slack else ""
                source = f" ({factor}{name} {bound.metric}{slack})"
                bound = None if value is None else value * bound.factor + bound.slack
            actual = resolve(cell, claim.metric)
            if actual is not None and bound is not None and COMPARATORS[claim.op](actual, bound):
                yield claim, None
            else:
                yield claim, (
                    f"check failed: {scenario} {claim.ref}: {label or '-'} {claim.metric} = "
                    f"{_number(actual)} {claim.op} {_number(bound)}{source}"
                )


def render_report(
    title: str, result: dict, grid: str, rows: list[tuple[str, dict]], columns: Sequence[Column]
) -> str:
    """One table, a row per cell; the result's scalar fields beside the grid
    (a sweep's failure level, say) join the title."""
    scalars = (item for item in result.items() if isinstance(item[1], (int, float, str)))
    fields = [f"{key}={value}" for key, value in scalars if key != grid]
    return format_table(
        ["cell", *(column.header for column in columns)],
        [[label or "-", *(column.text(cell) for column in columns)] for label, cell in rows],
        title="; ".join([title, *fields]),
    )
