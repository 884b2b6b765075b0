"""Collect a set of runs into one file, and compare two such files.

``--collect`` runs each workload ``--runs`` times untraced (one seed each) and
once traced, each in its own process, and saves every result line.
``--compare A.json B.json`` prints the table later performance and
simplification changes paste into their description: one row per (workload,
end-to-end metric) with a verdict, then the per-layer deltas.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import subprocess
import sys

import metrics

RUN = pathlib.Path(__file__).resolve().parent / "run.py"


def _run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [
        sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(
            f"{' '.join(command)} exited {done.returncode}:\n{done.stdout}\n{done.stderr}"
        )
    return {
        "result": json.loads(lines[-1]),
        "detail": json.loads(lines[-2].removeprefix("detail ")),
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4)
    return low, mid, high


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    low, mid, high = quartiles(values)
    return (high - low) / mid if mid else 0.0


def metric_values(runs: list[dict], name: str) -> list[float]:
    return [run["result"]["metrics"][name]["value"] for run in runs]


def collect(out: str, workloads: list[str], runs: int, seconds: float, first_seed: int) -> int:
    collected = {}
    for workload in workloads:
        untraced = []
        for seed in range(first_seed, first_seed + runs):
            untraced.append(_run_once(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{name}={entry['value']:.5g}"
                for name, entry in untraced[-1]["result"]["metrics"].items()
            ) + ("  noisy" if untraced[-1]["detail"]["noisy"] else ""), flush=True)
        traced = _run_once(workload, first_seed, seconds, 1)
        collected[workload] = {"untraced": untraced, "traced": traced}
        for name, _unit, _better, bound in metrics.END_TO_END:
            values = metric_values(untraced, name)
            low, mid, high = quartiles(values)
            print(f"  {workload} {name}: median {mid:.5g}  quartiles {low:.5g}..{high:.5g}  "
                  f"spread {spread(values):.3f} of bound {bound}", flush=True)
    pathlib.Path(out).write_text(json.dumps(collected) + "\n")
    return 0


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """``better``/``worse`` when B's median left A's by more than the bound;
    ``unresolved`` when A's own spread is wider than the bound."""
    if spread(a) > bound:
        return "unresolved"
    base, new = statistics.median(a), statistics.median(b)
    change = (new - base) / base if base else 0.0
    if better == "lower":
        change = -change
    if change > bound:
        return "better"
    if change < -bound:
        return "worse"
    return "same"


def compare_files(path_a: str, path_b: str) -> str:
    a = json.loads(pathlib.Path(path_a).read_text())
    b = json.loads(pathlib.Path(path_b).read_text())
    lines = [
        f"A = {path_a}   B = {path_b}",
        "",
        "| workload | metric | unit | A median (q1..q3) | B median (q1..q3) | B/A | bound | verdict |",
        "|---|---|---|---|---|---|---|---|",
    ]
    shared = [name for name in a if name in b]
    for workload in shared:
        for name, unit, better, bound in metrics.END_TO_END:
            va = metric_values(a[workload]["untraced"], name)
            vb = metric_values(b[workload]["untraced"], name)
            (la, ma, ha), (lb, mb, hb) = quartiles(va), quartiles(vb)
            lines.append(
                f"| {workload} | {name} | {unit} | {ma:.5g} ({la:.5g}..{ha:.5g}) | "
                f"{mb:.5g} ({lb:.5g}..{hb:.5g}) | {mb / ma:.3f} | {bound} ({better} is better) | "
                f"{verdict(va, vb, better, bound)} |"
            )
        failed_a = sum(run["result"]["failed"] for run in a[workload]["untraced"])
        failed_b = sum(run["result"]["failed"] for run in b[workload]["untraced"])
        lines.append(f"| {workload} | ops_failed | count | {failed_a} | {failed_b} | | may not rise | "
                     f"{'worse' if failed_b > failed_a else 'same'} |")
    lines += [
        "",
        "Per-layer table, from one traced run a side (the base of every ratio is A):",
        "",
        "| workload | layer metric | unit | A | B | B/A |",
        "|---|---|---|---|---|---|",
    ]
    for workload in shared:
        ta = a[workload]["traced"]["result"]["metrics"]
        tb = b[workload]["traced"]["result"]["metrics"]
        for name, unit, _better in metrics.PER_LAYER:
            x, y = ta[name]["value"], tb[name]["value"]
            if x == 0 and y == 0:
                continue
            ratio = f"{y / x:.3f}" if x else "new"
            lines.append(f"| {workload} | {name} | {unit} | {x:.6g} | {y:.6g} | {ratio} |")
        da, db = a[workload]["traced"]["detail"], b[workload]["traced"]["detail"]
        if da["sim_digest"]:
            same = "identical" if da["sim_digest"] == db["sim_digest"] else "DIFFERENT"
            lines.append(f"| {workload} | sim_digest | sha256 | {da['sim_digest'][:12]} | "
                         f"{db['sim_digest'][:12]} | {same} |")
    return "\n".join(lines)
