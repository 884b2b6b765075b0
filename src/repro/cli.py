"""Command-line interface: run any of the paper's experiments directly.

Examples::

    repro quickstart --n 200
    repro bench --list
    repro bench --scenario fig2_reliability --tier paper --n 500 --messages 100
    repro bench --tier smoke --workers 2 --out benchmarks/results
    repro bench --tier paper --scenario fig2_reliability
    repro bench --trace --scenario fig2_reliability --out traces
    repro trace traces/TRACE_fig2_reliability.json

``bench`` is the one way to run a paper experiment: it drives the parallel
orchestrator over the tiered scenario registry (every figure, table and
ablation is a registered grid of cells), prints each scenario's plain-text
report and persists ``BENCH_<scenario>.json`` artifacts.  Scale and seed
are flags (``--n``, ``--messages``, ``--seed``); ``--tier paper`` alone is
the full DSN'07 configuration.  ``bench --trace`` also writes each
scenario's ``TRACE_<scenario>.json``, and ``trace`` reads one back.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Optional, Sequence

from .common.errors import ConfigurationError
from .experiments.params import ExperimentParams
from .experiments.registry import REGISTRY, TIER_SCALES
from .experiments.reporting import TRACE_SCHEMA, format_table, load_artifact
from .experiments.scenario import Scenario
from .obs.trace import DisseminationTrace


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def cmd_quickstart(args: argparse.Namespace) -> int:
    params = ExperimentParams.scaled(args.n, seed=args.seed)
    print(f"building a {params.n}-node HyParView overlay (seed {params.seed}) ...")
    scenario = Scenario("hyparview", params)
    scenario.build_overlay()
    scenario.stabilize()
    summaries = scenario.send_broadcasts(args.messages)
    snapshot = scenario.snapshot()
    print(
        format_table(
            ["metric", "value"],
            [
                ["nodes", params.n],
                ["avg reliability", sum(s.reliability for s in summaries) / len(summaries)],
                ["max hops", max(s.max_hops for s in summaries)],
                ["connected", str(snapshot.is_connected())],
                ["symmetry", snapshot.symmetry_fraction()],
                ["avg clustering", snapshot.average_clustering()],
            ],
            title="quickstart",
        )
    )
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    # Imported lazily: the runner pulls in multiprocessing machinery
    # quickstart never needs.
    from .experiments.runner import run_and_report

    if args.list:
        rows = [
            [spec.id, spec.group, spec.title]
            for spec in sorted(REGISTRY.values(), key=lambda s: s.id)
        ]
        print(format_table(["scenario", "group", "title"], rows,
                           title="registered scenarios"))
        return 0
    # Unknown ids and tiers raise (with the available ones) before any work.
    scenario_ids = list(dict.fromkeys(args.scenario or sorted(REGISTRY)))
    runs = run_and_report(
        scenario_ids,
        args.tier,
        workers=args.workers,
        root_seed=args.seed,
        n=args.n,
        messages=args.messages,
        replicates=args.replicates,
        snapshot_cache=not args.no_snapshot_cache,
        trace=args.trace,
        out_dir=None if args.no_artifacts else args.out,
    )
    for run in runs.values():
        print(f"\n===== {run.spec.id} =====")
        print(run.render())
    # Every claim of every scenario is checked, and every failure named,
    # before exiting.
    failures = [
        failure
        for run in (runs.values() if args.check else ())
        for _, failure in run.check()
        if failure is not None
    ]
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Inspect the ``TRACE_<scenario>.json`` that ``bench --trace`` wrote.

    Summary mode (default) prints one row per traced message: deliveries,
    tree depth, fan-out, redundancy, time-to-full-delivery.  With
    ``--message`` it dumps the reconstructed broadcast tree of one message
    as Chrome trace-event JSON (``chrome://tracing`` / Perfetto).
    """
    import json

    if args.out is not None and args.message is None:
        raise ConfigurationError("--out writes one message's tree: it needs --message")
    artifact = load_artifact(args.path, TRACE_SCHEMA)
    view = DisseminationTrace.from_artifact(artifact, args.replicate)
    if args.message is not None:
        try:
            message = view.message(args.message)
        except KeyError as error:
            raise ConfigurationError(
                f"{error.args[0]} — run without --message for the id list"
            ) from error
        payload = json.dumps(message.chrome_trace(), indent=2, sort_keys=True) + "\n"
        if args.out is not None:
            try:
                args.out.parent.mkdir(parents=True, exist_ok=True)
                args.out.write_text(payload)
            except OSError as error:
                raise ConfigurationError(f"cannot write {args.out}: {error}") from error
            print(f"wrote {args.out}", file=sys.stderr)
        else:
            print(payload, end="")
        return 0
    print(
        format_table(
            [
                "message",
                "deliveries",
                "depth",
                "max fanout",
                "redundant",
                "acks",
                "drops",
                "t_full (s)",
            ],
            view.summary_rows(),
            title=(
                f"dissemination trace: {artifact.get('scenario')} "
                f"tier={artifact.get('tier')} replicate={args.replicate}"
            ),
        )
    )
    print(
        f"{view.segment_count} segment(s), {view.record_count} record(s), "
        f"{view.dropped_records} dropped"
    )
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """One live run of a fault plan on a loopback-TCP pub/sub cluster.

    Many multiplexed clients publish across the plan timeline while
    :class:`ChaosController` applies it — the same plan vocabulary the
    ``faults_*`` simulator scenarios use.  Prints one row per phase
    (reliability, wrong deliveries, latency) and exits 1 if any
    stale-incarnation delivery reached a client.
    """
    # Imported lazily: asyncio runtime machinery that the simulator
    # commands never need.
    import asyncio

    from .faults.plan import plan_from_file
    from .service.bench import (
        BUILTIN_PLAN,
        TAIL,
        format_report,
        run_live_plan,
        write_artifacts,
    )

    plan = BUILTIN_PLAN if args.plan is None else plan_from_file(args.plan)
    budget = (plan.horizon + TAIL) * max(args.time_scale, 0.0) + 60.0
    report = asyncio.run(
        asyncio.wait_for(
            run_live_plan(
                plan, nodes=args.nodes, seed=args.seed, time_scale=args.time_scale
            ),
            timeout=budget,
        )
    )
    print(format_report(report))
    if args.out is not None:
        for path in write_artifacts(report, args.out):
            print(f"wrote {path}", file=sys.stderr)
    if report["staleness"]["stale_deliveries"]:
        print(
            f"error: {report['staleness']['stale_deliveries']} stale-incarnation "
            "deliveries reached clients",
            file=sys.stderr,
        )
        return 1
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HyParView (DSN 2007) reproduction — experiments CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quickstart", help="build an overlay, broadcast, report")
    p.add_argument("--n", type=int, default=200, help="system size")
    p.add_argument("--seed", type=int, default=42, help="root random seed")
    p.add_argument("--messages", type=int, default=10)
    p.set_defaults(func=cmd_quickstart)

    p = sub.add_parser(
        "bench",
        help="run registered scenarios through the parallel orchestrator",
    )
    p.add_argument("--tier", choices=list(TIER_SCALES), default="smoke",
                   help="scale tier: smoke (CI) or paper (DSN'07 figures)")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes to shard cells across (results are identical)")
    p.add_argument("--seed", type=int, default=42, help="sweep root seed")
    p.add_argument("--n", type=int, default=None,
                   help="override the tier's system size")
    p.add_argument("--messages", type=int, default=None,
                   help="override the tier's messages per measurement batch")
    p.add_argument("--replicates", type=int, default=None,
                   help="override the tier's replicate count")
    p.add_argument("--no-snapshot-cache", action="store_true",
                   help="rebuild every stabilised base instead of thawing the per-worker "
                   "cache's snapshots (slower, identical results)")
    p.add_argument(
        "--scenario", action="append", metavar="ID",
        help="run only this scenario (repeatable); default: all registered",
    )
    p.add_argument(
        "--out", type=pathlib.Path, default=pathlib.Path("benchmarks/results"),
        help="directory for BENCH_<scenario>.json (and, with --trace, "
        "TRACE_<scenario>.json) artifacts",
    )
    p.add_argument(
        "--no-artifacts", action="store_true",
        help="print reports without writing BENCH_ artifacts (timings "
        "always go to stderr only)",
    )
    p.add_argument(
        "--check", action="store_true",
        help="check every scenario's claims on the results; each failed "
        "claim prints a 'check failed:' line on stderr and exits 1",
    )
    p.add_argument(
        "--trace", action="store_true",
        help="collect dissemination traces and write a TRACE_ file beside "
        "(never into) each BENCH artifact; read one with 'repro trace'",
    )
    p.add_argument(
        "--list", action="store_true",
        help="list registered scenarios and exit",
    )
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "trace",
        help="reconstruct broadcast trees from a TRACE_ file 'bench --trace' wrote",
    )
    p.add_argument("path", type=pathlib.Path, metavar="PATH",
                   help="a TRACE_<scenario>.json file")
    p.add_argument("--replicate", type=int, default=0,
                   help="which replicate to inspect (default: 0)")
    p.add_argument(
        "--message", default=None, metavar="KEY",
        help="dump one message's broadcast tree as Chrome trace JSON; KEY "
        "is a 'segment/origin#seq' id from the summary table (a bare id "
        "works when unique)",
    )
    p.add_argument(
        "--out", type=pathlib.Path, default=None, metavar="FILE",
        help="write the Chrome trace JSON here instead of stdout "
        "(needs --message)",
    )
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "chaos",
        help="one live run of a fault plan: pub/sub clients on loopback TCP, "
        "reliability and latency per phase",
    )
    p.add_argument(
        "--plan", type=pathlib.Path, default=None, metavar="FILE",
        help="JSON fault plan to replay (default: the built-in crash / "
        "partition / same-port restart plan)",
    )
    p.add_argument("--nodes", type=int, default=8, help="cluster size")
    p.add_argument("--seed", type=int, default=7, help="base seed")
    p.add_argument(
        "--time-scale", type=float, default=1.0,
        help="wall seconds per plan second (stretch for slow machines)",
    )
    p.add_argument(
        "--out", type=pathlib.Path, default=None, metavar="DIR",
        help="write BENCH_service_live.json here",
    )
    p.set_defaults(func=cmd_chaos)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
