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
from .experiments.registry import REGISTRY, TIER_NAMES
from .experiments.reporting import TRACE_SCHEMA, format_table, load_artifact
from .experiments.scenario import Scenario
from .obs.trace import DisseminationTrace


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def cmd_quickstart(args: argparse.Namespace) -> int:
    if args.paper_params:
        params = ExperimentParams.paper(n=args.n, seed=args.seed)
    else:
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
            [spec.id, spec.group, ", ".join(sorted(spec.tiers)), spec.title]
            for spec in sorted(REGISTRY.values(), key=lambda s: s.id)
        ]
        print(format_table(["scenario", "group", "tiers", "title"], rows,
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
    """Live-cluster chaos demo: one fault plan against loopback TCP.

    Spins up a real :class:`LocalCluster`, replays a partition / crash /
    flash-restart plan through :class:`ChaosController`, and probes
    delivery before, during and after the faults — the same plan
    vocabulary the ``faults_*`` simulator scenarios use.
    """
    # Imported lazily: asyncio runtime machinery that the simulator
    # commands never need.
    import asyncio

    from .faults.chaos import ChaosController
    from .faults.plan import (
        CrashEvent,
        FaultPlan,
        PartitionEvent,
        RestartEvent,
        plan_from_file,
    )
    from .runtime.cluster import LocalCluster

    if args.plan is not None:
        plan = plan_from_file(args.plan)
    else:
        plan = FaultPlan(
            events=(
                PartitionEvent(at=0.0, weights=(0.5, 0.5), heal_at=1.0, rejoin=3),
                CrashEvent(at=1.5, fraction=0.25),
                RestartEvent(at=2.0, fraction=1.0),
            ),
            label="chaos-demo",
        )
    # Reject impossible plans before a single socket is opened — the
    # structured ConfigurationError surfaces as `error: ...`, exit 2.
    plan.validate_for(args.nodes)

    async def demo() -> list[list[object]]:
        cluster = LocalCluster(args.nodes, base_seed=args.seed)
        # Built before any socket opens, so a refused plan exits 2 cleanly.
        controller = ChaosController(
            cluster, plan, time_scale=args.time_scale, seed=args.seed
        )
        await cluster.start()
        rows: list[list[object]] = []

        async def probe(label: str) -> None:
            origin = cluster.alive_nodes()[0]
            message_id = origin.broadcast(label)
            await asyncio.sleep(args.settle)
            # A wrong delivery carries a payload a corrupted relay rewrote.
            wrong = sum(
                record.message_id == message_id and record.payload != label
                for record in cluster.delivery_log.records
            )
            rows.append(
                [label, cluster.delivery_count(message_id), wrong,
                 len(cluster.alive_nodes())]
            )

        await probe("before")
        chaos = asyncio.create_task(controller.run())
        await asyncio.sleep(0.4 * args.time_scale)
        await probe("partitioned")
        await chaos
        await asyncio.sleep(args.settle)
        await probe("after")
        await cluster.stop()
        for at, description in controller.applied:
            print(f"  t={at:g}  {description}", file=sys.stderr)
        return rows

    budget = (plan.horizon + 1.0) * args.time_scale + 4 * args.settle + 30.0
    rows = asyncio.run(asyncio.wait_for(demo(), timeout=budget))
    print(
        format_table(
            ["probe", "delivered", "wrong", "alive"],
            rows,
            title=f"repro chaos — {args.nodes} loopback-TCP nodes, plan: "
            f"{'; '.join(plan.describe())}",
        )
    )
    return 0


def cmd_service_bench(args: argparse.Namespace) -> int:
    """Sustained-throughput live benchmark of the pub/sub service layer.

    Many multiplexed clients publish on a few topics over a loopback-TCP
    cluster while (by default) one node crashes mid-run and restarts on
    the *same* port — exercising the epoch handshake, circuit breakers
    and per-phase latency measurement end to end.
    """
    # Imported lazily: asyncio runtime machinery that the simulator
    # commands never need.
    import asyncio

    from .service.bench import format_report, run_service_bench, write_artifacts

    budget = args.duration * 3.0 + 60.0
    report = asyncio.run(
        asyncio.wait_for(
            run_service_bench(
                nodes=args.nodes,
                clients=args.clients,
                topics=args.topics,
                duration=args.duration,
                rate=args.rate,
                seed=args.seed,
                chaos=not args.no_chaos,
                metrics_port=args.metrics_port,
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
    p.add_argument(
        "--paper-params", action="store_true",
        help="use the exact Section 5.1 view sizes regardless of --n",
    )
    p.add_argument("--messages", type=int, default=10)
    p.set_defaults(func=cmd_quickstart)

    p = sub.add_parser(
        "bench",
        help="run registered scenarios through the parallel orchestrator",
    )
    p.add_argument("--tier", choices=list(TIER_NAMES), default="smoke",
                   help="scale tier: smoke (CI), paper (DSN'07 figures) or full")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes to shard cells across (results are identical)")
    p.add_argument("--seed", type=int, default=42, help="sweep root seed")
    p.add_argument("--n", type=int, default=None,
                   help="override the tier's system size (disables paper params)")
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
        help="live-cluster fault-plan demo (loopback TCP + ChaosController)",
    )
    p.add_argument("--nodes", type=int, default=8, help="cluster size")
    p.add_argument(
        "--plan", type=pathlib.Path, default=None, metavar="FILE",
        help="JSON fault plan to replay (default: the built-in demo plan)",
    )
    p.add_argument(
        "--time-scale", type=float, default=1.0,
        help="wall seconds per plan second (stretch for slow machines)",
    )
    p.add_argument(
        "--settle", type=float, default=0.5,
        help="seconds to let each probe broadcast disseminate",
    )
    p.add_argument("--seed", type=int, default=7, help="chaos RNG seed")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "service-bench",
        help="sustained-throughput pub/sub benchmark on a live cluster",
    )
    p.add_argument("--nodes", type=int, default=3, help="cluster size")
    p.add_argument("--clients", type=int, default=100, help="multiplexed clients")
    p.add_argument("--topics", type=int, default=2, help="topic count")
    p.add_argument(
        "--duration", type=float, default=6.0,
        help="seconds of sustained publish load (split into phases)",
    )
    p.add_argument(
        "--rate", type=float, default=60.0,
        help="aggregate publish rate (messages/second across all clients)",
    )
    p.add_argument("--seed", type=int, default=7, help="base seed")
    p.add_argument(
        "--no-chaos", action="store_true",
        help="skip the mid-run crash/restart (steady-state baseline)",
    )
    p.add_argument(
        "--out", type=pathlib.Path, default=None, metavar="DIR",
        help="write BENCH_service_live.json here",
    )
    p.add_argument(
        "--metrics-port", type=int, default=0, metavar="PORT",
        help="TCP port for the Prometheus exposition endpoint the bench "
        "serves and self-scrapes (default: an ephemeral port)",
    )
    p.set_defaults(func=cmd_service_bench)

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
