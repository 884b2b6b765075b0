#!/usr/bin/env python
"""Protocol shoot-out: HyParView vs CyclonAcked vs Cyclon vs Scamp.

Run:  python examples/compare_protocols.py

A miniature of the paper's Figure 2: every protocol is stabilised on an
identical-size system, the same fraction of nodes is crashed, and the same
number of messages measured.  Prints the comparison table plus each
protocol's recovery curve.
"""

from repro import ExperimentParams, Scenario
from repro.experiments.registry import PAPER_PROTOCOLS
from repro.experiments.reporting import format_table, sparkline
from repro.experiments.snapshots import stabilized_scenario
from repro.metrics.reliability import average_reliability, reliability_series

N = 300
MESSAGES = 50
FAILURES = (0.3, 0.6, 0.8)


def main() -> None:
    params = ExperimentParams.scaled(N, seed=3, stabilization_cycles=20)
    print(f"comparing {', '.join(PAPER_PROTOCOLS)} at n={N} "
          f"({MESSAGES} msgs per cell)\n")

    results = {}
    for protocol in PAPER_PROTOCOLS:
        print(f"  stabilising {protocol} ...")
        frozen = stabilized_scenario(protocol, params).freeze()
        for fraction in FAILURES:
            # Each failure level crashes and streams on its own thawed copy.
            scenario = Scenario.thaw(frozen)
            scenario.fail_fraction(fraction)
            results[(protocol, fraction)] = scenario.send_paced_broadcasts(MESSAGES)

    rows = []
    for fraction in FAILURES:
        rows.append(
            [f"{fraction:.0%}"]
            + [average_reliability(results[(p, fraction)]) for p in PAPER_PROTOCOLS]
        )
    print()
    print(format_table(["failure %"] + list(PAPER_PROTOCOLS), rows,
                       title="average reliability (Figure 2 shape)"))

    print("\nrecovery curves at 60% failures (one char per message):")
    for protocol in PAPER_PROTOCOLS:
        curve = reliability_series(results[(protocol, 0.6)])
        print(f"  {protocol:13s} {sparkline(curve)}  "
              f"tail={sum(curve[-10:]) / 10:.1%}")

    print("\nwhat to look for (the paper's Section 5.2 story):")
    print("  - hyparview: barely dented, recovers within a couple of messages")
    print("  - cyclon-acked: recovers over ~25 messages (ack-driven cleanup)")
    print("  - cyclon/scamp: cannot recover until membership cycles run")


if __name__ == "__main__":
    main()
