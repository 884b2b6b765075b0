#!/usr/bin/env python
"""Protocol shoot-out: HyParView vs CyclonAcked vs Cyclon vs Scamp.

Run:  python examples/compare_protocols.py

A miniature of the paper's Figure 2: every protocol is stabilised on an
identical-size system, the same fraction of nodes is crashed, and the same
number of messages measured.  Prints the comparison table plus each
protocol's recovery curve.
"""

from repro import ExperimentParams
from repro.experiments.failures import PAPER_PROTOCOLS, measure_failure, stabilized_scenario
from repro.experiments.reporting import format_table, sparkline

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
        base = stabilized_scenario(protocol, params)
        for fraction in FAILURES:
            results[(protocol, fraction)] = measure_failure(base.clone(), fraction, MESSAGES)

    rows = []
    for fraction in FAILURES:
        rows.append(
            [f"{fraction:.0%}"]
            + [results[(p, fraction)].average for p in PAPER_PROTOCOLS]
        )
    print()
    print(format_table(["failure %"] + list(PAPER_PROTOCOLS), rows,
                       title="average reliability (Figure 2 shape)"))

    print("\nrecovery curves at 60% failures (one char per message):")
    for protocol in PAPER_PROTOCOLS:
        result = results[(protocol, 0.6)]
        print(f"  {protocol:13s} {sparkline(result.series)}  "
              f"tail={result.tail_average(10):.1%}")

    print("\nwhat to look for (the paper's Section 5.2 story):")
    print("  - hyparview: barely dented, recovers within a couple of messages")
    print("  - cyclon-acked: recovers over ~25 messages (ack-driven cleanup)")
    print("  - cyclon/scamp: cannot recover until membership cycles run")


if __name__ == "__main__":
    main()
