#!/usr/bin/env python3
"""CI regression gate for bench/scale_sweep.

Checks a fresh BENCH_scale.json against the committed baseline
(bench/BENCH_scale_baseline.json).

The event loop is gated on an ABSOLUTE floor: the simulator hold model's
events/s in the baseline's row must reach the baseline's
`sim_events_per_s_floor`. The floor sits several times below what any
measured runner reads, so it catches a complexity regression (an
O(pending) step per event) rather than runner noise. The baseline's own
events/s is printed for the record only.

The control-plane election rows are gated on an ABSOLUTE ceiling instead:
failover is measured in simulated seconds over a deterministic plane, so
it is machine-independent and needs no baseline to compare against.

Usage: check_scale_regression.py BENCH_scale.json [baseline.json]
"""

import json
import sys


def row_at(report, nodes):
    for row in report["rows"]:
        if row["nodes"] == nodes:
            return row
    sys.exit(f"no {nodes}-node row in report")


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    current = json.load(open(sys.argv[1]))
    baseline_path = (
        sys.argv[2] if len(sys.argv) > 2 else "bench/BENCH_scale_baseline.json"
    )
    baseline = json.load(open(baseline_path))

    base_row = baseline["row"]
    cur_row = row_at(current, base_row["nodes"])

    floor = baseline["sim_events_per_s_floor"]
    cur = cur_row["sim"]["events_per_s"]
    print(f"simulator hold at {base_row['nodes']} nodes: {cur:.3e} events/s "
          f"(baseline {base_row['sim']['events_per_s']:.3e}, "
          f"floor {floor:.3e})")
    if cur < floor:
        sys.exit(
            f"FAIL: simulator hold {cur:.3e} events/s is below the "
            f"{floor:.3e} events/s floor"
        )
    print("OK: event loop above the events/s floor")

    election = current.get("election")
    if election is None:
        sys.exit("FAIL: no election-availability section in the report")
    ceiling = election["ceiling_s"]
    for row in election["rows"]:
        print(
            f"election failover at {row['nodes']} nodes: "
            f"{row['failover_max_s']:.3f} s worst of {row['trials']} "
            f"leader kills (ceiling {ceiling:.1f} s)"
        )
        if not row["safety_ok"]:
            sys.exit(
                f"FAIL: raft safety invariant violated during the "
                f"{row['nodes']}-node leader-kill trials"
            )
        if row["failover_max_s"] > ceiling:
            sys.exit(
                f"FAIL: control-plane failover {row['failover_max_s']:.3f} s "
                f"at {row['nodes']} nodes exceeds the {ceiling:.1f} s ceiling"
            )
    print("OK: election failover under ceiling at every scale")


if __name__ == "__main__":
    main()
