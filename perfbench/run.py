"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload query --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (and its span table).  Earlier lines carry the
report: host block, seed, every measured value and any failure by name.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
WORKLOADS = ("query", "serve", "update")


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def span_lines(tables) -> list:
    lines = []
    for title, table in tables.items():
        lines.append(f"spans: {title}")
        lines.append(f"  {'span':32} {'calls':>8} {'total ms':>12} {'self ms':>12}")
        for name, row in sorted(table.items(), key=lambda item: -item[1]["total_s"]):
            lines.append(
                f"  {name:32} {int(row['count']):8d} "
                f"{row['total_s'] * 1e3:12.3f} {row['self_s'] * 1e3:12.3f}"
            )
    return lines


def main(argv=None) -> int:
    args = parse(argv)
    # The script's own directory would make every benchmark module importable
    # as a top-level name; import them only as ``perfbench.*``.
    script_dir = str(Path(__file__).resolve().parent)
    sys.path[:] = [str(CHECKOUT / "src"), str(CHECKOUT)] + [
        entry for entry in sys.path if Path(entry or ".").resolve() != Path(script_dir)
    ]
    try:
        import repro
    except ImportError as err:
        print(f"perfbench: cannot import the program from {CHECKOUT / 'src'}: {err}", file=sys.stderr)
        return 2
    if (CHECKOUT / "src") not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported repro from {repro.__file__}, not from this checkout", file=sys.stderr)
        return 2

    from perfbench import query, serve, update
    from perfbench.common import OUT_ROOT, calibrate, host_block, metric, to_unit
    from perfbench.metrics import END_TO_END, PER_LAYER, UNITS, in_units, layer_table

    workload = {"query": query, "serve": serve, "update": update}[args.workload]
    calib_before = calibrate()
    outcome = workload.run(args.seed, args.seconds, bool(args.trace))
    calib_after = calibrate()
    values = in_units({**outcome.values, "host.calib_ms": (calib_before + calib_after) / 2})

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    host = host_block(args.seed, [to_unit(calib_before, "ms"), to_unit(calib_after, "ms")])
    print("host: " + json.dumps(host, sort_keys=True))
    for name, value in sorted(values.items()):
        print(f"  {name:36} {value:16.6f} {UNITS.get(name, '')}")
    if outcome.tally.failed:
        print("FAILED operations: " + "; ".join(outcome.tally.named()))
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "values": values,
        "attempted": outcome.tally.attempted,
        "failures": outcome.tally.named(),
        **{key: value for key, value in outcome.report.items() if key != "spans"},
    }
    if args.trace:
        print("\n".join(span_lines(outcome.report["spans"])))
        OUT_ROOT.mkdir(exist_ok=True)
        spans_path = OUT_ROOT / f"spans-{args.workload}.npz"
        outcome.tracer.write(spans_path)
        print(f"spans written to {spans_path.relative_to(CHECKOUT)}")
        metrics = {
            name: metric(value, PER_LAYER[name])
            for name, value in layer_table(args.workload, values).items()
        }
    else:
        metrics = {name: metric(values[name], unit) for name, unit in END_TO_END.items()}
    print("report: " + json.dumps(report, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": outcome.tally.failed == 0,
                "attempted": outcome.tally.attempted,
                "failed": outcome.tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
