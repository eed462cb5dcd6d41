"""Repeat runs behind the benchmark's bounds: interleaved sets, spreads, drift.

    python3 perfbench/steadiness.py --seeds 1-10 --out perfbench/evidence/steadiness.json

Runs ``perfbench/run.py`` untraced for every workload and seed, once in each
of two sets, alternating which set goes first from seed to seed (sets run
back to back drift apart on a host whose CPU speed changes in spells).  For every
end-to-end metric it reports each set's median and quartiles
(``statistics.quantiles(values, n=4)``), the spread (interquartile distance
over median) and how far the second set's median moved from the first's,
next to the bound in ``BENCHMARK.json``.  Records are saved after every
run; ``--summarize FILE`` reprints the table of a saved file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
#: The two interleaved sets of runs whose medians are compared.
SETS = ("0", "1")


def parse_seeds(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def one_run(workload: str, seed: int, seconds: int) -> dict:
    """One untraced run of ``perfbench/run.py``, as a record."""
    started = time.perf_counter()
    child = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=CHECKOUT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    lines = child.stdout.strip().splitlines()
    report = next((json.loads(line[8:]) for line in lines if line.startswith("report: ")), None)
    return {
        "workload": workload,
        "seed": seed,
        "exit": child.returncode,
        "wall_s": time.perf_counter() - started,
        "result": json.loads(lines[-1]) if child.returncode == 0 else None,
        "host": report["host"] if report else None,
        "report": report,
        "stderr": child.stderr[-2000:] if child.returncode else "",
    }


def summarize(records: list, benchmark: dict) -> dict:
    bounds = {entry["name"]: entry["bound"] for entry in benchmark["end_to_end"]}
    summary = {}
    workloads = sorted({record["workload"] for record in records})
    for workload in workloads:
        rows = {}
        for name, bound in bounds.items():
            sets = {}
            for record in records:
                if record["workload"] != workload or record["result"] is None:
                    continue
                value = record["result"]["metrics"][name]["value"]
                sets.setdefault(str(record["set"]), []).append(value)
            row = {"bound": bound, "sets": {}}
            for label, values in sorted(sets.items()):
                if len(values) < 2:
                    continue
                q1, q2, q3 = statistics.quantiles(values, n=4)
                row["sets"][label] = {
                    "n": len(values),
                    "median": statistics.median(values),
                    "q1": q1,
                    "q3": q3,
                    "spread": (q3 - q1) / statistics.median(values),
                    "values": values,
                }
            if all(label in row["sets"] for label in SETS):
                first, second = (row["sets"][label] for label in SETS)
                row["drift"] = second["median"] / first["median"] - 1.0
            rows[name] = row
        summary[workload] = rows
    return summary


def print_table(summary: dict) -> None:
    print(f"{'workload':8} {'metric':18} {'bound':>6} {'spread per set':>22} {'drift':>8}")
    for workload, rows in summary.items():
        for name, row in rows.items():
            spreads = " ".join(f"{entry['spread']:.3f}" for entry in row["sets"].values())
            drift = f"{row['drift']:+.3f}" if "drift" in row else "-"
            print(f"{workload:8} {name:18} {row['bound']:6.2f} {spreads:>22} {drift:>8}")


def markdown(summary: dict, saved: dict) -> str:
    """The evidence table: per workload and metric, each set's median and quartiles."""
    lines = [
        f"Runs of {saved['seconds']} s, seeds {saved['seeds']}, two sets interleaved run by run.",
        "Spread = (q3 - q1) / median over one set; drift = set 1 median / set 0 median - 1.",
        "",
        "| workload | metric | bound | set 0 median [q1, q3] | spread | set 1 median [q1, q3] | spread | drift |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for workload, rows in summary.items():
        for name, row in rows.items():
            cells = []
            for label in SETS:
                entry = row["sets"].get(label)
                cells += (
                    [f"{entry['median']:.4g} [{entry['q1']:.4g}, {entry['q3']:.4g}]", f"{entry['spread']:.3f}"]
                    if entry
                    else ["-", "-"]
                )
            drift = f"{row['drift']:+.3f}" if "drift" in row else "-"
            lines.append(f"| {workload} | {name} | {row['bound']} | " + " | ".join(cells) + f" | {drift} |")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=None)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--summarize", type=Path)
    parser.add_argument("--markdown", action="store_true", help="with --summarize: print the evidence table")
    args = parser.parse_args(argv)
    benchmark = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    if args.summarize:
        saved = json.loads(args.summarize.read_text())
        summary = summarize(saved["records"], benchmark)
        print(markdown(summary, saved) if args.markdown else "", end="")
        if not args.markdown:
            print_table(summary)
        return 0
    workloads = args.workloads or [entry["name"] for entry in benchmark["workloads"]]
    seconds = args.seconds or benchmark["run_seconds"]
    records = []
    saved = {"seconds": seconds, "seeds": args.seeds, "records": records}
    for position, seed in enumerate(parse_seeds(args.seeds)):
        order = SETS if position % 2 == 0 else SETS[::-1]
        for workload in workloads:
            for label in order:
                record = one_run(workload, seed, seconds)
                record["set"] = label
                records.append(record)
                print(
                    f"{workload} seed={seed} set={label} exit={record['exit']} "
                    f"wall={record['wall_s']:.1f}s "
                    + (json.dumps(record["result"]["metrics"]) if record["result"] else record["stderr"]),
                    flush=True,
                )
                if args.out:
                    saved["summary"] = summarize(records, benchmark)
                    args.out.write_text(json.dumps(saved, indent=1))
    print_table(summarize(records, benchmark))
    return 0


if __name__ == "__main__":
    sys.exit(main())
