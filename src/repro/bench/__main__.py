"""Run every figure experiment and print the tables.

Usage::

    python -m repro.bench                 # default (laptop-friendly) scales
    python -m repro.bench --n 20 40 60    # custom database-size sweep
    python -m repro.bench --quick         # smallest scales, hmac signatures
    python -m repro.bench --smoke         # fast-path regression gate only
    python -m repro.bench --fastpath      # full fast-path benchmark (n = 200)
    python -m repro.bench --construction  # batched-vs-naive hashing benchmark
                                          # (sweeps n, writes BENCH_construction.json)
    python -m repro.bench --scale         # thousand-record construction benchmark
                                          # (sweeps n, writes BENCH_scale.json)
    python -m repro.bench --scale --smoke # reduced-n scale gate (CI)
    python -m repro.bench --coldstart     # build-vs-artifact-load benchmark
                                          # (sweeps n, writes BENCH_coldstart.json)
    python -m repro.bench --coldstart --smoke  # reduced-n cold-start gate (CI)
    python -m repro.bench --update        # single-record update vs full rebuild
                                          # (n = 1000, writes BENCH_update.json)
    python -m repro.bench --update --smoke     # reduced-n update gate (CI)
    python -m repro.bench --faults        # byzantine replica-pool gate
                                          # (writes BENCH_faults.json)
    python -m repro.bench --faults --smoke     # reduced fault-injection gate (CI)
    python -m repro.bench --churn         # crash-recovery + rolling-swap gate
                                          # (writes BENCH_churn.json)
    python -m repro.bench --churn --smoke      # reduced churn/recovery gate (CI)
    python -m repro.bench --serve         # multi-worker serving-tier gate
                                          # (writes BENCH_serve.json)
    python -m repro.bench --serve --smoke      # reduced serving gate (CI)
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench.churn import (
    CHURN_REPORT_FILENAME,
    SMOKE_CHURN_REPORT_FILENAME,
    run_churn,
    run_churn_smoke,
)
from repro.bench.coldstart import (
    COLDSTART_REPORT_FILENAME,
    SMOKE_COLDSTART_REPORT_FILENAME,
    run_coldstart,
    run_coldstart_smoke,
)
from repro.bench.faults import (
    FAULTS_REPORT_FILENAME,
    SMOKE_FAULTS_REPORT_FILENAME,
    run_faults,
    run_faults_smoke,
)
from repro.bench.fastpath import (
    CONSTRUCTION_REPORT_FILENAME,
    fastpath_experiments,
    run_construction,
    run_smoke,
)
from repro.bench.figures import all_experiments
from repro.bench.harness import BenchConfig
from repro.bench.reporting import render_results
from repro.bench.serve import (
    SERVE_REPORT_FILENAME,
    SMOKE_SERVE_REPORT_FILENAME,
    run_serve,
    run_serve_smoke,
)
from repro.bench.scale import (
    SCALE_REPORT_FILENAME,
    SMOKE_SCALE_REPORT_FILENAME,
    run_scale,
    run_scale_smoke,
)
from repro.bench.update import (
    SMOKE_UPDATE_REPORT_FILENAME,
    UPDATE_REPORT_FILENAME,
    run_update,
    run_update_smoke,
)


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Reproduce every figure of the paper's evaluation as a table.",
    )
    parser.add_argument("--n", type=int, nargs="+", default=None, help="database-size sweep")
    parser.add_argument("--fixed-n", type=int, default=None, help="database size for |q| sweeps")
    parser.add_argument(
        "--result-sizes", type=int, nargs="+", default=None, help="result-length sweep"
    )
    parser.add_argument("--queries", type=int, default=None, help="queries per data point")
    parser.add_argument(
        "--algorithm", choices=("rsa", "dsa", "hmac"), default=None, help="signature algorithm"
    )
    parser.add_argument("--key-bits", type=int, default=None, help="signature key size")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--quick", action="store_true", help="smallest scales and hmac signatures (CI smoke run)"
    )
    parser.add_argument(
        "--build-mode",
        choices=("auto", "bulk", "incremental"),
        default=None,
        help="IFMH I-tree builder for the figures (default: incremental, the "
        "paper's exact insertion-order tree shape; auto/bulk = the vectorized "
        "balanced build for d = 1)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run only the fast-path benchmarks at reduced scale; exit 1 on regression",
    )
    parser.add_argument(
        "--fastpath",
        action="store_true",
        help="run only the fast-path benchmarks at full scale (n = 200 build comparison)",
    )
    parser.add_argument(
        "--construction",
        action="store_true",
        help="run the construction benchmark (IFMH hashing through the batched forest "
        f"engine vs the naive reference, n sweep up to 200) and write "
        f"{CONSTRUCTION_REPORT_FILENAME}; exit 1 if the physical-hash reduction misses its floor",
    )
    parser.add_argument(
        "--scale",
        action="store_true",
        help="run the thousand-record construction benchmark (batched build times, "
        f"n sweep up to 2000, plus the parallel-build gates) and write {SCALE_REPORT_FILENAME}; "
        "exit 1 if a parallel speedup misses its floor; combine with --smoke for "
        f"the reduced-n CI gate (writes {SMOKE_SCALE_REPORT_FILENAME})",
    )
    parser.add_argument(
        "--coldstart",
        action="store_true",
        help="run the cold-start benchmark (owner-side rebuild vs Server.from_artifact "
        f"load, n sweep up to 1000) and write {COLDSTART_REPORT_FILENAME}; exit 1 if "
        "loading is not >= 10x faster than rebuilding at the largest n; combine with "
        f"--smoke for the reduced-n CI gate (writes {SMOKE_COLDSTART_REPORT_FILENAME})",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="run the incremental-update benchmark (single-record insert/delete vs "
        f"full rebuild at n = 1000) and write {UPDATE_REPORT_FILENAME}; exit 1 if "
        "either update is not >= 10x faster than rebuilding; combine with --smoke "
        f"for the reduced-n CI gate (writes {SMOKE_UPDATE_REPORT_FILENAME})",
    )
    parser.add_argument(
        "--faults",
        action="store_true",
        help="run the byzantine fault-injection benchmark (replica pool with "
        "tampering, crashing, stale-epoch and lagging replicas behind the "
        f"resilient client) and write {FAULTS_REPORT_FILENAME}; exit 1 if any "
        "tampered answer is accepted, an accepted answer is unverified, goodput "
        "misses its floor or a same-seed replay diverges; combine with --smoke "
        f"for the reduced CI gate (writes {SMOKE_FAULTS_REPORT_FILENAME})",
    )
    parser.add_argument(
        "--churn",
        action="store_true",
        help="run the churn/recovery benchmark (crash the update pipeline at "
        "every journal/apply/publish step and prove recovery bit-identical, "
        "then serve a 95/5 read/update workload through rolling epoch "
        f"hot-swaps with a stale laggard) and write {CHURN_REPORT_FILENAME}; "
        "exit 1 if recovery diverges, a stale answer is accepted post-swap, "
        "an in-flight query is dropped, the resynced replica never serves "
        "again, goodput misses its floor or a same-seed replay diverges; "
        f"combine with --smoke for the reduced CI gate (writes {SMOKE_CHURN_REPORT_FILENAME})",
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="run the serving-tier benchmark (multi-worker front-end under an "
        "open-loop seeded-Poisson load with a mid-run epoch hot-swap and a "
        f"deterministic worker crash) and write {SERVE_REPORT_FILENAME}; exit 1 "
        "if the workload is not seed-deterministic, N workers miss the "
        "hardware-scaled throughput floor over one worker, p99 latency "
        "exceeds its bound, any query drops, any sampled answer fails "
        "client verification, or the crashed worker never serves again; "
        f"combine with --smoke for the reduced CI gate (writes {SMOKE_SERVE_REPORT_FILENAME})",
    )
    return parser.parse_args(argv)


def build_config(args: argparse.Namespace) -> BenchConfig:
    defaults = BenchConfig()
    if args.quick:
        defaults = BenchConfig(
            n_values=(8, 12, 16),
            fixed_n=16,
            result_sizes=(2, 4, 8),
            queries_per_point=2,
            signature_algorithm="hmac",
            key_bits=None,
        )
    return BenchConfig(
        n_values=tuple(args.n) if args.n else defaults.n_values,
        fixed_n=args.fixed_n or defaults.fixed_n,
        result_sizes=tuple(args.result_sizes) if args.result_sizes else defaults.result_sizes,
        dimension=defaults.dimension,
        seed=args.seed,
        queries_per_point=args.queries or defaults.queries_per_point,
        signature_algorithm=args.algorithm or defaults.signature_algorithm,
        key_bits=args.key_bits if args.key_bits is not None else defaults.key_bits,
        build_mode=args.build_mode or defaults.build_mode,
    )


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    exclusive = [
        flag
        for flag, given in (
            ("--smoke", args.smoke),
            ("--fastpath", args.fastpath),
            ("--construction", args.construction),
            ("--scale", args.scale),
            ("--coldstart", args.coldstart),
            ("--update", args.update),
            ("--faults", args.faults),
            ("--churn", args.churn),
            ("--serve", args.serve),
        )
        if given
    ]
    if len(exclusive) > 1 and exclusive not in (
        ["--smoke", "--scale"],
        ["--smoke", "--coldstart"],
        ["--smoke", "--update"],
        ["--smoke", "--faults"],
        ["--smoke", "--churn"],
        ["--smoke", "--serve"],
    ):
        # --smoke combines only with the named gates (--scale ... --serve).
        print(f"error: {' and '.join(exclusive)} are mutually exclusive")
        return 2
    if (
        args.smoke
        or args.fastpath
        or args.construction
        or args.scale
        or args.coldstart
        or args.update
        or args.faults
        or args.churn
        or args.serve
    ):
        ignored = [
            flag
            for flag, given in (
                ("--n", args.n is not None),
                ("--fixed-n", args.fixed_n is not None),
                ("--result-sizes", args.result_sizes is not None),
                ("--queries", args.queries is not None),
                ("--algorithm", args.algorithm is not None),
                ("--key-bits", args.key_bits is not None),
                ("--quick", args.quick),
                ("--build-mode", args.build_mode is not None),
            )
            if given
        ]
        if ignored:
            mode = exclusive[0]
            print(f"error: {mode} runs a fixed workload; {', '.join(ignored)} would be ignored")
            return 2
    started = time.perf_counter()
    if args.serve:
        if args.smoke:
            results, failures = run_serve_smoke(seed=args.seed)
            report = SMOKE_SERVE_REPORT_FILENAME
        else:
            results, failures = run_serve(seed=args.seed)
            report = SERVE_REPORT_FILENAME
        print(render_results(results))
        elapsed = time.perf_counter() - started
        for failure in failures:
            print(f"SERVE REGRESSION: {failure}")
        print(f"wrote serving-tier outcome to {report}")
        print(f"\ncompleted serving benchmark in {elapsed:.1f}s")
        return 1 if failures else 0
    if args.churn:
        if args.smoke:
            results, failures = run_churn_smoke(seed=args.seed)
            report = SMOKE_CHURN_REPORT_FILENAME
        else:
            results, failures = run_churn(seed=args.seed)
            report = CHURN_REPORT_FILENAME
        print(render_results(results))
        elapsed = time.perf_counter() - started
        for failure in failures:
            print(f"CHURN REGRESSION: {failure}")
        print(f"wrote churn/recovery outcome to {report}")
        print(f"\ncompleted churn benchmark in {elapsed:.1f}s")
        return 1 if failures else 0
    if args.faults:
        if args.smoke:
            results, failures = run_faults_smoke(seed=args.seed)
            report = SMOKE_FAULTS_REPORT_FILENAME
        else:
            results, failures = run_faults(seed=args.seed)
            report = FAULTS_REPORT_FILENAME
        print(render_results(results))
        elapsed = time.perf_counter() - started
        for failure in failures:
            print(f"FAULTS REGRESSION: {failure}")
        print(f"wrote fault-injection outcome to {report}")
        print(f"\ncompleted fault-injection benchmark in {elapsed:.1f}s")
        return 1 if failures else 0
    if args.update:
        if args.smoke:
            results, failures = run_update_smoke(seed=args.seed)
            report = SMOKE_UPDATE_REPORT_FILENAME
        else:
            results, failures = run_update(seed=args.seed)
            report = UPDATE_REPORT_FILENAME
        print(render_results(results))
        elapsed = time.perf_counter() - started
        for failure in failures:
            print(f"UPDATE REGRESSION: {failure}")
        print(f"wrote update trajectory to {report}")
        print(f"\ncompleted update benchmark in {elapsed:.1f}s")
        return 1 if failures else 0
    if args.coldstart:
        if args.smoke:
            results, failures = run_coldstart_smoke(seed=args.seed)
            report = SMOKE_COLDSTART_REPORT_FILENAME
        else:
            results, failures = run_coldstart(seed=args.seed)
            report = COLDSTART_REPORT_FILENAME
        print(render_results(results))
        elapsed = time.perf_counter() - started
        for failure in failures:
            print(f"COLDSTART REGRESSION: {failure}")
        print(f"wrote cold-start trajectory to {report}")
        print(f"\ncompleted cold-start benchmark in {elapsed:.1f}s")
        return 1 if failures else 0
    if args.scale:
        if args.smoke:
            results, failures = run_scale_smoke(seed=args.seed)
            report = SMOKE_SCALE_REPORT_FILENAME
        else:
            results, failures = run_scale(seed=args.seed)
            report = SCALE_REPORT_FILENAME
        print(render_results(results))
        elapsed = time.perf_counter() - started
        for failure in failures:
            print(f"SCALE REGRESSION: {failure}")
        print(f"wrote scale trajectory to {report}")
        print(f"\ncompleted scale benchmark in {elapsed:.1f}s")
        return 1 if failures else 0
    if args.smoke:
        results, failures = run_smoke(seed=args.seed)
        print(render_results(results))
        elapsed = time.perf_counter() - started
        for failure in failures:
            print(f"FAST-PATH REGRESSION: {failure}")
        print(f"\ncompleted smoke run in {elapsed:.1f}s")
        return 1 if failures else 0
    if args.fastpath:
        results = fastpath_experiments(seed=args.seed)
        print(render_results(results))
        print(f"\ncompleted {len(results)} experiments in {time.perf_counter() - started:.1f}s")
        return 0
    if args.construction:
        results, failures = run_construction(seed=args.seed)
        print(render_results(results))
        elapsed = time.perf_counter() - started
        for failure in failures:
            print(f"CONSTRUCTION REGRESSION: {failure}")
        print(f"wrote hashing trajectory to {CONSTRUCTION_REPORT_FILENAME}")
        print(f"\ncompleted construction benchmark in {elapsed:.1f}s")
        return 1 if failures else 0
    config = build_config(args)
    results = all_experiments(config)
    elapsed = time.perf_counter() - started
    print(render_results(results))
    print(f"\ncompleted {len(results)} experiments in {elapsed:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
