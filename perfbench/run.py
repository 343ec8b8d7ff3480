"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload wl6_codesign --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12

Run it from a checkout of the repository: the program under test is the
``repro`` package under ``src/`` next to this directory, imported from
source.  With ``--trace 0`` the last line of standard output holds the
end-to-end metrics, measured with tracing off; with ``--trace 1`` it
holds the per-layer metrics of a traced run.  See README.md here for
the workloads, the metric definitions and which layer metric should
move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: caches, spools, server logs and
#: the traced runs' span files.
WORK = ROOT / ".perfbench"
SETUP_PROBES = 5

clock = time.perf_counter

#: Span names that root a lane; their self time is residual.
ROOTS = ("op", "sweep.cell", "conn")
#: Span names of engine callbacks: one per dispatched event.
CALLBACKS = tuple(name for _, name in tracing.CALLBACK_LAYERS) + (tracing.UNATTRIBUTED,)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        help="a workload name, or 'all' to run every workload in turn",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def closed_loop(seconds: float, minimum: int, run, between=None) -> list:
    """Repeat *run* until *seconds* have passed and it ran *minimum* times.
    *between* runs after each operation; its time counts toward
    *seconds* but not toward any operation."""
    records = []
    start = clock()
    while len(records) < minimum or clock() - start < seconds:
        records.append(run())
        if between is not None:
            between()
    return records


def probe_setup(workload: str, seed: int, workdir: Path, env: dict) -> float:
    samples = []
    for index in range(SETUP_PROBES):
        probe_dir = workdir / f"probe{index}"
        probe_dir.mkdir()
        out = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed), str(probe_dir)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
        shutil.rmtree(probe_dir, ignore_errors=True)
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def end_to_end(records: list, cache: list[float], setup_s: float) -> dict:
    walls = [r.wall for r in records]
    latencies = [lat for r in records for lat in r.latencies]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "sim_minstr_per_s": (
            statistics.median(r.instructions / r.wall for r in records) / 1e6,
            "Minstr/s",
        ),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "req_per_s": (len(latencies) / sum(walls), "req/s"),
        "req_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
        "req_ms_p99": (quantile(latencies, 0.99) * 1e3, "ms"),
        "cache_hit_ms_p50": (statistics.median(cache) * 1e3, "ms"),
    }


def merge(lanes: list[dict]) -> dict:
    """Sum the lanes of one operation: span totals, counters, root time."""
    agg: dict[str, list] = {}
    counters: dict[str, int] = {}
    for lane in lanes:
        for name, row in lane["agg"].items():
            have = agg.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                have[i] += row[i]
        for name, value in lane["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return {"agg": agg, "counters": counters}


def per_layer(workload, traced: list, untraced: list, ops: list[dict]) -> dict:
    """The per-layer metrics of the traced operations *ops* (merged lanes)."""
    import suite

    first = ops[0]

    def count(name: str) -> int:
        return first["agg"].get(name, [0])[0]

    def seconds(name: str, column: int = 2) -> float:
        return statistics.fmean(op["agg"].get(name, [0, 0.0, 0.0])[column] for op in ops)

    def ratio(num: str, den: str) -> float:
        den_value = first["counters"].get(den, 0)
        return first["counters"].get(num, 0) / den_value if den_value else 0.0

    pool_idle = []
    for op in ops:
        pool = op["agg"].get("sweep.pool")
        if pool:
            busy = op["agg"]["sweep.cell"][1]
            pool_idle.append(1 - busy / (suite.SWEEP_JOBS * pool[1]))
    residual = sum(
        op["agg"].get(name, [0, 0.0, 0.0])[2]
        for op in ops for name in ROOTS + (tracing.UNATTRIBUTED,)
    )
    rooted = sum(op["agg"].get(name, [0, 0.0])[1] for op in ops for name in ROOTS)
    results = workload.model_results()

    def model(field):
        return statistics.fmean(field(r) for r in results) if results else 0.0

    service = workload.service_layers()
    metrics = {
        "workloads.next_access.calls": (count("workloads.next_access"), "count"),
        "workloads.next_access.self_s": (seconds("workloads.next_access"), "s"),
        "cpu.issue.events": (count("cpu.issue"), "count"),
        "cpu.issue.self_s": (seconds("cpu.issue"), "s"),
        "cpu.instructions": (workload.traced_instructions(traced), "count"),
        "controller.enqueue.calls": (count("controller.enqueue"), "count"),
        "controller.enqueue.self_s": (seconds("controller.enqueue"), "s"),
        "controller.pick.events": (count("controller.pick"), "count"),
        "controller.pick.self_s": (seconds("controller.pick"), "s"),
        "controller.complete.events": (count("controller.complete"), "count"),
        "controller.complete.self_s": (seconds("controller.complete"), "s"),
        "controller.dead_pick_ratio": (ratio("dead_picks", "picks"), "ratio"),
        "controller.row_hit_pop_ratio": (ratio("row_hit_pops", "serviced"), "ratio"),
        "controller.stale_skips_per_pop": (ratio("stale_skips", "serviced"), "ratio"),
        "refresh.events": (count("refresh"), "count"),
        "refresh.self_s": (seconds("refresh"), "s"),
        "refresh.commands": (workload.traced_refresh_commands(), "count"),
        "os.tick.events": (count("os.tick"), "count"),
        "os.self_s": (seconds("os.tick"), "s"),
        "os.alloc_s": (seconds("os.alloc", column=1), "s"),
        "engine.events": (sum(count(name) for name in CALLBACKS), "count"),
        "engine.dispatch_s": (seconds("engine.run"), "s"),
        "checkpoint.warm_start.calls": (count("checkpoint.warm_start"), "count"),
        "checkpoint.warm_start.self_s": (seconds("checkpoint.warm_start"), "s"),
        "checkpoint.restore.self_s": (seconds("checkpoint.restore"), "s"),
        "sweep.executed": (count("sweep.cell"), "count"),
        "sweep.spec_hash_s": (seconds("sweep.spec_hash"), "s"),
        "sweep.cache_put_s": (seconds("sweep.cache_put", column=1), "s"),
        "sweep.pool_idle_share": (
            statistics.fmean(pool_idle) if pool_idle else 0.0, "ratio"
        ),
        "service.tier.memo": (service.get("memo", 0), "count"),
        "service.tier.dedup": (service.get("dedup", 0), "count"),
        "service.tier.cache": (service.get("cache", 0), "count"),
        "service.tier.executed": (service.get("executed", 0), "count"),
        "service.resolve_ms_p50": (service.get("resolve_ms_p50", 0.0), "ms"),
        "service.wire_ms_p50": (service.get("wire_ms_p50", 0.0), "ms"),
        "model.read_latency_cycles": (model(lambda r: r.avg_read_latency_cycles), "cycles"),
        "model.refresh_stall_cycles": (model(lambda r: r.refresh_stall_cycles), "cycles"),
        "model.row_hit_rate": (model(lambda r: r.row_hit_rate), "ratio"),
        "model.hmean_ipc": (model(lambda r: r.hmean_ipc), "instr/cycle"),
        "trace.residual_share": (residual / rooted if rooted else 0.0, "ratio"),
        "trace.overhead_ratio": (
            statistics.median(r.wall for r in traced)
            / statistics.median(r.wall for r in untraced),
            "ratio",
        ),
    }
    return metrics


def counts_of(op: dict) -> dict:
    return {
        "spans": {name: row[0] for name, row in op["agg"].items()},
        "counters": op["counters"],
    }


def measure(args, workdir: Path) -> tuple[dict, dict]:
    import suite

    env = suite.subprocess_env()
    setup_s = probe_setup(args.workload, args.seed, workdir, env)
    workload = suite.WORKLOADS[args.workload](args.seed, workdir)
    trace_dump: dict = {}
    try:
        workload.setup()
        if not args.trace:
            records = closed_loop(
                args.seconds, workload.min_ops, workload.op, workload.between
            )
            cache = workload.finish()
            metrics = end_to_end(records, cache, setup_s)
        else:
            untraced = closed_loop(args.seconds / 2, workload.min_ops, workload.op)
            spool = workdir / "spool"
            spool.mkdir()
            tracer = tracing.Tracer(str(spool))
            tracing.install(tracer)
            ops: list[dict] = []

            def traced_op():
                record = workload.traced_op(tracer)
                ops.append(merge(tracer.take()))
                return record

            try:
                workload.trace_begin()
                traced = closed_loop(args.seconds / 2, 2, traced_op)
                workload.trace_end(len(traced))
            finally:
                tracer.uninstall()
            workload.finish()
            counts = [counts_of(op) for op in ops]
            if any(c != counts[0] for c in counts):
                workload.fail(1, "traced operations disagree on span counts")
            metrics = per_layer(workload, traced, untraced, ops)
            trace_dump = {"workload": args.workload, "seed": args.seed, "ops": ops}
    finally:
        workload.teardown()
    report = {
        "correct": workload.failed == 0 and workload.attempted > 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    for note in workload.notes[:20]:
        print(f"perfbench: {note}", file=sys.stderr)
    if trace_dump:
        trace_dump["metrics"] = report["metrics"]
    return report, trace_dump


def run_all(args, names: list[str]) -> int:
    """Run every workload in its own process; print each metric by name
    and unit, then one JSON object of every workload's report."""
    reports = {}
    for name in names:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        report = reports[name] = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"{name}: correct={report['correct']} attempted={report['attempted']} "
              f"failed={report['failed']}")
        for metric, entry in report["metrics"].items():
            print(f"  {metric:<34} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps(reports))
    return 0 if all(r["correct"] for r in reports.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package at {SRC / 'repro'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import suite

    if args.workload == "all":
        return run_all(args, list(suite.WORKLOADS))
    if args.workload not in suite.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{sorted(suite.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    # Keep every default-location cache inside the checkout.
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "default-cache")
    try:
        report, trace_dump = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace_dump:
        path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(trace_dump, indent=1, sort_keys=True))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
