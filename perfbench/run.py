"""Steady end-to-end and per-layer benchmark of the TRON/GHOST cost model.

Run from the root of a checkout::

    python3 perfbench/run.py --workload dse-grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Workloads (see perfbench/NOTES.md): ``dse-grid``, ``mc-yield``,
``serve-hot``, ``serve-cold``.  With ``--trace 0`` the last stdout line
carries the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a traced run, whose spans are also written as
Chrome trace-event JSON under ``perfbench/out/``.  ``--smoke`` runs
every workload briefly, traced and untraced, and exits non-zero unless
every correctness check passes.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("dse-grid", "mc-yield", "serve-hot", "serve-cold")


END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "p50_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "sweep.evaluations_s": "s",
    "sweep.build_config_s": "s",
    "engine.physics_s": "s",
    "engine.breakdown_hit_frac": "ratio",
    "engine.context_hit_frac": "ratio",
    "engine.movement_hit_frac": "ratio",
    "soa.evaluate_s": "s",
    "soa.groups": "count",
    "reports.frontier_s": "s",
    "reports.materialized": "count",
    "workloads.materialize_s": "s",
    "fleet.start_s": "s",
    "fleet.submit_us": "us",
    "fleet.drain_s": "s",
    "fleet.queue_ms": "ms",
    "fleet.shed": "count",
    "fleet.p99_ms": "ms",
    "fleet.p99_samples": "count",
    "loadgen.late_ms": "ms",
    "worker.service_ms": "ms",
    "worker.busy_frac": "ratio",
    "scheduler.batch_size": "count",
    "scheduler.deduped": "count",
    "cache.hit_frac": "ratio",
    "cache.evictions": "count",
    "trace.overhead_ms": "ms",
}


def _make(name: str, seed: int, smoke: bool):
    from batch import DseGrid, McYield
    from serve import Serve

    if name == "dse-grid":
        return DseGrid(seed, smoke)
    if name == "mc-yield":
        return McYield(seed, smoke)
    return Serve(seed, smoke, hot=(name == "serve-hot"))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    """One benchmark run; returns the record (metrics under ``metrics``)."""
    import harness

    workload = _make(name, seed, smoke)
    record = {"workload": name, "trace": int(trace), "seconds": seconds}
    record.update(harness.host_record(seed))
    if not smoke:
        record.update(harness.settle_host())
    record["probe_before"] = harness.probe_rate()
    tracer = harness.Tracer()
    setup_s, raw_setup_s = [], []
    with harness.idle_spinners(workload.SPIN_CPUS):
        for attempt in range(1 if smoke else workload.SETUP_REPEATS):
            if attempt:
                workload.discard(state)
            factor = harness.host_factor()
            t0 = time.perf_counter()
            with tracer.span("setup"):
                state = workload.setup(tracer)
            raw_setup_s.append(time.perf_counter() - t0)
            setup_s.append(raw_setup_s[-1] * factor)
        try:
            if trace:
                layers = workload.trace(state, seconds, tracer)
            else:
                e2e = workload.measure(state, seconds)
            record["probe_after"] = harness.probe_rate()
        finally:
            workload.finish(state)
    # Before verification, whose reference runs are not the system under test.
    record["rss_self_mb"], record["rss_children_mb"] = harness.rss_mb()
    attempted, failed, mismatched = workload.verify(state)
    record.update(
        attempted=attempted, failed=failed, mismatched=mismatched,
        raw_setup_s=raw_setup_s,
    )
    for key in (
        "energy_max_rel_err", "raw_throughput_per_s", "chunk_p50_ms",
        "raw_p50_ms",
    ):
        if key in state:
            record[key] = state[key]
    if trace:
        if hasattr(workload, "fleet_layers"):
            layers.update(workload.fleet_layers(state))
        for span, metric in (
            ("workloads.materialize", "workloads.materialize_s"),
            ("fleet.start", "fleet.start_s"),
        ):
            durations = tracer.durations(span)
            if durations:
                layers[metric] = statistics.median(durations)
        # The record keeps every layer, also those only mc-yield moves
        # (robustness.*), which the result line leaves out.
        record["layers"] = {key: float(value) for key, value in layers.items()}
        units = PER_LAYER
        values = {key: float(layers.get(key, 0.0)) for key in units}
        tracer.write_chrome(OUT / f"{name}-seed{seed}.trace.json")
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "throughput_per_s": e2e["throughput_per_s"],
            "p50_ms": e2e["p50_ms"],
            "ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": record["rss_self_mb"] + record["rss_children_mb"],
        }
        units = END_TO_END
    record["metrics"] = {
        key: {"value": value, "unit": units[key]} for key, value in values.items()
    }
    return record


def _smoke() -> int:
    """Every workload, briefly, traced and untraced: exit 0 iff every
    correctness check passes."""
    ok = True
    for name in WORKLOADS:
        for trace in (False, True):
            record = run_workload(name, seed=1, seconds=0.5, trace=trace, smoke=True)
            passed = record["failed"] == 0 and record["mismatched"] == 0
            ok = ok and passed
            print(
                f"{name:10s} trace={int(trace)} attempted={record['attempted']} "
                f"failed={record['failed']} mismatched={record['mismatched']} "
                f"{'ok' if passed else 'FAIL'}"
            )
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or pass --smoke)")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"no program source at {src}", file=sys.stderr)
        return 2
    # The CLI enables the persistent physics cache, which would carry
    # state from one run into the next.
    os.environ["REPRO_DISK_CACHE"] = "0"
    sys.path.insert(0, str(src))
    from repro.core.engine import configure_disk_cache

    configure_disk_cache(enabled=False)
    if args.smoke:
        return _smoke()
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    print(
        json.dumps(
            {
                "correct": record["mismatched"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
