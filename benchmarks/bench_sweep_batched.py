"""The sweep engine strategies vs. naive per-point re-evaluation.

A >= 500 point combined TRON + GHOST knob grid evaluated through the batched
strategy (one workload materialization, one vectorized device-physics
kernel call, signature-grouped run-path evaluation) and the ``soa``
strategy (the array-resident path: the whole grid as stacked NumPy
columns, scalar reports materialized from the stack) against the naive
sequential baseline (per-point workload rebuild + physics recompute).
Both engine strategies must be **bit-identical** to scalar runs —
every Pareto-frontier point is re-evaluated naively and compared
exactly, and every soa point is compared against its batched twin —
and the speedups must hold the bars ``run_sweep_bench.py`` gates on
when it records BENCH_sweep.json.
"""

import time

from repro.analysis.sweep import (
    ghost_sweep_space,
    pareto_frontier,
    run_sweep,
    tron_sweep_space,
)
from repro.core.engine import clear_physics_cache
from repro.workloads import clear_graph_memo


def production_spaces(quick: bool = False):
    """The benchmark grid: >= 500 combined points (8 in quick mode)."""
    if quick:
        return [
            tron_sweep_space(
                head_units=(4, 8), array_sizes=(32, 64), clocks_ghz=(5.0,)
            ),
            ghost_sweep_space(lanes=(8, 16), edge_units=(16, 32)),
        ]
    return [
        tron_sweep_space(
            head_units=(2, 3, 4, 6, 8, 12, 16, 24),
            array_sizes=(16, 24, 32, 48, 64, 96, 128, 160),
            clocks_ghz=(1.25, 2.5, 4.0, 5.0),
        ),
        ghost_sweep_space(
            lanes=(4, 6, 8, 12, 16, 20, 24, 28, 32, 40, 48, 56, 64, 80, 96, 128),
            edge_units=(4, 6, 8, 12, 16, 20, 24, 28, 32, 48, 64, 96, 128, 160, 192, 256),
        ),
    ]


def _evaluate_point_naively(space, point):
    """One fresh scalar evaluation of a sweep point (cold caches)."""
    clear_physics_cache()
    clear_graph_memo()
    workload = space.build_workload()
    knobs = {k: v for k, v in point.knobs.items() if k != "corner"}
    return space.build_accelerator(knobs).run(workload, ctx=None)


def measure_batched_sweep(quick: bool = False):
    """Benchmark record of the batched sweep vs. the naive baseline.

    Returns a dict with wall times, the speedup, the per-space frontier
    labels and the number of batched-vs-scalar mismatches over every
    frontier point (which must be 0).
    """
    spaces = production_spaces(quick=quick)

    clear_physics_cache()
    clear_graph_memo()
    t0 = time.perf_counter()
    naive = {
        space.name: run_sweep(space, strategy="naive")
        for space in spaces
    }
    naive_s = time.perf_counter() - t0

    # Warm the graph memo outside the timed regions: both engine arms
    # then measure evaluation cost rather than one-time dataset
    # synthesis (the naive baseline clears the memo per point above).
    for space in spaces:
        space.build_workload().materialize()

    clear_physics_cache()
    t0 = time.perf_counter()
    batched = {
        space.name: run_sweep(space, strategy="batched") for space in spaces
    }
    batched_s = time.perf_counter() - t0

    clear_physics_cache()
    t0 = time.perf_counter()
    soa = {
        space.name: run_sweep(space, strategy="soa") for space in spaces
    }
    soa_s = time.perf_counter() - t0

    num_points = sum(len(points) for points in batched.values())
    frontiers = {}
    mismatches = 0
    soa_mismatches = 0
    frontier_points = 0
    for space in spaces:
        batched_frontier = pareto_frontier(batched[space.name])
        naive_frontier = pareto_frontier(naive[space.name])
        assert [p.label for p in batched_frontier] == [
            p.label for p in naive_frontier
        ], f"{space.name}: frontier drift between batched and naive sweeps"
        frontiers[space.name] = [p.label for p in batched_frontier]
        # Bit-exact reconstruction check: every frontier point re-costed
        # through a fresh scalar run must match the batched report.
        for point in batched_frontier:
            frontier_points += 1
            scalar = _evaluate_point_naively(space, point)
            if (
                scalar.latency_ns != point.report.latency_ns
                or scalar.energy_pj != point.report.energy_pj
            ):
                mismatches += 1
        # Every soa point (not just the frontier) must reproduce its
        # batched twin bit for bit — the array-resident path's contract.
        for soa_point, batched_point in zip(
            soa[space.name], batched[space.name]
        ):
            if soa_point.report.to_dict() != batched_point.report.to_dict():
                soa_mismatches += 1
    return {
        "bench": "combined TRON+GHOST design-space sweep (soa/batched/naive)",
        "points": num_points,
        "soa_wall_s": round(soa_s, 4),
        "batched_wall_s": round(batched_s, 4),
        "naive_sequential_wall_s": round(naive_s, 4),
        "speedup": round(naive_s / batched_s, 2),
        "soa_speedup": round(naive_s / soa_s, 2),
        "soa_vs_batched": round(batched_s / soa_s, 2),
        "points_per_sec": round(num_points / batched_s, 1),
        "soa_points_per_sec": round(num_points / soa_s, 1),
        "frontier_points_checked": frontier_points,
        "frontier_mismatches": mismatches,
        "soa_mismatches": soa_mismatches,
        "pareto_frontiers": frontiers,
    }


def measure_perf_smoke():
    """soa vs batched points/sec on a medium grid (no naive arm).

    The 8-point quick grid is dominated by one-time physics setup, so a
    throughput ratio there is noise; this 128-point grid is big enough
    for the per-point cost to dominate while staying CI-fast.  Returns
    both strategies' wall times and points/sec plus the point-for-point
    mismatch count (must be 0).
    """
    spaces = [
        tron_sweep_space(
            head_units=(2, 4, 8, 16),
            array_sizes=(32, 64, 128, 160),
            clocks_ghz=(1.25, 2.5, 4.0, 5.0),
        ),
        ghost_sweep_space(
            lanes=(4, 8, 16, 32, 48, 64, 96, 128),
            edge_units=(8, 16, 32, 48, 64, 96, 128, 256),
        ),
    ]
    for space in spaces:  # warm the graph memo outside both timings
        space.build_workload().materialize()

    clear_physics_cache()
    t0 = time.perf_counter()
    batched = {
        space.name: run_sweep(space, strategy="batched") for space in spaces
    }
    batched_s = time.perf_counter() - t0

    clear_physics_cache()
    t0 = time.perf_counter()
    soa = {
        space.name: run_sweep(space, strategy="soa") for space in spaces
    }
    soa_s = time.perf_counter() - t0

    num_points = sum(len(points) for points in batched.values())
    mismatches = 0
    for space in spaces:
        for soa_point, batched_point in zip(
            soa[space.name], batched[space.name]
        ):
            if soa_point.report.to_dict() != batched_point.report.to_dict():
                mismatches += 1
    return {
        "bench": "soa vs batched sweep perf smoke",
        "points": num_points,
        "soa_wall_s": round(soa_s, 4),
        "batched_wall_s": round(batched_s, 4),
        "points_per_sec": round(num_points / batched_s, 1),
        "soa_points_per_sec": round(num_points / soa_s, 1),
        "soa_vs_batched": round(batched_s / soa_s, 2),
        "soa_mismatches": mismatches,
    }


def test_batched_sweep_speedup(run_once):
    record = run_once(measure_batched_sweep, quick=True)
    print()
    print(
        f"quick grid: {record['points']} points, "
        f"{record['speedup']:.1f}x batched / "
        f"{record['soa_speedup']:.1f}x soa vs naive"
    )
    assert record["frontier_mismatches"] == 0
    assert record["soa_mismatches"] == 0
    # The quick grid is tiny (8 points), so the batched advantage is
    # bounded by the per-point workload rebuild it amortizes away.
    assert record["speedup"] >= 2.0
