"""Profile the library hot paths: cProfile top-20 over a small run.

Usage::

    PYTHONPATH=src python tools/profile_hotpaths.py [--naive] [--top N]
    PYTHONPATH=src python tools/profile_hotpaths.py --target serving-dispatch

Targets:

- ``sweep`` (default) — a small combined TRON + GHOST sweep through the
  batched engine (or the naive sequential baseline with ``--naive``).
  This is the first tool to reach for when a sweep regression lands:
  the historical GHOST per-vertex aggregation loop, for example, showed
  up here as ~50k ``node_cycles`` calls before it was vectorized (see
  docs/performance.md).
- ``serving-dispatch`` — the fleet front-end's per-request parent cost:
  warm closed-loop replay through a 2-worker ``ServingFleet``, so the
  profile shows routing, admission, wire encoding and response
  collection (the parent-side path that bounds aggregate throughput on
  a saturated box; worker processes are outside the profile).  The
  ``wire_to_request``/``ExecutionContext.from_dict`` decode cost that
  motivated the fleet's type-id decode memo was found exactly here.
- ``hbm-costing`` — the HBM(-PIM) memory primitives over a mixed
  stream / burst / store / random workload at varied transfer sizes,
  with the movement memo cleared between rounds so the closed-form
  arithmetic (not cache hits) dominates the profile.  This is where the
  per-burst Python walk showed up before it became segment arithmetic.

Prints the top functions by cumulative time.
"""

from __future__ import annotations

import argparse
import cProfile
import pathlib
import pstats
import sys

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

TARGETS = ("sweep", "serving-dispatch", "hbm-costing")


def profile_sweep(naive: bool = False, top: int = 20) -> pstats.Stats:
    """Profile a small combined sweep; returns the collected stats."""
    from repro.analysis.sweep import (
        ghost_sweep_space,
        run_sweep,
        tron_sweep_space,
    )
    from repro.core.engine import clear_physics_cache

    spaces = [
        tron_sweep_space(
            head_units=(4, 8), array_sizes=(32, 64), clocks_ghz=(2.5, 5.0)
        ),
        ghost_sweep_space(lanes=(8, 16), edge_units=(16, 32)),
    ]
    clear_physics_cache()
    profiler = cProfile.Profile()
    profiler.enable()
    for space in spaces:
        if naive:
            run_sweep(space, strategy="naive")
        else:
            run_sweep(space, strategy="batched")
    profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    stats.print_stats(top)
    return stats


def profile_serving_dispatch(top: int = 20, replays: int = 5) -> pstats.Stats:
    """Profile warm fleet replay: the parent dispatch path only."""
    from repro.core.base import get_workload
    from repro.serving import ServingFleet, generate_trace, record_to_request

    records = generate_trace(num_requests=300, seed=0, catalog_size=24)
    requests = [record_to_request(record) for record in records]
    for request in requests:
        get_workload(request.workload).materialize()

    profiler = cProfile.Profile()
    with ServingFleet(workers=2) as fleet:
        fleet.serve(requests)  # warm every shard cache and route memo
        profiler.enable()
        for _ in range(replays):
            fleet.serve(requests)
        profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    stats.print_stats(top)
    return stats


def profile_hbm_costing(top: int = 20, rounds: int = 50) -> pstats.Stats:
    """Profile the HBM(-PIM) primitives over a mixed cold workload."""
    from repro.core.engine.hbm.geometry import HBMGeometry
    from repro.core.engine.hbm.model import HBMMemoryModel
    from repro.core.engine.movement import clear_movement_cache
    from repro.electronics.memory import MemorySystem

    model = HBMMemoryModel(MemorySystem(), geometry=HBMGeometry())
    sizes = (4 * 1024, 64 * 1024, 1024 * 1024, 16 * 1024 * 1024)

    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(rounds):
        # Cold rounds: clear the movement memo so the profile shows the
        # closed-form arithmetic, not LRU hits.
        clear_movement_cache()
        for num_bytes in sizes:
            model.stream_offchip(num_bytes)
            model.burst_offchip(num_bytes)
            model.store_offchip(num_bytes)
            model.random_offchip(num_bytes, penalty=4.0)
    profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    stats.print_stats(top)
    return stats


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--target",
        choices=TARGETS,
        default="sweep",
        help="which hot path to profile",
    )
    parser.add_argument(
        "--naive",
        action="store_true",
        help="profile the naive sequential baseline instead (sweep only)",
    )
    parser.add_argument(
        "--top", type=int, default=20, help="how many rows to print"
    )
    args = parser.parse_args()
    if args.target == "serving-dispatch":
        profile_serving_dispatch(top=args.top)
    elif args.target == "hbm-costing":
        profile_hbm_costing(top=args.top)
    else:
        profile_sweep(naive=args.naive, top=args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
