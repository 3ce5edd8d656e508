"""The shared photonic execution engine.

TRON and GHOST run on the same photonic substrate — MR-bank matmul
arrays, HBM streaming, linear streaming pipelines — and this package is
that substrate's single implementation:

- :mod:`repro.core.engine.matmul` — the :func:`photonic_matmul`
  primitive and the tiled :class:`ArrayExecutor` (functional + cost
  paths, memoized device-physics curves).
- :mod:`repro.core.engine.memory` — the :class:`MemoryModel` costing
  streamed weights, burst/random feature traffic and buffer bounces
  (thermal corners derate the HBM interface).
- :mod:`repro.core.engine.corners` — per-context array physics:
  variation sampling, TED correction power, ring-yield gating (scalar
  and batched Monte-Carlo forms, memoized per corner).
- :mod:`repro.core.engine.pipeline` — streaming-pipeline composition
  built on :mod:`repro.core.scheduling`.

Accelerators compose these into workload-specific datapaths; the
analysis layer (figures, claims, sweeps) only ever sees the uniform
``Accelerator.run(workload)`` entry point of :mod:`repro.core.base`.
"""

from repro.core.engine.corners import (
    ArrayContextPhysics,
    BatchContextPhysics,
    batch_context_physics,
    batch_context_physics_for,
    context_physics,
    context_physics_cache_stats,
)
from repro.core.engine.diskcache import (
    PhysicsDiskCache,
    active_disk_cache,
    configure_disk_cache,
    default_cache_dir,
    disk_cache_stats,
    fingerprint,
)
from repro.core.engine.matmul import (
    ArrayExecutor,
    ArraySpec,
    breakdown_cache_stats,
    clear_physics_cache,
    nominal_breakdown_pj,
    photonic_matmul,
    prime_breakdown_cache,
)
from repro.core.engine.soa import (
    ColumnEnergy,
    ColumnLatency,
    SoAStats,
    pareto_mask,
    register_soa_evaluator,
    soa_evaluator,
)
from repro.core.engine.hbm import CommandTrace, HBMGeometry, HBMMemoryModel
from repro.core.engine.membackend import (
    build_memory_backend,
    list_memory_backends,
    register_memory_backend,
)
from repro.core.engine.memo import LRUMemo, MemoStats
from repro.core.engine.memory import MemoryModel, Traffic
from repro.core.engine.movement import (
    clear_movement_cache,
    movement_cache_stats,
)
from repro.core.engine.pipeline import (
    PipelineStage,
    overlapped_stage_latency_ns,
    pipeline_latency_ns,
    serial_waves,
)


def physics_cache_stats() -> dict:
    """One dict aggregating every physics-cache observable.

    The in-process memos (device-physics curves, per-context physics)
    plus the persistent disk cache — what ``repro sweep --json`` and
    ``repro serve --stats`` surface.
    """
    stats = {"breakdown": breakdown_cache_stats()}
    stats.update(context_physics_cache_stats())
    stats["movement"] = movement_cache_stats()
    stats["disk"] = disk_cache_stats()
    return stats

__all__ = [
    "ArrayContextPhysics",
    "ArrayExecutor",
    "ArraySpec",
    "BatchContextPhysics",
    "ColumnEnergy",
    "ColumnLatency",
    "CommandTrace",
    "HBMGeometry",
    "HBMMemoryModel",
    "LRUMemo",
    "MemoStats",
    "MemoryModel",
    "PhysicsDiskCache",
    "PipelineStage",
    "SoAStats",
    "Traffic",
    "active_disk_cache",
    "batch_context_physics",
    "batch_context_physics_for",
    "breakdown_cache_stats",
    "build_memory_backend",
    "clear_movement_cache",
    "clear_physics_cache",
    "configure_disk_cache",
    "context_physics",
    "context_physics_cache_stats",
    "default_cache_dir",
    "disk_cache_stats",
    "fingerprint",
    "list_memory_backends",
    "movement_cache_stats",
    "nominal_breakdown_pj",
    "overlapped_stage_latency_ns",
    "pareto_mask",
    "photonic_matmul",
    "physics_cache_stats",
    "pipeline_latency_ns",
    "prime_breakdown_cache",
    "register_memory_backend",
    "register_soa_evaluator",
    "serial_waves",
    "soa_evaluator",
]
