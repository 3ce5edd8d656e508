"""The batching scheduler: coalesce, deduplicate, batch the physics.

Given a micro-batch of :class:`~repro.serving.request.ServeRequest`\\ s,
the scheduler serves each one through the cheapest sufficient path:

1. **Cache** — a request whose ``(workload, config, context)`` triple is
   already cached resolves immediately.
2. **Dedup** — identical misses inside the batch collapse onto one
   evaluation; every duplicate shares the resulting report object.
3. **Batched physics** — the remaining unique jobs group by
   ``(platform, batch, context family)``, where a family is everything
   but the die seed.  All distinct dies of a group evaluate through one
   batched pass of the engine's corner physics
   (:func:`repro.core.engine.batch_context_physics_for`) instead of N
   scalar draws + TED solves; each job then replays through the ordinary
   run path with its die's physics pinned, which matches a direct scalar
   run (the cost model reads exactly the pinned fields) up to the
   batched TED solve's float32 rounding.

Groups evaluate in order on the calling thread: the cost model is pure
Python/NumPy compute, so a thread pool would only serialize on the GIL.
The scheduler is synchronous; the asynchronous submission front-end
lives in :mod:`repro.serving.engine`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.base import Accelerator, Workload, get_workload
from repro.core.context import ExecutionContext, PinnedArrayPhysics
from repro.core.engine import batch_context_physics_for
from repro.core.ghost import GHOST
from repro.core.reports import RunReport
from repro.core.tron import TRON, TRONConfig
from repro.errors import ConfigurationError, MappingError, YieldError
from repro.serving.cache import (
    CacheKey,
    ReportCache,
    config_fingerprint,
    normalize_context,
)
from repro.serving.request import ServeRequest, ServeResponse

#: platform name -> factory taking the request batch size.
PlatformCatalog = Dict[str, Callable[[int], Accelerator]]


def _make_tron(batch: int) -> Accelerator:
    return TRON(TRONConfig(batch=batch))


def _make_ghost(batch: int) -> Accelerator:
    if batch != 1:
        raise ConfigurationError(
            "GHOST costs full-graph inferences; batched requests must "
            "target tron (got batch={})".format(batch)
        )
    return GHOST()


def default_platform_catalog() -> PlatformCatalog:
    """The stock platform factories the scheduler routes requests to."""
    return {"tron": _make_tron, "ghost": _make_ghost}


@dataclass
class _Job:
    """One unique (deduplicated) evaluation inside a micro-batch."""

    key: CacheKey
    request: ServeRequest
    workload: Workload
    platform: str
    indices: List[int] = field(default_factory=list)
    report: Optional[RunReport] = None
    error: Optional[str] = None
    finished_s: float = 0.0


@dataclass
class SchedulerStats:
    """Evaluation accounting of one :class:`BatchingScheduler`.

    Attributes:
        requests: requests scheduled.
        cache_hits: requests served from the report cache.
        deduped: requests coalesced onto an identical in-batch request.
        evaluated: unique jobs that went through the run path.
        errors: jobs that failed (dead die, unmappable workload).
        groups: per-(platform, batch, context-family) groups formed.
        physics_batches: batched corner-physics passes issued.
        batched_dies: dies whose physics came from a batched pass.
    """

    requests: int = 0
    cache_hits: int = 0
    deduped: int = 0
    evaluated: int = 0
    errors: int = 0
    groups: int = 0
    physics_batches: int = 0
    batched_dies: int = 0

    def to_dict(self) -> Dict[str, int]:
        """JSON-serializable form."""
        return {
            "requests": self.requests,
            "cache_hits": self.cache_hits,
            "deduped": self.deduped,
            "evaluated": self.evaluated,
            "errors": self.errors,
            "groups": self.groups,
            "physics_batches": self.physics_batches,
            "batched_dies": self.batched_dies,
        }


class BatchingScheduler:
    """Coalesces request streams into grouped, deduplicated evaluations.

    Args:
        cache: the shared report cache (``None`` disables caching).
        catalog: platform name -> accelerator factory; defaults to the
            stock TRON/GHOST catalog.
        use_batched_physics: evaluate each group's distinct dies through
            one batched corner-physics pass (disable to force scalar
            per-request physics — the numbers are identical; this is a
            benchmarking aid).
    """

    def __init__(
        self,
        cache: Optional[ReportCache] = None,
        catalog: Optional[PlatformCatalog] = None,
        use_batched_physics: bool = True,
    ) -> None:
        self.cache = cache
        self.catalog = (
            default_platform_catalog() if catalog is None else catalog
        )
        self.use_batched_physics = use_batched_physics
        self.stats = SchedulerStats()
        self._fingerprints: Dict[Tuple[str, int], str] = {}
        self._stats_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Key construction
    # ------------------------------------------------------------------

    def _fingerprint(self, platform: str, batch: int) -> str:
        """Memoized configuration fingerprint of a catalog platform."""
        key = (platform, batch)
        with self._stats_lock:
            cached = self._fingerprints.get(key)
        if cached is not None:
            return cached
        factory = self.catalog.get(platform)
        if factory is None:
            raise ConfigurationError(
                f"unknown platform {platform!r}; catalog has "
                f"{sorted(self.catalog)}"
            )
        accelerator = factory(batch)
        config = getattr(accelerator, "config", accelerator.name)
        fingerprint = config_fingerprint(config)
        with self._stats_lock:
            self._fingerprints[key] = fingerprint
        return fingerprint

    def _resolve(self, request: ServeRequest):
        """(workload, platform, cache key) of a request — the single
        key-construction rule of the scheduler."""
        workload = get_workload(request.workload)
        platform = request.resolve_platform(workload.kind)
        key = (
            request.workload,
            self._fingerprint(platform, request.batch),
            normalize_context(request.ctx),
        )
        return workload, platform, key

    def cache_key(self, request: ServeRequest) -> CacheKey:
        """The frozen cache key of a request (see :mod:`.cache`)."""
        return self._resolve(request)[2]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def execute(
        self, requests: Sequence[ServeRequest]
    ) -> List[ServeResponse]:
        """Serve one micro-batch, returning responses in request order."""
        requests = list(requests)
        start = time.perf_counter()
        with self._stats_lock:
            self.stats.requests += len(requests)
        responses: List[Optional[ServeResponse]] = [None] * len(requests)

        # Pass 1: cache lookups + in-batch dedup.  A request that cannot
        # even resolve (unknown workload, unroutable platform/batch)
        # fails alone; it must not sink the micro-batch.
        jobs: Dict[CacheKey, _Job] = {}
        resolution_errors = cache_hits = deduped = 0
        for i, request in enumerate(requests):
            try:
                workload, platform, key = self._resolve(request)
            except (ConfigurationError, MappingError) as exc:
                resolution_errors += 1
                responses[i] = ServeResponse(
                    request=request,
                    report=None,
                    error=str(exc),
                    latency_s=time.perf_counter() - start,
                )
                continue
            cached = self.cache.get(key) if self.cache is not None else None
            if cached is not None:
                cache_hits += 1
                responses[i] = ServeResponse(
                    request=request,
                    report=cached,
                    cached=True,
                    latency_s=time.perf_counter() - start,
                )
                continue
            job = jobs.get(key)
            if job is None:
                jobs[key] = job = _Job(
                    key=key,
                    request=request,
                    workload=workload,
                    platform=platform,
                )
            else:
                deduped += 1
            job.indices.append(i)
        with self._stats_lock:
            self.stats.errors += resolution_errors
            self.stats.cache_hits += cache_hits
            self.stats.deduped += deduped

        # Pass 2: group unique jobs by (platform, batch, context family).
        groups: Dict[Tuple, List[_Job]] = {}
        for job in jobs.values():
            ctx = normalize_context(job.request.ctx)
            family = self._family(ctx)
            groups.setdefault(
                (job.platform, job.request.batch, family), []
            ).append(job)
        with self._stats_lock:
            self.stats.groups += len(groups)

        # Pass 3: evaluate groups, in order.
        for item in groups.items():
            self._evaluate_group(item)

        # Pass 4: fan reports back out to every request of each job.
        for job in jobs.values():
            latency = job.finished_s - start
            for rank, i in enumerate(job.indices):
                responses[i] = ServeResponse(
                    request=requests[i],
                    report=job.report,
                    deduped=rank > 0,
                    error=job.error,
                    latency_s=latency,
                )
        missing = [i for i, r in enumerate(responses) if r is None]
        if missing:  # pragma: no cover - scheduler invariant
            raise RuntimeError(
                f"scheduler bug: request(s) {missing} got no response"
            )
        return responses

    @staticmethod
    def _family(
        ctx: Optional[ExecutionContext],
    ) -> Optional[ExecutionContext]:
        """The group key of a context: everything but the die seed.

        Nominal (``None``) and pinned contexts form their own groups and
        evaluate scalar; sampling contexts that differ only in seed land
        in one family and share a batched physics pass.
        """
        if ctx is None or ctx.pinned or not ctx.affects_arrays:
            return ctx
        return replace(ctx, seed=0)

    def _evaluate_group(self, item: Tuple[Tuple, List[_Job]]) -> None:
        (platform, batch, family), group_jobs = item
        try:
            accelerator = self.catalog[platform](batch)
        except ConfigurationError as exc:
            for job in group_jobs:
                job.error = str(exc)
                job.finished_s = time.perf_counter()
            with self._stats_lock:
                self.stats.errors += len(group_jobs)
            return
        pinned_ctx = self._pin_group_physics(accelerator, family, group_jobs)
        evaluated = errors = 0
        for job in group_jobs:
            ctx = normalize_context(job.request.ctx)
            run_ctx = pinned_ctx.get(ctx, ctx)
            try:
                job.report = accelerator.run(job.workload, ctx=run_ctx)
                evaluated += 1
            except (YieldError, MappingError, ConfigurationError) as exc:
                job.error = str(exc)
                errors += 1
            job.finished_s = time.perf_counter()
            if job.report is not None and self.cache is not None:
                self.cache.put(job.key, job.report)
        with self._stats_lock:
            self.stats.evaluated += evaluated
            self.stats.errors += errors

    def _pin_group_physics(
        self,
        accelerator: Accelerator,
        family: Optional[ExecutionContext],
        group_jobs: List[_Job],
    ) -> Dict[ExecutionContext, ExecutionContext]:
        """ctx -> pinned-physics ctx for every distinct die of a group.

        One batched corner-physics pass per array geometry covers all
        the group's dies; each die's outcome (usable dims + correction
        power) is pinned onto its context, so the subsequent run-path
        evaluations skip the per-die draws and TED solves (see
        :func:`~repro.core.engine.batch_context_physics_for` for how
        close the batched physics is to a one-die solve).
        """
        if (
            not self.use_batched_physics
            or family is None
            or family.pinned
            or not family.affects_arrays
        ):
            return {}
        specs = getattr(accelerator, "array_specs", None)
        if specs is None:
            return {}
        geometries: Dict[Tuple[int, int], object] = {}
        for spec in specs():
            geometries.setdefault((spec.rows, spec.cols), spec)
        contexts = sorted(
            {normalize_context(job.request.ctx) for job in group_jobs},
            key=lambda c: c.seed,
        )
        pinned: Dict[ExecutionContext, Dict] = {c: {} for c in contexts}
        for (rows, cols), spec in geometries.items():
            batch_physics = batch_context_physics_for(spec, contexts)
            with self._stats_lock:
                self.stats.physics_batches += 1
            for i, ctx in enumerate(contexts):
                pinned[ctx][(rows, cols)] = PinnedArrayPhysics(
                    usable_rows=int(batch_physics.usable_rows[i]),
                    usable_cols=int(batch_physics.usable_cols[i]),
                    correction_power_mw=float(
                        batch_physics.correction_power_mw[i]
                    ),
                )
        with self._stats_lock:
            self.stats.batched_dies += len(contexts)
        return {ctx: ctx.with_pinned(entries) for ctx, entries in pinned.items()}
