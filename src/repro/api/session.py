"""The :class:`Session` facade: one object, every evaluation path.

A Session is the single programmatic entry point to the library — the
CLI subcommands are thin argument-parsing adapters over it, and the
serving engine's spec intake routes through the same conversions.  It
exposes:

- :meth:`Session.run` — cost one workload on one platform at a corner.
- :meth:`Session.sweep` — the design-space sweeps with Pareto analysis.
- :meth:`Session.monte_carlo` — Monte-Carlo yield/variation analysis.
- :meth:`Session.corners` — the standard corner grid.
- :meth:`Session.serve` — replay a request trace through the batching
  serving engine.
- :meth:`Session.execute` — dispatch a declarative
  :class:`~repro.api.spec.ExperimentSpec` to whichever of the above its
  analysis block names.

All entry points return typed result objects
(:mod:`repro.api.results`) that own both the schema-versioned JSON
envelope and the human-readable rendering, so callers never rebuild
either.  Numbers are bit-identical to the corresponding CLI
invocations — the Session *is* the CLI's implementation.

Example:
    >>> session = Session()
    >>> result = session.run("MLP-mnist")
    >>> result.report.platform, result.report.workload
    ('TRON', 'MLP-mnist')
    >>> session.run("GCN-cora").report.platform    # auto-routing
    'GHOST'
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.api.results import (
    CacheResult,
    CornersResult,
    MonteCarloRunResult,
    RunResult,
    ServeResult,
    SweepResult,
    TraceResult,
)
from repro.api.spec import ExperimentSpec
from repro.errors import ConfigurationError


def _reject_unused_spec_fields(spec: ExperimentSpec) -> None:
    """Fail loudly on spec fields the declared analysis cannot honor.

    A sweep cannot apply platform overrides (the classic spaces own
    their configurations), ``corners``/``serve`` take no workload or
    platform at all, and so on — accepting such a spec would silently
    evaluate a different experiment than it declares.
    """
    kind = spec.analysis.kind
    problems = []
    if kind in ("sweep", "corners", "serve"):
        if spec.platform.overrides:
            problems.append("platform.overrides")
        if spec.workload is not None:
            problems.append("workload")
        if spec.context.tuner_range_nm is not None:
            problems.append("context.tuner_range_nm")
        if spec.context.corner != "nominal":
            # sweep's corner axis is analysis.corners_axis (the whole
            # grid); corners/serve define their own corner handling.
            problems.append("context.corner")
    if kind in ("corners", "serve") and spec.platform.name != "auto":
        problems.append("platform.name")
    if kind == "serve" and spec.context != type(spec.context)():
        problems.append("context")
    if problems:
        raise ConfigurationError(
            f"a {kind!r} spec cannot honor {problems}; remove the "
            "field(s) or change the analysis kind"
        )


class Session:
    """A configured handle on the library's evaluation paths.

    Args:
        disk_cache: attach the persistent physics cache for this
            process (what the CLI does for ``run``/``sweep``/``mc``/
            ``serve``).  ``REPRO_DISK_CACHE=0`` still opts out and
            ``REPRO_CACHE_DIR`` still relocates the directory.
    """

    def __init__(self, disk_cache: bool = False) -> None:
        self.disk_cache = disk_cache
        if disk_cache:
            from repro.core.engine import configure_disk_cache

            configure_disk_cache()

    # ------------------------------------------------------------------
    # Single runs
    # ------------------------------------------------------------------

    def run(
        self,
        workload,
        platform: str = "auto",
        batch: Optional[int] = None,
        corner: str = "nominal",
        seed: int = 0,
        overrides: Optional[Mapping[str, Any]] = None,
        tuner_range_nm: Optional[float] = None,
        memory_backend: Optional[str] = None,
        trace_dump: Optional[str] = None,
    ) -> RunResult:
        """Cost one workload on one platform at a named corner.

        Args:
            workload: a registered workload name or a
                :class:`~repro.core.base.Workload` instance.
            platform: a registered platform name, or ``"auto"`` (GNN
                workloads route to GHOST, everything else to TRON).
            batch: inferences sharing one weight-streaming pass —
                folded into the TRON configuration; GHOST costs
                full-graph inferences and rejects ``batch > 1``.
            corner: standard corner name (see
                :func:`repro.core.context.standard_corners`).
            seed: die-selection seed where variation exists.
            overrides: sparse platform-config overrides (validated).
            tuner_range_nm: TO tuner correction range override.
            memory_backend: registered memory backend name
                (``"analytic"``/``"hbm"``/``"hbm-pim"``); shorthand for
                an ``overrides["memory_backend"]`` entry.
            trace_dump: write the DRAM command trace here — forces
                ``hbm.op_trace`` on; needs a tracing backend.
        """
        from repro.api.registry import get_platform, resolve_platform
        from repro.api.spec import ContextSpec
        from repro.core.base import Workload, WorkloadKind, get_workload

        if not isinstance(workload, Workload):
            workload = get_workload(workload)
        resolved = resolve_platform(platform, workload.kind)
        merged: Dict[str, Any] = dict(overrides or {})
        if batch is not None and batch != 1:
            if resolved == "ghost":
                raise ConfigurationError(
                    "--batch only applies to TRON (GHOST costs full-graph "
                    "inferences); rerun without it or with --platform tron"
                )
            merged["batch"] = batch
        if memory_backend is not None:
            merged["memory_backend"] = memory_backend
        backend = merged.get("memory_backend", "analytic")
        if trace_dump is not None:
            if backend == "analytic":
                raise ConfigurationError(
                    "the analytic backend issues no DRAM commands; pass "
                    "memory_backend='hbm' (or 'hbm-pim') to dump a trace"
                )
            hbm = merged.get("hbm")
            if hbm is None:
                hbm = {}
            elif isinstance(hbm, Mapping):
                hbm = dict(hbm)
            else:  # an HBMGeometry instance from a programmatic caller
                from dataclasses import asdict

                hbm = asdict(hbm)
            hbm["op_trace"] = True
            merged["hbm"] = hbm
        accelerator = get_platform(resolved, overrides=merged or None)
        ctx = ContextSpec(
            corner=corner, seed=seed, tuner_range_nm=tuner_range_nm
        ).resolve()
        report = accelerator.run(workload, ctx=ctx)
        memory: Optional[Dict[str, Any]] = None
        if backend != "analytic":
            # The context-bound clone ran the workload; its model holds
            # any recorded trace.
            bound = (
                accelerator.bind(ctx)
                if hasattr(accelerator, "bind")
                else accelerator
            )
            memory = {"backend": backend}
            trace = getattr(
                getattr(bound, "memory_model", None), "trace", None
            )
            if trace is not None:
                memory["trace"] = trace.summary()
                if trace_dump is not None:
                    trace.save(str(trace_dump))
                    memory["trace_path"] = str(trace_dump)
        decode: Optional[Dict[str, Any]] = None
        if workload.kind is WorkloadKind.DECODE:
            # Surface the per-token series next to the episode totals
            # (the stacked pass; bit-identical to the scalar loop).
            series = accelerator.decode_series(workload, ctx=ctx)
            generation = series.to_generation_report()
            decode = {
                "prompt_tokens": series.prompt_tokens,
                "generated_tokens": series.generated_tokens,
                "tokens_per_second": generation.tokens_per_second,
                "first_token_ns": float(series.per_token_ns[0]),
                "last_token_ns": float(series.per_token_ns[-1]),
                "context": series.context.tolist(),
                "per_token_ns": series.per_token_ns.tolist(),
                "per_token_pj": series.per_token_pj.tolist(),
            }
        return RunResult(
            report=report, corner=corner, seed=seed, memory=memory,
            decode=decode,
        )

    # ------------------------------------------------------------------
    # Design-space sweeps
    # ------------------------------------------------------------------

    def sweep(
        self,
        target: str = "all",
        corners: bool = False,
        seed: int = 0,
        strategy: Optional[str] = None,
    ) -> SweepResult:
        """Run the classic design-space sweep(s) with Pareto marking.

        Args:
            target: ``"tron"``, ``"ghost"``, or ``"all"``.
            corners: add the standard execution-corner axis.
            seed: die-selection seed of the corner axis.
            strategy: sweep evaluation strategy override (see
                :func:`repro.analysis.sweep.run_sweep`).
        """
        from repro.analysis.sweep import (
            ghost_sweep_space,
            pareto_frontier,
            run_sweep_with_stats,
            tron_sweep_space,
            with_corners,
        )
        from repro.core.context import resolve_corner, standard_corners
        from repro.core.engine import physics_cache_stats

        spaces = {
            "tron": (tron_sweep_space,),
            "ghost": (ghost_sweep_space,),
            "all": (tron_sweep_space, ghost_sweep_space),
        }
        if target not in spaces:
            raise ConfigurationError(
                f"unknown sweep target {target!r}; "
                f"pick one of {sorted(spaces)}"
            )
        points: Dict[str, List] = {}
        frontiers: Dict[str, List] = {}
        evaluation: Dict[str, Dict[str, Any]] = {}
        for make_space in spaces[target]:
            space = make_space()
            if corners:
                corner_map = {
                    name: resolve_corner(name, seed)
                    for name in standard_corners()
                }
                space = with_corners(space, corner_map)
            space_points, stats = run_sweep_with_stats(
                space, strategy=strategy
            )
            points[space.name] = space_points
            frontiers[space.name] = pareto_frontier(space_points)
            evaluation[space.name] = stats.to_dict()
        return SweepResult(
            points=points,
            frontiers=frontiers,
            corners_axis=corners,
            seed=seed,
            physics_cache=physics_cache_stats(),
            evaluation=evaluation,
        )

    # ------------------------------------------------------------------
    # Variation analysis
    # ------------------------------------------------------------------

    def monte_carlo(
        self,
        workload,
        platform: str = "auto",
        samples: int = 128,
        corner: str = "typical",
        seed: int = 0,
        tuner_range_nm: Optional[float] = None,
        vectorized: bool = True,
        overrides: Optional[Mapping[str, Any]] = None,
        strategy: Optional[str] = None,
    ) -> MonteCarloRunResult:
        """Monte-Carlo variation analysis over ``samples`` sampled dies.

        The sampling population is the named corner's variation
        statistics; the nominal corner falls back to the typical
        statistics (a die population must exist to sample from).
        ``strategy`` picks the evaluation engine explicitly
        (``"soa"``/``"grouped"``/``"naive"``, see
        :func:`repro.analysis.robustness.run_monte_carlo`); when left
        ``None`` it resolves from ``vectorized``.
        """
        from dataclasses import replace

        from repro.analysis.robustness import run_monte_carlo
        from repro.api.registry import get_platform, resolve_platform
        from repro.core.base import Workload, get_workload
        from repro.core.context import standard_corners
        from repro.photonics.variation import ProcessVariationModel

        if not isinstance(workload, Workload):
            workload = get_workload(workload)
        resolved = resolve_platform(platform, workload.kind)
        corners = standard_corners()
        if corner not in corners:
            raise ConfigurationError(
                f"unknown corner {corner!r}; known corners: "
                f"{sorted(corners)}"
            )
        base = corners[corner]
        if base.variation is None:
            # Monte-Carlo over the nominal corner still needs a die
            # population to sample from.
            base = replace(base, variation=ProcessVariationModel())
        ctx = replace(base, seed=seed, tuner_range_nm=tuner_range_nm)
        result = run_monte_carlo(
            make_accelerator=lambda: get_platform(
                resolved, overrides=dict(overrides) if overrides else None
            ),
            make_workload=lambda: workload,
            context=ctx,
            samples=samples,
            vectorized=vectorized,
            strategy=strategy,
        )
        return MonteCarloRunResult(result=result, corner=corner, seed=seed)

    def corners(self, seed: int = 0) -> CornersResult:
        """Evaluate the standard corner grid on the stock scenarios
        (BERT-base on TRON, GCN-cora on GHOST)."""
        from repro.api.registry import get_platform
        from repro.core.base import get_workload
        from repro.core.context import resolve_corner, standard_corners
        from repro.core.engine import context_physics

        scenarios = (
            (get_platform("tron"), get_workload("BERT-base")),
            (get_platform("ghost"), get_workload("GCN-cora")),
        )
        rows = []
        for name in standard_corners():
            ctx = resolve_corner(name, seed)
            for accelerator, workload in scenarios:
                report = accelerator.run(workload, ctx=ctx)
                physics = context_physics(accelerator.array_specs()[0], ctx)
                rows.append(
                    dict(
                        corner=name,
                        platform=accelerator.name,
                        workload=workload.name,
                        latency_ns=report.latency_ns,
                        energy_pj=report.energy_pj,
                        epb_pj=report.epb_pj,
                        correction_power_mw=(
                            physics.correction_power_mw if physics else 0.0
                        ),
                        ring_yield=physics.ring_yield if physics else 1.0,
                    )
                )
        return CornersResult(rows=rows, seed=seed)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def serve(
        self,
        trace: Optional[str] = None,
        requests: Optional[Sequence] = None,
        repeat: int = 1,
        window: int = 64,
        cache_entries: int = 1024,
        batched_physics: bool = True,
        workers: int = 0,
        arrivals: Optional[str] = None,
        max_queue: int = 256,
        tenant_rate: Optional[float] = None,
        granularity: str = "type",
        seed: int = 0,
    ) -> ServeResult:
        """Replay a request stream through the batching serving engine.

        Args:
            trace: a trace file path (see ``repro gen-trace`` and
                :mod:`repro.serving.trace`); mutually exclusive with
                ``requests``.
            requests: an in-memory request sequence — each element a
                :class:`~repro.serving.request.ServeRequest`, a trace
                record dict, or a run-kind :class:`ExperimentSpec`.
            repeat: replay the stream N times (the cache stays warm).
            window: micro-batch window (requests coalesced per flush).
            cache_entries: report-cache bound (LRU beyond it).
            batched_physics: batched corner-physics path (disable for
                the scalar benchmarking baseline; same numbers).
            workers: ``0`` serves in process; ``>= 1`` shards the
                stream over that many worker processes
                (:class:`~repro.serving.fleet.ServingFleet`).
            arrivals: open-loop arrival spec (``poisson:RATE``,
                ``bursty:RATE[:BURSTINESS]``, ``uniform:RATE``, any of
                them behind a ``diurnal:`` envelope prefix, or the
                literal ``"trace"`` to adopt the replayed trace's
                recorded arrival hint) — fleet mode only; ``None``
                replays closed-loop.
            max_queue: fleet per-shard in-flight bound (admission
                control sheds beyond it).
            tenant_rate: fleet per-tenant token-bucket rate (req/s).
            granularity: fleet shard-key granularity (``"type"`` or
                ``"config"``).
            seed: arrival-schedule seed (fleet open loop).
        """
        from repro.core.engine import physics_cache_stats
        from repro.serving import ServingEngine
        from repro.serving.request import ServeRequest
        from repro.serving.trace import (
            load_trace_payload,
            record_tenant,
            record_to_request,
        )

        if (trace is None) == (requests is None):
            raise ConfigurationError(
                "serve needs exactly one of a trace path or a request "
                "sequence"
            )
        if arrivals is not None and not workers:
            raise ConfigurationError(
                "open-loop arrivals need a worker fleet; pass workers >= 1"
            )
        tenants: List[Optional[str]] = []
        if trace is not None:
            payload = load_trace_payload(trace)
            stream = [record_to_request(r) for r in payload["requests"]]
            tenants = [record_tenant(r) for r in payload["requests"]]
            if arrivals == "trace":
                arrivals = payload.get("arrivals")
                if arrivals is None:
                    raise ConfigurationError(
                        f"{trace} records no arrival hint; pass an "
                        "explicit --arrivals spec"
                    )
            label = str(trace)
        else:
            if arrivals == "trace":
                raise ConfigurationError(
                    "arrivals='trace' needs a trace file to read the "
                    "hint from"
                )
            stream = []
            for item in requests:
                if isinstance(item, ServeRequest):
                    stream.append(item)
                    tenants.append(None)
                elif isinstance(item, ExperimentSpec):
                    stream.append(ServeRequest.from_spec(item))
                    tenants.append(None)
                elif isinstance(item, Mapping):
                    stream.append(record_to_request(dict(item)))
                    tenants.append(record_tenant(dict(item)))
                else:
                    raise ConfigurationError(
                        f"cannot serve {item!r}; pass ServeRequests, "
                        "trace records, or run-kind ExperimentSpecs"
                    )
            label = f"<{len(stream)} in-memory requests>"
        if workers:
            return self._serve_fleet(
                stream,
                label,
                tenants=(
                    tenants if any(t is not None for t in tenants) else None
                ),
                repeat=repeat,
                window=window,
                cache_entries=cache_entries,
                batched_physics=batched_physics,
                workers=workers,
                arrivals=arrivals,
                max_queue=max_queue,
                tenant_rate=tenant_rate,
                granularity=granularity,
                seed=seed,
            )
        engine = ServingEngine(
            cache_entries=cache_entries,
            max_pending=window,
            use_batched_physics=batched_physics,
        )
        with engine:
            for _ in range(repeat):
                for request in stream:
                    engine.submit(request)
                engine.drain()
        return ServeResult(
            trace=label,
            repeat=repeat,
            window=window,
            served=engine.stats.requests,
            stats=engine.stats.to_dict(),
            cache=engine.cache.stats.to_dict(),
            scheduler=engine.scheduler.stats.to_dict(),
            physics_cache=physics_cache_stats(),
            cache_len=len(engine.cache),
            cache_bound=engine.cache.max_entries,
        )

    def _serve_fleet(
        self,
        stream: Sequence,
        label: str,
        repeat: int,
        window: int,
        cache_entries: int,
        batched_physics: bool,
        workers: int,
        arrivals: Optional[str],
        max_queue: int,
        tenant_rate: Optional[float],
        granularity: str,
        seed: int,
        tenants: Optional[Sequence[Optional[str]]] = None,
    ) -> ServeResult:
        """The fleet arm of :meth:`serve`: shard ``stream`` over worker
        processes, open-loop when an arrival spec is given."""
        from repro.serving.fleet import ServingFleet, merge_counters
        from repro.streaming.traffic import parse_shaped_arrivals

        process = parse_shaped_arrivals(arrivals) if arrivals else None
        fleet = ServingFleet(
            workers=workers,
            window=window,
            cache_entries=cache_entries,
            use_batched_physics=batched_physics,
            max_queue=max_queue,
            tenant_rate_rps=tenant_rate,
            granularity=granularity,
        )
        open_loop = []
        with fleet:
            for round_index in range(repeat):
                if process is None:
                    fleet.serve(stream, tenants=tenants)
                else:
                    result = fleet.run_open_loop(
                        stream,
                        process,
                        tenants=tenants,
                        seed=seed + round_index,
                    )
                    open_loop.append(result.to_dict())
        worker_stats = [
            fleet.worker_stats.get(i, {}) for i in range(workers)
        ]
        cache = merge_counters([w.get("cache", {}) for w in worker_stats])
        fleet_block = fleet.fleet_stats()
        fleet_block["arrivals"] = arrivals
        fleet_block["open_loop"] = open_loop
        stats = fleet.aggregate_stats()
        return ServeResult(
            trace=label,
            repeat=repeat,
            window=window,
            served=stats["requests"],
            stats=stats,
            cache=cache,
            scheduler=merge_counters(
                [w.get("scheduler", {}) for w in worker_stats]
            ),
            physics_cache=merge_counters(
                [w.get("physics_cache", {}) for w in worker_stats]
            ),
            cache_len=int(
                cache.get("insertions", 0) - cache.get("evictions", 0)
            ),
            cache_bound=cache_entries * workers,
            fleet=fleet_block,
        )

    def generate_trace(
        self,
        output: Optional[str] = None,
        requests: int = 1000,
        seed: int = 0,
        catalog: int = 48,
        llm_fraction: float = 0.7,
        skew: float = 1.1,
        tenants: int = 0,
        shape: str = "flat",
        rate: float = 500.0,
    ) -> TraceResult:
        """Synthesize a request trace (optionally saved).

        ``tenants == 0`` (the default) draws the classic single-catalog
        flat-record mix; ``tenants >= 1`` routes through the
        multi-tenant :class:`repro.streaming.traffic.TrafficModel`
        (tenant-wrapped records over embedded specs, ``catalog`` split
        as the per-tenant catalog size).  ``shape != "flat"`` stores an
        arrival hint (``"<shape>:poisson:<rate>"``) in the trace so
        replay can reproduce the intended open-loop schedule.
        """
        from repro.serving import save_trace

        if tenants < 0:
            raise ConfigurationError(f"tenants must be >= 0, got {tenants}")
        if tenants:
            from repro.streaming.traffic import generate_tenant_trace

            records = generate_tenant_trace(
                num_requests=requests,
                num_tenants=tenants,
                seed=seed,
                catalog_size=catalog,
                llm_fraction=llm_fraction,
                skew=skew,
            )
        else:
            from repro.serving import generate_trace

            records = generate_trace(
                num_requests=requests,
                seed=seed,
                catalog_size=catalog,
                llm_fraction=llm_fraction,
                skew=skew,
            )
        arrivals: Optional[str] = None
        if shape != "flat":
            from repro.streaming.traffic import parse_shaped_arrivals

            arrivals = f"{shape}:poisson:{rate:g}"
            parse_shaped_arrivals(arrivals)  # validate the hint eagerly
        if output is not None:
            save_trace(records, output, arrivals=arrivals)
        return TraceResult(records=records, output=output, arrivals=arrivals)

    # ------------------------------------------------------------------
    # Spec dispatch
    # ------------------------------------------------------------------

    def execute(self, spec: ExperimentSpec):
        """Run whatever a declarative spec describes.

        Dispatches on ``spec.analysis.kind`` to the matching entry
        point; the returned result is the same type (and bit-identical
        numbers) as calling that entry point directly.

        Example:
            >>> from repro.api.spec import ExperimentSpec
            >>> spec = ExperimentSpec(workload="MLP-mnist")
            >>> Session().execute(spec).report.workload
            'MLP-mnist'
        """
        kind = spec.analysis.kind
        _reject_unused_spec_fields(spec)
        if kind == "run":
            if not spec.workload:
                raise ConfigurationError("a run spec needs a workload")
            return self.run(
                spec.workload,
                platform=spec.platform.name,
                corner=spec.context.corner,
                seed=spec.context.seed,
                overrides=spec.platform.overrides,
                tuner_range_nm=spec.context.tuner_range_nm,
            )
        if kind == "sweep":
            target = "all" if spec.platform.name == "auto" else spec.platform.name
            return self.sweep(
                target=target,
                corners=spec.analysis.corners_axis,
                seed=spec.context.seed,
            )
        if kind == "mc":
            if not spec.workload:
                raise ConfigurationError("an mc spec needs a workload")
            return self.monte_carlo(
                spec.workload,
                platform=spec.platform.name,
                samples=spec.analysis.samples,
                corner=spec.context.corner,
                seed=spec.context.seed,
                tuner_range_nm=spec.context.tuner_range_nm,
                vectorized=spec.analysis.vectorized,
                overrides=spec.platform.overrides,
            )
        if kind == "corners":
            return self.corners(seed=spec.context.seed)
        if kind == "serve":
            if not spec.analysis.trace:
                raise ConfigurationError("a serve spec needs a trace path")
            return self.serve(
                trace=spec.analysis.trace,
                repeat=spec.analysis.repeat,
                window=spec.analysis.window,
                cache_entries=spec.analysis.cache_entries,
                batched_physics=spec.analysis.batched_physics,
                workers=spec.analysis.workers,
                arrivals=spec.analysis.arrivals,
            )
        raise ConfigurationError(  # pragma: no cover - spec validates kind
            f"unknown analysis kind {kind!r}"
        )

    # ------------------------------------------------------------------
    # Introspection + housekeeping
    # ------------------------------------------------------------------

    def describe(self) -> str:
        """Both photonic accelerators' configuration summaries."""
        from repro.api.registry import get_platform

        return "\n".join(
            get_platform(name).describe() for name in ("tron", "ghost")
        )

    def workloads(self) -> List[str]:
        """Sorted registered workload names."""
        from repro.core.base import list_workloads

        return list_workloads()

    def describe_workload(self, name: str) -> str:
        """One workload's ``[kind] description`` listing line."""
        from repro.core.base import get_workload

        workload = get_workload(name)
        return f"[{workload.kind.value:<11s}] {workload.describe()}"

    def claims(self) -> List:
        """The paper's headline-claim checks plus the streaming-extension
        floors (all regenerated)."""
        from repro.analysis.claims import (
            check_headline_claims,
            check_streaming_claims,
        )

        return check_headline_claims() + check_streaming_claims()

    def figures(self) -> List:
        """The regenerated Figs. 8-11 and streaming-extension tables."""
        from repro.analysis.figures import (
            ext_decode_epb,
            ext_decode_gops,
            ext_temporal_epb,
            ext_temporal_gops,
            fig8_llm_epb,
            fig9_llm_gops,
            fig10_gnn_epb,
            fig11_gnn_gops,
        )

        return [
            fn()
            for fn in (
                fig8_llm_epb,
                fig9_llm_gops,
                fig10_gnn_epb,
                fig11_gnn_gops,
                ext_decode_epb,
                ext_decode_gops,
                ext_temporal_epb,
                ext_temporal_gops,
            )
        ]

    def cache_info(self) -> CacheResult:
        """State of the persistent physics cache."""
        from repro.core.engine import configure_disk_cache

        cache = configure_disk_cache()
        if cache is None:
            return CacheResult(enabled=False)
        return CacheResult(
            enabled=True, path=str(cache.path), entries=len(cache)
        )

    def clear_cache(self) -> CacheResult:
        """Empty the persistent physics cache."""
        from repro.core.engine import configure_disk_cache

        cache = configure_disk_cache()
        if cache is None:
            return CacheResult(enabled=False)
        removed = cache.clear()
        return CacheResult(
            enabled=True, path=str(cache.path), entries=0, cleared=removed
        )
