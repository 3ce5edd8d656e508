"""The closed-batch workloads: ``dse-grid`` and ``mc-yield``.

Both run in a single process.  A repetition clears the in-process
physics memos first, because every new ``repro sweep`` / ``repro mc``
process pays for device physics; workload materialization (graph
synthesis) is set-up work.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Dict, List, Tuple

import numpy as np

from harness import Tracer, median_rate, median_time, raw_rate, timed_reps, warm_up

from repro.analysis.robustness import monte_carlo_sweep
from repro.analysis.sweep import (
    SoASweepResult,
    SweepSpace,
    ghost_sweep_space,
    run_sweep_soa,
    tron_sweep_space,
    with_corners,
)
from repro.core.context import ExecutionContext, resolve_corner, standard_corners
from repro.core.engine import (
    SoAStats,
    batch_context_physics,
    clear_physics_cache,
    context_physics,
    physics_cache_stats,
    prime_breakdown_cache,
    soa_evaluator,
)
from repro.core.ghost import GHOST
from repro.core.tron import TRON
from repro.errors import YieldError
from repro.photonics.variation import ProcessVariationModel
from repro.workloads import clear_graph_memo

BACKENDS = ("analytic", "hbm", "hbm-pim")

#: Memo families whose hit fractions the traced run reports.
MEMOS = {
    "engine.breakdown_hit_frac": "breakdown",
    "engine.context_hit_frac": "context_physics",
    "engine.movement_hit_frac": "movement",
}


def _memo_counts() -> Dict[str, Tuple[int, int]]:
    """(hits, misses) per memo family.  The counters survive
    ``clear_physics_cache()``, so callers take per-repetition deltas."""
    stats = physics_cache_stats()
    return {
        metric: (int(stats[key]["hits"]), int(stats[key]["misses"]))
        for metric, key in MEMOS.items()
    }


def _hit_fracs(before, after) -> Dict[str, float]:
    fracs = {}
    for metric in MEMOS:
        hits = after[metric][0] - before[metric][0]
        misses = after[metric][1] - before[metric][1]
        fracs[metric] = hits / (hits + misses) if hits + misses else 0.0
    return fracs


def _bench_space(space: SweepSpace, platform, workload, corners) -> SweepSpace:
    """``space`` crossed with the memory backends and the corners,
    evaluated on an already materialized workload."""
    knobs = dict(space.knobs)
    knobs["backend"] = BACKENDS
    base_config = space.build_config

    def build_config(point):
        return replace(base_config(point), memory_backend=point["backend"])

    return with_corners(
        replace(
            space,
            knobs=SweepSpace.ordered_knobs(knobs),
            build_config=build_config,
            build_accelerator=lambda point: platform(build_config(point)),
            build_workload=lambda: workload,
        ),
        corners,
    )


class DseGrid:
    """TRON and GHOST design-space sweeps through ``run_sweep_soa``."""

    name = "dse-grid"
    #: Set-ups per run; ``setup_s`` is their median.
    SETUP_REPEATS = 5
    #: A single-threaded batch: no core is kept busy beside it.
    SPIN_CPUS = ()
    #: Non-frontier points re-costed through the scalar path per space.
    SAMPLE_POINTS = 16

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke

    def setup(self, tracer: Tracer) -> Dict:
        corners = {
            name: resolve_corner(name, self.seed) for name in standard_corners()
        }
        if self.smoke:
            tron = tron_sweep_space(
                head_units=(4,), array_sizes=(32, 64), clocks_ghz=(5.0,)
            )
            ghost = ghost_sweep_space(lanes=(16,), edge_units=(32,))
        else:
            tron = tron_sweep_space(
                head_units=(2, 4, 8, 16),
                array_sizes=(16, 32, 64, 128),
                clocks_ghz=(1.25, 2.5, 5.0),
            )
            ghost = ghost_sweep_space(
                lanes=(4, 8, 16, 32, 64, 128),
                edge_units=(8, 16, 32, 64, 128, 256),
            )
        spaces = []
        clear_graph_memo()  # a new process synthesizes its graphs
        with tracer.span("workloads.materialize"):
            for space, platform in ((tron, TRON), (ghost, GHOST)):
                workload = space.build_workload()
                workload.materialize()
                spaces.append(_bench_space(space, platform, workload, corners))
        return {
            "spaces": spaces, "reference": None, "reps": 0, "failed": 0,
            "yield_failed": 0,
        }

    def _rep(self, state: Dict, keep: bool) -> int:
        clear_physics_cache()
        points = 0
        outputs = []
        for space in state["spaces"]:
            points += space.num_points
            try:
                result = run_sweep_soa(space)
            except YieldError:
                if keep:  # warm-up repetitions are not attempted operations
                    state["yield_failed"] += space.num_points
                outputs.append(None)
                continue
            latency, energy = result.latency_ns, result.energy_pj
            frontier = result.frontier()
            outputs.append((result, latency, energy, [p.label for p in frontier]))
        if keep:
            state["last"] = outputs
        return points

    def _keep(self, state: Dict) -> None:
        """Count the last repetition; it must reproduce the first one's
        columns and frontier bit for bit."""
        outputs = state.pop("last")
        state["reps"] += 1
        if state["reference"] is None:
            state["reference"] = outputs
            return
        for space, ref, other in zip(state["spaces"], state["reference"], outputs):
            if ref is None or other is None:
                continue
            if not (
                np.array_equal(other[1], ref[1])
                and np.array_equal(other[2], ref[2])
                and other[3] == ref[3]
            ):
                state["failed"] += space.num_points

    def discard(self, state: Dict) -> None:
        pass

    def finish(self, state: Dict) -> None:
        pass

    def measure(self, state: Dict, seconds: float) -> Dict[str, float]:
        return _measure(self, state, seconds)

    def _traced_rep(self, state: Dict, tracer: Tracer) -> Dict[str, float]:
        """One repetition split at the public layer boundaries: the
        evaluator runs on primed physics, so ``soa.evaluate`` leaves
        device physics out."""
        clear_physics_cache()
        before = _memo_counts()
        groups = materialized = 0
        outputs = []
        for space in state["spaces"]:
            workload = space.build_workload()
            with tracer.span("sweep.evaluations"):
                evaluations = space.evaluations()
            with tracer.span("sweep.build_config"):
                configs = [space.build_config(knobs) for knobs, _, _ in evaluations]
            contexts = [
                None if ctx is None or ctx.is_nominal else ctx
                for _, _, ctx in evaluations
            ]
            with tracer.span("engine.physics"):
                # Configs are unhashable; one per knob setting across corners.
                platform = TRON if space.platform == "TRON" else GHOST
                point_specs = []
                by_setting = {}
                requests = []
                for (knobs, _, _), cfg in zip(evaluations, configs):
                    setting = tuple(v for k, v in knobs.items() if k != "corner")
                    if setting not in by_setting:
                        by_setting[setting] = platform(cfg).array_specs()
                        requests.extend(
                            (spec, 0.5, cfg.weight_refresh_cycles)
                            for spec in by_setting[setting]
                        )
                    point_specs.append(by_setting[setting])
                prime_breakdown_cache(requests)
                for spec, ctx in dict.fromkeys(
                    (spec, ctx)
                    for specs, ctx in zip(point_specs, contexts)
                    for spec in specs
                ):
                    context_physics(spec, ctx)
            with tracer.span("soa.evaluate"):
                evaluator = soa_evaluator(space.platform, workload.kind)
                try:
                    stacked = evaluator(configs, contexts, workload)
                except YieldError:
                    stacked = None
            if stacked is None:
                state["yield_failed"] += space.num_points
                outputs.append(None)
                continue
            result = SoASweepResult(
                space=space,
                evaluations=evaluations,
                stacked=stacked,
                stats=SoAStats(
                    strategy="soa", points=len(evaluations), groups=stacked.groups
                ),
            )
            with tracer.span("reports.frontier"):
                frontier = result.frontier()
            groups += stacked.groups
            materialized += result.stats.materialized_reports
            outputs.append(
                (result, result.latency_ns, result.energy_pj,
                 [p.label for p in frontier])
            )
        state["last"] = outputs
        counts = _hit_fracs(before, _memo_counts())
        counts["soa.groups"] = groups
        counts["reports.materialized"] = materialized
        return counts

    def trace(self, state: Dict, seconds: float, tracer: Tracer) -> Dict[str, float]:
        return _traced_loop(self, state, seconds, tracer)

    def verify(self, state: Dict) -> Tuple[int, int, int]:
        """Re-cost every frontier point and a seeded sample of other
        points through the scalar ``Accelerator.run`` (``==`` on
        ``to_dict()``), and require every repetition, traced or not, to
        reproduce the first one's columns and frontier exactly."""
        attempted = sum(space.num_points for space in state["spaces"]) * state["reps"]
        failed = state["failed"]
        rng = np.random.default_rng(self.seed)
        for space, ref in zip(state["spaces"], state["reference"]):
            if ref is None:
                continue
            result, _, _, labels = ref
            label_index = {label: i for i, (_, label, _) in enumerate(result.evaluations)}
            checked = {label_index[label] for label in labels}
            sample = min(self.SAMPLE_POINTS, space.num_points)
            checked.update(int(i) for i in rng.choice(space.num_points, sample, replace=False))
            workload = space.build_workload()
            for i in sorted(checked):
                knobs, _, ctx = result.evaluations[i]
                expected = space.build_accelerator(knobs).run(workload, ctx=ctx)
                if result.point(i).report.to_dict() != expected.to_dict():
                    failed += state["reps"]
        mismatched = min(failed, attempted)
        return attempted, min(failed + state["yield_failed"], attempted), mismatched


class McYield:
    """Monte-Carlo yield of a few TRON and GHOST configurations."""

    name = "mc-yield"
    SETUP_REPEATS = 5
    SPIN_CPUS = ()
    #: Dies per configuration.
    SAMPLES = 512
    #: The repo's yield-aware Pareto tuner range.
    TUNER_RANGE_NM = 8.5
    #: Dies per configuration re-run through the scalar path.
    CHECK_DIES = 8
    #: Relative energy tolerance of the affine yield-signature replay
    #: against a scalar run of the same die.  By design the replay sits
    #: about 1 ulp off, well inside it.
    ENERGY_RTOL = 1e-12

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke

    def setup(self, tracer: Tracer) -> Dict:
        context = ExecutionContext(
            variation=ProcessVariationModel(),
            seed=self.seed,
            tuner_range_nm=self.TUNER_RANGE_NM,
        )
        tron = tron_sweep_space(
            head_units=(8,),
            array_sizes=(32,) if self.smoke else (32, 64, 128),
            clocks_ghz=(5.0,),
        )
        ghost = ghost_sweep_space(
            lanes=(16,) if self.smoke else (16, 32), edge_units=(32,)
        )
        spaces = []
        clear_graph_memo()  # a new process synthesizes its graphs
        with tracer.span("workloads.materialize"):
            for space in (tron, ghost):
                workload = space.build_workload()
                workload.materialize()
                spaces.append(replace(space, build_workload=lambda w=workload: w))
        specs = {}
        geometries = {}
        for space in spaces:
            for knobs in space.enumerate():
                config_specs = space.build_accelerator(knobs).array_specs()
                specs.update(dict.fromkeys(config_specs))
                geometries[space.label(knobs)] = len(
                    {(spec.rows, spec.cols) for spec in config_specs}
                )
        return {
            "context": context,
            "spaces": spaces,
            "samples": 64 if self.smoke else self.SAMPLES,
            "specs": list(specs),
            "geometries": geometries,
            "reference": None,
            "reps": 0,
            "failed": 0,
        }

    def _sweep(self, state: Dict) -> List[Tuple[SweepSpace, List]]:
        return [
            (space, monte_carlo_sweep(space, state["context"], samples=state["samples"]))
            for space in state["spaces"]
        ]

    def _rep(self, state: Dict, keep: bool) -> int:
        clear_physics_cache()
        outputs = self._sweep(state)
        if keep:
            state["last"] = outputs
        return state["samples"] * sum(len(points) for _, points in outputs)

    def _keep(self, state: Dict) -> None:
        """Count the last repetition; it must reproduce the first one's
        distributions bit for bit."""
        outputs = state.pop("last")
        state["reps"] += 1
        if state["reference"] is None:
            state["reference"] = outputs
            return
        for (_, ref_points), (_, points) in zip(state["reference"], outputs):
            for ref, other in zip(ref_points, points):
                r, o = ref.result, other.result
                if not (
                    np.array_equal(r.operational, o.operational)
                    and np.array_equal(r.latency_ns, o.latency_ns, equal_nan=True)
                    and np.array_equal(r.energy_pj, o.energy_pj, equal_nan=True)
                ):
                    state["failed"] += state["samples"]

    def discard(self, state: Dict) -> None:
        pass

    def finish(self, state: Dict) -> None:
        pass

    def measure(self, state: Dict, seconds: float) -> Dict[str, float]:
        return _measure(self, state, seconds)

    def _traced_rep(self, state: Dict, tracer: Tracer) -> Dict[str, float]:
        """One repetition, with the batched die physics of every array
        geometry timed on its own (same inputs, memos cleared after)."""
        clear_physics_cache()
        before = _memo_counts()
        with tracer.span("robustness.die_physics"):
            for spec in state["specs"]:
                batch_context_physics(spec, state["context"], state["samples"])
        clear_physics_cache()
        with tracer.span("robustness.mc"):
            outputs = self._sweep(state)
        state["last"] = outputs
        signatures = stacked = 0
        for space, points in outputs:
            for point in points:
                groups = int(point.result.evaluation["groups"])
                signatures += groups
                # A base context plus one unit-correction context per
                # array geometry, for every yield signature.
                stacked += groups * (1 + state["geometries"][point.label])
        counts = _hit_fracs(before, _memo_counts())
        counts["robustness.signatures"] = signatures
        counts["soa.groups"] = stacked
        return counts

    def trace(self, state: Dict, seconds: float, tracer: Tracer) -> Dict[str, float]:
        layers = _traced_loop(self, state, seconds, tracer)
        # The replay's self time: the Monte-Carlo call minus its die physics.
        layers["soa.evaluate_s"] = max(
            0.0, layers["robustness.mc_s"] - layers["robustness.die_physics_s"]
        )
        return layers

    def verify(self, state: Dict) -> Tuple[int, int, int]:
        """Re-run a seeded sample of dies as
        ``run(workload, ctx=context.for_sample(i))``: the operational
        mask and latency must match exactly, energy within
        ``ENERGY_RTOL``; every repetition must reproduce the first."""
        samples = state["samples"]
        configs = sum(len(points) for _, points in state["reference"])
        attempted = samples * configs * state["reps"]
        failed = state["failed"]
        rng = np.random.default_rng(self.seed)
        context = state["context"]
        max_rel = 0.0
        for space, points in state["reference"]:
            workload = space.build_workload()
            for point in points:
                accelerator = space.build_accelerator(point.knobs)
                result = point.result
                dies = rng.choice(samples, min(self.CHECK_DIES, samples), replace=False)
                for i in map(int, dies):
                    # A fresh scalar run, as the naive Monte-Carlo strategy
                    # does it: no memo state shared with other dies.
                    clear_physics_cache()
                    try:
                        report = accelerator.run(workload, ctx=context.for_sample(i))
                    except YieldError:
                        if result.operational[i]:
                            failed += state["reps"]
                        continue
                    rel = abs(report.energy_pj - result.energy_pj[i]) / abs(
                        report.energy_pj
                    )
                    max_rel = max(max_rel, rel)
                    if not (
                        result.operational[i]
                        and report.latency_ns == result.latency_ns[i]
                        and rel <= self.ENERGY_RTOL
                    ):
                        failed += state["reps"]
        state["energy_max_rel_err"] = max_rel
        failed = min(failed, attempted)
        return attempted, failed, failed


def _measure(workload, state: Dict, seconds: float) -> Dict[str, float]:
    """Warm up, then time repetitions for ``seconds``."""
    warm_up(lambda: workload._rep(state, keep=False))
    samples = timed_reps(
        lambda: workload._rep(state, keep=True), seconds,
        check=lambda: workload._keep(state),
    )
    state["raw_throughput_per_s"] = raw_rate(samples)
    return {
        "throughput_per_s": median_rate(samples),
        "p50_ms": median_time(samples) * 1e3,
    }


def _traced_loop(
    workload, state: Dict, seconds: float, tracer: Tracer
) -> Dict[str, float]:
    """Alternate untraced and traced repetitions for ``seconds``.

    Returns per-repetition medians of the span self times
    (``<name>_s``) and of the traced repetitions' counters, plus the
    tracing overhead: traced minus untraced median repetition time.
    """
    warm_up(lambda: workload._rep(state, keep=False))
    plain, traced, counters = [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < 3 or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        workload._rep(state, keep=True)
        plain.append(time.perf_counter() - t0)
        workload._keep(state)
        t0 = time.perf_counter()
        with tracer.span("rep"):
            counters.append(workload._traced_rep(state, tracer))
        traced.append(time.perf_counter() - t0)
        workload._keep(state)
    layers = span_medians(tracer, "rep")
    for key in counters[0]:
        layers[key] = float(np.median([c[key] for c in counters]))
    layers["trace.overhead_ms"] = (
        float(np.median(traced)) - float(np.median(plain))
    ) * 1e3
    return layers


def span_medians(tracer: Tracer, root: str) -> Dict[str, float]:
    """Median over ``root`` spans of each child span's summed self time,
    keyed ``<child name>_s``."""
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            child_s[parent] += end - start
    roots = {i: n for n, i in enumerate(
        i for i, span in enumerate(spans) if span[0] == root
    )}
    per_root: Dict[str, List[float]] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        if parent in roots:
            values = per_root.setdefault(f"{name}_s", [0.0] * len(roots))
            values[roots[parent]] += end - start - child_s[i]
    return {key: float(np.median(values)) for key, values in per_root.items()}
