"""Vectorized Monte-Carlo robustness analysis and yield-aware Pareto.

The paper's conclusion names fabrication-process variation as the open
challenge; this module turns the library into a variation-aware design
tool.  :func:`run_monte_carlo` evaluates one accelerator configuration
over N sampled dies and reports the **yield** plus the **latency,
energy, throughput and tuning-power distributions**;
:func:`monte_carlo_sweep` runs a whole design-space grid through it and
:func:`yield_aware_pareto` keeps only the configurations a fab could
actually ship (yield above threshold) before computing the
latency-energy frontier.

Two evaluation paths produce the same numbers:

- **naive** (``vectorized=False``): N scalar runs — per sample, rebuild
  the workload and accelerator, clear the physics caches, and cost the
  die through ``Accelerator.run(workload, ctx=ctx.for_sample(i))``.
  This is the baseline a user would write today, and what the
  ``BENCH_montecarlo.json`` bench compares against.
- **vectorized** (the default): the workload materializes once, every
  die's ring errors / TED heater solves / yield gating evaluate in one
  batched numpy pass per array geometry
  (:func:`repro.core.engine.batch_context_physics`), samples collapse
  into groups sharing a yield signature, and each group costs through
  the run path exactly once per unknown (a zero-correction run plus one
  unit-correction run per geometry — report energy is linear in the
  standing correction power, so every sample in the group is an exact
  affine combination).

The vectorized path resolves its unknowns through one of two strategies:
``"soa"`` (the default) stacks every signature's pinned contexts into a
single array-resident evaluation
(:func:`repro.core.engine.soa_evaluator`) — the sample axis becomes one
more tensor axis, and the whole unknown set costs as a handful of NumPy
ops; ``"grouped"`` is the scalar per-signature replay (one
``Accelerator.run`` per unknown, groups evaluated in order), which
platforms without a registered evaluator fall back to automatically.

The naive and vectorized paths agree to float rounding, not bit for
bit, when thermal-eigenmode decomposition (TED) tuning is on: the
vectorized path solves every die's heaters in one float32 matmul
(:func:`repro.core.engine.batch_context_physics`), which rounds
differently from a one-die solve, so on a 512-die TRON population a
die's energy can sit about 5e-9 relative off the naive value.
``"soa"`` and ``"grouped"`` share those batched physics and agree bit
for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import Accelerator, Workload
from repro.core.context import ExecutionContext, PinnedArrayPhysics
from repro.core.engine import (
    SoAStats,
    batch_context_physics,
    clear_physics_cache,
    context_physics,
    soa_evaluator,
)
from repro.core.reports import RunReport
from repro.errors import ConfigurationError, YieldError

#: Default yield threshold of the yield-aware Pareto frontier.
DEFAULT_YIELD_THRESHOLD = 0.9

#: The Monte-Carlo evaluation strategies of :func:`run_monte_carlo`.
MC_STRATEGIES = ("soa", "grouped", "naive")


# ----------------------------------------------------------------------
# Result containers
# ----------------------------------------------------------------------


def _stats(values: np.ndarray) -> Dict[str, float]:
    """mean / p5 / p50 / p95 of a metric over the operational samples."""
    if len(values) == 0:
        return {"mean": 0.0, "p5": 0.0, "p50": 0.0, "p95": 0.0}
    return {
        "mean": float(np.mean(values)),
        "p5": float(np.percentile(values, 5)),
        "p50": float(np.percentile(values, 50)),
        "p95": float(np.percentile(values, 95)),
    }


@dataclass
class MonteCarloResult:
    """Distributions of one configuration over N sampled dies.

    Attributes:
        platform / workload: what was evaluated.
        nominal: the nominal-corner report (the number the figures show).
        operational: per-sample mask — the die has usable hardware.
        fully_functional: per-sample mask — every ring correctable (the
            classic bank-yield criterion; these dies meet nominal spec).
        latency_ns / energy_pj / tuning_power_mw: per-sample metrics
            (``nan`` where the die is dead).  Tuning power is the
            standing variation-correction power of one array per
            geometry.
        samples: sample count N.
        seed: base seed the dies derive from.
        evaluation: stats of the evaluation strategy that ran (see
            :class:`repro.core.engine.SoAStats`), or ``None`` for
            results built outside the Monte-Carlo engine.
    """

    platform: str
    workload: str
    nominal: RunReport
    operational: np.ndarray
    fully_functional: np.ndarray
    latency_ns: np.ndarray
    energy_pj: np.ndarray
    tuning_power_mw: np.ndarray
    samples: int
    seed: int
    evaluation: Optional[Dict[str, object]] = None

    @property
    def yield_fraction(self) -> float:
        """Fraction of dies meeting nominal spec (no gated rows/cols)."""
        return float(np.mean(self.fully_functional))

    @property
    def operational_fraction(self) -> float:
        """Fraction of dies with any usable hardware at all."""
        return float(np.mean(self.operational))

    def _operational_values(self, values: np.ndarray) -> np.ndarray:
        return values[self.operational]

    @property
    def mean_latency_ns(self) -> float:
        """Mean latency over the operational dies (nan if none work)."""
        values = self._operational_values(self.latency_ns)
        return float(np.mean(values)) if len(values) else float("nan")

    @property
    def mean_energy_pj(self) -> float:
        """Mean energy over the operational dies (nan if none work)."""
        values = self._operational_values(self.energy_pj)
        return float(np.mean(values)) if len(values) else float("nan")

    @property
    def gops(self) -> np.ndarray:
        """Per-sample throughput (nan for dead dies)."""
        return self.nominal.ops.total_ops / self.latency_ns

    @property
    def epb_pj(self) -> np.ndarray:
        """Per-sample energy per bit (nan for dead dies)."""
        bits = self.nominal.ops.total_ops * self.nominal.bits_per_value
        return self.energy_pj / bits

    def to_dict(self) -> Dict:
        """JSON-serializable summary (no per-sample arrays)."""
        operational = self.operational
        summary = {
            "platform": self.platform,
            "workload": self.workload,
            "samples": self.samples,
            "seed": self.seed,
            "yield": self.yield_fraction,
            "operational_fraction": self.operational_fraction,
            "nominal": self.nominal.to_dict(),
            "latency_ns": _stats(self.latency_ns[operational]),
            "energy_pj": _stats(self.energy_pj[operational]),
            "gops": _stats(self.gops[operational]),
            "epb_pj": _stats(self.epb_pj[operational]),
            "tuning_power_mw": _stats(self.tuning_power_mw[operational]),
        }
        if self.evaluation is not None:
            summary["evaluation"] = dict(self.evaluation)
        return summary

    def summary(self) -> str:
        """Human-readable distribution table."""
        lines = [
            f"{self.platform} | {self.workload} | {self.samples} sampled dies "
            f"(seed {self.seed})",
            f"  yield: {100 * self.yield_fraction:.1f}% fully functional, "
            f"{100 * self.operational_fraction:.1f}% operational",
            f"  nominal: {self.nominal.latency_ns / 1e3:.2f} us, "
            f"{self.nominal.energy_pj / 1e6:.2f} uJ",
        ]
        rows = (
            ("latency (us)", self.latency_ns, 1e3),
            ("energy (uJ)", self.energy_pj, 1e6),
            ("GOPS", self.gops, 1.0),
            ("tuning (mW)", self.tuning_power_mw, 1.0),
        )
        lines.append(
            f"  {'metric':<14s} {'mean':>12s} {'p5':>12s} {'p50':>12s} "
            f"{'p95':>12s}"
        )
        for label, values, scale in rows:
            stats = _stats(values[self.operational] / scale)
            lines.append(
                f"  {label:<14s} {stats['mean']:>12.2f} {stats['p5']:>12.2f} "
                f"{stats['p50']:>12.2f} {stats['p95']:>12.2f}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The Monte-Carlo engine
# ----------------------------------------------------------------------


def _unique_geometries(accelerator: Accelerator) -> List:
    """The accelerator's distinct array geometries (one spec each)."""
    specs = getattr(accelerator, "array_specs", None)
    if specs is None:
        raise ConfigurationError(
            f"{accelerator.name} does not expose array_specs(); "
            "Monte-Carlo robustness needs the photonic array geometries"
        )
    unique = {}
    for spec in specs():
        unique.setdefault((spec.rows, spec.cols), spec)
    return list(unique.values())


def run_monte_carlo(
    make_accelerator: Callable[[], Accelerator],
    make_workload: Callable[[], Workload],
    context: ExecutionContext,
    samples: int = 256,
    vectorized: bool = True,
    strategy: Optional[str] = None,
) -> MonteCarloResult:
    """Evaluate one configuration over ``samples`` sampled dies.

    Args:
        make_accelerator: factory for the configuration under test.
        make_workload: factory for the workload (materialized once on
            the vectorized path, per sample on the naive path).
        context: the sampling corner — its variation model, thermal
            corner and tuner range define the die population; its seed
            picks the population's first die.
        samples: number of dies (N).
        vectorized: batched engine (default) vs. the naive N-scalar-runs
            baseline; both produce the same distributions up to the
            TED float rounding described in the module docstring.
        strategy: explicit evaluation strategy — ``"soa"`` (the default
            with ``vectorized=True``) resolves every yield-signature
            unknown in one stacked array-resident evaluation,
            ``"grouped"`` replays each unknown through the scalar run
            path, ``"naive"`` is the N-scalar-runs baseline.  ``"soa"``
            and ``"grouped"`` produce bit-identical distributions;
            ``"naive"`` matches them bit for bit only with TED off.

    Example:
        >>> from repro.core import TRON, get_workload
        >>> from repro.core.context import ExecutionContext
        >>> from repro.photonics.variation import ProcessVariationModel
        >>> result = run_monte_carlo(
        ...     make_accelerator=TRON,
        ...     make_workload=lambda: get_workload("MLP-mnist"),
        ...     context=ExecutionContext(variation=ProcessVariationModel()),
        ...     samples=4)
        >>> result.samples
        4
        >>> 0.0 <= result.yield_fraction <= 1.0
        True
    """
    if samples < 1:
        raise ConfigurationError(f"need >= 1 sample, got {samples}")
    if context.pinned:
        raise ConfigurationError(
            "Monte-Carlo needs a sampling context (no pinned overrides)"
        )
    if strategy is None:
        strategy = "soa" if vectorized else "naive"
    if strategy not in MC_STRATEGIES:
        raise ConfigurationError(
            f"unknown Monte-Carlo strategy {strategy!r}; pick one of "
            f"{MC_STRATEGIES}"
        )
    if strategy == "naive":
        return _run_naive(make_accelerator, make_workload, context, samples)
    return _run_vectorized(
        make_accelerator,
        make_workload,
        context,
        samples,
        use_soa=(strategy == "soa"),
    )


def _result(
    accelerator: Accelerator,
    workload: Workload,
    nominal: RunReport,
    context: ExecutionContext,
    operational: np.ndarray,
    fully_functional: np.ndarray,
    latency_ns: np.ndarray,
    energy_pj: np.ndarray,
    tuning_power_mw: np.ndarray,
    evaluation: Optional[SoAStats] = None,
) -> MonteCarloResult:
    return MonteCarloResult(
        platform=accelerator.name,
        workload=workload.name,
        nominal=nominal,
        operational=operational,
        fully_functional=fully_functional,
        latency_ns=latency_ns,
        energy_pj=energy_pj,
        tuning_power_mw=tuning_power_mw,
        samples=len(operational),
        seed=context.seed,
        evaluation=evaluation.to_dict() if evaluation else None,
    )


def _run_naive(
    make_accelerator, make_workload, context, samples
) -> MonteCarloResult:
    """The baseline: N scalar runs, nothing shared between samples."""
    from repro.workloads import clear_graph_memo

    operational = np.zeros(samples, dtype=bool)
    fully_functional = np.zeros(samples, dtype=bool)
    latency_ns = np.full(samples, np.nan)
    energy_pj = np.full(samples, np.nan)
    tuning_power_mw = np.full(samples, np.nan)
    for i in range(samples):
        clear_physics_cache()
        clear_graph_memo()
        workload = make_workload()
        accelerator = make_accelerator()
        ctx = context.for_sample(i)
        geometries = _unique_geometries(accelerator)
        try:
            report = accelerator.run(workload, ctx=ctx)
        except YieldError:
            continue
        operational[i] = True
        latency_ns[i] = report.latency_ns
        energy_pj[i] = report.energy_pj
        physics = [context_physics(spec, ctx) for spec in geometries]
        fully_functional[i] = all(
            p is None or p.ring_yield >= 1.0 for p in physics
        )
        tuning_power_mw[i] = sum(
            p.correction_power_mw for p in physics if p is not None
        )
    clear_physics_cache()
    workload = make_workload()
    accelerator = make_accelerator()
    nominal = accelerator.run(workload)
    return _result(
        accelerator,
        workload,
        nominal,
        context,
        operational,
        fully_functional,
        latency_ns,
        energy_pj,
        tuning_power_mw,
        evaluation=SoAStats(strategy="naive", points=samples),
    )


def _run_vectorized(
    make_accelerator, make_workload, context, samples, use_soa: bool = True
) -> MonteCarloResult:
    """One batched physics pass + one run-path evaluation per unknown."""
    workload = make_workload()
    workload.materialize()  # once, shared by every sample
    probe = make_accelerator()
    geometries = _unique_geometries(probe)
    nominal = probe.run(workload)

    # One batched numpy pass per array geometry: every die's ring draws,
    # folding, TED heater solves and yield gating at once.
    batches = [
        batch_context_physics(spec, context, samples) for spec in geometries
    ]
    operational = np.ones(samples, dtype=bool)
    fully_functional = np.ones(samples, dtype=bool)
    tuning_power_mw = np.zeros(samples)
    for batch in batches:
        operational &= batch.functional
        fully_functional &= batch.fully_functional
        tuning_power_mw += batch.correction_power_mw
    tuning_power_mw[~operational] = np.nan

    # Samples sharing a yield signature differ only in their standing
    # correction power, which report energy is linear in — so each group
    # costs through the run path once at zero correction plus once per
    # geometry at unit correction.
    signatures: Dict[Tuple, List[int]] = {}
    for i in np.flatnonzero(operational):
        signature = tuple(
            (int(b.usable_rows[i]), int(b.usable_cols[i])) for b in batches
        )
        signatures.setdefault(signature, []).append(i)

    latency_ns = np.full(samples, np.nan)
    energy_pj = np.full(samples, np.nan)
    signature_items = list(signatures.items())

    evaluator = None
    config = getattr(probe, "config", None)
    if use_soa and config is not None:
        evaluator = soa_evaluator(probe.name, workload.kind)

    if evaluator is not None:
        # Array-resident resolution: every signature's unknowns — the
        # zero-correction base plus one unit-correction context per
        # geometry — stack into ONE evaluation (the sample axis is just
        # one more tensor axis), then each sample reconstructs as the
        # scalar path's exact affine combination.  An empty signature
        # set (no operational dies) has nothing to evaluate.
        stride = 1 + len(geometries)
        contexts = []
        for signature, _ in signature_items:
            pinned = {
                (spec.rows, spec.cols): PinnedArrayPhysics(rows, cols, 0.0)
                for spec, (rows, cols) in zip(geometries, signature)
            }
            contexts.append(context.with_pinned(pinned))
            for spec, (rows, cols) in zip(geometries, signature):
                unit_pinned = dict(pinned)
                unit_pinned[(spec.rows, spec.cols)] = PinnedArrayPhysics(
                    rows, cols, 1.0
                )
                contexts.append(context.with_pinned(unit_pinned))
        if contexts:
            stacked = evaluator([config] * len(contexts), contexts, workload)
            stacked_latency = stacked.latency_ns
            stacked_energy = stacked.energy_pj
        for group, (signature, indices) in enumerate(signature_items):
            base_index = group * stride
            base_latency = float(stacked_latency[base_index])
            base_energy = float(stacked_energy[base_index])
            slopes = [
                float(stacked_energy[base_index + 1 + g]) - base_energy
                for g in range(len(geometries))
            ]
            for i in indices:
                latency_ns[i] = base_latency
                energy_pj[i] = base_energy + sum(
                    slope * float(batch.correction_power_mw[i])
                    for slope, batch in zip(slopes, batches)
                )
        return _result(
            probe,
            workload,
            nominal,
            context,
            operational,
            fully_functional,
            latency_ns,
            energy_pj,
            tuning_power_mw,
            evaluation=SoAStats(
                strategy="soa",
                points=samples,
                groups=len(signature_items),
            ),
        )

    for signature, indices in signature_items:
        pinned = {
            (spec.rows, spec.cols): PinnedArrayPhysics(rows, cols, 0.0)
            for spec, (rows, cols) in zip(geometries, signature)
        }
        base = make_accelerator().run(
            workload, ctx=context.with_pinned(pinned)
        )
        slopes = []
        for spec, (rows, cols) in zip(geometries, signature):
            unit_pinned = dict(pinned)
            unit_pinned[(spec.rows, spec.cols)] = PinnedArrayPhysics(
                rows, cols, 1.0
            )
            unit = make_accelerator().run(
                workload, ctx=context.with_pinned(unit_pinned)
            )
            slopes.append(unit.energy_pj - base.energy_pj)
        for i in indices:
            latency_ns[i] = base.latency_ns
            energy_pj[i] = base.energy_pj + sum(
                slope * float(batch.correction_power_mw[i])
                for slope, batch in zip(slopes, batches)
            )

    return _result(
        probe,
        workload,
        nominal,
        context,
        operational,
        fully_functional,
        latency_ns,
        energy_pj,
        tuning_power_mw,
        evaluation=SoAStats(
            strategy="soa" if use_soa else "grouped",
            points=samples,
            groups=len(signature_items),
            fallback_points=samples if use_soa else 0,
        ),
    )


# ----------------------------------------------------------------------
# Yield-aware design-space analysis
# ----------------------------------------------------------------------


@dataclass
class RobustPoint:
    """One design point's Monte-Carlo outcome (sweep-compatible).

    Exposes ``latency_ns`` / ``energy_pj`` as the operational-die means,
    so :func:`repro.analysis.sweep.pareto_frontier` works on robust
    points exactly as on nominal sweep points.

    Example:
        >>> from repro.core import TRON, get_workload
        >>> from repro.core.context import ExecutionContext
        >>> from repro.photonics.variation import ProcessVariationModel
        >>> result = run_monte_carlo(
        ...     make_accelerator=TRON,
        ...     make_workload=lambda: get_workload("MLP-mnist"),
        ...     context=ExecutionContext(variation=ProcessVariationModel()),
        ...     samples=2)
        >>> point = RobustPoint(label="demo", knobs={}, result=result)
        >>> point.to_dict()["label"]
        'demo'
    """

    label: str
    knobs: Dict
    result: MonteCarloResult

    @property
    def yield_fraction(self) -> float:
        return self.result.yield_fraction

    @property
    def latency_ns(self) -> float:
        return self.result.mean_latency_ns

    @property
    def energy_pj(self) -> float:
        return self.result.mean_energy_pj

    def to_dict(self) -> Dict:
        return {
            "label": self.label,
            "knobs": dict(self.knobs),
            "yield": self.yield_fraction,
            "mean_latency_ns": self.latency_ns,
            "mean_energy_pj": self.energy_pj,
        }


def yield_aware_pareto(
    points: Sequence[RobustPoint],
    yield_threshold: float = DEFAULT_YIELD_THRESHOLD,
) -> List[RobustPoint]:
    """The latency-energy frontier over configurations a fab could ship.

    A configuration only competes if at least ``yield_threshold`` of its
    sampled dies are fully functional — and at least one die is
    operational at all (a config with no working dies has no metrics to
    compete with, even at ``yield_threshold=0``).  The survivors'
    frontier uses the operational-die mean latency/energy.  A
    fast-but-fragile design that dominates the nominal frontier is cut
    here — the yield-aware frontier is the actionable one.

    Example:
        >>> yield_aware_pareto([])           # nothing survives nothing
        []
        >>> yield_aware_pareto([], yield_threshold=1.5)
        Traceback (most recent call last):
            ...
        repro.errors.ConfigurationError: yield threshold must be in [0, 1], got 1.5
    """
    from repro.analysis.sweep import pareto_frontier

    if not 0.0 <= yield_threshold <= 1.0:
        raise ConfigurationError(
            f"yield threshold must be in [0, 1], got {yield_threshold}"
        )
    survivors = [
        p
        for p in points
        if p.yield_fraction >= yield_threshold
        and p.result.operational_fraction > 0.0
    ]
    if not survivors:
        return []
    return pareto_frontier(survivors)


def monte_carlo_sweep(
    space,
    context: ExecutionContext,
    samples: int = 128,
) -> List[RobustPoint]:
    """Monte-Carlo every knob setting of a sweep space at one corner.

    The workload materializes once and is shared by every point and
    every sample; each point runs the vectorized engine.

    Example:
        >>> from repro.analysis.sweep import tron_sweep_space
        >>> from repro.core.context import ExecutionContext
        >>> from repro.photonics.variation import ProcessVariationModel
        >>> space = tron_sweep_space(
        ...     head_units=(4,), array_sizes=(32,), clocks_ghz=(5.0,))
        >>> points = monte_carlo_sweep(
        ...     space,
        ...     ExecutionContext(variation=ProcessVariationModel()),
        ...     samples=2)
        >>> len(points) == space.num_points
        True
    """
    workload = space.build_workload()
    workload.materialize()
    points = []
    for knobs in space.enumerate():
        result = run_monte_carlo(
            make_accelerator=lambda knobs=knobs: space.build_accelerator(knobs),
            make_workload=lambda: workload,
            context=context,
            samples=samples,
            vectorized=True,
        )
        points.append(
            RobustPoint(label=space.label(knobs), knobs=knobs, result=result)
        )
    return points
