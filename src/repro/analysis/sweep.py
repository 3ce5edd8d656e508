"""Workload-agnostic design-space sweeps and Pareto analysis.

Section VI: "The specific architectural details of each hardware
accelerator ... were determined through detailed design-space analysis."
This module replays that analysis with a single sweep engine: a
:class:`SweepSpace` names the knob grid, how to build an accelerator at
a point, and which workload to evaluate — the engine enumerates the
cartesian product and evaluates every point through one of the
strategies of :func:`run_sweep`.

The default **soa** strategy is the array-resident production path: the
whole grid becomes structure-of-arrays columns and a registered platform
evaluator (:func:`repro.core.engine.soa_evaluator`) computes every
point's energy / latency breakdown as a handful of NumPy ops, with
scalar :class:`SweepPoint` reports materialized from the stacked columns
afterwards (lazily, in :func:`run_sweep_soa`).  Spaces without an
evaluator fall back to the **batched** strategy: the workload
materializes once, every distinct array geometry's device physics is
computed in one vectorized kernel call
(:func:`repro.core.engine.prime_breakdown_cache`), points collapse into
groups sharing a run-path signature — platform, full configuration and
normalized execution context, exactly how
:mod:`repro.analysis.robustness` groups Monte-Carlo dies — and each
group costs through the run path once.  Both paths are bit-identical to
scalar runs because the kernels replicate the scalar operation order.

The classic TRON and GHOST sweeps are thin wrappers
(:func:`sweep_tron` / :func:`sweep_ghost`); any registered workload and
any config space sweeps the same way.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import Accelerator, Workload
from repro.core.context import ExecutionContext
from repro.core.engine import (
    SoAStats,
    clear_physics_cache,
    pareto_mask,
    prime_breakdown_cache,
    soa_evaluator,
)
from repro.core.ghost import GHOST, GHOSTConfig
from repro.core.reports import RunReport, StackedRunReports
from repro.core.tron import TRON, TRONConfig
from repro.errors import ConfigurationError
from repro.nn.gnn import GNNKind
from repro.nn.models import bert_base
from repro.workloads import (
    TransformerWorkload,
    clear_graph_memo,
    make_gnn_workload,
)

#: The sweep evaluation strategies of :func:`run_sweep`.
STRATEGIES = ("soa", "batched", "serial", "naive")


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated configuration.

    Attributes:
        label: human-readable knob setting.
        knobs: the swept parameter values.
        report: the workload RunReport at this configuration.
    """

    label: str
    knobs: Dict[str, float]
    report: RunReport

    @property
    def latency_ns(self) -> float:
        return self.report.latency_ns

    @property
    def energy_pj(self) -> float:
        return self.report.energy_pj


def pareto_frontier(points: Sequence[SweepPoint]) -> List[SweepPoint]:
    """Latency-energy Pareto-optimal subset (both minimized).

    A point survives if no other point is at least as good on both axes
    and strictly better on one; exact duplicates therefore survive
    together.  The frontier sorts by (latency, energy, label) so ties
    break deterministically.
    """
    if not points:
        raise ConfigurationError("need at least one sweep point")
    frontier = []
    for candidate in points:
        dominated = any(
            other.latency_ns <= candidate.latency_ns
            and other.energy_pj <= candidate.energy_pj
            and (
                other.latency_ns < candidate.latency_ns
                or other.energy_pj < candidate.energy_pj
            )
            for other in points
        )
        if not dominated:
            frontier.append(candidate)
    frontier.sort(key=lambda p: (p.latency_ns, p.energy_pj, p.label))
    return frontier


@dataclass(frozen=True)
class SweepSpace:
    """A named config space evaluated on one workload.

    Attributes:
        name: space name (for reports and benches).
        knobs: ordered knob name -> candidate values.
        build_accelerator: knob values -> configured accelerator.
        build_workload: materializes the reference workload (called once
            per sweep; per point in the ``naive`` baseline).
        label: knob values -> human-readable point label.
        corners: optional corner axis — named execution contexts every
            knob setting is additionally evaluated at (see
            :func:`with_corners`).  Empty = nominal-only, the classic
            sweep.
        platform: platform name of the accelerators this space builds
            (e.g. ``"TRON"``), keying the array-resident evaluator
            registry.  ``None`` keeps the space on the scalar strategies
            (the ``soa`` strategy then falls back to ``batched``).
        build_config: knob values -> bare platform configuration, the
            cheap counterpart of ``build_accelerator`` the array-resident
            path uses (no executor / block construction per point).
            Contract: a config depends on the knob setting only, never
            on the corner.  The ``soa`` and ``batched`` strategies call
            ``build_config`` / ``build_accelerator`` once per knob
            setting, with a knob dict that has no ``corner`` entry, and
            every corner of that setting shares the result; corners
            reach the evaluator only as execution contexts.
    """

    name: str
    knobs: Tuple[Tuple[str, Tuple[Any, ...]], ...]
    build_accelerator: Callable[[Dict[str, Any]], Accelerator]
    build_workload: Callable[[], Workload]
    label: Callable[[Dict[str, Any]], str]
    corners: Tuple[Tuple[str, Optional[ExecutionContext]], ...] = ()
    platform: Optional[str] = None
    build_config: Optional[Callable[[Dict[str, Any]], Any]] = None

    @staticmethod
    def ordered_knobs(
        knobs: Mapping[str, Sequence[Any]]
    ) -> Tuple[Tuple[str, Tuple[Any, ...]], ...]:
        """Normalize a knob mapping into the hashable internal form."""
        return tuple((name, tuple(values)) for name, values in knobs.items())

    def enumerate(self) -> List[Dict[str, Any]]:
        """All knob combinations, in deterministic grid order."""
        if not self.knobs:
            raise ConfigurationError(f"sweep space {self.name!r} has no knobs")
        names = [name for name, _ in self.knobs]
        grids = [values for _, values in self.knobs]
        if any(len(values) == 0 for values in grids):
            raise ConfigurationError(
                f"sweep space {self.name!r} has an empty knob grid"
            )
        return [
            dict(zip(names, combo)) for combo in itertools.product(*grids)
        ]

    @property
    def num_points(self) -> int:
        """Grid size (including the corner axis, when present)."""
        size = 1
        for _, values in self.knobs:
            size *= len(values)
        return size * max(1, len(self.corners))

    def evaluations(self) -> List[Tuple[Dict[str, Any], str, Optional[ExecutionContext]]]:
        """All (knobs, label, context) evaluations of this space.

        Without corners this is the plain knob grid at the nominal
        context; with corners every knob setting is repeated per corner,
        the label gains an ``@corner`` suffix and the knob dict a
        ``corner`` entry.
        """
        evaluations = []
        for knobs in self.enumerate():
            if not self.corners:
                evaluations.append((knobs, self.label(knobs), None))
                continue
            for corner_name, ctx in self.corners:
                corner_knobs = dict(knobs, corner=corner_name)
                evaluations.append(
                    (corner_knobs, f"{self.label(knobs)}@{corner_name}", ctx)
                )
        return evaluations


def with_corners(
    space: SweepSpace, corners: Mapping[str, Optional[ExecutionContext]]
) -> SweepSpace:
    """A sweep space extended with a corner axis.

    Every knob setting is evaluated once per named execution context —
    fabrication-process corners become one more swept dimension, so the
    Pareto analysis sees nominal and corner behaviour side by side::

        space = with_corners(tron_sweep_space(), standard_corners())
    """
    if not corners:
        raise ConfigurationError("need at least one corner")
    return replace(space, corners=tuple(corners.items()))


def _normalized_context(
    ctx: Optional[ExecutionContext],
) -> Optional[ExecutionContext]:
    """``None`` and nominal contexts share one run-path signature (they
    cost bit-identically by construction)."""
    if ctx is None or ctx.is_nominal:
        return None
    return ctx


def _physics_requests(accelerator: Accelerator) -> List[Tuple]:
    """The nominal breakdown-cache keys this accelerator's run will hit.

    Every unit costs with the default average weight magnitude; the
    refresh windows in play are the config's weight-stationary window
    and the un-amortized default.
    """
    specs = getattr(accelerator, "array_specs", None)
    if specs is None:
        return []
    refresh = getattr(accelerator.config, "weight_refresh_cycles", 1)
    requests = []
    for spec in specs():
        requests.append((spec, 0.5, refresh))
        if refresh != 1:
            requests.append((spec, 0.5, 1))
    return requests


def _run_batched(
    space: SweepSpace, evaluations: List[Tuple]
) -> List[SweepPoint]:
    """The configuration-batched sweep path (see :func:`run_sweep`)."""
    workload = space.build_workload()
    workload.materialize()  # once, shared by every point

    # One accelerator and one config signature per knob setting, shared
    # by the setting's corners (see SweepSpace.build_config; evaluations
    # run in grid order, corners innermost).
    settings = space.enumerate()
    per_setting = max(1, len(space.corners))
    setting_of = [index // per_setting for index in range(len(evaluations))]
    accelerators: Dict[int, Accelerator] = {}
    config_reprs: Dict[int, str] = {}
    for setting in setting_of:
        if setting not in accelerators:
            accelerator = space.build_accelerator(settings[setting])
            accelerators[setting] = accelerator
            config_reprs[setting] = repr(accelerator.config)
    # One vectorized kernel call computes every distinct array
    # geometry's device-physics curve before any point runs.
    requests = []
    for accelerator in accelerators.values():
        requests.extend(_physics_requests(accelerator))
    prime_breakdown_cache(requests)

    # Group points by run-path signature — platform, configuration and
    # normalized context — exactly how the Monte-Carlo engine groups
    # dies by yield signature: each group costs through the run path
    # once and every member reuses the report (requests differing only
    # in label, e.g. duplicated corner axes, never re-run).
    groups: Dict[Tuple, List[int]] = {}
    signatures = []
    for index, ((_, _, ctx), setting) in enumerate(
        zip(evaluations, setting_of)
    ):
        signature = (
            type(accelerators[setting]).__name__,
            config_reprs[setting],
            _normalized_context(ctx),
        )
        signatures.append(signature)
        groups.setdefault(signature, []).append(index)

    reports: Dict[Tuple, RunReport] = {}
    for signature, members in groups.items():
        _, _, ctx = evaluations[members[0]]
        accelerator = accelerators[setting_of[members[0]]]
        reports[signature] = accelerator.run(workload, ctx=ctx)
    return [
        SweepPoint(label=label, knobs=knobs, report=reports[signature])
        for (knobs, label, _), signature in zip(evaluations, signatures)
    ]


def _soa_stack(
    space: SweepSpace, evaluations: List[Tuple]
) -> Optional[Tuple[StackedRunReports, SoAStats]]:
    """Evaluate a space through its array-resident evaluator.

    Returns ``None`` when the space carries no platform / bare-config
    factory or no evaluator is registered for (platform, workload kind)
    — the callers then fall back to the batched scalar path.
    """
    if space.platform is None or space.build_config is None:
        return None
    workload = space.build_workload()
    workload.materialize()
    evaluator = soa_evaluator(space.platform, workload.kind)
    if evaluator is None:
        return None
    # One config per knob setting, shared by the setting's corners
    # (evaluations run in grid order, corners innermost).
    settings = space.enumerate()
    setting_configs = [space.build_config(knobs) for knobs in settings]
    per_setting = max(1, len(space.corners))
    configs = [cfg for cfg in setting_configs for _ in range(per_setting)]
    contexts = [_normalized_context(ctx) for _, _, ctx in evaluations]
    stacked = evaluator(configs, contexts, workload)
    stats = SoAStats(
        strategy="soa", points=len(evaluations), groups=stacked.groups
    )
    return stacked, stats


def _run_soa(
    space: SweepSpace, evaluations: List[Tuple]
) -> Tuple[List[SweepPoint], SoAStats]:
    """The array-resident sweep path (see :func:`run_sweep`), with its
    evaluation stats.  Falls back to :func:`_run_batched` (recorded as
    ``fallback_points``) when the space has no registered evaluator."""
    stack = _soa_stack(space, evaluations)
    if stack is None:
        points = _run_batched(space, evaluations)
        stats = SoAStats(
            strategy="soa",
            points=len(points),
            fallback_points=len(points),
        )
        return points, stats
    stacked, stats = stack
    points = [
        SweepPoint(label=label, knobs=knobs, report=stacked.materialize(i))
        for i, (knobs, label, _) in enumerate(evaluations)
    ]
    stats.materialized_reports = len(points)
    return points, stats


@dataclass
class SoASweepResult:
    """A sweep held as stacked columns, materialized on demand.

    The array-resident counterpart of a ``List[SweepPoint]``: the full
    latency / energy tensors are resident as NumPy columns, and scalar
    :class:`SweepPoint` objects only materialize for the points a caller
    asks for (the Pareto frontier, typically).  ``stats`` tracks how many
    reports actually materialized.
    """

    space: SweepSpace
    evaluations: List[Tuple]
    stacked: StackedRunReports
    stats: SoAStats

    def __len__(self) -> int:
        return len(self.evaluations)

    @property
    def latency_ns(self):
        """Per-point total latency column (ns)."""
        return self.stacked.latency_ns

    @property
    def energy_pj(self):
        """Per-point total energy column (pJ)."""
        return self.stacked.energy_pj

    def point(self, index: int) -> SweepPoint:
        """Materialize one scalar sweep point from the stack."""
        knobs, label, _ = self.evaluations[index]
        self.stats.materialized_reports += 1
        return SweepPoint(
            label=label, knobs=knobs, report=self.stacked.materialize(index)
        )

    def points(self) -> List[SweepPoint]:
        """Materialize every point (grid order)."""
        return [self.point(i) for i in range(len(self.evaluations))]

    def frontier(self) -> List[SweepPoint]:
        """The latency-energy Pareto frontier, materializing only the
        non-dominated points.

        The dominance test runs as one boolean-mask reduction over the
        stacked columns; the result is bit-identical to
        :func:`pareto_frontier` over the fully materialized sweep (same
        totals, same ``(latency, energy, label)`` ordering).
        """
        mask = pareto_mask(self.stacked.latency_ns, self.stacked.energy_pj)
        frontier = [self.point(i) for i in np.flatnonzero(mask)]
        frontier.sort(key=lambda p: (p.latency_ns, p.energy_pj, p.label))
        return frontier


def run_sweep_soa(space: SweepSpace) -> SoASweepResult:
    """Evaluate a sweep space array-resident, without materializing
    per-point reports.

    The whole grid is evaluated as stacked NumPy columns and stays that
    way — callers reduce over the columns (frontier, yield masks) and
    materialize only the points they need.  Requires a space with a
    registered array-resident evaluator.

    Raises:
        ConfigurationError: if the space has no registered evaluator
            (use :func:`run_sweep` for the scalar fallback).
    """
    evaluations = space.evaluations()
    stack = _soa_stack(space, evaluations)
    if stack is None:
        raise ConfigurationError(
            f"sweep space {space.name!r} has no array-resident evaluator; "
            "set SweepSpace.platform / build_config or use run_sweep()"
        )
    stacked, stats = stack
    return SoASweepResult(
        space=space, evaluations=evaluations, stacked=stacked, stats=stats
    )


def run_sweep(
    space: SweepSpace, strategy: Optional[str] = None
) -> List[SweepPoint]:
    """Evaluate every point of a sweep space.

    Strategies (``strategy``, one of :data:`STRATEGIES`):

    - ``"soa"`` — the default and the array-resident production path:
      the whole grid evaluates as structure-of-arrays NumPy columns
      through the platform's registered evaluator (no per-point
      accelerator or executor construction), and scalar reports
      materialize from the stacked columns afterwards.  Spaces without
      an evaluator (no ``platform`` / ``build_config``, or an
      unregistered workload kind) transparently fall back to
      ``"batched"``.  Use :func:`run_sweep_soa` to keep the columns
      resident and skip materialization entirely.
    - ``"batched"`` — the scalar production path (and the ``soa``
      fallback): materialize the workload once, compute all device
      physics in one vectorized kernel call, group points by run-path
      signature and cost each group once.
    - ``"serial"`` — one plain scalar run per point (memoized state,
      no grouping); the reference the batched path is tested against,
      and the path to use when every point must own a distinct report
      object (batched grouping shares one report across
      duplicate-signature points).
    - ``"naive"`` — the baseline the benchmarks compare against: every
      point re-materializes its workload and recomputes the physics
      curves from cleared caches.

    Point evaluation is pure Python/NumPy compute, so a thread pool
    cannot speed any of these up (the GIL serializes it); batching the
    math is what wins.  For more cores, run separate processes.
    """
    points, _ = run_sweep_with_stats(space, strategy=strategy)
    return points


def run_sweep_with_stats(
    space: SweepSpace, strategy: Optional[str] = None
) -> Tuple[List[SweepPoint], SoAStats]:
    """:func:`run_sweep` plus the evaluation stats of the strategy that
    ran (what the ``--json`` envelopes surface).

    For scalar strategies the stats record the strategy name and point
    count; the ``soa`` strategy additionally reports its group
    collapse, materialization count and any scalar fallback.
    """
    if strategy is None:
        strategy = "soa"
    if strategy not in STRATEGIES:
        raise ConfigurationError(
            f"unknown sweep strategy {strategy!r}; pick one of {STRATEGIES}"
        )
    evaluations = space.evaluations()

    if strategy == "soa":
        return _run_soa(space, evaluations)
    if strategy == "batched":
        points = _run_batched(space, evaluations)
        return points, SoAStats(strategy="batched", points=len(points))
    naive = strategy == "naive"
    if not naive:
        workload = space.build_workload()
        workload.materialize()  # once, shared by every point
    points = []
    for knobs, label, ctx in evaluations:
        if naive:
            clear_physics_cache()
            clear_graph_memo()
            workload = space.build_workload()
        report = space.build_accelerator(knobs).run(workload, ctx=ctx)
        points.append(SweepPoint(label=label, knobs=knobs, report=report))
    return points, SoAStats(strategy=strategy, points=len(points))


# ----------------------------------------------------------------------
# The classic TRON / GHOST spaces
# ----------------------------------------------------------------------


def tron_sweep_space(
    head_units: Sequence[int] = (4, 8, 16),
    array_sizes: Sequence[int] = (32, 64, 128),
    clocks_ghz: Sequence[float] = (2.5, 5.0),
    batch: int = 8,
    model_factory: Callable = bert_base,
) -> SweepSpace:
    """TRON's structural knobs on a transformer workload."""

    def build_config(knobs: Dict[str, Any]) -> TRONConfig:
        return TRONConfig(
            num_head_units=int(knobs["head_units"]),
            array_rows=int(knobs["array_size"]),
            array_cols=int(knobs["array_size"]),
            clock_ghz=float(knobs["clock_ghz"]),
            batch=batch,
        )

    def build(knobs: Dict[str, Any]) -> TRON:
        return TRON(build_config(knobs))

    return SweepSpace(
        name="tron",
        knobs=SweepSpace.ordered_knobs(
            {
                "head_units": head_units,
                "array_size": array_sizes,
                "clock_ghz": clocks_ghz,
            }
        ),
        build_accelerator=build,
        build_workload=lambda: TransformerWorkload(model=model_factory()),
        label=lambda knobs: (
            f"H{knobs['head_units']}/A{knobs['array_size']}/"
            f"{knobs['clock_ghz']:.1f}GHz"
        ),
        platform="TRON",
        build_config=build_config,
    )


def ghost_sweep_space(
    lanes: Sequence[int] = (8, 16, 32),
    edge_units: Sequence[int] = (16, 32, 64),
    dataset: str = "cora",
    hidden_dim: int = 64,
) -> SweepSpace:
    """GHOST's structural knobs on a GCN workload."""

    def build_config(knobs: Dict[str, Any]) -> GHOSTConfig:
        return GHOSTConfig(
            lanes=int(knobs["lanes"]), edge_units=int(knobs["edge_units"])
        )

    def build(knobs: Dict[str, Any]) -> GHOST:
        return GHOST(build_config(knobs))

    return SweepSpace(
        name="ghost",
        knobs=SweepSpace.ordered_knobs(
            {"lanes": lanes, "edge_units": edge_units}
        ),
        build_accelerator=build,
        build_workload=lambda: make_gnn_workload(
            GNNKind.GCN,
            dataset,
            hidden_dim=hidden_dim,
            rng_seed=0,
            name=f"GCN-{dataset}",
        ),
        label=lambda knobs: f"V{knobs['lanes']}/N{knobs['edge_units']}",
        platform="GHOST",
        build_config=build_config,
    )


def sweep_tron(
    head_units: Sequence[int] = (4, 8, 16),
    array_sizes: Sequence[int] = (32, 64, 128),
    clocks_ghz: Sequence[float] = (2.5, 5.0),
    batch: int = 8,
    model_factory: Callable = bert_base,
) -> List[SweepPoint]:
    """Sweep TRON's structural knobs on a transformer workload."""
    return run_sweep(
        tron_sweep_space(
            head_units=head_units,
            array_sizes=array_sizes,
            clocks_ghz=clocks_ghz,
            batch=batch,
            model_factory=model_factory,
        )
    )


def sweep_ghost(
    lanes: Sequence[int] = (8, 16, 32),
    edge_units: Sequence[int] = (16, 32, 64),
    dataset: str = "cora",
    hidden_dim: int = 64,
) -> List[SweepPoint]:
    """Sweep GHOST's structural knobs on a GCN workload."""
    return run_sweep(
        ghost_sweep_space(
            lanes=lanes,
            edge_units=edge_units,
            dataset=dataset,
            hidden_dim=hidden_dim,
        )
    )


def format_sweep(points: Sequence[SweepPoint], frontier: Sequence[SweepPoint]) -> str:
    """Text table of a sweep with Pareto points marked."""
    on_frontier = {id(p) for p in frontier}
    lines = [
        f"{'config':>18s} {'latency (us)':>13s} {'energy (uJ)':>12s} "
        f"{'GOPS':>12s} {'pareto':>7s}"
    ]
    for point in sorted(points, key=lambda p: p.latency_ns):
        marker = "*" if id(point) in on_frontier else ""
        lines.append(
            f"{point.label:>18s} {point.latency_ns / 1e3:>13.2f} "
            f"{point.energy_pj / 1e6:>12.2f} {point.report.gops:>12.1f} "
            f"{marker:>7s}"
        )
    return "\n".join(lines)
