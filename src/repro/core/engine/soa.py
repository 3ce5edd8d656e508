"""Structure-of-arrays evaluation machinery shared by the platform
evaluators.

The array-resident path evaluates a whole sweep x corner x sample batch
of configurations as NumPy columns: each knob is a column, each energy /
latency breakdown field is a column, and reductions (Pareto fronts,
yield masks) are boolean masks over those columns.  Scalar
:class:`~repro.core.reports.RunReport` objects only materialize for the
points a caller actually looks at.

Bit-exactness contract: every helper here replicates the scalar cost
path's accumulation order exactly — chained left-associative adds
starting from the same identity, the same int-vs-float ceiling
divisions, the same memoized physics values — so a materialized point is
indistinguishable from one produced by the scalar oracle.  The property
suite (``tests/unit/test_soa_parity.py``) enforces this.

Platform evaluators register themselves per ``(platform, workload
kind)``; :func:`soa_evaluator` is how the sweep and Monte-Carlo engines
look them up (returning ``None`` triggers the scalar fallback).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from dataclasses import replace as dataclass_replace
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import WorkloadKind
from repro.core.context import ExecutionContext
from repro.core.engine.corners import context_physics
from repro.core.engine.hbm.geometry import HBMGeometry
from repro.core.engine.matmul import (
    ArraySpec,
    nominal_breakdown_pj,
    prime_breakdown_cache,
)
from repro.core.reports import (
    ENERGY_FIELDS,
    LATENCY_FIELDS,
    StackedRunReports,
)
from repro.errors import ConfigurationError, YieldError


@dataclass
class SoAStats:
    """Bookkeeping of one array-resident evaluation.

    Surfaced in the ``--json`` envelopes so users can see how much work
    the SoA path collapsed (and whether it fell back to scalar).

    Attributes:
        strategy: the evaluation strategy that actually ran.
        points: evaluation points covered.
        groups: distinct evaluation groups the points collapsed into
            (shared physics / memory / device computations).
        materialized_reports: scalar reports constructed from the stack.
        fallback_points: points evaluated through the scalar path
            because no SoA evaluator covered them.
    """

    strategy: str
    points: int = 0
    groups: int = 0
    materialized_reports: int = 0
    fallback_points: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "strategy": self.strategy,
            "points": self.points,
            "groups": self.groups,
            "materialized_reports": self.materialized_reports,
            "fallback_points": self.fallback_points,
        }


class _Columns:
    """Per-field breakdown columns with the scalar report algebra.

    Mirrors ``EnergyReport`` / ``LatencyReport``: per-field ``+`` and
    ``scaled``, and a ``total`` that chains fields in declaration order
    from integer zero — exactly the scalar ``sum(...)`` order, so the
    float results match bit for bit.  Fields an evaluator never touches
    stay the scalar ``0.0`` (adding or scaling it is exact).
    """

    FIELDS: Tuple[str, ...] = ()

    def __init__(self, **values: object) -> None:
        for name in self.FIELDS:
            setattr(self, name, values.get(name, 0.0))

    def __add__(self, other: "_Columns") -> "_Columns":
        return type(self)(
            **{
                name: getattr(self, name) + getattr(other, name)
                for name in self.FIELDS
            }
        )

    def scaled(self, factor: object) -> "_Columns":
        return type(self)(
            **{name: getattr(self, name) * factor for name in self.FIELDS}
        )

    @property
    def total(self) -> object:
        out: object = 0
        for name in self.FIELDS:
            out = out + getattr(self, name)
        return out

    def as_arrays(self, num_points: int) -> Dict[str, np.ndarray]:
        """Columns as owned float64 arrays of length ``num_points``
        (scalar fields broadcast)."""
        out = {}
        for name in self.FIELDS:
            value = getattr(self, name)
            if np.ndim(value) == 0:
                out[name] = np.full(num_points, float(value))
            else:
                out[name] = np.asarray(value, dtype=float)
        return out


class ColumnEnergy(_Columns):
    """Stacked :class:`~repro.core.reports.EnergyReport` columns."""

    FIELDS = ENERGY_FIELDS


class ColumnLatency(_Columns):
    """Stacked :class:`~repro.core.reports.LatencyReport` columns."""

    FIELDS = LATENCY_FIELDS


def ceil_div(numerator: object, denominator: object) -> object:
    """Exact integer ceiling division, elementwise on int columns."""
    return -(-numerator // denominator)


def distinct_index(
    items: Sequence[object],
    bucket: Optional[Callable[[object], Hashable]] = None,
) -> Tuple[List[object], np.ndarray]:
    """The distinct values of ``items`` and each item's index into them.

    Without ``bucket``, items are hashable and match by value.  With
    it, items match by identity first, then by ``==`` among the items
    that share a bucket — ``bucket`` maps an item to a cheap hashable
    key that equal items share — so a batch that repeats one unhashable
    object (a sweep setting's corners, a Monte-Carlo replay) pays one
    dictionary probe per repeat.  Distinct values keep first-seen order.
    """
    if bucket is None:
        by_value: Dict[Hashable, int] = {}
        codes = [by_value.setdefault(item, len(by_value)) for item in items]
        return list(by_value), np.array(codes, dtype=np.int64)
    distinct: List[object] = []
    codes = []
    by_id: Dict[int, int] = {}
    buckets: Dict[Hashable, List[int]] = {}
    for item in items:
        code = by_id.get(id(item))
        if code is None:
            candidates = buckets.setdefault(bucket(item), [])
            code = next((c for c in candidates if distinct[c] == item), None)
            if code is None:
                code = len(distinct)
                distinct.append(item)
                candidates.append(code)
            by_id[id(item)] = code
        codes.append(code)
    return distinct, np.array(codes, dtype=np.int64)


def group_indices(*codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Points grouped by equal tuples of non-negative int codes.

    Returns ``(first, inverse)``: the first point of every group, in
    first-seen order, and each point's group number — a group's value
    computes once at its first point and gathers back as
    ``values[inverse]``.
    """
    key = codes[0]
    for code in codes[1:]:
        key = key * (int(code.max(initial=0)) + 1) + code
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse]


def group_members(inverse: np.ndarray) -> List[np.ndarray]:
    """The point indices of every group of :func:`group_indices`."""
    order = np.argsort(inverse, kind="stable")
    return np.split(order, np.cumsum(np.bincount(inverse))[:-1])


def resolve_array_physics(
    specs: Sequence[ArraySpec],
    spec_index: np.ndarray,
    contexts: Sequence[Optional[ExecutionContext]],
    context_index: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Yield-gated array dimensions and correction power, per point.

    ``specs`` / ``contexts`` are distinct values and the index columns
    map each point to them.  Returns ``(usable_rows, usable_cols,
    correction_power_mw, groups)``: three per-point columns plus the
    number of distinct (spec, context) pairs.  Nominal points keep the
    spec dimensions and zero correction power.

    Raises:
        YieldError: with the scalar path's exact message, if any point's
            die has no usable hardware (matching ``ArrayExecutor.cycles_for``).
    """
    first, inverse = group_indices(spec_index, context_index)
    rows, cols, correction = [], [], []
    for i in first:
        spec = specs[spec_index[i]]
        physics = context_physics(spec, contexts[context_index[i]])
        if physics is None:
            rows.append(spec.rows)
            cols.append(spec.cols)
            correction.append(0.0)
            continue
        if not physics.functional:
            raise YieldError(
                f"sampled die has no usable {spec.rows}x"
                f"{spec.cols} array hardware "
                f"({physics.usable_rows}x{physics.usable_cols}"
                " usable)"
            )
        rows.append(physics.usable_rows)
        cols.append(physics.usable_cols)
        correction.append(physics.correction_power_mw)
    return (
        np.array(rows, dtype=np.int64)[inverse],
        np.array(cols, dtype=np.int64)[inverse],
        np.array(correction, dtype=float)[inverse],
        len(first),
    )


def breakdown_columns(
    specs: Sequence[ArraySpec],
    spec_index: np.ndarray,
    refresh: np.ndarray,
    config_index: np.ndarray,
    correction_power_mw: np.ndarray,
    cycle_ns: np.ndarray,
    average_weight_magnitude: float = 0.5,
) -> Dict[str, np.ndarray]:
    """Per-cycle energy breakdown columns for a batch of points.

    ``spec_index`` and ``refresh`` are per distinct config and
    ``config_index`` maps points to configs.  One memoized
    :func:`nominal_breakdown_pj` read per distinct ``(spec, refresh)``
    pair, gathered to its points; the context's correction tuning power
    is added per point exactly as the scalar executor does
    (``tuning += correction_power_mw * cycle_ns``, which is an exact
    no-op for nominal points where the correction is zero).
    """
    _, refresh_code = np.unique(refresh, return_inverse=True)
    first, inverse = group_indices(spec_index, refresh_code)
    pairs = [(specs[spec_index[i]], int(refresh[i])) for i in first]
    prime_breakdown_cache(
        [(spec, average_weight_magnitude, window) for spec, window in pairs]
    )
    breakdowns = [
        nominal_breakdown_pj(
            spec,
            average_weight_magnitude=average_weight_magnitude,
            weight_refresh_cycles=window,
        )
        for spec, window in pairs
    ]
    point_group = inverse[config_index]
    columns = {
        name: np.array([b[name] for b in breakdowns], dtype=float)[point_group]
        for name in ("laser_pj", "tuning_pj", "dac_pj", "adc_pj")
    }
    columns["tuning_pj"] = (
        columns["tuning_pj"] + correction_power_mw * cycle_ns
    )
    return columns


def energy_for_cycles_columns(
    cycles: object, breakdown: Dict[str, np.ndarray]
) -> ColumnEnergy:
    """Column counterpart of ``ArrayExecutor.energy_for_cycles``."""
    return ColumnEnergy(
        laser_pj=cycles * breakdown["laser_pj"],
        tuning_pj=cycles * breakdown["tuning_pj"],
        dac_pj=cycles * breakdown["dac_pj"],
        adc_pj=cycles * breakdown["adc_pj"],
    )


def memory_context_key(
    ctx: Optional[ExecutionContext],
) -> Optional[ExecutionContext]:
    """The part of a context the memory model reads (None if inert)."""
    if ctx is not None and ctx.affects_memory:
        return ctx
    return None


def _scalar_fields() -> Callable[[object], Hashable]:
    """A cheap bucket key equal configs share: their scalar attribute
    values (nested device models are left to ``==``).  The attribute
    names are read once per config type."""
    getters: Dict[type, Callable[[object], Hashable]] = {}

    def bucket(config: object) -> Hashable:
        getter = getters.get(type(config))
        if getter is None:
            names = [
                name
                for name, value in vars(config).items()
                if isinstance(value, (int, float, str))
            ]
            getter = operator.attrgetter(*names) if names else type
            getters[type(config)] = getter
        return getter(config)

    return bucket


class ConfigColumns:
    """A batch of (config, context) points, coded by distinct value.

    Every point maps to a distinct configuration (``config_index``) and
    a distinct context (``context_index``).  Specs, knob columns and
    grouping keys compute once per distinct config and gather to the
    points by index, so a sweep setting's corners — or a Monte-Carlo
    replay of one config — pay for their config once, and every
    grouping runs over small int codes instead of per-point hashes of
    frozen device models.  Platform evaluators subclass it with their
    own knob columns.

    Attributes:
        configs / contexts: the distinct values, in first-seen order.
        config_index / context_index: each point's index into them.
        n: number of points.
        specs: the distinct array specs.
        usable_rows / usable_cols / cycle_ns / activation_power /
            static_mw / breakdown: per-point columns.
        bits: per-point operand precision.
        memory_contexts / memory_context_index: the distinct
            memory-relevant contexts and each point's index into them.
        groups: distinct (array spec, context) pairs.
    """

    def __init__(
        self,
        configs: Sequence[object],
        contexts: Sequence[Optional[ExecutionContext]],
    ) -> None:
        self.configs, self.config_index = distinct_index(
            configs, bucket=_scalar_fields()
        )
        self.contexts, self.context_index = distinct_index(
            contexts, bucket=hash
        )
        self.n = len(self.config_index)
        self.specs, spec_code = distinct_index(
            [self.array_spec(cfg) for cfg in self.configs]
        )
        (
            self.usable_rows,
            self.usable_cols,
            correction,
            self.groups,
        ) = resolve_array_physics(
            self.specs,
            spec_code[self.config_index],
            self.contexts,
            self.context_index,
        )
        self.cycle_ns = self.per_config([cfg.cycle_ns for cfg in self.configs])
        self.activation_power = self.per_config(
            [cfg.activation.power_mw for cfg in self.configs]
        )
        self.bits = [
            self.configs[i].bits for i in self.config_index.tolist()
        ]
        self.static_mw = self.per_config(
            [
                cfg.control.power_mw + cfg.memory.global_buffer.leakage_mw
                for cfg in self.configs
            ]
        )
        self.breakdown = breakdown_columns(
            self.specs,
            spec_code,
            np.array([cfg.weight_refresh_cycles for cfg in self.configs]),
            self.config_index,
            correction,
            self.cycle_ns,
        )
        self.memory_contexts, memory_code = distinct_index(
            [memory_context_key(ctx) for ctx in self.contexts]
        )
        self.memory_context_index = memory_code[self.context_index]

    @staticmethod
    def array_spec(config: object) -> ArraySpec:
        """The array spec of one config."""
        return ArraySpec.from_config(config)

    def per_config(self, values: Sequence[object], dtype=float) -> np.ndarray:
        """One value per distinct config, as a per-point column."""
        return np.asarray(values, dtype=dtype)[self.config_index]

    def config_codes(
        self, keys: Sequence[Hashable]
    ) -> Tuple[List[Hashable], np.ndarray]:
        """Distinct values of a per-config key, and each point's index
        into them."""
        distinct, code = distinct_index(keys)
        return distinct, code[self.config_index]

    def tile_cycles(self, out_rows: int, inner: int) -> np.ndarray:
        """Per-point cycles for one (out_rows x inner) output column
        (``ArrayExecutor.cycles_for`` with batch=1)."""
        if out_rows < 1 or inner < 1:
            raise ConfigurationError(
                f"matmul dims must be >= 1, got {out_rows}x{inner}"
            )
        return ceil_div(out_rows, self.usable_rows) * ceil_div(
            inner, self.usable_cols
        )

    def op_counts(
        self, count: Callable[[int], object]
    ) -> Tuple[List[object], np.ndarray]:
        """``count(bits)`` once per distinct precision: the op counts
        and each point's index into them."""
        bits, index = self.config_codes([cfg.bits for cfg in self.configs])
        return [count(b) for b in bits], index

    def stack(
        self,
        platform: str,
        workload: str,
        ops: Sequence[object],
        ops_index: np.ndarray,
        latency: ColumnLatency,
        energy: ColumnEnergy,
    ) -> StackedRunReports:
        """The batch's stacked reports."""
        return StackedRunReports(
            platform=platform,
            workload=workload,
            ops=[ops[i] for i in ops_index.tolist()],
            latency=latency.as_arrays(self.n),
            energy=energy.as_arrays(self.n),
            bits_per_value=self.bits,
            groups=self.groups,
        )


def build_soa_memory_model(
    backend: str,
    system: object,
    mem_ctx: Optional[ExecutionContext],
    geometry: Optional[HBMGeometry],
):
    """The memory model one SoA group prices its traffic through.

    Tracing is forced off: a sweep group's model is transient, so a
    recorded command log would be both unobservable and a trace-limit
    hazard on large workloads.
    """
    from repro.core.engine.membackend import build_memory_backend

    if geometry is not None and geometry.op_trace:
        geometry = dataclass_replace(geometry, op_trace=False)
    return build_memory_backend(
        backend, system, context=mem_ctx, geometry=geometry
    )


def unique_traffic_columns(
    fn: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]],
    counts: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """A batch traffic primitive over the *distinct* byte counts only.

    Sweeps repeat a handful of transfer sizes across thousands of
    points, so the primitive prices each size once and the results
    scatter back through the inverse index (selection of identical
    floats — exact).
    """
    unique, inverse = np.unique(
        np.asarray(counts, dtype=np.int64), return_inverse=True
    )
    energy, latency = fn(unique)
    return energy[inverse], latency[inverse]


def weight_stream_columns(
    cols: ConfigColumns,
    ops: Sequence[object],
    ops_index: np.ndarray,
    compute_ns: np.ndarray,
    batch: np.ndarray,
) -> Tuple[ColumnEnergy, ColumnLatency]:
    """Column counterpart of ``MemoryModel.weight_stream_cost``.

    Points group by the model key — (memory system, backend, geometry)
    of their config and their memory-relevant context — and each group
    prices its whole column of weight/bounce byte counts through one
    vectorized primitive call (the ``*_batch`` methods are elementwise
    bit-identical to their scalar forms); batch amortization and
    compute overlap are per-point column arithmetic in the scalar
    path's exact order.  ``ops`` are the distinct op counts and
    ``ops_index`` maps points to them.
    """
    n = cols.n
    weight_bytes = np.array(
        [count.weight_bytes for count in ops], dtype=np.int64
    )[ops_index]
    bounce_bytes = np.array(
        [2 * count.activation_bytes for count in ops], dtype=np.int64
    )[ops_index]
    weight_e = np.empty(n)
    weight_l = np.empty(n)
    bounce_e = np.empty(n)
    bounce_l = np.empty(n)
    keys, key_index = cols.config_codes(
        [(cfg.memory, cfg.memory_backend, cfg.hbm) for cfg in cols.configs]
    )
    first, inverse = group_indices(key_index, cols.memory_context_index)
    for i, idx in zip(first, group_members(inverse)):
        system, backend, geometry = keys[key_index[i]]
        mem_ctx = cols.memory_contexts[cols.memory_context_index[i]]
        model = build_soa_memory_model(backend, system, mem_ctx, geometry)
        we, wl = unique_traffic_columns(
            model.stream_offchip_batch, weight_bytes[idx]
        )
        be, bl = unique_traffic_columns(
            model.bounce_onchip_batch, bounce_bytes[idx]
        )
        weight_e[idx] = we
        weight_l[idx] = wl
        bounce_e[idx] = be
        bounce_l[idx] = bl
    energy = ColumnEnergy(memory_pj=weight_e / batch + bounce_e)
    stall_ns = np.maximum(weight_l / batch - compute_ns, 0.0)
    latency = ColumnLatency(memory_ns=stall_ns + bounce_l)
    return energy, latency


def pareto_mask(latency_ns: np.ndarray, energy_pj: np.ndarray) -> np.ndarray:
    """Boolean mask of the Pareto-optimal (non-dominated) points.

    Vectorized counterpart of ``analysis.sweep.pareto_frontier``'s
    dominance test: point ``j`` dominates ``i`` when it is <= on both
    axes and strictly better on at least one.
    """
    latency_ns = np.asarray(latency_ns, dtype=float)
    energy_pj = np.asarray(energy_pj, dtype=float)
    if latency_ns.size == 0:
        raise ConfigurationError("cannot take the frontier of no points")
    leq = (latency_ns[None, :] <= latency_ns[:, None]) & (
        energy_pj[None, :] <= energy_pj[:, None]
    )
    strict = (latency_ns[None, :] < latency_ns[:, None]) | (
        energy_pj[None, :] < energy_pj[:, None]
    )
    dominated = (leq & strict).any(axis=1)
    return ~dominated


# ----------------------------------------------------------------------
# Evaluator registry
# ----------------------------------------------------------------------

#: fn(configs, contexts, workload) -> StackedRunReports
SoAEvaluator = Callable[
    [Sequence[object], Sequence[Optional[ExecutionContext]], object],
    StackedRunReports,
]

_EVALUATORS: Dict[Tuple[str, WorkloadKind], SoAEvaluator] = {}
_DEFAULTS_LOADED = False


def register_soa_evaluator(
    platform: str, kind: WorkloadKind, evaluator: SoAEvaluator
) -> None:
    """Register the array-resident evaluator for one platform/workload
    combination (platform modules call this at import time)."""
    _EVALUATORS[(platform, kind)] = evaluator


def soa_evaluator(
    platform: str, kind: WorkloadKind
) -> Optional[SoAEvaluator]:
    """The registered evaluator, or ``None`` (callers then fall back to
    the scalar path)."""
    global _DEFAULTS_LOADED
    if not _DEFAULTS_LOADED:
        # Deferred so repro.core.engine does not import the platform
        # packages (which import it back) at module load.
        import repro.core.ghost.soa  # noqa: F401
        import repro.core.tron.soa  # noqa: F401

        _DEFAULTS_LOADED = True
    return _EVALUATORS.get((platform, kind))
