"""Corner sweeps build one config per knob setting, and the array-resident
evaluators code points by distinct config and context.

Covers TRON/BERT-base and GHOST/GCN-cora, each crossed with the
``analytic``, ``hbm`` and ``hbm-pim`` memory backends and the four
standard corners.
"""

import json
import pathlib
import sys
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.sweep import (
    ghost_sweep_space,
    pareto_frontier,
    run_sweep,
    run_sweep_soa,
    tron_sweep_space,
    with_corners,
)
from repro.core.context import resolve_corner, standard_corners
from repro.core.engine import soa_evaluator
from repro.core.engine.soa import distinct_index, group_indices

REPO = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO / "tools"))

from regen_golden_mc import (  # noqa: E402
    GOLDEN,
    backend_space,
    pinned_mc_sweep,
)

CORNERS = {name: resolve_corner(name, 3) for name in standard_corners()}

SPACES = {
    "tron": lambda: with_corners(
        backend_space(
            tron_sweep_space(
                head_units=(4, 8), array_sizes=(32, 64), clocks_ghz=(5.0,)
            )
        ),
        CORNERS,
    ),
    "ghost": lambda: with_corners(
        backend_space(ghost_sweep_space(lanes=(8, 16), edge_units=(16, 32))),
        CORNERS,
    ),
}


def _counting(calls, build):
    def wrapper(knobs):
        calls.append(dict(knobs))
        return build(knobs)

    return wrapper


def _setting_knobs(knobs):
    return {name: value for name, value in knobs.items() if name != "corner"}


@pytest.mark.parametrize("name", SPACES)
class TestOncePerSetting:
    def test_soa_builds_one_config_per_setting(self, name):
        space = SPACES[name]()
        calls = []
        counted = replace(
            space, build_config=_counting(calls, space.build_config)
        )
        result = run_sweep_soa(counted)
        assert len(result) == 4 * len(space.enumerate())
        assert calls == space.enumerate()  # no "corner" entry


@pytest.mark.parametrize("name", SPACES)
def test_soa_equals_serial_sweep(name):
    space = SPACES[name]()
    result = run_sweep_soa(space)
    serial = run_sweep(space, strategy="serial")
    assert [p.label for p in result.points()] == [p.label for p in serial]
    assert [p.report.to_dict() for p in result.points()] == [
        p.report.to_dict() for p in serial
    ]
    assert np.array_equal(
        result.latency_ns, [p.latency_ns for p in serial]
    )
    assert np.array_equal(result.energy_pj, [p.energy_pj for p in serial])
    frontier = pareto_frontier(serial)
    assert [p.label for p in result.frontier()] == [p.label for p in frontier]
    assert [p.report.to_dict() for p in result.frontier()] == [
        p.report.to_dict() for p in frontier
    ]
    # One group per distinct (array spec, non-nominal context) pair.
    expected_groups = {
        (
            space.build_accelerator(_setting_knobs(knobs)).array_specs()[0],
            None if ctx is None or ctx.is_nominal else ctx,
        )
        for knobs, _, ctx in space.evaluations()
    }
    assert result.stats.groups == len(expected_groups)


@pytest.mark.parametrize("name", SPACES)
def test_equal_configs_code_like_shared_ones(name):
    space = SPACES[name]()
    workload = space.build_workload()
    evaluator = soa_evaluator(space.platform, workload.kind)
    evaluations = space.evaluations()
    contexts = [
        None if ctx is None or ctx.is_nominal else ctx
        for _, _, ctx in evaluations
    ]
    shared = {}
    shared_configs = []
    fresh_configs = []
    for knobs, label, _ in evaluations:
        setting = label.rsplit("@", 1)[0]
        if setting not in shared:
            shared[setting] = space.build_config(_setting_knobs(knobs))
        shared_configs.append(shared[setting])
        fresh_configs.append(space.build_config(_setting_knobs(knobs)))
    assert len({id(cfg) for cfg in fresh_configs}) == len(evaluations)
    a = evaluator(shared_configs, contexts, workload)
    b = evaluator(fresh_configs, contexts, workload)
    assert a.groups == b.groups
    for name_ in a.latency:
        assert np.array_equal(a.latency[name_], b.latency[name_])
    for name_ in a.energy:
        assert np.array_equal(a.energy[name_], b.energy[name_])
    assert list(a.bits_per_value) == list(b.bits_per_value)
    assert [a.materialize(i).to_dict() for i in range(len(a))] == [
        b.materialize(i).to_dict() for i in range(len(b))
    ]


def test_monte_carlo_sweep_matches_golden():
    assert pinned_mc_sweep() == json.loads(GOLDEN.read_text())


class TestCoding:
    def test_distinct_index_by_value(self):
        values, index = distinct_index([3, 1, 3, 2, 1])
        assert values == [3, 1, 2]
        assert index.tolist() == [0, 1, 0, 2, 1]

    def test_distinct_index_identity_then_equality(self):
        a, b, c = [1], [1], [2]  # unhashable; a == b
        values, index = distinct_index([a, c, b, a], bucket=len)
        assert values == [[1], [2]]
        assert values[0] is a
        assert index.tolist() == [0, 1, 0, 0]

    def test_group_indices_first_seen_order(self):
        first, inverse = group_indices(
            np.array([2, 0, 2, 1, 0]), np.array([0, 1, 0, 1, 1])
        )
        assert first.tolist() == [0, 1, 3]
        assert inverse.tolist() == [0, 1, 0, 2, 1]
