"""Regenerate the golden Monte-Carlo sweep fixture under ``tests/golden/``.

Usage::

    PYTHONPATH=src python tools/regen_golden_mc.py

Rewrites ``mc_sweep_small.json``: the per-die operational mask,
latency, energy and tuning power of :func:`monte_carlo_sweep` over
small TRON/BERT-base and GHOST/GCN-cora spaces crossed with the three
memory backends.  ``tests/unit/test_sweep_settings.py`` checks the
current code against it value for value.

Run it only when a deliberate model change moves the numbers, and commit
the diff with the change that caused it.
"""

from __future__ import annotations

import json
import math
import pathlib
import sys
from dataclasses import replace
from typing import Dict, List, Optional

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.analysis.robustness import monte_carlo_sweep  # noqa: E402
from repro.analysis.sweep import (  # noqa: E402
    SweepSpace,
    ghost_sweep_space,
    tron_sweep_space,
)
from repro.core.context import ExecutionContext  # noqa: E402
from repro.core.ghost import GHOST  # noqa: E402
from repro.core.tron import TRON  # noqa: E402
from repro.photonics.variation import ProcessVariationModel  # noqa: E402

GOLDEN = REPO / "tests" / "golden" / "mc_sweep_small.json"
BACKENDS = ("analytic", "hbm", "hbm-pim")


def backend_space(space: SweepSpace) -> SweepSpace:
    """``space`` crossed with the memory backends (a ``backend`` knob)."""
    knobs = dict(space.knobs)
    knobs["backend"] = BACKENDS
    base_config = space.build_config
    base_label = space.label
    platform = TRON if space.platform == "TRON" else GHOST

    def build_config(knobs):
        return replace(base_config(knobs), memory_backend=knobs["backend"])

    return replace(
        space,
        knobs=SweepSpace.ordered_knobs(knobs),
        build_config=build_config,
        build_accelerator=lambda knobs: platform(build_config(knobs)),
        label=lambda knobs: f"{base_label(knobs)}/{knobs['backend']}",
    )


def _floats(values) -> List[Optional[float]]:
    return [None if math.isnan(v) else float(v) for v in values]


def pinned_mc_sweep() -> Dict[str, Dict[str, list]]:
    """The pinned Monte-Carlo populations, keyed ``space/label``
    (in-process physics only: the persistent cache stays untouched)."""
    context = ExecutionContext(
        variation=ProcessVariationModel(), seed=3, tuner_range_nm=8.5
    )
    spaces = (
        tron_sweep_space(
            head_units=(8,), array_sizes=(32, 64), clocks_ghz=(5.0,)
        ),
        ghost_sweep_space(lanes=(16,), edge_units=(32,)),
    )
    out = {}
    for space in spaces:
        points = monte_carlo_sweep(backend_space(space), context, samples=16)
        for point in points:
            result = point.result
            out[f"{space.name}/{point.label}"] = {
                "operational": result.operational.tolist(),
                "latency_ns": _floats(result.latency_ns),
                "energy_pj": _floats(result.energy_pj),
                "tuning_power_mw": _floats(result.tuning_power_mw),
            }
    return out


def main() -> int:
    GOLDEN.write_text(json.dumps(pinned_mc_sweep(), indent=1) + "\n")
    print(f"wrote {GOLDEN.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
