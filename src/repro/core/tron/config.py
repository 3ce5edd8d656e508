"""TRON architectural configuration.

Defaults follow the flavour of design-space analysis the paper cites
(Section VI: "the specific architectural details ... were determined
through detailed design-space analysis"): 64x64 MR bank arrays (bounded
by the usable WDM channel count and the link budget), 16 attention-head
units so a BERT-large layer's 16 heads run in one wave, 8 arrays serving
the FF unit, and a 5 GHz photonic clock matched to the converter rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro.core.engine.hbm.geometry import HBMGeometry
from repro.core.engine.membackend import (
    is_memory_backend,
    list_memory_backends,
)
from repro.core.serialization import config_from_dict, config_to_dict
from repro.electronics.digital import ControlUnit, SoftmaxLUT
from repro.electronics.memory import MemorySystem
from repro.errors import ConfigurationError
from repro.photonics.converters import ADC, DAC
from repro.photonics.devices import ActivationKind, SOAActivation
from repro.photonics.microring import MicroringDesign
from repro.photonics.noise import AnalogNoiseModel
from repro.photonics.pcm import PCMCell

#: Fixed by the paper's Fig. 5(a): seven MR bank arrays per attention head.
ARRAYS_PER_HEAD = 7


@dataclass
class TRONConfig:
    """Architectural parameters of a TRON instance.

    Attributes:
        num_head_units: parallel attention-head units (heads beyond this
            count are processed in extra waves).
        array_rows: K of each K x N MR bank array.
        array_cols: N of each array (wavelengths per waveguide).
        num_linear_arrays: arrays implementing the MHA output linear layer.
        num_ff_arrays: arrays shared by the FF unit's two dense layers.
        clock_ghz: photonic cycle rate.
        weight_refresh_cycles: cycles a weight tile stays resident before
            the DACs re-imprint it (weight-stationary window).
        bits: operand precision (the paper's 8-bit operating point).
        dac / adc: converter models (resolution is forced to ``bits``).
        design: MR design used by all arrays.
        softmax: digital softmax unit model.
        memory: HBM + global-buffer hierarchy.
        control: per-accelerator control/sequencing block.
        noise: analog noise model for functional simulation (None = ideal).
        pcm: optional non-volatile PCM weight cells for all arrays
            (paper conclusion's future-work direction); None = volatile
            DAC+tuning weight path.
        batch: inferences sharing one weight-streaming pass; throughput
            benches use > 1 to model steady-state serving.
        memory_backend: memory-model registry name (``"analytic"``,
            ``"hbm"``, ``"hbm-pim"``); the default is bit-identical to
            the pre-registry behaviour.
        hbm: device geometry of the trace-driven backends (ignored by
            ``"analytic"``).
    """

    num_head_units: int = 16
    array_rows: int = 64
    array_cols: int = 64
    num_linear_arrays: int = 2
    num_ff_arrays: int = 8
    clock_ghz: float = 5.0
    weight_refresh_cycles: int = 256
    bits: int = 8
    dac: DAC = field(default_factory=lambda: DAC(energy_per_conversion_pj=1.8))
    adc: ADC = field(default_factory=lambda: ADC(energy_per_conversion_pj=2.6))
    design: MicroringDesign = field(default_factory=MicroringDesign)
    softmax: SoftmaxLUT = field(default_factory=lambda: SoftmaxLUT(lanes=64))
    memory: MemorySystem = field(default_factory=MemorySystem)
    control: ControlUnit = field(default_factory=ControlUnit)
    activation: SOAActivation = field(
        default_factory=lambda: SOAActivation(kind=ActivationKind.RELU)
    )
    noise: Optional[AnalogNoiseModel] = None
    pcm: Optional[PCMCell] = None
    batch: int = 1
    memory_backend: str = "analytic"
    hbm: HBMGeometry = field(default_factory=HBMGeometry)

    def __post_init__(self) -> None:
        if self.num_head_units < 1:
            raise ConfigurationError(
                f"need >= 1 head unit, got {self.num_head_units}"
            )
        if self.array_rows < 1 or self.array_cols < 1:
            raise ConfigurationError(
                f"array dims must be >= 1, got "
                f"{self.array_rows}x{self.array_cols}"
            )
        if self.num_linear_arrays < 1 or self.num_ff_arrays < 1:
            raise ConfigurationError("linear/FF array counts must be >= 1")
        # Written as "not in range" so NaN (which fails every comparison)
        # and inf are rejected along with out-of-range values.
        if not 0.0 < self.clock_ghz < math.inf:
            raise ConfigurationError(f"clock must be > 0 GHz, got {self.clock_ghz}")
        if self.weight_refresh_cycles < 1:
            raise ConfigurationError(
                "weight refresh window must be >= 1 cycle, got "
                f"{self.weight_refresh_cycles}"
            )
        if self.bits < 2:
            raise ConfigurationError(f"need >= 2 bits, got {self.bits}")
        if self.batch < 1:
            raise ConfigurationError(f"batch must be >= 1, got {self.batch}")
        if not is_memory_backend(self.memory_backend):
            raise ConfigurationError(
                f"unknown memory backend {self.memory_backend!r}; "
                "registered backends: "
                + ", ".join(list_memory_backends())
            )

    def to_dict(self) -> Dict[str, Any]:
        """Every knob (nested device models included) as plain dicts.

        Example:
            >>> TRONConfig(batch=8).to_dict()["batch"]
            8
        """
        return config_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TRONConfig":
        """Reconstruct a configuration from :meth:`to_dict` output.

        Missing fields keep their defaults; unknown fields and
        out-of-range values raise
        :class:`~repro.errors.ConfigurationError` with the offending
        path.

        Example:
            >>> TRONConfig.from_dict({"clock_ghz": 2.5}).clock_ghz
            2.5
            >>> cfg = TRONConfig(num_head_units=8)
            >>> TRONConfig.from_dict(cfg.to_dict()) == cfg
            True
        """
        return config_from_dict(cls, data)

    @property
    def cycle_ns(self) -> float:
        """Photonic cycle time."""
        return 1.0 / self.clock_ghz

    @property
    def total_arrays(self) -> int:
        """All MR bank arrays in the accelerator."""
        return (
            self.num_head_units * ARRAYS_PER_HEAD
            + self.num_linear_arrays
            + self.num_ff_arrays
        )

    @property
    def macs_per_cycle_peak(self) -> int:
        """Peak MAC rate if every array fires every cycle."""
        return self.total_arrays * self.array_rows * self.array_cols

    @property
    def peak_gops(self) -> float:
        """Peak throughput (2 ops per MAC) in GOPS."""
        return 2.0 * self.macs_per_cycle_peak * self.clock_ghz
