"""GHOST architectural configuration.

The paper partitions the accelerator into V execution lanes, each owning
a gather unit, a reduce unit, a transform unit and an update unit, with N
edge-control units staging input vertices (Section V.D, "buffer and
partition").  Defaults reflect the same kind of design-space analysis as
TRON's: 16 lanes, 64-vertex input blocks, 64x64 transform arrays, and
weight DACs shared across all lanes (every lane applies the *same*
layer weights, so one DAC bank can drive all transform arrays).
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
from repro.electronics.memory import HBMChannel, MemorySystem, SRAMBuffer
from repro.errors import ConfigurationError
from repro.photonics.converters import ADC, DAC
from repro.photonics.devices import ActivationKind, SOAActivation
from repro.photonics.microring import MicroringDesign
from repro.photonics.noise import AnalogNoiseModel
from repro.photonics.pcm import PCMCell


@dataclass
class GHOSTConfig:
    """Architectural parameters of a GHOST instance.

    Attributes:
        lanes: V — execution lanes (output vertices processed in parallel).
        edge_units: N — edge-control units / staged input vertices; also
            the reduce units' neighbour fan-in per pass.
        feature_lanes: feature rows a reduce unit sums per pass (Fig. 7a:
            one row per feature).
        array_rows / array_cols: transform-unit MR bank array geometry.
        clock_ghz: photonic cycle rate.
        weight_refresh_cycles: weight-stationary window of the transform
            arrays (a layer's weights persist across all vertices).
        weight_dac_sharing: transform arrays sharing one weight DAC bank
            (Section V.D "weight DAC sharing"; all lanes hold identical
            weights, so this defaults to V).
        use_partitioning: enable buffer-and-partition blocking.
        use_balancing: enable degree-sorted workload balancing.
        random_access_penalty: energy/latency multiplier for irregular
            (unblocked) off-chip accesses relative to sequential bursts.
        bits: operand precision.
        dac / adc / design / softmax / memory / control / activation /
        noise: shared device models, as in :class:`TRONConfig`.
        memory_backend: memory-model registry name (``"analytic"``,
            ``"hbm"``, ``"hbm-pim"``); the default is bit-identical to
            the pre-registry behaviour.
        hbm: device geometry of the trace-driven backends (ignored by
            ``"analytic"``).
    """

    lanes: int = 16
    edge_units: int = 32
    feature_lanes: int = 64
    array_rows: int = 64
    array_cols: int = 64
    clock_ghz: float = 5.0
    weight_refresh_cycles: int = 1024
    weight_dac_sharing: Optional[int] = None
    use_partitioning: bool = True
    use_balancing: bool = True
    random_access_penalty: float = 4.0
    bits: int = 8
    dac: DAC = field(default_factory=lambda: DAC(energy_per_conversion_pj=1.8))
    adc: ADC = field(default_factory=lambda: ADC(energy_per_conversion_pj=2.6))
    design: MicroringDesign = field(default_factory=MicroringDesign)
    softmax: SoftmaxLUT = field(default_factory=lambda: SoftmaxLUT(lanes=64))
    # GHOST's streaming aggregation lives or dies on memory bandwidth, so
    # the design pairs the chip with an HBM2e interface (16 channels of
    # 256 Gb/s = 512 GB/s) and a 4 MiB banked global buffer.
    memory: MemorySystem = field(
        default_factory=lambda: MemorySystem(
            hbm=HBMChannel(
                bandwidth_gbps=256.0, channels=16, energy_per_bit_pj=3.5
            ),
            global_buffer=SRAMBuffer(capacity_bytes=4 * 1024 * 1024, banks=32),
        )
    )
    control: ControlUnit = field(default_factory=ControlUnit)
    activation: SOAActivation = field(
        default_factory=lambda: SOAActivation(kind=ActivationKind.RELU)
    )
    noise: Optional[AnalogNoiseModel] = None
    pcm: Optional[PCMCell] = None
    memory_backend: str = "analytic"
    hbm: HBMGeometry = field(default_factory=HBMGeometry)

    def __post_init__(self) -> None:
        if self.lanes < 1:
            raise ConfigurationError(f"need >= 1 lane, got {self.lanes}")
        if self.edge_units < 1:
            raise ConfigurationError(
                f"need >= 1 edge unit, got {self.edge_units}"
            )
        if self.feature_lanes < 1:
            raise ConfigurationError(
                f"need >= 1 feature lane, got {self.feature_lanes}"
            )
        if self.array_rows < 1 or self.array_cols < 1:
            raise ConfigurationError(
                f"array dims must be >= 1, got "
                f"{self.array_rows}x{self.array_cols}"
            )
        # Written as "not in range" so NaN (which fails every comparison)
        # and inf are rejected along with out-of-range values.
        if not 0.0 < self.clock_ghz < math.inf:
            raise ConfigurationError(f"clock must be > 0 GHz, got {self.clock_ghz}")
        if self.weight_refresh_cycles < 1:
            raise ConfigurationError("weight refresh window must be >= 1")
        if not 1.0 <= self.random_access_penalty < math.inf:
            raise ConfigurationError(
                "random access penalty must be >= 1, got "
                f"{self.random_access_penalty}"
            )
        if self.bits < 2:
            raise ConfigurationError(f"need >= 2 bits, got {self.bits}")
        if self.weight_dac_sharing is None:
            self.weight_dac_sharing = self.lanes
        if self.weight_dac_sharing < 1:
            raise ConfigurationError(
                f"weight DAC sharing must be >= 1, got {self.weight_dac_sharing}"
            )
        if not is_memory_backend(self.memory_backend):
            raise ConfigurationError(
                f"unknown memory backend {self.memory_backend!r}; "
                "registered backends: "
                + ", ".join(list_memory_backends())
            )

    def to_dict(self) -> Dict[str, Any]:
        """Every knob (nested device models included) as plain dicts.

        Example:
            >>> GHOSTConfig(lanes=8).to_dict()["lanes"]
            8
        """
        return config_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "GHOSTConfig":
        """Reconstruct a configuration from :meth:`to_dict` output.

        Missing fields keep their defaults; unknown fields and
        out-of-range values raise
        :class:`~repro.errors.ConfigurationError` with the offending
        path.

        Example:
            >>> GHOSTConfig.from_dict({"edge_units": 64}).edge_units
            64
            >>> cfg = GHOSTConfig(lanes=32)
            >>> GHOSTConfig.from_dict(cfg.to_dict()) == cfg
            True
        """
        return config_from_dict(cls, data)

    @property
    def cycle_ns(self) -> float:
        """Photonic cycle time."""
        return 1.0 / self.clock_ghz

    @property
    def peak_gops(self) -> float:
        """Peak throughput: V transform arrays plus V reduce units."""
        transform = self.lanes * self.array_rows * self.array_cols * 2
        reduce_ops = self.lanes * self.feature_lanes * self.edge_units
        return (transform + reduce_ops) * self.clock_ghz
