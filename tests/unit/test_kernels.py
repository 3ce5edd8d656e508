"""Batched-vs-scalar equality of the vectorized photonics kernels.

The sweep and Monte-Carlo engines reconstruct reports from batched
kernel evaluations and claim bit-identity with scalar runs, so these
tests assert **exact** equality (``==``, never ``approx``) between
every vectorized kernel and its scalar counterpart, including the edge
shapes the engines produce: one-point batches and non-contiguous
views.
"""

import numpy as np
import pytest

from repro.core.engine import (
    breakdown_cache_stats,
    clear_physics_cache,
    prime_breakdown_cache,
)
from repro.core.engine.matmul import ArrayExecutor, ArraySpec
from repro.photonics.crosstalk import (
    heterodyne_crosstalk_kernel,
    heterodyne_crosstalk_ratio,
)
from repro.photonics.microring import (
    Microring,
    MicroringDesign,
    design_working_point,
    imprint_shift_kernel,
    ring_working_point_kernel,
    through_transmission_kernel,
)
from repro.photonics.mrbank import MRBankArray, cycle_energy_breakdown_kernel
from repro.photonics.tuning import HybridTuner, hold_power_mw_kernel

RADII = np.array([3.0, 5.0, 6.5, 7.5, 10.0, 12.0])


class TestRingWorkingPointKernel:
    def test_batched_matches_scalar_instances(self):
        batch = ring_working_point_kernel(RADII)
        for i, radius in enumerate(RADII):
            ring = Microring.at_wavelength(
                MicroringDesign(radius_um=float(radius)), 1550.0
            )
            assert float(batch.order[i]) == ring.order
            assert float(batch.fsr_nm[i]) == ring.fsr_nm
            assert float(batch.fwhm_nm[i]) == ring.fwhm_nm
            assert float(batch.min_transmission[i]) == ring.min_through_transmission
            assert float(batch.max_transmission[i]) == (
                ring.transmission_at_max_detuning()
            )

    def test_one_point_batch(self):
        one = ring_working_point_kernel(np.array([5.0]))
        many = ring_working_point_kernel(RADII)
        assert float(one.fsr_nm[0]) == float(many.fsr_nm[1])
        assert float(one.max_transmission[0]) == float(many.max_transmission[1])

    def test_non_contiguous_radius_array(self):
        strided = RADII[::2]
        assert not strided.flags["C_CONTIGUOUS"]
        batch = ring_working_point_kernel(strided)
        full = ring_working_point_kernel(RADII)
        assert np.array_equal(batch.fwhm_nm, full.fwhm_nm[::2])
        assert np.array_equal(batch.max_transmission, full.max_transmission[::2])

    def test_rejects_nonpositive_radius(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ring_working_point_kernel(np.array([5.0, 0.0]))


class TestTransmissionKernel:
    def test_matches_scalar_transmission_curve(self):
        design = MicroringDesign(radius_um=5.0)
        ring = Microring.at_wavelength(design, 1550.0)
        wavelengths = np.linspace(1548.0, 1552.0, 101)
        scalar = ring.through_transmission(wavelengths)
        batched = through_transmission_kernel(wavelengths, 5.0)
        assert np.array_equal(batched, scalar)

    def test_broadcasts_wavelengths_against_designs(self):
        wavelengths = np.linspace(1549.0, 1551.0, 11)
        surface = through_transmission_kernel(
            wavelengths[:, None], RADII[None, :]
        )
        assert surface.shape == (11, len(RADII))
        for j, radius in enumerate(RADII):
            ring = Microring.at_wavelength(
                MicroringDesign(radius_um=float(radius)), 1550.0
            )
            assert np.array_equal(surface[:, j], ring.through_transmission(wavelengths))

    def test_tuned_ring_shift(self):
        design = MicroringDesign(radius_um=5.0)
        ring = Microring.at_wavelength(design, 1550.0)
        ring.apply_shift(0.3)
        wavelengths = np.linspace(1549.0, 1551.0, 21)
        batched = through_transmission_kernel(
            wavelengths, 5.0, delta_lambda_nm=0.3
        )
        assert np.array_equal(batched, ring.through_transmission(wavelengths))


class TestImprintShiftKernel:
    def test_matches_scalar_imprint(self):
        values = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        for radius in (3.0, 5.0, 8.0):
            design = MicroringDesign(radius_um=radius)
            ring = Microring.at_wavelength(design, 1550.0)
            working = design_working_point(design)
            batched = imprint_shift_kernel(values, working)
            scalar = [ring.imprint(float(v)) for v in values]
            assert np.array_equal(batched, np.array(scalar))

    def test_non_contiguous_values(self):
        design = MicroringDesign()
        working = design_working_point(design)
        values = np.linspace(0.0, 1.0, 10)
        strided = values[::3]
        assert np.array_equal(
            imprint_shift_kernel(strided, working),
            imprint_shift_kernel(values, working)[::3],
        )


class TestHoldPowerKernel:
    def test_matches_hybrid_tuner_across_regimes(self):
        tuner = HybridTuner()
        # EO-only, boundary, and TO-engaged shifts.
        shifts = np.array([0.0, 0.1, 0.6, 0.8, 2.0, 5.0, -3.0])
        batched = hold_power_mw_kernel(shifts)
        scalar = [tuner.average_hold_power_mw([float(s)]) for s in shifts]
        assert np.array_equal(batched, np.array(scalar))

    def test_one_point_and_non_contiguous(self):
        shifts = np.linspace(0.0, 4.0, 9)
        full = hold_power_mw_kernel(shifts)
        assert float(hold_power_mw_kernel(np.array([shifts[3]]))[0]) == float(
            full[3]
        )
        assert np.array_equal(hold_power_mw_kernel(shifts[::2]), full[::2])

    def test_custom_tuner_parameters(self):
        from repro.photonics.tuning import EOTuner, TOTuner

        tuner = HybridTuner(
            eo=EOTuner(max_shift_nm=0.3, power_mw=0.01),
            to=TOTuner(efficiency_nm_per_mw=0.5, ted_power_factor=0.4),
        )
        shifts = np.array([0.1, 0.5, 1.5])
        batched = hold_power_mw_kernel(
            shifts,
            eo_max_shift_nm=0.3,
            eo_power_mw=0.01,
            to_efficiency_nm_per_mw=0.5,
            ted_power_factor=0.4,
        )
        scalar = [tuner.average_hold_power_mw([float(s)]) for s in shifts]
        assert np.array_equal(batched, np.array(scalar))


class TestCrosstalkKernel:
    def test_matches_scalar_over_plan_batch(self):
        spacings = np.array([0.3, 0.6, 0.9, 1.2])
        qs = np.array([5000.0, 8000.0, 12000.0, 20000.0])
        channels = np.array([2, 4, 9, 16])
        batched = heterodyne_crosstalk_kernel(
            spacings, qs, num_channels=channels, fsr_nm=18.0
        )
        for i in range(len(spacings)):
            scalar = heterodyne_crosstalk_ratio(
                float(spacings[i]),
                float(qs[i]),
                num_channels=int(channels[i]),
                fsr_nm=18.0,
            )
            assert float(batched[i]) == scalar

    def test_without_fsr_aliasing(self):
        batched = heterodyne_crosstalk_kernel(
            np.array([0.5, 1.0]), 9000.0, num_channels=np.array([8, 3])
        )
        assert float(batched[0]) == heterodyne_crosstalk_ratio(
            0.5, 9000.0, num_channels=8
        )
        assert float(batched[1]) == heterodyne_crosstalk_ratio(
            1.0, 9000.0, num_channels=3
        )

    def test_one_point_and_non_contiguous(self):
        spacings = np.linspace(0.2, 1.4, 7)
        full = heterodyne_crosstalk_kernel(spacings, 8000.0, num_channels=8)
        one = heterodyne_crosstalk_kernel(
            np.array([spacings[2]]), 8000.0, num_channels=8
        )
        assert float(one[0]) == float(full[2])
        assert np.array_equal(
            heterodyne_crosstalk_kernel(spacings[::2], 8000.0, num_channels=8),
            full[::2],
        )


class TestBreakdownKernel:
    GEOMETRIES = [
        (16, 16, 2.5, 1, 1),
        (32, 64, 5.0, 1, 256),
        (64, 32, 1.25, 4, 1024),
        (128, 128, 5.0, 2, 64),
    ]

    def test_matches_scalar_breakdown(self):
        rows, cols, clocks, shared, refresh = map(np.array, zip(*self.GEOMETRIES))
        batched = cycle_energy_breakdown_kernel(
            rows,
            cols,
            clocks,
            weight_dacs_shared=shared,
            weight_refresh_cycles=refresh,
        )
        for i, (r, c, clk, sh, rf) in enumerate(self.GEOMETRIES):
            scalar = MRBankArray(
                rows=r, cols=c, clock_ghz=clk, weight_dacs_shared=sh
            ).cycle_energy_breakdown_pj(weight_refresh_cycles=rf)
            for term, values in batched.items():
                assert float(values[i]) == scalar[term], (term, i)

    def test_one_point_batch(self):
        one = cycle_energy_breakdown_kernel(np.array([32]), np.array([32]), 5.0)
        scalar = MRBankArray(rows=32, cols=32).cycle_energy_breakdown_pj()
        for term, values in one.items():
            assert float(values[0]) == scalar[term]

    def test_pcm_program_energy_path(self):
        from repro.photonics.pcm import PCMCell

        pcm = PCMCell()
        scalar = MRBankArray(
            rows=16, cols=16, pcm=pcm
        ).cycle_energy_breakdown_pj(weight_refresh_cycles=8)
        batched = cycle_energy_breakdown_kernel(
            16,
            16,
            5.0,
            weight_refresh_cycles=8,
            weight_program_energy_pj=pcm.program_energy_pj(16 * 16),
        )
        for term, value in batched.items():
            assert float(value) == scalar[term]

    def test_rejects_bad_dimensions(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            cycle_energy_breakdown_kernel(np.array([0]), np.array([4]), 5.0)
        with pytest.raises(ConfigurationError):
            cycle_energy_breakdown_kernel(4, 4, 5.0, weight_refresh_cycles=0)


class TestPrimeBreakdownCache:
    def test_primed_entries_match_lazy_computation(self):
        specs = [
            ArraySpec(rows=24, cols=24, clock_ghz=2.5),
            ArraySpec(rows=48, cols=96, clock_ghz=5.0),
            ArraySpec(rows=96, cols=48, clock_ghz=1.25),
        ]
        clear_physics_cache()
        primed = prime_breakdown_cache((spec, 0.5, 128) for spec in specs)
        assert primed == len(specs)
        batched = [
            ArrayExecutor(spec=spec).energy_breakdown_pj(
                weight_refresh_cycles=128
            )
            for spec in specs
        ]
        clear_physics_cache()
        lazy = [
            ArrayExecutor(spec=spec).energy_breakdown_pj(
                weight_refresh_cycles=128
            )
            for spec in specs
        ]
        assert batched == lazy  # dict-of-float exact equality

    def test_priming_is_idempotent_and_counted(self):
        clear_physics_cache()
        spec = ArraySpec(rows=16, cols=16)
        assert prime_breakdown_cache([(spec, 0.5, 1)]) == 1
        assert prime_breakdown_cache([(spec, 0.5, 1)]) == 0
        stats = breakdown_cache_stats()
        assert stats["insertions"] >= 1


class TestGoldenFrontier:
    """The 27-point default TRON + GHOST sweep frontier is a golden:
    the batched engine must reproduce it exactly."""

    TRON_FRONTIER = ["H16/A128/5.0GHz"]
    GHOST_FRONTIER = ["V32/N16", "V32/N32", "V32/N64"]

    def test_default_spaces_reproduce_recorded_frontier(self):
        from repro.analysis.sweep import (
            ghost_sweep_space,
            pareto_frontier,
            run_sweep,
            tron_sweep_space,
        )

        tron = run_sweep(tron_sweep_space(), strategy="batched")
        ghost = run_sweep(ghost_sweep_space(), strategy="batched")
        assert len(tron) + len(ghost) == 27
        assert [p.label for p in pareto_frontier(tron)] == self.TRON_FRONTIER
        assert [p.label for p in pareto_frontier(ghost)] == self.GHOST_FRONTIER
