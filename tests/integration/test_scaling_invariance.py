"""Integration tests for the simulation-scaling methodology.

DESIGN.md Section 3 claims refresh overhead *fractions* are invariant
under ``refresh_scale`` because the scaling preserves every timing ratio.
These tests verify that claim empirically — it is what justifies running
the evaluation at a fraction of the paper's wall-clock cost.
"""

import pytest

from repro import api


def degradation_at(refresh_scale: int, workload: str = "WL-6") -> float:
    results = {
        name: api.run(
            workload,
            name,
            num_windows=1.0,
            warmup_windows=0.25,
            refresh_scale=refresh_scale,
        )
        for name in ["no_refresh", "all_bank"]
    }
    return 1 - results["all_bank"].hmean_ipc / results["no_refresh"].hmean_ipc


def test_all_bank_degradation_stable_across_scales():
    coarse = degradation_at(1024)
    fine = degradation_at(256)
    assert coarse == pytest.approx(fine, abs=0.03)


def test_per_bank_degradation_stable_across_scales():
    def deg(scale):
        results = {
            name: api.run(
                "WL-5",
                name,
                num_windows=1.0,
                warmup_windows=0.25,
                refresh_scale=scale,
            )
            for name in ["no_refresh", "per_bank"]
        }
        return 1 - results["per_bank"].hmean_ipc / results["no_refresh"].hmean_ipc

    assert deg(1024) == pytest.approx(deg(256), abs=0.03)


def test_codesign_gain_stable_across_scales():
    # Very coarse scales leave only a handful of tREFIs per window, so the
    # comparison uses moderate scales where quantization noise is small.
    def gain(scale):
        results = {
            name: api.run(
                "WL-6",
                name,
                num_windows=2.0,
                warmup_windows=0.25,
                refresh_scale=scale,
            )
            for name in ["all_bank", "codesign"]
        }
        return results["codesign"].hmean_ipc / results["all_bank"].hmean_ipc - 1

    assert gain(512) == pytest.approx(gain(256), abs=0.04)


def test_quantum_tracks_refresh_scale():
    from repro.config.system_configs import default_system_config
    from repro.dram.timing import DramTiming

    for scale in (64, 256, 1024):
        config = default_system_config(refresh_scale=scale)
        timing = DramTiming.from_config(config)
        # Quantum in cycles equals the refresh stretch (within rounding).
        from repro.units import ClockDomain

        quantum = ClockDomain(config.cores.freq_mhz).cycles(config.quantum_ps)
        assert quantum == pytest.approx(timing.refresh_stretch, rel=0.01)
