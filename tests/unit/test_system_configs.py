"""Unit tests for SystemConfig and simulation scaling knobs."""

import pytest

from repro.config.system_configs import (
    CoreConfig,
    OsConfig,
    SystemConfig,
    default_system_config,
)
from repro.errors import ConfigError
from repro.units import GB, ms


def test_default_config_matches_table1():
    config = default_system_config()
    assert config.cores.num_cores == 2
    assert config.cores.freq_mhz == 3200.0
    assert config.cores.rob_entries == 128
    assert config.density_gbit == 32
    assert config.trefw_ps == ms(64)
    assert config.read_queue_depth == 64
    assert config.write_drain_low == 32
    assert config.write_drain_high == 54


def test_refresh_scale_divides_window_and_rows():
    config = default_system_config(refresh_scale=64)
    assert config.trefw_sim_ps == ms(64) // 64
    assert config.rows_per_bank_sim == (512 * 1024) // 64


def test_quantum_is_window_over_total_banks():
    config = default_system_config(refresh_scale=1)
    # 64ms / 16 banks = 4ms: the paper's quantum (Section 5.1).
    assert config.quantum_ps == ms(4)


def test_explicit_quantum_wins():
    config = default_system_config(os=OsConfig(quantum_ps=ms(1)))
    assert config.quantum_ps == ms(1)


def test_bank_capacity_scaling():
    config = default_system_config(capacity_scale=1)
    # 512K rows x 4KB = 2GB per bank at 32Gb.
    assert config.bank_capacity_bytes == 2 * GB
    scaled = default_system_config(capacity_scale=1024)
    assert scaled.bank_capacity_bytes == 2 * GB // 1024


def test_scale_footprint_floor_one_page():
    config = default_system_config(capacity_scale=1024)
    assert config.scale_footprint(100) == config.os.page_bytes


def test_with_returns_modified_copy():
    config = default_system_config()
    other = config.with_(density_gbit=16)
    assert other.density_gbit == 16
    assert config.density_gbit == 32


def test_validate_rejects_bad_watermarks():
    with pytest.raises(ConfigError):
        default_system_config(write_drain_low=60, write_drain_high=54)


def test_validate_rejects_bad_scales():
    with pytest.raises(ConfigError):
        default_system_config(refresh_scale=0)


def test_core_config_validation():
    with pytest.raises(ConfigError):
        CoreConfig(num_cores=0).validate()


def test_os_config_eta_validation():
    OsConfig(eta_thresh=None).validate()
    OsConfig(eta_thresh=1).validate()
    with pytest.raises(ConfigError):
        OsConfig(eta_thresh=0).validate()
