"""Configuration presets mirroring Table 1 of the paper."""

from repro.config.dram_configs import (
    DensityConfig,
    DramOrganization,
    DramTimingSpec,
    DDR3_1600,
    DDR4_1600,
    DENSITIES,
    density,
    FgrMode,
)
from repro.config.system_configs import (
    CoreConfig,
    OsConfig,
    SystemConfig,
    default_system_config,
)

__all__ = [
    "DensityConfig",
    "DramOrganization",
    "DramTimingSpec",
    "DDR3_1600",
    "DDR4_1600",
    "DENSITIES",
    "density",
    "FgrMode",
    "CoreConfig",
    "OsConfig",
    "SystemConfig",
    "default_system_config",
]
