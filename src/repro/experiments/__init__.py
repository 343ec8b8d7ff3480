"""Experiment harness: one module per paper figure (see DESIGN.md §4).

:func:`repro.api.figure` (or the ``python -m repro.experiments`` CLI)
resolves a figure module and calls its ``run()`` entry point.
"""

from repro.experiments.cache import ResultCache, default_cache_dir
from repro.experiments.runner import (
    ExperimentProfile,
    FULL_PROFILE,
    QUICK_PROFILE,
    active_profile,
    default_jobs,
    SweepRunner,
)

__all__ = [
    "ExperimentProfile",
    "FULL_PROFILE",
    "QUICK_PROFILE",
    "active_profile",
    "default_jobs",
    "ResultCache",
    "default_cache_dir",
    "SweepRunner",
]
