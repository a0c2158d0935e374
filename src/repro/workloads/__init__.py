"""Workloads: synthetic corpus, ONI sweep, pilot study."""

from .corpus import CATEGORY_MIX, Corpus, SiteSpec, build_corpus
from .oni import FIG2_CATEGORIES, ONI_AS_SPECS, OniSweep, run_oni_sweep
from .pilot import (
    BLOCKED_CATEGORIES,
    PilotConfig,
    PilotReport,
    PilotStudy,
    pilot_sweep,
    run_pilot,
    summarize_sweep,
)

__all__ = [
    "CATEGORY_MIX",
    "Corpus",
    "SiteSpec",
    "build_corpus",
    "FIG2_CATEGORIES",
    "ONI_AS_SPECS",
    "OniSweep",
    "run_oni_sweep",
    "BLOCKED_CATEGORIES",
    "PilotConfig",
    "PilotReport",
    "PilotStudy",
    "pilot_sweep",
    "run_pilot",
    "summarize_sweep",
]
