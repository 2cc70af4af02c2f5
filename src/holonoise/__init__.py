"""Planck-bandwidth geometric noise: model, synthesis, and detection.

The package models the transverse position noise a Planck-frequency
information bound would imprint on an interferometer baseline, synthesizes
correlated channel pairs with a white shot-noise floor, and measures the
common component through Welch cross-spectra with calibrated detection
statistics.  See the README for the command-line interface.
"""

import os
import sys

# No holonoise result goes through BLAS, so OpenBLAS's thread pool, which
# numpy starts at import with one busy-waiting worker per CPU, only burns
# CPU.  OpenBLAS reads its thread count once, when numpy first loads it, so
# the pin takes effect only before that, and a value set by the user wins.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.13.0"

from .constants import CONSTANTS, PhysicalConstants, codata_constants
from .detection import (
    DetectionReport,
    integration_time_for,
    null_significance,
    predicted_snr,
)
from .errors import DomainError, UnreachableTargetError
from .model import (
    HUBBLE_RADIUS,
    SECONDS_PER_YEAR,
    HolographicModel,
    InfoBudget,
    angular_uncertainty,
    angular_variance,
    autocorrelation,
    drift_speed,
    exact_rms,
    info_budget,
    psd_model,
    radial_resolution,
    transverse_uncertainty,
)
from .slits import (
    DISTINGUISHABILITY_THRESHOLD,
    PatternComparison,
    SlitSetup,
    distinguishability,
    fraunhofer_pattern,
    information_blurred_pattern,
    separation_sweep,
    threshold_crossing,
)
from .spectral import SpectralEstimate, welch_csd
from .synthesis import (
    ExperimentConfig,
    TimeSeriesPair,
    synthesize_common,
    synthesize_pair,
)

__all__ = [
    "CONSTANTS",
    "DISTINGUISHABILITY_THRESHOLD",
    "DetectionReport",
    "DomainError",
    "ExperimentConfig",
    "HUBBLE_RADIUS",
    "HolographicModel",
    "InfoBudget",
    "PatternComparison",
    "PhysicalConstants",
    "SECONDS_PER_YEAR",
    "SlitSetup",
    "SpectralEstimate",
    "TimeSeriesPair",
    "UnreachableTargetError",
    "angular_uncertainty",
    "angular_variance",
    "autocorrelation",
    "codata_constants",
    "distinguishability",
    "drift_speed",
    "exact_rms",
    "fraunhofer_pattern",
    "info_budget",
    "information_blurred_pattern",
    "integration_time_for",
    "null_significance",
    "predicted_snr",
    "psd_model",
    "radial_resolution",
    "separation_sweep",
    "synthesize_common",
    "synthesize_pair",
    "threshold_crossing",
    "transverse_uncertainty",
    "welch_csd",
]
