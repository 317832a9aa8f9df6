"""
raketab: three-way (surname, geolocation, race) contingency-table
estimation with independence-based predictions, margin raking, calibration
maps, and an evaluation metric suite.
"""

from .table import (
    AxisLabels,
    ContingencyTable,
    MarginSet,
    PredictionTable,
    RaceCategory,
    RACE_LABELS,
    RACE_NAMES,
    build_table,
    index_cells,
)
from .bisg import (
    BisgFactors,
    MissingFactorError,
    VoterAdjustment,
    baseline_geo_only,
    baseline_surname_only,
    bisg_counts,
    bisg_probability,
    fit_factors,
    voter_adjustment,
    weighted_counts,
)
from .raking import (
    InfeasibleMarginError,
    NonConvergenceError,
    RakingConfig,
    RakingResult,
    kl_divergence,
    margin_gap,
    rake,
)
from .calibmap import (
    CalibrationMap,
    CalibrationSolveError,
    apply_calibration_map,
    solve_calibration_map,
)
from .metrics import (
    CalibrationCurve,
    CellwiseReport,
    SubpopReport,
    calibration_curve,
    cellwise_report,
    kuiper,
    subpop_report,
)
from .synth import SynthConfig, generate

__version__ = "0.1.0"

__all__ = [
    "AxisLabels",
    "BisgFactors",
    "CalibrationCurve",
    "CalibrationMap",
    "CalibrationSolveError",
    "CellwiseReport",
    "ContingencyTable",
    "InfeasibleMarginError",
    "MarginSet",
    "MissingFactorError",
    "NonConvergenceError",
    "PredictionTable",
    "RACE_LABELS",
    "RACE_NAMES",
    "RaceCategory",
    "RakingConfig",
    "RakingResult",
    "SubpopReport",
    "SynthConfig",
    "VoterAdjustment",
    "apply_calibration_map",
    "baseline_geo_only",
    "baseline_surname_only",
    "bisg_counts",
    "bisg_probability",
    "build_table",
    "calibration_curve",
    "cellwise_report",
    "fit_factors",
    "generate",
    "index_cells",
    "kl_divergence",
    "kuiper",
    "margin_gap",
    "rake",
    "solve_calibration_map",
    "subpop_report",
    "voter_adjustment",
    "weighted_counts",
]
