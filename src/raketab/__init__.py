"""
raketab: three-way (surname, geolocation, race) contingency-table
estimation with independence-based predictions, margin raking, calibration
maps, and an evaluation metric suite.

The package loads its modules on first use (PEP 562): `import raketab`
imports neither numpy nor any submodule, and `raketab.rake` imports
`raketab.raking`. So `raketab.cli` runs its start-up code before numpy
loads.
"""

import importlib

__version__ = "0.1.0"

# each module and the public names it defines
_MODULES = {
    "table": "AxisLabels ContingencyTable MarginSet RaceCategory RACE_NAMES build_table "
             "index_cells",
    "bisg": "BisgFactors MissingFactorError VoterAdjustment baseline_geo_only "
            "baseline_surname_only bisg_counts bisg_probability fit_factors voter_adjustment "
            "weighted_counts",
    "raking": "InfeasibleMarginError NonConvergenceError RakingConfig RakingResult "
              "kl_divergence margin_gap rake",
    "calibmap": "CalibrationMap CalibrationSolveError apply_calibration_map solve_calibration_map",
    "metrics": "CalibrationCurve CellwiseReport SubpopReport calibration_curve cellwise_report "
               "kuiper subpop_report",
    "synth": "SynthConfig generate",
}
_OWNER = {name: module for module, names in _MODULES.items() for name in names.split()}

__all__ = sorted(_OWNER)


def __getattr__(name):
    """Import a public name's module, or a module named above, on first use.

    The value is stored in the package's namespace, so later lookups do
    not come here and every holder of a name sees the same object.
    """
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
