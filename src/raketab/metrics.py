"""
error and calibration metrics comparing predicted tables to labeled truth.

Subpopulation metrics compare geolocation-level race totals; cellwise
metrics compare (surname, geolocation) cells in l1, l2, and negative
log-likelihood; calibration is summarized by weighted cumulative
miscalibration curves and their Kuiper statistic (max minus min of the
curve).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .table import N_RACES, RACE_NAMES, ContingencyTable, PredictionTable, RaceCategory
from .table import sum_by_group

# the log of a predicted conditional is floored here so that empirically
# occupied cells with a zero prediction stay finite
NLL_PROB_FLOOR = 1e-12

# bins of cumulative weight in a curve's outline, the rows a curve file keeps
CURVE_RESOLUTION = 4096

ESTIMATE_MINUS_TRUTH = "estimate-minus-truth"
TRUTH_MINUS_ESTIMATE = "truth-minus-estimate"


@dataclass(frozen=True)
class SubpopReport:
    """Geolocation-level race totals of a prediction versus the truth.

    abs_error and rel_error are (n_g, 6); rel_error is NaN where the true
    subpopulation is empty. mad is the per-race sum over geolocations of
    absolute errors; avg_error is the statewide signed error per race.
    The signed entries follow `orientation`; mad is orientation-free.
    """

    geolocations: tuple
    truth_counts: np.ndarray
    estimate_counts: np.ndarray
    abs_error: np.ndarray
    rel_error: np.ndarray
    mad: np.ndarray
    avg_error: np.ndarray
    orientation: str

    def summary(self) -> dict:
        return {
            "orientation": self.orientation,
            "mad": {RACE_NAMES[r]: float(self.mad[r]) for r in range(N_RACES)},
            "avg_error": {
                RACE_NAMES[r]: float(self.avg_error[r]) for r in range(N_RACES)
            },
        }


@dataclass(frozen=True)
class CellwiseReport:
    """Per-geolocation l1, l2, and negative log-likelihood, with optional
    region-level aggregates. Entries are NaN for empty geolocations."""

    geolocations: tuple
    l1: np.ndarray
    l2: np.ndarray
    nll: np.ndarray
    regions: Optional[dict] = None  # region -> (l1, l2, nll)
    overall: Optional[tuple] = None

    def summary(self) -> dict:
        """Overall and region aggregates; null where a population is empty."""

        def entry(values):
            return {
                k: float(v) if np.isfinite(v) else None
                for k, v in zip(("l1", "l2", "nll"), values)
            }

        out = {}
        if self.overall is not None:
            out["overall"] = entry(self.overall)
        if self.regions:
            out["regions"] = {name: entry(v) for name, v in self.regions.items()}
        return out


@dataclass(frozen=True)
class CalibrationCurve:
    """Weighted cumulative miscalibration for one race category.

    `points` is an (n + 1, 2) array of (cumulative weight fraction,
    cumulative miscalibration) rows, the origin first. The Kuiper
    statistic is the difference between the curve's maximum and minimum.
    """

    race: RaceCategory
    points: np.ndarray
    kuiper: float

    def values(self) -> np.ndarray:
        return self.points[:, 1]

    def outline(self) -> np.ndarray:
        """The rows of `points` that a curve file keeps, in order.

        With K = CURVE_RESOLUTION, a point of cumulative weight x lies in
        bin k = ceil(x * K), clipped to 1..K. The outline is the origin,
        then each bin's last point and its first maximum and first minimum
        of the curve; a bin of at most 3 points is kept whole. That is at
        most 3K + 1 rows, and their curve values have the same maximum and
        minimum as the whole curve, so max - min is `kuiper` exactly.
        """
        x, y = self.points[1:, 0], self.points[1:, 1]
        bins = np.clip(np.ceil(x * CURVE_RESOLUTION), 1, CURVE_RESOLUTION)
        starts = np.flatnonzero(np.r_[True, bins[1:] != bins[:-1]])
        sizes = np.diff(np.r_[starts, len(y)])
        keep = np.repeat(sizes <= 3, sizes)
        keep[starts + sizes - 1] = True
        for extreme in (np.maximum, np.minimum):
            hit = np.flatnonzero(y == np.repeat(extreme.reduceat(y, starts), sizes))
            keep[hit[np.r_[True, bins[hit][1:] != bins[hit][:-1]]]] = True
        return self.points[np.r_[True, keep]]


def _aligned(truth: ContingencyTable, pred: PredictionTable):
    """Truth and prediction values on one list of cells, plus each cell's
    truth geolocation index: the truth's cells in order (the prediction is
    zero where it lacks one), then the prediction's cells the truth lacks.
    A prediction on the truth's own labels and cells is used as it is.

    Predictions must live on the truth's label universe.
    """
    if pred.labels == truth.labels and np.array_equal(pred.cell_index, truth.cell_index):
        return truth.cell_values, pred.cell_values, truth.cell_index[:, 1]
    geo = truth.labels.positions("g", pred.labels.geolocations)
    if np.any(geo < 0):
        raise ValueError("prediction has geolocations unknown to the truth table")
    if np.any(truth.labels.positions("s", pred.labels.surnames) < 0):
        raise ValueError("prediction has surnames unknown to the truth table")
    rows = truth.locate(pred)
    found = rows >= 0
    m = np.zeros_like(truth.cell_values)
    m[rows[found]] = pred.cell_values[found]
    if np.all(found):
        return truth.cell_values, m, truth.cell_index[:, 1]
    extra = pred.cell_values[~found]
    return (
        np.vstack([truth.cell_values, np.zeros_like(extra)]),
        np.vstack([m, extra]),
        np.concatenate([truth.cell_index[:, 1], geo[pred.cell_index[~found, 1]]]),
    )


def subpop_report(
    truth: ContingencyTable,
    pred: PredictionTable,
    orientation: str = ESTIMATE_MINUS_TRUTH,
) -> SubpopReport:
    """Compare geolocation-level race totals of a prediction to the truth.

    The default orientation reports estimate minus truth, so positive
    entries mean the subpopulation was overestimated. Relative errors
    divide by the true subpopulation and are NaN where it is zero.
    """
    if orientation not in (ESTIMATE_MINUS_TRUTH, TRUTH_MINUS_ESTIMATE):
        raise ValueError(f"unknown orientation {orientation!r}")
    _, m_cells, gi = _aligned(truth, pred)
    x = truth.margin("gr")
    m = sum_by_group(gi, m_cells, len(x))
    sign = 1.0 if orientation == ESTIMATE_MINUS_TRUTH else -1.0
    abs_err = sign * (m - x)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel_err = np.where(x > 0, abs_err / x, np.nan)
    return SubpopReport(
        geolocations=truth.labels.geolocations,
        truth_counts=x,
        estimate_counts=m,
        abs_error=abs_err,
        rel_error=rel_err,
        mad=np.abs(x - m).sum(axis=0),
        avg_error=sign * (m.sum(axis=0) - x.sum(axis=0)),
        orientation=orientation,
    )


def cellwise_report(
    truth: ContingencyTable,
    pred: PredictionTable,
    region_map: Optional[dict] = None,
) -> CellwiseReport:
    """Per-geolocation l1/l2 errors and negative log-likelihood.

    For geolocation g with population x_{+g+}, l1 sums |x - m| over cells
    and races, l2 sums the per-cell euclidean norms, and the negative
    log-likelihood weights log predicted conditionals by true counts; all
    three are normalized by x_{+g+}. Region aggregates use the same
    formulas normalized by the region population. Empty geolocations
    report NaN.
    """
    x, m, gi = _aligned(truth, pred)
    geos = truth.labels.geolocations
    n_g = len(geos)

    d = x - m
    l1_num = np.bincount(gi, weights=np.abs(d).sum(axis=1), minlength=n_g)
    l2_num = np.bincount(gi, weights=np.sqrt((d * d).sum(axis=1)), minlength=n_g)
    m_tot = m.sum(axis=1)
    cond = np.divide(m, np.where(m_tot > 0, m_tot, 1.0)[:, None])
    log_terms = np.where(
        x > 0, x * np.log(np.maximum(cond, NLL_PROB_FLOOR)), 0.0
    )
    nll_num = -np.bincount(gi, weights=log_terms.sum(axis=1), minlength=n_g)

    pop = truth.margin("g")
    with np.errstate(divide="ignore", invalid="ignore"):
        l1 = np.where(pop > 0, l1_num / pop, np.nan)
        l2 = np.where(pop > 0, l2_num / pop, np.nan)
        nll = np.where(pop > 0, nll_num / pop, np.nan)

    regions = None
    if region_map is not None:
        regions = {}
        names = sorted(set(region_map.values()))
        for name in names:
            idx = [i for i, g in enumerate(geos) if region_map.get(g) == name]
            rpop = pop[idx].sum()
            if rpop > 0:
                regions[name] = (
                    float(l1_num[idx].sum() / rpop),
                    float(l2_num[idx].sum() / rpop),
                    float(nll_num[idx].sum() / rpop),
                )
            else:
                regions[name] = (np.nan, np.nan, np.nan)

    total = pop.sum()
    overall = (
        (float(l1_num.sum() / total), float(l2_num.sum() / total), float(nll_num.sum() / total))
        if total > 0
        else (np.nan, np.nan, np.nan)
    )
    return CellwiseReport(
        geolocations=geos, l1=l1, l2=l2, nll=nll, regions=regions, overall=overall
    )


def _stable_order(a) -> np.ndarray:
    """`np.argsort(a, kind="stable")` for a float array without NaN.

    The default sort is the SIMD one; within each run of equal values
    (0.0 and -0.0 are equal) its order is then made ascending by a second
    sort on unique integer keys, so ties keep their original order.
    """
    order = np.argsort(a)
    ranked = a[order]
    runs = np.concatenate(([0], np.cumsum(ranked[1:] != ranked[:-1])))
    if runs[-1] == len(a) - 1:  # no ties
        return order
    return order[np.argsort(runs * len(a) + order)]


def calibration_curve(
    truth: ContingencyTable,
    pred: PredictionTable,
    race: RaceCategory,
) -> CalibrationCurve:
    """Weighted cumulative miscalibration of one race's predictions.

    Every occupied truth cell contributes its empirical frequency f, its
    predicted conditional probability p, and its weight x_{sg+}. Cells are
    sorted by ascending p (ties broken by surname then geolocation) and the
    curve accumulates w * (f - p) normalized by the total weight, starting
    from the origin. The Kuiper statistic is max minus min over the curve.
    """
    race = RaceCategory(race)
    _, m, _ = _aligned(truth, pred)
    t_sums = truth.cell_sums
    occupied = t_sums > 0
    if not np.any(occupied):
        raise ValueError("empty support: no occupied cells to calibrate")
    m = m[: truth.n_cells]
    m_tot = m.sum(axis=1)[occupied]
    bad = m_tot <= 0
    if np.any(bad):
        key = truth.labels.pairs(truth.cell_index[occupied][bad])[0]
        raise ValueError(f"missing prediction for occupied cell {key}")

    weights = t_sums[occupied]
    probs = m[occupied, race] / m_tot
    freqs = truth.cell_values[occupied, race] / weights
    # ascending by predicted probability; ties stay in the sorted cell
    # index's (surname, geolocation) order for reproducible curves
    order = _stable_order(probs)
    weights, probs, freqs = weights[order], probs[order], freqs[order]
    wtot = weights.sum()
    points = np.zeros((len(weights) + 1, 2))
    points[1:, 0] = np.cumsum(weights) / wtot
    points[1:, 1] = np.cumsum(weights * (freqs - probs)) / wtot
    values = points[:, 1]
    return CalibrationCurve(
        race=race, points=points, kuiper=float(values.max() - values.min())
    )


def kuiper(curve) -> float:
    """Max minus min of a cumulative miscalibration curve, origin included.

    Accepts a CalibrationCurve or a plain sequence of curve values.
    """
    if isinstance(curve, CalibrationCurve):
        values = curve.values()
    else:
        values = np.asarray(curve, dtype=np.float64)
    if values.size == 0:
        raise ValueError("empty curve")
    values = np.concatenate([[0.0], values])
    return float(values.max() - values.min())

