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
from itertools import repeat
from typing import Optional

import numpy as np

from .table import N_RACES, RACE_NAMES, ContingencyTable, RaceCategory
from .table import row_sums, sum_by_group

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


def _aligned(truth: ContingencyTable, pred: ContingencyTable):
    """Truth and prediction values on one list of cells, plus each cell's
    truth geolocation index: the truth's cells in order (the prediction is
    zero where it lacks one), then the prediction's cells the truth lacks.
    A prediction on the truth's own labels and cells is used as it is.

    Predictions must live on the truth's label universe.
    """
    # one on the truth's own label object and index memory needs no
    # comparison (a table keeps an index it is given as a view, not itself)
    shared = pred.labels is truth.labels and (
        pred.cell_index.__array_interface__ == truth.cell_index.__array_interface__
    )
    if shared or (pred.labels == truth.labels and np.array_equal(pred.cell_index, truth.cell_index)):
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


def _row_totals(m, pred: ContingencyTable) -> np.ndarray:
    """Per-row totals of `_aligned`'s prediction values: `pred.cell_sums`,
    computed once per table, when they are the prediction's own."""
    return pred.cell_sums if m is pred.cell_values else row_sums(m)


def subpop_report(
    truth: ContingencyTable,
    pred: ContingencyTable,
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
    pred: ContingencyTable,
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

    # each row's terms are added race by race from +0.0, as row_sums adds
    # columns, through one (n,) scratch per sum: no (n, 6) array is made
    n = len(x)
    scratch, l1_rows, l2_rows = np.empty(n), np.zeros(n), np.zeros(n)
    for r in range(N_RACES):
        np.abs(np.subtract(x[:, r], m[:, r], out=scratch), out=scratch)
        l1_rows += scratch
        l2_rows += np.square(scratch, out=scratch)
    l1_num = np.bincount(gi, weights=l1_rows, minlength=n_g)
    l2_num = np.bincount(gi, weights=np.sqrt(l2_rows, out=l2_rows), minlength=n_g)
    del l1_rows, l2_rows
    m_tot = _row_totals(m, pred)
    m_tot = np.where(m_tot > 0, m_tot, 1.0)
    nll_rows = np.zeros(n)
    for r in range(N_RACES):
        np.divide(m[:, r], m_tot, out=scratch)
        np.log(np.maximum(scratch, NLL_PROB_FLOOR, out=scratch), out=scratch)
        # a zero count gives a term of +-0.0, which leaves a row sum from +0.0 as it is
        nll_rows += np.multiply(x[:, r], scratch, out=scratch)
    nll_num = -np.bincount(gi, weights=nll_rows, minlength=n_g)

    pop = truth.margin("g")
    with np.errstate(divide="ignore", invalid="ignore"):
        l1 = np.where(pop > 0, l1_num / pop, np.nan)
        l2 = np.where(pop > 0, l2_num / pop, np.nan)
        nll = np.where(pop > 0, nll_num / pop, np.nan)

    regions = None
    if region_map is not None:
        regions = {}
        names = sorted(set(region_map.values()))
        # each geolocation's region id, unmapped ones last; a stable sort
        # lists each region's geolocations in ascending order
        ids = {name: i for i, name in enumerate(names)}
        region = np.fromiter(
            map(ids.get, map(region_map.get, geos), repeat(len(names))), np.int64, n_g
        )
        order = np.argsort(region, kind="stable")
        bounds = np.searchsorted(region[order], np.arange(len(names) + 1))
        for name, lo, hi in zip(names, bounds[:-1], bounds[1:]):
            idx = order[lo:hi]
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
    tied = ranked[1:] == ranked[:-1]
    del ranked
    if not tied.any():
        return order
    runs = np.zeros(len(a), dtype=np.int64)  # each entry's run, then its key, in place
    np.cumsum(~tied, out=runs[1:])
    runs *= len(a)
    runs += order
    runs = np.argsort(runs)  # the keys go before the gather
    return order[runs]


def calibration_curve(
    truth: ContingencyTable,
    pred: ContingencyTable,
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
    n = truth.n_cells
    weights, m_tot = truth.cell_sums, _row_totals(m, pred)[:n]
    probs, freqs = m[:n, race], truth.cell_values[:, race]
    occupied = weights > 0
    if not np.any(occupied):
        raise ValueError("empty support: no occupied cells to calibrate")
    if not occupied.all():  # with every truth cell occupied, nothing is masked
        weights, m_tot, probs, freqs = (v[occupied] for v in (weights, m_tot, probs, freqs))
    bad = m_tot <= 0
    if np.any(bad):
        key = truth.labels.pairs(truth.cell_index[occupied][bad])[0]
        raise ValueError(f"missing prediction for occupied cell {key}")

    probs = probs / m_tot
    gaps = weights * (freqs / weights - probs)
    # ascending by predicted probability; ties stay in the sorted cell
    # index's (surname, geolocation) order for reproducible curves
    order = _stable_order(probs)
    del probs, freqs, m_tot
    points = np.zeros((len(weights) + 1, 2))
    weights = weights[order]
    np.cumsum(weights, out=points[1:, 0])
    total = weights.sum()
    del weights
    np.cumsum(gaps[order], out=points[1:, 1])
    points[1:] /= total
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

