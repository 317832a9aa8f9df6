"""
predictions of race from surname and geolocation under conditional
independence, on both the count scale and the probability scale.

Factors are the three conditionals P(r|g), P(r|s), P(r) plus the axis
populations needed to recover count-scale quantities. Fitting the factors
on the same labeled table they are evaluated on makes every factor exact,
which isolates the error contributed by the independence assumption itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Mapping, Optional

import numpy as np

from .table import N_RACES, AxisLabels, ContingencyTable, MarginSet, compact_labels
from .table import _as_race_vector, _check_finite_nonnegative, probability_vector, row_sums


class MissingFactorError(LookupError):
    """A queried surname or geolocation has no fitted factor."""


@dataclass(frozen=True)
class BisgFactors:
    """The conditional-probability inputs to the independence-based predictor.

    Attributes
    ----------
    labels : AxisLabels
        The factor surnames and geolocations, in the order of the arrays.
    race_given_surname, race_given_geo : numpy array
        (n_s, 6) and (n_g, 6): row i is P(r | the i-th label), summing to 1.
    race_prior : numpy array
        P(r), a 6-vector summing to 1 within 1e-6 (`probability_vector`).
    surname_counts, geo_counts : numpy array
        Axis populations x_{s++} (n_s,) and x_{+g+} (n_g,), which recover
        count-scale margins for `bisg_counts`.

    Each array is checked (shape; finite, nonnegative, rows summing to 1
    within 1e-9) and marked read-only, without a copy when it already is
    a contiguous float64 array.
    """

    labels: AxisLabels
    race_given_surname: np.ndarray
    race_given_geo: np.ndarray
    race_prior: np.ndarray
    surname_counts: np.ndarray
    geo_counts: np.ndarray

    def __post_init__(self):
        probability_vector(self.race_prior, "race_prior")
        n_s, n_g = self.labels.n_s, self.labels.n_g
        for name, shape in (
            ("race_prior", (N_RACES,)), ("race_given_geo", (n_g, N_RACES)),
            ("race_given_surname", (n_s, N_RACES)), ("geo_counts", (n_g,)),
            ("surname_counts", (n_s,)),
        ):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            if arr.ndim == 1:
                _check_finite_nonnegative(arr, f"entry in {name}")
            else:
                # a row with a non-finite entry has a sum that is not 1
                sums = row_sums(arr)
                bad = (arr < 0).any(axis=1) | ~(np.abs(sums - 1.0) <= 1e-9)
                if np.any(bad):
                    i = int(np.argmax(bad))
                    names = self.labels.surnames if "surname" in name else self.labels.geolocations
                    _check_finite_nonnegative(arr[i], f"entries in {name}[{names[i]!r}]")
                    raise ValueError(f"{name}[{names[i]!r}] sums to {float(sums[i])!r}, expected 1")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def total(self) -> float:
        """Population total of the geolocation counts, added in order (Python 3.12's sum is not)."""
        return float(np.cumsum(np.r_[0.0, self.geo_counts])[-1])


@dataclass(frozen=True)
class VoterAdjustment:
    """Entrywise reweighting proportional to the probability of being a
    registered voter given race."""

    weight: np.ndarray

    def __post_init__(self):
        w = _as_race_vector(self.weight, name="adjustment weight")
        _check_finite_nonnegative(w, "adjustment weight")
        if not np.any(w > 0):
            raise ValueError("adjustment weights are all zero")
        object.__setattr__(self, "weight", w)


def fit_factors(labeled: ContingencyTable) -> BisgFactors:
    """Fit exact factors from a race-labeled table.

    P(r|g) and P(r|s) are the normalized geolocation and surname margins;
    P(r) is the normalized race margin. Geolocations and surnames with zero
    mass are omitted from the factors.
    """
    total = labeled.total()
    if total <= 0:
        raise ValueError("cannot fit factors on a table with zero total")
    gr, sr = labeled.margin("gr"), labeled.margin("sr")
    g_tot, s_tot = row_sums(gr), row_sums(sr)
    g_keep, s_keep = g_tot > 0, s_tot > 0
    surnames, geos = labeled.labels.surnames, labeled.labels.geolocations
    return BisgFactors(
        labels=AxisLabels(compress(surnames, s_keep), compress(geos, g_keep)),
        race_given_surname=sr[s_keep] / s_tot[s_keep, None],
        race_given_geo=gr[g_keep] / g_tot[g_keep, None],
        race_prior=labeled.margin("r") / total,
        surname_counts=s_tot[s_keep],
        geo_counts=g_tot[g_keep],
    )


def _factor_rows(factors: BisgFactors, labels: AxisLabels, index):
    """Each cell's surname and geolocation factor rows, -1 where a label
    has no factor, and a builder of the rejects list for a cell mask."""
    s_row = factors.labels.positions("s", labels.surnames)[index[:, 0]]
    g_row = factors.labels.positions("g", labels.geolocations)[index[:, 1]]

    def flagged(mask, reason):
        return [(*key, reason) for key in labels.pairs(index[mask])]

    return s_row, g_row, flagged


def _bisg_product(factors: BisgFactors, s_row, g_row) -> np.ndarray:
    """P(r|g) * P(r|s) / P(r) for each pair of factor rows, one row per
    pair; a race absent from the prior is predicted for no cell."""
    live = factors.race_prior > 0
    num = factors.race_given_geo.take(g_row, axis=0)
    num *= factors.race_given_surname.take(s_row, axis=0)
    num /= np.where(live, factors.race_prior, 1.0)
    num[:, ~live] = 0.0
    return num


def bisg_counts(factors: BisgFactors, cells) -> tuple[ContingencyTable, list]:
    """Count-scale predictions over a family of (surname, geolocation) cells.

    Each cell gets the BISG product times x_{s++} x_{+g+} / N: the
    geolocation-by-race times the surname-by-race count margin over the
    race total, zero for a race with a zero total.

    Parameters
    ----------
    factors : BisgFactors
    cells : ContingencyTable or MarginSet
        Anything with `labels` and a `cell_index`: the cells to predict.

    Returns
    -------
    (ContingencyTable, list of (surname, geolocation, reason))
        Cells whose surname or geolocation has no factor are skipped and
        listed in the rejects report.
    """
    labels, index = cells.labels, cells.cell_index
    if not len(index):
        raise ValueError("no predictable cells in support")
    s_row, g_row, flagged = _factor_rows(factors, labels, index)
    has_s, has_g = s_row >= 0, g_row >= 0
    rejects = sorted(
        flagged(~has_g, "missing geolocation factor")
        + flagged(has_g & ~has_s, "missing surname factor")
    )
    ok = has_s & has_g
    if not np.any(ok):
        raise ValueError("no predictable cells in support")
    s_row, g_row = s_row[ok], g_row[ok]
    values = _bisg_product(factors, s_row, g_row)
    values *= (factors.surname_counts[s_row] * factors.geo_counts[g_row] / factors.total())[:, None]
    return ContingencyTable(*compact_labels(labels, index[ok]), values), rejects


def _factor_row(factors: BisgFactors, axis, label) -> int:
    """Factor row of one surname (axis "s") or geolocation (axis "g")."""
    row = int(factors.labels.positions(axis, [label])[0])
    if row < 0:
        kind = "surname" if axis == "s" else "geolocation"
        raise MissingFactorError(f"label not in factors: {kind} {label!r}")
    return row


def bisg_probability(
    factors: BisgFactors,
    surname: str,
    geolocation: str,
    adjustment: Optional[VoterAdjustment] = None,
) -> np.ndarray:
    """Posterior race distribution for one (surname, geolocation) pair.

    The BISG product, normalized. With an adjustment, the unnormalized
    posterior is multiplied entrywise by the adjustment weight before
    renormalizing, which restricts the prediction to the registered-voter
    population.
    """
    g_row = _factor_row(factors, "g", geolocation)  # first: a pair missing both names it
    s_row = _factor_row(factors, "s", surname)
    num = _bisg_product(factors, [s_row], [g_row])[0]
    if adjustment is not None:
        num *= adjustment.weight
    total = num.sum()
    if total <= 0:
        raise ValueError("no admissible race for cell")
    return num / total


def voter_adjustment(cps_race_given_voter, census_race_prior_18plus) -> VoterAdjustment:
    """Entrywise ratio of the voter race distribution to the census prior.

    Both inputs must pass `probability_vector`. Races that are zero in
    both get weight 0; a voter race unsupported by the census prior is an
    error.
    """
    cps = probability_vector(cps_race_given_voter, "cps distribution")
    prior = probability_vector(census_race_prior_18plus, "census prior")
    bad = (cps > 0) & (prior == 0)
    if np.any(bad):
        idx = int(np.nonzero(bad)[0][0])
        raise ValueError(f"unsupported race in voter population (index {idx})")
    weight = np.zeros(N_RACES)
    live = prior > 0
    weight[live] = cps[live] / prior[live]
    return VoterAdjustment(weight)


def baseline_geo_only(factors: BisgFactors, geolocation: str) -> np.ndarray:
    """The geolocation-only prediction P(r | g)."""
    return factors.race_given_geo[_factor_row(factors, "g", geolocation)].copy()


def baseline_surname_only(factors: BisgFactors, surname: str) -> np.ndarray:
    """The surname-only prediction P(r | s)."""
    return factors.race_given_surname[_factor_row(factors, "s", surname)].copy()


def weighted_counts(
    factors: BisgFactors,
    cell_totals: MarginSet | Mapping[tuple[str, str], float],
    adjustment: Optional[VoterAdjustment] = None,
    method: str = "bisg",
) -> tuple[ContingencyTable, list]:
    """Weighted-estimator prediction table: cell total times p(r | s, g).

    Parameters
    ----------
    cell_totals : MarginSet, or mapping (surname, geolocation) -> weight
        Number of people at each cell, typically x_{sg+} from a voter file:
        the cell part of a MarginSet (its race part is ignored), or a
        mapping, read as `MarginSet.from_cells` reads it (labels sorted).
        The result keeps the order of the labels.
    method : {"bisg", "geo-only", "surname-only"}
        Conditional used per cell. Under "bisg", a surname missing from
        the factors falls back to the geolocation-only prediction and the
        cell is flagged in the rejects report; this keeps the estimator's
        total weight intact. Cells with a missing geolocation factor are
        skipped and flagged.

    Returns
    -------
    (ContingencyTable, list of (surname, geolocation, reason))
    """
    if method not in ("bisg", "geo-only", "surname-only"):
        raise ValueError(f"unknown method {method!r}")

    if not isinstance(cell_totals, MarginSet):
        cell_totals = MarginSet.from_cells(None, cell_totals)
    labels, index, w_arr = cell_totals.labels, cell_totals.cell_index, cell_totals.totals
    positive = w_arr > 0
    if not positive.all():
        index, w_arr = index[positive], w_arr[positive]
    if not len(index):
        raise ValueError("no predictable cells")

    # a row of -1 (no factor) reads the last factor row: masked below
    s_row, g_row, flagged = _factor_rows(factors, labels, index)
    has_s, has_g = s_row >= 0, g_row >= 0
    if method == "surname-only":
        ok, num = has_s, factors.race_given_surname[s_row]
        rejects = flagged(~ok, "missing surname factor")
    elif method == "geo-only":
        ok, num = has_g, factors.race_given_geo[g_row]
        rejects = flagged(~ok, "missing geolocation factor")
    else:
        num = _bisg_product(factors, s_row, g_row)
        fallback = has_g & ~has_s
        num[fallback] = factors.race_given_geo[g_row[fallback]]
        ok = has_g
        rejects = flagged(~has_g, "missing geolocation factor") + flagged(
            fallback, "missing surname factor; used geolocation baseline"
        )
    if adjustment is not None:
        num *= adjustment.weight
    if not np.any(ok):
        raise ValueError("no predictable cells")

    sums = row_sums(num)
    dead = ok & (sums <= 0)
    if np.any(dead):
        raise ValueError(f"no admissible race for cell {labels.pairs(index[dead])[0]}")

    rejects.sort()
    if not ok.all():
        index, w_arr, num, sums = index[ok], w_arr[ok], num[ok], sums[ok]
    num *= (w_arr / sums)[:, None]
    return ContingencyTable(*compact_labels(labels, index), num), rejects

