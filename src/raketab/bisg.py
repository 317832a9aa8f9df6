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
from typing import Mapping, Optional

import numpy as np

from .table import N_RACES, ContingencyTable, MarginSet, PredictionTable, compact_labels
from .table import _as_race_vector, _check_cells, _check_finite_nonnegative, index_cells


class MissingFactorError(LookupError):
    """A queried surname or geolocation has no fitted factor."""


def _validate_conditionals(name, table):
    mat = np.array(list(table.values()), dtype=np.float64).reshape(len(table), N_RACES)
    sums = mat.sum(axis=1)
    bad = ~np.isfinite(mat).all(axis=1) | (mat < 0).any(axis=1) | ~(np.abs(sums - 1.0) <= 1e-9)
    if np.any(bad):
        i = int(np.argmax(bad))
        label = list(table)[i]
        _check_finite_nonnegative(mat[i], f"entries in {name}[{label!r}]")
        raise ValueError(f"{name}[{label!r}] sums to {sums[i]!r}, expected 1")


@dataclass(frozen=True)
class BisgFactors:
    """The conditional-probability inputs to the independence-based predictor.

    Attributes
    ----------
    race_given_geo : dict
        geolocation -> P(r | g), a 6-vector summing to 1.
    race_given_surname : dict
        surname -> P(r | s), a 6-vector summing to 1.
    race_prior : numpy array
        P(r), a 6-vector summing to 1.
    geo_counts, surname_counts : dict, optional
        Axis populations x_{+g+} and x_{s++}; required to recover
        count-scale margins for `bisg_counts`.
    """

    race_given_geo: Mapping[str, np.ndarray]
    race_given_surname: Mapping[str, np.ndarray]
    race_prior: np.ndarray
    geo_counts: Optional[Mapping[str, float]] = None
    surname_counts: Optional[Mapping[str, float]] = None

    def __post_init__(self):
        prior = _as_race_vector(self.race_prior, name="race_prior")
        _check_finite_nonnegative(prior, "race_prior entry")
        if abs(prior.sum() - 1.0) > 1e-9:
            raise ValueError(f"race_prior sums to {prior.sum()!r}, expected 1")
        object.__setattr__(self, "race_prior", prior)
        _validate_conditionals("race_given_geo", self.race_given_geo)
        _validate_conditionals("race_given_surname", self.race_given_surname)
        for name, counts in (("geo_counts", self.geo_counts), ("surname_counts", self.surname_counts)):
            _check_finite_nonnegative(list((counts or {}).values()), f"entry in {name}")

    def total(self) -> float:
        """Population total recovered from the geolocation counts."""
        if self.geo_counts is None:
            raise ValueError("factors carry no geolocation counts")
        return float(sum(self.geo_counts.values()))


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
    mass are omitted from the factor maps.
    """
    total = labeled.total()
    if total <= 0:
        raise ValueError("cannot fit factors on a table with zero total")
    gr, sr = labeled.margin("gr"), labeled.margin("sr")
    g_tot, s_tot = gr.sum(axis=1), sr.sum(axis=1)
    geos = [(g, i) for i, g in enumerate(labeled.labels.geolocations) if g_tot[i] > 0]
    surs = [(s, i) for i, s in enumerate(labeled.labels.surnames) if s_tot[i] > 0]
    return BisgFactors(
        race_given_geo={g: gr[i] / g_tot[i] for g, i in geos},
        race_given_surname={s: sr[i] / s_tot[i] for s, i in surs},
        race_prior=labeled.margin("r") / total,
        geo_counts={g: float(g_tot[i]) for g, i in geos},
        surname_counts={s: float(s_tot[i]) for s, i in surs},
    )


def bisg_counts(factors: BisgFactors, support) -> tuple[PredictionTable, list]:
    """Count-scale predictions over a set of (surname, geolocation) cells.

    Each cell gets the product of the geolocation-by-race and
    surname-by-race count margins divided by the race totals. Races with a
    zero count total get a zero prediction.

    Parameters
    ----------
    factors : BisgFactors
        Must include `geo_counts` and `surname_counts`.
    support : iterable of (surname, geolocation)
        Cells to predict.

    Returns
    -------
    (PredictionTable, list of (surname, geolocation, reason))
        Cells whose surname or geolocation has no factor are skipped and
        listed in the rejects report.
    """
    if factors.geo_counts is None or factors.surname_counts is None:
        raise ValueError("bisg_counts requires geolocation and surname counts")
    race_totals = factors.race_prior * factors.total()
    live = race_totals > 0
    inv_totals = np.zeros(N_RACES)
    inv_totals[live] = 1.0 / race_totals[live]

    pairs = set(support)
    if not pairs:
        raise ValueError("no predictable cells in support")
    labels, index, _ = index_cells([s for s, _ in pairs], [g for _, g in pairs])
    has_s = np.array([s in factors.race_given_surname for s in labels.surnames])[index[:, 0]]
    has_g = np.array([g in factors.race_given_geo for g in labels.geolocations])[index[:, 1]]
    rejects = sorted(
        [(*key, "missing geolocation factor") for key in labels.pairs(index[~has_g])]
        + [(*key, "missing surname factor") for key in labels.pairs(index[has_g & ~has_s])]
    )
    if not np.any(has_s & has_g):
        raise ValueError("no predictable cells in support")

    labels, index = compact_labels(labels, index[has_s & has_g])
    x_sr = np.array(
        [factors.race_given_surname[s] * factors.surname_counts[s] for s in labels.surnames]
    )
    x_gr = np.array([factors.race_given_geo[g] * factors.geo_counts[g] for g in labels.geolocations])
    values = x_gr[index[:, 1]] * x_sr[index[:, 0]] * inv_totals
    return PredictionTable(labels, index, values), rejects


def posterior(race_given_geo, race_given_surname, race_prior, weight=None) -> np.ndarray:
    """Normalized product P(r|g) * P(r|s) / P(r), optionally reweighted.

    Races with a zero prior are excluded rather than producing 0/0. The
    output is invariant to positive rescaling of any input, since the
    normalization absorbs scale.
    """
    rg = np.asarray(race_given_geo, dtype=np.float64)
    rs = np.asarray(race_given_surname, dtype=np.float64)
    prior = np.asarray(race_prior, dtype=np.float64)
    num = np.zeros(N_RACES)
    live = prior > 0
    num[live] = rg[live] * rs[live] / prior[live]
    if weight is not None:
        num = num * np.asarray(weight, dtype=np.float64)
    s = num.sum()
    if s <= 0:
        raise ValueError("no admissible race for cell")
    return num / s


def bisg_probability(
    factors: BisgFactors,
    surname: str,
    geolocation: str,
    adjustment: Optional[VoterAdjustment] = None,
) -> np.ndarray:
    """Posterior race distribution for one (surname, geolocation) pair.

    With an adjustment, the unnormalized posterior is multiplied entrywise
    by the adjustment weight before renormalizing, which restricts the
    prediction to the registered-voter population.
    """
    rg = factors.race_given_geo.get(geolocation)
    rs = factors.race_given_surname.get(surname)
    if rg is None:
        raise MissingFactorError(f"label not in factors: geolocation {geolocation!r}")
    if rs is None:
        raise MissingFactorError(f"label not in factors: surname {surname!r}")
    weight = adjustment.weight if adjustment is not None else None
    return posterior(rg, rs, factors.race_prior, weight=weight)


def voter_adjustment(cps_race_given_voter, census_race_prior_18plus) -> VoterAdjustment:
    """Entrywise ratio of the voter race distribution to the census prior.

    Both inputs must be probability vectors (sum 1 within 1e-6). Races that
    are zero in both get weight 0; a voter race unsupported by the census
    prior is an error.
    """
    cps = _as_race_vector(cps_race_given_voter, name="cps_race_given_voter")
    prior = _as_race_vector(census_race_prior_18plus, name="census_race_prior_18plus")
    for name, v in (("cps distribution", cps), ("census prior", prior)):
        if np.any(v < 0):
            raise ValueError(f"{name} has negative entries")
        if not abs(v.sum() - 1.0) <= 1e-6:
            raise ValueError(f"{name} sums to {v.sum()!r}, expected 1")
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
    rg = factors.race_given_geo.get(geolocation)
    if rg is None:
        raise MissingFactorError(f"label not in factors: geolocation {geolocation!r}")
    return rg.copy()


def baseline_surname_only(factors: BisgFactors, surname: str) -> np.ndarray:
    """The surname-only prediction P(r | s)."""
    rs = factors.race_given_surname.get(surname)
    if rs is None:
        raise MissingFactorError(f"label not in factors: surname {surname!r}")
    return rs.copy()


def weighted_counts(
    factors: BisgFactors,
    cell_totals: MarginSet | Mapping[tuple[str, str], float],
    adjustment: Optional[VoterAdjustment] = None,
    method: str = "bisg",
) -> tuple[PredictionTable, list]:
    """Weighted-estimator prediction table: cell total times p(r | s, g).

    Parameters
    ----------
    cell_totals : MarginSet, or mapping (surname, geolocation) -> weight
        Number of people at each cell, typically x_{sg+} from a voter file:
        the cell part of a MarginSet (its race part is ignored), or a
        mapping, whose labels are resolved once here and sorted. The result
        keeps the order of the labels.
    method : {"bisg", "geo-only", "surname-only"}
        Conditional used per cell. Under "bisg", a surname missing from
        the factors falls back to the geolocation-only prediction and the
        cell is flagged in the rejects report; this keeps the estimator's
        total weight intact. Cells with a missing geolocation factor are
        skipped and flagged.

    Returns
    -------
    (PredictionTable, list of (surname, geolocation, reason))
    """
    if method not in ("bisg", "geo-only", "surname-only"):
        raise ValueError(f"unknown method {method!r}")

    if isinstance(cell_totals, MarginSet):
        labels, index, w_arr = cell_totals.labels, cell_totals.cell_index, cell_totals.totals
    elif not cell_totals:
        raise ValueError("no predictable cells")
    else:
        keys = list(cell_totals)
        labels, index, rows = index_cells([s for s, _ in keys], [g for _, g in keys])
        w_arr = np.zeros(len(index))
        w_arr[rows] = np.fromiter(cell_totals.values(), dtype=np.float64, count=len(keys))
        _check_cells(labels, index, w_arr, "cell total at")
    index, w_arr = index[w_arr > 0], w_arr[w_arr > 0]
    if not len(index):
        raise ValueError("no predictable cells")

    rs, rs_ok = _factor_matrix(factors.race_given_surname, labels.surnames)
    rg, rg_ok = _factor_matrix(factors.race_given_geo, labels.geolocations)
    s_code, g_code = index[:, 0], index[:, 1]

    def flagged(mask, reason):
        return [(*key, reason) for key in labels.pairs(index[mask])]

    if method == "surname-only":
        ok = rs_ok[s_code]
        num = rs[s_code]
        rejects = flagged(~ok, "missing surname factor")
    elif method == "geo-only":
        ok = rg_ok[g_code]
        num = rg[g_code]
        rejects = flagged(~ok, "missing geolocation factor")
    else:
        has_g = rg_ok[g_code]
        has_s = rs_ok[s_code]
        prior = factors.race_prior
        live = prior > 0
        num = np.zeros((len(index), N_RACES))
        num[:, live] = rg[g_code][:, live] * rs[s_code][:, live] / prior[live]
        fallback = has_g & ~has_s
        num[fallback] = rg[g_code[fallback]]
        ok = has_g
        rejects = flagged(~has_g, "missing geolocation factor") + flagged(
            fallback, "missing surname factor; used geolocation baseline"
        )
    if adjustment is not None:
        num *= adjustment.weight
    if not np.any(ok):
        raise ValueError("no predictable cells")

    sums = num.sum(axis=1)
    dead = ok & (sums <= 0)
    if np.any(dead):
        raise ValueError(f"no admissible race for cell {labels.pairs(index[dead])[0]}")

    rejects.sort()
    values = (w_arr[ok] / sums[ok])[:, None] * num[ok]
    return PredictionTable(*compact_labels(labels, index[ok]), values), rejects


def _factor_matrix(factor_map, labels):
    """Stack per-label factor vectors; the mask flags labels with a factor."""
    ok = np.array([label in factor_map for label in labels], dtype=bool)
    zero = np.zeros(N_RACES)
    return np.array([factor_map.get(label, zero) for label in labels]).reshape(-1, N_RACES), ok
