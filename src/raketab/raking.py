"""
iterative proportional fitting of count-scale predictions to a race margin
and a (surname, geolocation) cell margin.

Each sweep rescales every race slice to its target total and then every
(s, g) cell to its target total, repeating until the worst margin deviation
falls below tolerance. The fixed point is the unique table of the form
base * exp(theta_r + theta_sg) matching both margin families, and it
minimizes generalized KL divergence to the base among all margin-feasible
tables. The race-by-geolocation margin is deliberately not fitted: it is
not observable for the populations this targets, so the model carries no
term for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .table import MarginSet, N_RACES, PredictionTable, compact_labels


class InfeasibleMarginError(ValueError):
    """A positive margin target has no base mass to scale."""


class NonConvergenceError(RuntimeError):
    """Raking failed to reach tolerance within the iteration cap."""

    def __init__(self, message, margin_gap):
        super().__init__(message)
        self.margin_gap = margin_gap


@dataclass(frozen=True)
class RakingConfig:
    tolerance: float = 1e-10
    max_iterations: int = 10_000

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class RakingResult:
    """Converged prediction table with the fitted log-scale parameters.

    theta_r and theta_sg are the accumulated per-race and per-cell log
    scale factors, so table = base * exp(theta_r + theta_sg) cellwise on
    the surviving support; theta_sg is aligned with `table.cell_index`.
    Races zeroed by a zero target carry -inf.
    """

    table: PredictionTable
    theta_r: np.ndarray
    theta_sg: np.ndarray
    iterations: int
    final_margin_gap: float


def margin_gap(m: PredictionTable, targets: MarginSet) -> float:
    """Worst deviation |achieved - target| / max(target, 1) over all targets."""
    gap = 0.0
    if targets.race is not None:
        achieved = m.margin("r")
        dev = np.abs(achieved - targets.race) / np.maximum(targets.race, 1.0)
        gap = float(dev.max())
    if targets.cell:
        rows = m.locate(targets.cell)
        t = np.fromiter(targets.cell.values(), dtype=np.float64, count=len(rows))
        achieved = np.append(m.cell_sums, 0.0)[rows]  # row -1 reads the appended 0
        gap = max(gap, float((np.abs(achieved - t) / np.maximum(t, 1.0)).max()))
    return gap


def rake(
    base: PredictionTable,
    targets: MarginSet,
    config: RakingConfig = RakingConfig(),
    order: str = "race-first",
) -> RakingResult:
    """Fit a base prediction table to race and cell margin targets.

    Parameters
    ----------
    base : PredictionTable
        Nonnegative starting table. Cells absent from the targets, or with
        a zero target, are zeroed before iteration; zero base cells stay
        exactly zero throughout.
    targets : MarginSet
        Race 6-vector and per-(surname, geolocation) totals. Every positive
        target must be backed by positive base mass.
    config : RakingConfig
        Convergence tolerance on the margin gap and the sweep cap.
    order : {"race-first", "cell-first"}
        Which margin family is rescaled first within a sweep. The fixed
        point does not depend on this.

    Raises
    ------
    InfeasibleMarginError
        If a positive target has no base mass under it.
    NonConvergenceError
        If the margin gap is still above tolerance after the sweep cap;
        carries the final gap.
    """
    if order not in ("race-first", "cell-first"):
        raise ValueError(f"unknown sweep order {order!r}")
    if targets.race is None:
        raise ValueError("raking requires a race margin target")

    values = base.cell_values.copy()
    keys = list(targets.cell)
    wanted = np.fromiter(targets.cell.values(), dtype=np.float64, count=len(keys))
    rows = base.locate(keys)
    found = rows >= 0

    # cells without a positive target are zeroed: the limit of scaling by 0
    cell_targets = np.zeros(base.n_cells)
    cell_targets[rows[found]] = wanted[found]
    values[cell_targets == 0] = 0.0
    race_targets = targets.race.copy()
    values[:, race_targets == 0] = 0.0

    # feasibility: positive targets need positive base mass under them
    mass = np.zeros(len(keys))
    mass[found] = values[rows[found]].sum(axis=1)
    infeasible = np.nonzero((wanted > 0) & (mass <= 0))[0]
    if len(infeasible):
        i = infeasible[0]
        what = "base mass there is zero" if found[i] else "base has no such cell"
        raise InfeasibleMarginError(f"cell target {keys[i]} is positive but {what}")
    race_mass = values.sum(axis=0)
    infeasible = np.nonzero((race_targets > 0) & (race_mass <= 0))[0]
    if len(infeasible):
        raise InfeasibleMarginError(
            f"race target {infeasible[0]} is positive but base has no mass in that race"
        )

    log_r = np.zeros(N_RACES)
    log_sg = np.zeros(base.n_cells)
    live_r = race_targets > 0
    live_c = cell_targets > 0

    def sweep_race():
        cur = values.sum(axis=0)
        f = np.ones(N_RACES)
        f[live_r] = race_targets[live_r] / cur[live_r]
        values[:] = values * f
        log_r[live_r] += np.log(f[live_r])

    def sweep_cell():
        cur = values.sum(axis=1)
        f = np.ones(base.n_cells)
        f[live_c] = cell_targets[live_c] / cur[live_c]
        values[:] = values * f[:, None]
        log_sg[live_c] += np.log(f[live_c])

    sweeps = (sweep_race, sweep_cell) if order == "race-first" else (sweep_cell, sweep_race)

    gap = np.inf
    iterations = 0
    for iterations in range(1, config.max_iterations + 1):
        for do_sweep in sweeps:
            do_sweep()
        # gap over both families, relative to max(target, 1)
        race_dev = np.abs(values.sum(axis=0) - race_targets) / np.maximum(race_targets, 1.0)
        cell_dev = np.abs(values.sum(axis=1) - cell_targets) / np.maximum(cell_targets, 1.0)
        gap = float(max(race_dev.max(), cell_dev.max() if len(cell_dev) else 0.0))
        if gap <= config.tolerance:
            break
    else:
        raise NonConvergenceError(
            f"margin gap {gap:.3e} after {config.max_iterations} sweeps "
            f"(tolerance {config.tolerance:.1e})",
            margin_gap=gap,
        )

    keep = values.sum(axis=1) > 0
    table = PredictionTable(*compact_labels(base.labels, base.cell_index[keep]), values[keep])
    # races zeroed away (positive base mass, zero target) get theta = -inf
    theta_r = np.where(live_r | (race_mass == 0), log_r, -np.inf)
    return RakingResult(
        table=table,
        theta_r=theta_r,
        theta_sg=log_sg[keep],
        iterations=iterations,
        final_margin_gap=gap,
    )


def kl_divergence(m: PredictionTable, base: PredictionTable) -> float:
    """Generalized KL divergence of one unnormalized table from another.

    sum of m*log(m/base) - sum(m) + sum(base), with 0*log(0) = 0. Always
    nonnegative; zero iff the tables coincide. Requires support(m) to be
    contained in support(base).
    """
    m_total = m.total()
    base_total = base.total()
    if m_total <= 0 or base_total <= 0:
        raise ValueError("both tables need positive totals")
    rows = base.locate(m)
    occupied = m.cell_values > 0
    b = np.where(rows[:, None] >= 0, base.cell_values[rows], 0.0)
    bad = np.any(occupied & (b <= 0), axis=1)
    if np.any(bad):
        key = m.support()[int(np.nonzero(bad)[0][0])]
        raise ValueError(f"absolute continuity violated at cell {key}")
    x = m.cell_values[occupied]
    return float(np.sum(x * np.log(x / b[occupied]))) - m_total + base_total
