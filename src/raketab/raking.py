"""
exact raking of count-scale predictions to a race margin and a
(surname, geolocation) cell margin.

The fit is the table base * exp(theta_r + theta_sg) matching both margin
families: the KL-minimal margin-feasible table, to which iterative
proportional fitting converges (Darroch & Ratcliff 1972). With the cell
margin x_sg imposed it is m_sgr = x_sg b_sgr e^theta_r / sum_r' b_sgr'
e^theta_r', where the six theta_r minimize the convex dual F(theta) =
sum_sg x_sg log sum_r b_sgr e^theta_r - sum_r T_r theta_r, whose gradient
is the race-margin gap M - T; Newton's method solves it in a few steps.
The race-by-geolocation margin is deliberately not fitted: it is not
observable for the populations this targets, so the model has no term for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .table import RACE_NAMES, MarginSet, N_RACES, PredictionTable, compact_labels


class InfeasibleMarginError(ValueError):
    """No table on the base's support meets the margin targets."""


class NonConvergenceError(RuntimeError):
    """Raking missed tolerance; carries the gap, the worst race and its last gaps."""

    def __init__(self, message, margin_gap, worst_race=None, last_gaps=()):
        super().__init__(message)
        self.margin_gap = margin_gap
        self.worst_race = worst_race
        self.last_gaps = list(last_gaps)


@dataclass(frozen=True)
class RakingConfig:
    tolerance: float = 1e-10
    max_iterations: int = 100

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class RakingResult:
    """Converged prediction table with the fitted log-scale parameters.

    table = base * exp(theta_r + theta_sg) cellwise on the surviving
    support; theta_sg is aligned with `table.cell_index`. theta_r sums to
    0 over the races with a positive target; a race zeroed by a zero
    target carries -inf. `iterations` counts Newton steps, and
    `gap_history` holds the race-margin gap at the start and after each.
    `feasibility_slack` is the least, over nonempty proper sets R of the
    races with a positive target, of (cell targets of the cells whose base
    supports R) - (targets of R), relative to the race-target total, and
    `tightest_races` is that R; with under two such races both are empty.
    """

    table: PredictionTable
    theta_r: np.ndarray
    theta_sg: np.ndarray
    iterations: int
    final_margin_gap: float
    gap_history: tuple
    feasibility_slack: float | None
    tightest_races: tuple


def margin_gap(m: PredictionTable, targets: MarginSet) -> float:
    """Worst deviation |achieved - target| / max(target, 1) over all targets."""
    gap = 0.0
    if targets.race is not None:
        achieved = m.margin("r")
        dev = np.abs(achieved - targets.race) / np.maximum(targets.race, 1.0)
        gap = float(dev.max())
    if len(targets.totals):
        t = targets.totals
        achieved = np.append(m.cell_sums, 0.0)[m.locate(targets)]  # row -1 reads the appended 0
        gap = max(gap, float((np.abs(achieved - t) / np.maximum(t, 1.0)).max()))
    return gap


def rake(
    base: PredictionTable,
    targets: MarginSet,
    config: RakingConfig = RakingConfig(),
) -> RakingResult:
    """Fit a base prediction table to race and cell margin targets.

    Parameters
    ----------
    base : PredictionTable
        Nonnegative starting table. Cells absent from the targets, or with
        a zero target, are zeroed; zero base cells stay exactly zero.
    targets : MarginSet
        Race 6-vector and per-(surname, geolocation) totals. The targets of
        every set of races must be backed by cell targets that support them.
    config : RakingConfig
        Convergence tolerance on the margin gap and the Newton step cap.

    Raises
    ------
    InfeasibleMarginError
        If no table on the base's support meets the targets.
    NonConvergenceError
        If the margin gap is above tolerance after the step cap, or when no
        step makes progress; carries the gap, the worst race and its last gaps.
    """
    if targets.race is None:
        raise ValueError("raking requires a race margin target")

    values = base.cell_values.copy()
    rows = base.locate(targets)
    found = rows >= 0

    # cells without a positive target are zeroed: the limit of scaling by 0
    x = np.zeros(base.n_cells)
    x[rows[found]] = targets.totals[found]
    values[x == 0] = 0.0
    t = targets.race.copy()
    values[:, t == 0] = 0.0

    # feasibility: positive targets need positive base mass under them
    mass = np.zeros(len(rows))
    mass[found] = values[rows[found]].sum(axis=1)
    infeasible = np.nonzero((targets.totals > 0) & (mass <= 0))[0]
    if len(infeasible):
        i = infeasible[0]
        key = targets.labels.pairs(targets.cell_index[i : i + 1])[0]
        what = "base mass there is zero" if found[i] else "base has no such cell"
        raise InfeasibleMarginError(f"cell target {key} is positive but {what}")
    race_mass = values.sum(axis=0)
    infeasible = np.nonzero((t > 0) & (race_mass <= 0))[0]
    if len(infeasible):
        raise InfeasibleMarginError(
            f"race target {infeasible[0]} is positive but base has no mass in that race"
        )
    # and Gale's supply-demand condition: the targets of every set R of
    # races sum to at most the cell targets of the cells supporting R
    bits = 1 << np.arange(N_RACES)
    subsets = np.arange(1 << N_RACES)
    supply = np.bincount((values > 0) @ bits, weights=x, minlength=len(subsets))
    demand = ((subsets[:, None] & bits) > 0) @ t
    shortfall = demand - ((subsets[:, None] & subsets) > 0) @ supply

    def races(subset):
        return [n for n, b in zip(RACE_NAMES, bits) if subset & b]

    worst = int(np.argmax(shortfall))  # the first holds no race with a zero target
    live = int(bits @ (t > 0))
    if shortfall[worst] > 1e-9 * t.sum():
        raise InfeasibleMarginError(
            f"race targets of {races(worst)} sum to "
            f"{demand[worst]:.6g} but the cells whose base supports them hold "
            f"{demand[worst] - shortfall[worst]:.6g} (shortfall {shortfall[worst]:.6g}); "
            f"the other cells support only {races(live & ~worst)}"
        )
    # the nonempty proper subsets of the live races; the full set has no slack
    proper = np.nonzero(((subsets & ~live) == 0) & (subsets > 0) & (subsets < live))[0]
    tightest = int(proper[np.argmax(shortfall[proper])]) if len(proper) else 0

    live_r, live_c = t > 0, x > 0
    scale = np.maximum(t, 1.0)
    work = np.empty_like(values)

    def evaluate(theta):
        """Fill work with b e^theta; return cell sums, x / sums, F and M."""
        with np.errstate(all="ignore"):  # an overflowing trial step ends with F not finite
            np.multiply(values, np.exp(theta), out=work)
            sums = work.sum(axis=1)
            ratio = np.divide(x, sums, out=np.zeros_like(sums), where=live_c)
            logs = np.log(sums, out=np.zeros_like(sums), where=live_c)
            return sums, ratio, x @ logs - t @ theta, work.T @ ratio

    theta = np.zeros(N_RACES)
    sums, ratio, objective, achieved = evaluate(theta)
    devs = [np.abs(achieved - t) / scale]
    steps = 0
    while devs[-1].max() > config.tolerance and steps < config.max_iterations:
        # the Hessian diag(M) - sum_sg x_sg p_sg p_sg^T is the Laplacian of
        # the off-diagonal part of C = sum_sg (x_sg / sums_sg^2) w_sg w_sg^T;
        # so built, its rows sum to 0 and lstsq drops the gauge direction
        work *= np.sqrt(np.divide(ratio, sums, out=np.zeros_like(sums), where=live_c))[:, None]
        c = (work.T @ work)[np.ix_(live_r, live_r)]
        np.fill_diagonal(c, 0.0)
        grad = achieved - t
        step = np.zeros(N_RACES)
        step[live_r] = np.linalg.lstsq(np.diag(c.sum(axis=1)) - c, -grad[live_r], rcond=1e-12)[0]
        for halving in range(40):
            alpha = 0.5**halving
            trial = evaluate(theta + alpha * step)
            dev = np.abs(trial[3] - t) / scale
            # Armijo, or a halved gap where F's decrease falls below rounding
            if np.isfinite(trial[2]) and (
                trial[2] <= objective + 1e-4 * alpha * (grad @ step)
                or dev.max() <= devs[-1].max() / 2
            ):
                break
        else:  # no progress along the step: restore work for theta and stop
            evaluate(theta)
            break
        theta = theta + alpha * step
        sums, ratio, objective, achieved = trial
        devs.append(dev)
        steps += 1

    np.multiply(work, ratio[:, None], out=work)
    del values
    cell_dev = np.abs(work.sum(axis=1) - x) / np.maximum(x, 1.0)
    gap = float(np.max(cell_dev, initial=devs[-1].max()))
    if gap > config.tolerance:
        worst = int(np.argmax(devs[-1]))
        last = [float(d[worst]) for d in devs[-5:]]
        raise NonConvergenceError(
            f"margin gap {gap:.3e} after {steps} of at most {config.max_iterations} Newton "
            f"steps (tolerance {config.tolerance:.1e}); worst race {RACE_NAMES[worst]}, "
            f"its last gaps {', '.join(f'{g:.3e}' for g in last)}",
            margin_gap=gap, worst_race=RACE_NAMES[worst], last_gaps=last,
        )

    return RakingResult(
        table=PredictionTable(
            *compact_labels(base.labels, base.cell_index[live_c]),
            work if live_c.all() else work[live_c],
        ),
        # races zeroed away (positive base mass, zero target) get theta = -inf
        theta_r=np.where(live_r | (race_mass == 0), theta, -np.inf),
        theta_sg=np.log(ratio[live_c]),
        iterations=steps,
        final_margin_gap=gap,
        gap_history=tuple(float(d.max()) for d in devs),
        feasibility_slack=float(-shortfall[tightest] / t.sum()) if tightest else None,
        tightest_races=tuple(races(tightest)),
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
        key = m.labels.pairs(m.cell_index[bad][:1])[0]
        raise ValueError(f"absolute continuity violated at cell {key}")
    x = m.cell_values[occupied]
    return float(np.sum(x * np.log(x / b[occupied]))) - m_total + base_total
