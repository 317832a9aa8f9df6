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

from .table import RACE_NAMES, ContingencyTable, MarginSet, N_RACES, compact_labels, row_sums


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

    table: ContingencyTable
    theta_r: np.ndarray
    theta_sg: np.ndarray
    iterations: int
    final_margin_gap: float
    gap_history: tuple
    feasibility_slack: float | None
    tightest_races: tuple


def margin_gap(m: ContingencyTable, targets: MarginSet) -> float:
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
    base: ContingencyTable,
    targets: MarginSet,
    config: RakingConfig = RakingConfig(),
) -> RakingResult:
    """Fit a base prediction table to race and cell margin targets.

    Parameters
    ----------
    base : ContingencyTable
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
        If no table on the base's support meets the targets, or no cell
        target is positive.
    NonConvergenceError
        If the margin gap is above tolerance after the step cap, or when no
        step makes progress; carries the gap, the worst race and its last gaps.
    """
    # race-major, so every pass over cells is contiguous (.copy(): C-ordered and
    # writable for one cell too)
    return rake_in_place(base.cell_values.T.copy(), base, targets, config)


def rake_in_place(values, cells, targets: MarginSet, config: RakingConfig) -> RakingResult:
    """`rake` on race-major values, which it owns and overwrites.

    `values` is a C-ordered (6, n) float64 array: column c holds the
    finite, nonnegative race counts of row c of `cells.cell_index`, on
    `cells.labels`. `cells` is the table they come from, or `targets`
    itself when they are on the target cells, in order. The caller lets go
    of `values`: the Newton loop works in them, and on return their memory
    holds the raked table's (n, 6) cell-major values. So a caller that
    builds its values race-major holds one copy of them while raking.
    Raises as `rake` does.
    """
    if targets.race is None:
        raise ValueError("raking requires a race margin target")

    # each target cell's column, -1 where the cells lack it, and each
    # column's cell target, 0 where it has none
    n_cells = values.shape[1]
    if cells is targets:
        rows, x = np.arange(n_cells), targets.totals
    else:
        rows, x = cells.locate(targets), np.zeros(n_cells)
        x[rows[rows >= 0]] = targets.totals[rows >= 0]
    found = rows >= 0

    # cells without a positive target are zeroed: the limit of scaling by 0
    values[:, x == 0] = 0.0
    t = targets.race.copy()
    zeroed = np.array([t[r] == 0 and values[r].any() for r in range(N_RACES)])  # theta -inf
    values[t == 0] = 0.0

    # each cell's support: bit r is set where the base has mass in race r
    bits = 1 << np.arange(N_RACES)
    code = np.zeros(n_cells, dtype=np.uint8)
    for r in range(N_RACES):
        code |= (values[r] > 0).view(np.uint8) << r

    # feasibility: positive targets need positive base mass under them
    held = np.append(code, 0)[rows] > 0  # row -1 reads the appended 0
    infeasible = np.nonzero((targets.totals > 0) & ~held)[0]
    if len(infeasible):
        i = infeasible[0]
        key = targets.labels.pairs(targets.cell_index[i : i + 1])[0]
        what = "base mass there is zero" if found[i] else "base has no such cell"
        raise InfeasibleMarginError(f"cell target {key} is positive but {what}")
    live_c = x > 0
    if not live_c.any():
        raise InfeasibleMarginError("no cell target is positive: the raked table would be empty")
    has_mass = (np.bitwise_or.reduce(code) & bits) > 0
    infeasible = np.nonzero((t > 0) & ~has_mass)[0]
    if len(infeasible):
        raise InfeasibleMarginError(
            f"race target {infeasible[0]} is positive but base has no mass in that race"
        )
    # and Gale's supply-demand condition: the targets of every set R of
    # races sum to at most the cell targets of the cells supporting R
    subsets = np.arange(1 << N_RACES)
    supply = np.bincount(code, weights=x, minlength=len(subsets))
    del code, held, rows, found  # freed before the Newton loop, which sets the peak
    demand = np.where(subsets[:, None] & bits, t, 0.0).sum(axis=1)
    shortfall = demand - np.where(subsets[:, None] & subsets, supply, 0.0).sum(axis=1)

    def races(subset):
        return [n for n, b in zip(RACE_NAMES, bits) if subset & b]

    worst = int(np.argmax(shortfall))  # the first holds no race with a zero target
    live = int(bits[t > 0].sum())
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

    scale = np.maximum(t, 1.0)
    work = np.empty((N_RACES, n_cells))  # b e^theta; the result ends up in values' buffer

    # no BLAS: every sum over cells is a numpy sum of a contiguous product, in fixed order
    # two (n,) vectors at a time: the cell sums, which end as scratch, and
    # log sums, which end as x / sums
    def evaluate(theta):
        """Fill work with b e^theta; return x / cell sums, F and M."""
        with np.errstate(all="ignore"):  # an overflowing trial step ends with F not finite
            e = np.exp(theta.astype(np.longdouble)).astype(np.float64)  # not numpy's SIMD exp
            np.multiply(values, e[:, None], out=work)
            sums = row_sums(work.T)
            ratio = np.log(sums, out=np.zeros_like(sums), where=live_c)
            objective = np.multiply(ratio, x, out=ratio).sum() - (t * theta).sum()
            np.divide(x, sums, out=ratio, where=live_c)  # 0 stays where x is
            achieved = np.array([np.multiply(w, ratio, out=sums).sum() for w in work])
            return ratio, objective, achieved

    theta = np.zeros(N_RACES)
    ratio, objective, achieved = evaluate(theta)
    devs = [np.abs(achieved - t) / scale]
    steps = 0
    while devs[-1].max() > config.tolerance and steps < config.max_iterations:
        # the Hessian diag(M) - sum_sg x_sg p_sg p_sg^T is the Laplacian of
        # the off-diagonal part of C = sum_sg (x_sg / sums_sg^2) w_sg w_sg^T;
        # work holds b e^theta, so its cell sums are theta's again, and they
        # are 0 where x is
        scratch = row_sums(work.T)
        np.divide(ratio, scratch, out=scratch, where=live_c)
        del ratio  # each trial makes its own; a failed search evaluates theta again
        work *= np.sqrt(scratch, out=scratch)
        # (a race with a zero target has no edge and a zero gradient: no step)
        c = np.zeros((N_RACES, N_RACES))
        for a, b in zip(*np.triu_indices(N_RACES, 1)):
            c[a, b] = c[b, a] = np.multiply(work[a], work[b], out=scratch).sum()
        del scratch
        grad = achieved - t
        step = _laplacian_solve(c, -grad)
        for halving in range(40):
            alpha = 0.5**halving
            trial = evaluate(theta + alpha * step)
            dev = np.abs(trial[2] - t) / scale
            # Armijo, or a halved gap where F's decrease falls below rounding
            if np.isfinite(trial[1]) and (
                trial[1] <= objective + 1e-4 * alpha * (grad * step).sum()
                or dev.max() <= devs[-1].max() / 2
            ):
                break
            del trial  # let go before the next trial is made
        else:  # no progress along the step: restore work and the rest for theta and stop
            ratio, objective, achieved = evaluate(theta)
            break
        theta = theta + alpha * step
        ratio, objective, achieved = trial
        del trial  # held by the names above alone, so the next step can let go of them
        devs.append(dev)
        steps += 1

    work *= ratio
    got = row_sums(work.T)
    np.abs(np.subtract(got, x, out=got), out=got)  # |got - x| / max(x, 1), in place
    gap = float(np.max(np.divide(got, x, out=got, where=x > 1.0), initial=devs[-1].max()))
    del got
    if gap > config.tolerance:
        worst = int(np.argmax(devs[-1]))
        last = [float(d[worst]) for d in devs[-5:]]
        raise NonConvergenceError(
            f"margin gap {gap:.3e} after {steps} of at most {config.max_iterations} Newton "
            f"steps (tolerance {config.tolerance:.1e}); worst race {RACE_NAMES[worst]}, "
            f"its last gaps {', '.join(f'{g:.3e}' for g in last)}",
            margin_gap=gap, worst_race=RACE_NAMES[worst], last_gaps=last,
        )

    # back to cell-major (n, 6) once, into values' buffer, which is done with
    raked = values.reshape(-1, N_RACES)
    raked[...] = work.T
    del work
    kept = live_c.all()
    return RakingResult(
        table=ContingencyTable(
            *compact_labels(cells.labels, cells.cell_index if kept else cells.cell_index[live_c]),
            raked if kept else raked[live_c],
        ),
        theta_r=np.where(zeroed, -np.inf, theta),
        theta_sg=np.log(ratio[live_c]),
        iterations=steps,
        final_margin_gap=gap,
        gap_history=tuple(float(d.max()) for d in devs),
        feasibility_slack=float(-shortfall[tightest] / t.sum()) if tightest else None,
        tightest_races=tuple(races(tightest)),
    )


def _laplacian_solve(c, rhs):
    """The minimum-norm least-squares solution of L s = rhs that
    np.linalg.lstsq(L, rhs, rcond=1e-12) gives, in a fixed order; L =
    diag(c 1) - c is the Laplacian of a symmetric nonnegative c with zero
    diagonal, whose null space is the constants on each component of the
    graph c > 0. So on each, the rhs loses its mean, the first race is
    grounded, elimination without pivoting solves the rest (positive
    definite), and the step is shifted to sum to 0."""
    n = len(rhs)
    adjacent = (c > 0) | np.eye(n, dtype=bool)
    component = np.arange(n)
    for _ in range(n):  # each component's least member spreads over it
        component = np.where(adjacent, component, n).min(axis=1)
    step = np.zeros(n)
    for root in np.flatnonzero(component == np.arange(n)):  # np.unique imports numpy.ma
        idx = np.flatnonzero(component == root)
        sub = c[np.ix_(idx, idx)]
        a = np.diag(sub.sum(axis=1)) - sub
        b = rhs[idx] - rhs[idx].mean()
        for i in range(1, len(idx)):
            f = a[i + 1 :, i] / a[i, i]
            a[i + 1 :] -= f[:, None] * a[i]
            b[i + 1 :] -= f * b[i]
        s = np.zeros(len(idx))
        for i in range(len(idx) - 1, 0, -1):
            s[i] = (b[i] - (a[i, i + 1 :] * s[i + 1 :]).sum()) / a[i, i]
        step[idx] = s - s.mean()
    return step


def kl_divergence(m: ContingencyTable, base: ContingencyTable) -> float:
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
