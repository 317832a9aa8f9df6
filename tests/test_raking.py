import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from raketab import (
    AxisLabels,
    InfeasibleMarginError,
    MarginSet,
    NonConvergenceError,
    PredictionTable,
    RakingConfig,
    bisg_counts,
    fit_factors,
    kl_divergence,
    margin_gap,
    rake,
)

from conftest import race6


def dumb_ipf(cells, race_targets, cell_targets, sweeps, order="race-first"):
    """Scalar-loop iterative proportional fitting, independent of the
    library implementation: each sweep rescales every race slice and then
    every cell to its target, or the cells first with order="cell-first"."""
    work = {k: np.array(v, dtype=float) for k, v in cells.items()}

    def sweep_race():
        for r in range(6):
            cur = sum(v[r] for v in work.values())
            if race_targets[r] > 0 and cur > 0:
                f = race_targets[r] / cur
                for v in work.values():
                    v[r] *= f

    def sweep_cell():
        for k, v in work.items():
            cur = v.sum()
            if cell_targets.get(k, 0.0) > 0 and cur > 0:
                v *= cell_targets[k] / cur

    sweeps_in_order = (sweep_race, sweep_cell) if order == "race-first" else (sweep_cell, sweep_race)
    for _ in range(sweeps):
        for do_sweep in sweeps_in_order:
            do_sweep()
    return work


def grid_kl_min(base, cell_targets, race_r1, step):
    """Brute-force smallest generalized KL over the margin-feasible grid of a
    2x2x2 instance. The objective is separable per cell, so per-cell terms
    are precomputed on 1-d grids and combined over the 3 free dimensions."""
    keys = sorted(base)
    grids, phis = [], []
    for k in keys:
        c = cell_targets[k]
        b = base[k]
        t = np.minimum(np.arange(0.0, c + step / 2, step), c)
        with np.errstate(divide="ignore", invalid="ignore"):
            ph = np.where(t > 0, t * np.log(np.where(t > 0, t, 1) / b[0]), 0.0)
            rem = c - t
            ph = ph + np.where(rem > 0, rem * np.log(np.where(rem > 0, rem, 1) / b[1]), 0.0)
        grids.append(t)
        phis.append(ph)
    t_sum = grids[0][:, None, None] + grids[1][None, :, None] + grids[2][None, None, :]
    t4 = race_r1 - t_sum
    c4, b4 = cell_targets[keys[3]], base[keys[3]]
    feas = (t4 >= -1e-12) & (t4 <= c4 + 1e-12)
    t4c = np.clip(t4, 0.0, c4)
    with np.errstate(divide="ignore", invalid="ignore"):
        ph4 = np.where(t4c > 0, t4c * np.log(np.where(t4c > 0, t4c, 1) / b4[0]), 0.0)
        rem = c4 - t4c
        ph4 = ph4 + np.where(rem > 0, rem * np.log(np.where(rem > 0, rem, 1) / b4[1]), 0.0)
    total = phis[0][:, None, None] + phis[1][None, :, None] + phis[2][None, None, :] + ph4
    best = np.where(feas, total, np.inf).min()
    return best - sum(cell_targets.values()) + sum(v.sum() for v in base.values())


def f1_bisg_base(f1_table):
    factors = fit_factors(f1_table)
    pred, _ = bisg_counts(factors, f1_table.support())
    return pred


class TestRake:
    def test_fixed_point_takes_no_step(self, f1_table):
        base = f1_bisg_base(f1_table)
        result = rake(base, MarginSet.from_table(base))
        assert result.iterations == 0
        assert len(result.gap_history) == 1 and result.gap_history[0] <= 1e-10
        np.testing.assert_allclose(result.table.cell_values, base.cell_values, rtol=1e-12)
        np.testing.assert_array_equal(result.theta_r[:2], [0.0, 0.0])
        assert all(v == 0.0 for v in result.theta_sg)

    def test_f1_rake_to_true_margins(self, f1_table):
        # the self-fit base matches the race margin but not the cell
        # margins, so raking adjusts both theta families
        base = f1_bisg_base(f1_table)
        targets = MarginSet.from_table(f1_table)
        result = rake(base, targets)
        assert result.final_margin_gap <= 1e-10
        np.testing.assert_allclose(result.table.margin("r")[:2], [17, 23], rtol=1e-9)
        np.testing.assert_allclose(
            result.table.cell_sums, f1_table.cell_sums, rtol=1e-9
        )
        assert any(abs(v) > 1e-3 for v in result.theta_sg)

    def test_against_scalar_oracle(self, f1_table):
        base = f1_bisg_base(f1_table)
        race_targets = race6(20, 20)
        cell_targets = {key: float(v.sum()) for key, v in f1_table.items()}
        result = rake(base, MarginSet.from_cells(race_targets, cell_targets))
        assert abs(result.table.margin("r")[0] - 20) <= 1e-10 * 20
        np.testing.assert_allclose(result.table.cell_sums, f1_table.cell_sums, rtol=1e-10)
        oracle = dumb_ipf(dict(base.items()), race_targets, cell_targets, sweeps=3000)
        for key, vec in result.table.items():
            np.testing.assert_allclose(vec[:2], oracle[key][:2], rtol=1e-8)

    def test_parametric_form_identity(self, f1_table):
        base = f1_bisg_base(f1_table)
        targets = MarginSet.from_table(f1_table)
        result = rake(base, targets)
        assert result.theta_sg.shape == (result.table.n_cells,)
        for (key, vec), theta_sg in zip(result.table.items(), result.theta_sg):
            recon = base.cell(*key) * np.exp(result.theta_r + theta_sg)
            live = vec > 0
            np.testing.assert_allclose(recon[live], vec[live], rtol=1e-8)

    def test_statewide_unbiasedness(self, f1_table):
        base = f1_bisg_base(f1_table)
        targets = MarginSet.from_cells(race6(18, 22), {k: float(v.sum()) for k, v in f1_table.items()})
        result = rake(base, targets)
        np.testing.assert_allclose(result.table.margin("r")[:2], [18, 22], rtol=1e-9)

    def test_sweep_order_invariance(self, f1_table):
        # the fixed point of the sweeps does not depend on their order, and
        # the Newton fit is that fixed point
        base = f1_bisg_base(f1_table)
        targets = MarginSet.from_table(f1_table)
        result = rake(base, targets)
        for order in ("race-first", "cell-first"):
            oracle = dumb_ipf(dict(base.items()), targets.race, targets.cell, 3000, order)
            for key, vec in result.table.items():
                np.testing.assert_allclose(vec, oracle[key], rtol=1e-8)

    def test_zero_base_cells_stay_zero(self):
        base = PredictionTable.from_label_cells(
            {("a", "x"): race6(2, 0), ("b", "x"): race6(1, 3)}
        )
        targets = MarginSet.from_cells(race6(3, 3), {("a", "x"): 2.0, ("b", "x"): 4.0})
        result = rake(base, targets)
        assert result.table.cell("a", "x")[1] == 0.0
        np.testing.assert_allclose(result.table.margin("r")[:2], [3, 3], rtol=1e-9)
        # only cell b supports api: it holds 4 of the 6 against a target of 3
        assert result.tightest_races == ("api",)
        assert result.feasibility_slack == pytest.approx(1 / 6, rel=1e-12)

    def test_zero_target_cell_zeroed(self):
        base = PredictionTable.from_label_cells(
            {("a", "x"): race6(2, 1), ("b", "x"): race6(1, 3)}
        )
        targets = MarginSet.from_cells(race6(2, 2), {("a", "x"): 4.0, ("b", "x"): 0.0})
        result = rake(base, targets)
        np.testing.assert_array_equal(result.table.cell("b", "x"), np.zeros(6))
        assert result.table.cell("a", "x").sum() == pytest.approx(4.0, rel=1e-9)

    def test_infeasible_cell_target(self):
        base = PredictionTable.from_label_cells({("a", "x"): race6(2, 1)})
        with pytest.raises(InfeasibleMarginError, match="cell target"):
            rake(base, MarginSet.from_cells(race6(2, 2), {("a", "x"): 2.0, ("b", "x"): 2.0}))

    def test_infeasible_race_target(self):
        base = PredictionTable.from_label_cells({("a", "x"): race6(2, 0)})
        with pytest.raises(InfeasibleMarginError, match="race target"):
            rake(base, MarginSet.from_cells(race6(1, 1), {("a", "x"): 2.0}))

    def test_infeasible_support_pattern(self):
        # each race has base mass, but cell a supports only race 0 and
        # cell b only race 1, so race 0 can get at most cell a's 2
        base = PredictionTable.from_label_cells(
            {("a", "x"): race6(1, 0), ("b", "x"): race6(0, 1)}
        )
        targets = MarginSet.from_cells(race6(3, 1), {("a", "x"): 2.0, ("b", "x"): 2.0})
        with pytest.raises(InfeasibleMarginError, match=r"\['aian'\].*shortfall 1\b.*\['api'\]"):
            rake(base, targets)

    def test_tight_support_pattern_converges(self):
        # race 0 needs all of cell a (Gale's condition holds with
        # equality), so the fit lies on the boundary of the support and
        # theta_r diverges; it must still reach tolerance within the cap
        base = PredictionTable.from_label_cells(
            {("a", "x"): race6(1, 1), ("b", "x"): race6(0, 1)}
        )
        targets = MarginSet.from_cells(race6(2, 2), {("a", "x"): 2.0, ("b", "x"): 2.0})
        result = rake(base, targets)
        assert result.iterations <= RakingConfig().max_iterations
        assert result.final_margin_gap <= 1e-10
        np.testing.assert_allclose(result.table.cell("a", "x")[:2], [2, 0], atol=1e-9)
        assert result.tightest_races == ("aian",) and result.feasibility_slack == 0.0

    def test_nonconvergence_carries_gap(self, f1_table):
        base = f1_bisg_base(f1_table)
        targets = MarginSet.from_table(f1_table)
        with pytest.raises(NonConvergenceError) as err:
            rake(base, targets, RakingConfig(tolerance=1e-14, max_iterations=1))
        assert err.value.margin_gap > 1e-14
        assert err.value.worst_race in ("aian", "api")
        # the worst race's gap at the start and after the one step
        assert len(err.value.last_gaps) == 2
        assert err.value.last_gaps[1] < err.value.last_gaps[0]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RakingConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            RakingConfig(max_iterations=0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_rake_contract_on_random_tables(seed):
    # margins exact, parametric form holds, and the divergence from the
    # base is nonnegative, for arbitrary feasible targets
    rng = np.random.default_rng(seed)
    n_s, n_g = int(rng.integers(2, 6)), int(rng.integers(2, 5))
    cells = {}
    for i in range(n_s):
        for j in range(n_g):
            vec = np.zeros(6)
            vec[:3] = rng.uniform(0.05, 1.0, size=3)
            cells[(f"s{i}", f"g{j}")] = vec
    base = PredictionTable.from_label_cells(cells)
    cell_targets = {k: float(rng.uniform(0.5, 2.0)) for k in cells}
    total = sum(cell_targets.values())
    shares = rng.dirichlet(np.ones(3))
    race_targets = np.zeros(6)
    race_targets[:3] = shares * total
    result = rake(base, MarginSet.from_cells(race_targets, cell_targets))
    np.testing.assert_allclose(result.table.margin("r"), race_targets, atol=1e-8)
    # the gauge: theta_r sums to 0 over the races with a positive target
    assert abs(result.theta_r[:3].sum()) <= 1e-9 * np.abs(result.theta_r[:3]).max()
    for (key, vec), theta_sg in zip(result.table.items(), result.theta_sg):
        assert vec.sum() == pytest.approx(cell_targets[key], rel=1e-8)
        recon = base.cell(*key) * np.exp(result.theta_r + theta_sg)
        live = vec > 0
        np.testing.assert_allclose(recon[live], vec[live], rtol=1e-8)
    assert kl_divergence(result.table, base) >= -1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_array_targets_rake_like_mapping_targets(seed):
    # the same cell targets as a label mapping and as arrays on labels of
    # another order, with labels no cell uses, cells the base lacks and
    # zero targets, on a base whose labels are not sorted
    rng = np.random.default_rng(seed)
    surs = [f"s{i}" for i in rng.permutation(int(rng.integers(2, 6)))]
    geos = [f"g{j}" for j in rng.permutation(int(rng.integers(2, 5)))]
    grid = [(i, j) for i in range(len(surs)) for j in range(len(geos))]
    kept = sorted(grid[k] for k in rng.choice(len(grid), size=len(grid) - 1, replace=False))
    values = np.zeros((len(kept), 6))
    values[:, :3] = rng.uniform(0.05, 1.0, size=(len(kept), 3))
    base = PredictionTable(AxisLabels(surs, geos), kept, values)

    cells = {(surs[i], geos[j]): float(rng.uniform(0.5, 2.0)) for i, j in kept}
    cells[next(iter(cells))] = 0.0
    cells[("s9", geos[0])] = 0.0  # neither the surname nor the cell is in the base
    cells.update({(surs[i], geos[j]): 0.0 for i, j in grid if (i, j) not in kept})
    total = sum(cells.values())
    race = np.zeros(6)
    race[:3] = rng.dirichlet(np.ones(3)) * total

    labels = AxisLabels(
        [s for s in rng.permutation(surs + ["s9", "s10"]).tolist()],
        [g for g in rng.permutation(geos + ["g9"]).tolist()],
    )
    spos = {s: i for i, s in enumerate(labels.surnames)}
    gpos = {g: i for i, g in enumerate(labels.geolocations)}
    index = np.array([(spos[s], gpos[g]) for s, g in cells])
    order = np.argsort(index[:, 0] * labels.n_g + index[:, 1])
    arrays = MarginSet(race, labels, index[order], np.array(list(cells.values()))[order])
    mapped = MarginSet.from_cells(race, cells)
    assert arrays.cell == {key: cells[key] for key in arrays.cell} and len(arrays.cell) == len(cells)

    outcomes = []
    for targets in (mapped, arrays):
        try:
            outcomes.append(rake(base, targets))
        except InfeasibleMarginError as exc:
            outcomes.append(str(exc))
    first, second = outcomes
    if isinstance(first, str):
        assert first == second
        return
    assert first.table.labels == second.table.labels
    for name in ("cell_index", "cell_values"):
        np.testing.assert_array_equal(getattr(first.table, name), getattr(second.table, name))
    np.testing.assert_array_equal(first.theta_r, second.theta_r)
    np.testing.assert_array_equal(first.theta_sg, second.theta_sg)
    for name in ("iterations", "final_margin_gap", "gap_history", "feasibility_slack",
                 "tightest_races"):
        assert getattr(first, name) == getattr(second, name)
    assert margin_gap(first.table, mapped) == margin_gap(first.table, arrays)


class TestKlDivergence:
    def test_identity_zero(self, f1_table):
        base = f1_bisg_base(f1_table)
        assert kl_divergence(base, base) == pytest.approx(0.0, abs=1e-12)

    def test_single_cell_value(self):
        m = PredictionTable.from_label_cells({("a", "x"): race6(2)})
        b = PredictionTable.from_label_cells({("a", "x"): race6(1)})
        assert kl_divergence(m, b) == pytest.approx(2 * np.log(2) - 1, rel=1e-12)

    def test_absolute_continuity(self):
        # the second cell of m, after one that is fine, is the one named
        m = PredictionTable.from_label_cells({("a", "w"): race6(1), ("a", "x"): race6(1, 1)})
        b = PredictionTable.from_label_cells({("a", "w"): race6(2), ("a", "x"): race6(1, 0)})
        with pytest.raises(ValueError, match=r"absolute continuity violated at cell \('a', 'x'\)"):
            kl_divergence(m, b)

    def test_nonnegative_on_feasible_tables(self, f1_table):
        base = f1_bisg_base(f1_table)
        result = rake(base, MarginSet.from_table(f1_table))
        assert kl_divergence(result.table, base) >= 0

    def test_raked_is_grid_minimizer(self):
        # the fit must beat every margin-feasible table on a fine grid
        rng = np.random.default_rng(5)
        base = {
            ("s1", "g1"): rng.uniform(0.05, 0.2, 2),
            ("s1", "g2"): rng.uniform(0.05, 0.2, 2),
            ("s2", "g1"): rng.uniform(0.05, 0.2, 2),
            ("s2", "g2"): rng.uniform(0.05, 0.2, 2),
        }
        cell_targets = {k: float(rng.uniform(0.1, 0.2)) for k in base}
        total = sum(cell_targets.values())
        frac = 0.4
        race_targets = race6(frac * total, (1 - frac) * total)
        base_table = PredictionTable.from_label_cells(
            {k: np.concatenate([v, np.zeros(4)]) for k, v in base.items()}
        )
        result = rake(base_table, MarginSet.from_cells(race_targets, cell_targets))
        kl_raked = kl_divergence(result.table, base_table)
        kl_best = grid_kl_min(base, cell_targets, race_targets[0], step=1e-3)
        assert kl_raked <= kl_best + 2e-3


class TestMarginGap:
    def test_exact_margins_zero(self, f1_table):
        base = PredictionTable.from_label_cells(dict(f1_table.items()))
        assert margin_gap(base, MarginSet.from_table(f1_table)) == 0.0

    def test_relative_deviation(self, f1_table):
        # achieved m_{++r1} = 21 against a race-only target of 20, with the
        # other race exact: worst deviation is 1/20
        cells = {k: v.copy() for k, v in f1_table.items()}
        cells[("s1", "g1")][0] += 4  # race-0 total now 21
        m = PredictionTable.from_label_cells(cells)
        gap = margin_gap(m, MarginSet.from_cells(race6(20, 23), {}))
        assert gap == pytest.approx(0.05, rel=1e-9)

    def test_empty_targets(self, f1_table):
        base = PredictionTable.from_label_cells(dict(f1_table.items()))
        assert margin_gap(base, MarginSet.from_cells(None, {})) == 0.0
