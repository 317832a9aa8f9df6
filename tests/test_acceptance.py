"""
Acceptance gate: one test per criterion, each printing a pass/fail line
(run with -s to see them on success). Budgets are asserted with the
criteria themselves.
"""

import time

import numpy as np
import pytest

import raketab as rt
from raketab import RaceCategory
from raketab.cli import main as cli_main
from raketab.synth import SynthConfig, generate
from raketab.table import PredictionTable

from test_calibmap import grid_objective_2cat, grid_objective_3cat
from test_raking import grid_kl_min

from conftest import one_cell_factors, race6


def report(label, elapsed=None, budget=None):
    note = ""
    if elapsed is not None:
        note = f" ({elapsed:.2f}s of {budget:.0f}s budget)"
    print(f"[PASS] {label}{note}")


def self_fit_weighted(table):
    factors = rt.fit_factors(table)
    totals = {key: float(vec.sum()) for key, vec in table.items()}
    pred, _ = rt.weighted_counts(factors, totals)
    return factors, totals, pred


def random_synth(seed, n_s, n_g, dependence, total=50_000.0, mix_seed_offset=10_000):
    mix = np.random.default_rng(mix_seed_offset + seed).dirichlet(np.ones(6))
    config = SynthConfig(
        n_s=n_s, n_g=n_g, race_mix=mix, dependence=dependence,
        total_population=total, seed=seed,
    )
    return generate(config)


def test_c01_statewide_metric_conformance():
    start = time.monotonic()
    truth = rt.ContingencyTable.from_label_cells({("X", "FL"): race6(0, 0, 1_762_643)})
    pred = PredictionTable.from_label_cells({("X", "FL"): race6(0, 0, 1_725_555)})
    rep = rt.subpop_report(truth, pred)
    assert abs(rep.abs_error[0, RaceCategory.BLACK] - (-37_087)) <= 1.0
    assert rep.rel_error[0, RaceCategory.BLACK] * 100 == pytest.approx(-2.10, abs=0.01)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report("criterion 1: statewide signed/relative error conformance", elapsed, 1.0)


def test_c02_independence_exactness_at_scale():
    start = time.monotonic()
    for seed in range(50):
        g = np.random.default_rng(seed)
        n_s = int(g.integers(20, 201))
        n_g = int(g.integers(5, 51))
        mix = g.dirichlet(np.ones(6))
        table = generate(SynthConfig(
            n_s=n_s, n_g=n_g, race_mix=mix, dependence=0.0,
            total_population=1e5, seed=seed,
        ))
        factors, truth = rt.split_factors_and_truth(table)
        pred, rejects = rt.bisg_counts(factors, table.support())
        assert not rejects
        rel = np.abs(pred.cell_values - truth.cell_values) / np.maximum(
            truth.cell_values, 1e-300
        )
        assert rel.max() <= 1e-10

        sub = rt.subpop_report(truth, pred)
        assert np.abs(sub.abs_error).max() < 1e-9
        assert np.nanmax(np.abs(sub.rel_error)) < 1e-9
        assert sub.mad.max() < 1e-9
        assert np.abs(sub.avg_error).max() < 1e-9
        cw = rt.cellwise_report(truth, pred)
        assert np.nanmax(cw.l1) < 1e-9
        assert np.nanmax(cw.l2) < 1e-9
        # the log-likelihood of a perfect prediction equals the table's own
        # conditional entropy, so the deviation metric is the excess over
        # the self-prediction value
        cw_self = rt.cellwise_report(
            truth, PredictionTable(truth.labels, truth.cell_index, truth.cell_values)
        )
        assert np.nanmax(np.abs(cw.nll - cw_self.nll)) < 1e-9
        race = RaceCategory(int(np.argmax(mix)))
        assert rt.calibration_curve(truth, pred, race).kuiper < 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report("criterion 2: independence-exact populations reproduce exactly", elapsed, 10.0)


def test_c03_raking_exact_margins_and_bisg_gap():
    start = time.monotonic()
    deltas = (0.25, 0.5, 0.75)
    high = []
    for seed in range(50):
        d = deltas[seed % 3]
        table = random_synth(seed, n_s=40, n_g=10, dependence=d)
        factors, totals, bisg_pred = self_fit_weighted(table)
        result = rt.rake(bisg_pred, rt.MarginSet.from_table(table))
        assert result.final_margin_gap <= 1e-10
        # Newton converges in a few steps; the sweeps it replaced needed dozens
        assert result.iterations <= 10
        x_r = table.margin("r")
        live = x_r > 0
        raked_rel = np.max(np.abs(result.table.margin("r") - x_r)[live] / x_r[live])
        assert raked_rel <= 1e-8
        if d == 0.75:
            bisg_rel = np.max(np.abs(bisg_pred.margin("r") - x_r)[live] / x_r[live])
            high.append(bisg_rel > 1e-4)
    assert sum(high) >= 0.9 * len(high)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(
        f"criterion 3: raked margins exact; plain estimator off on {sum(high)}/{len(high)} "
        "high-dependence tables",
        elapsed, 60.0,
    )


def test_c04_kl_minimality_against_grid():
    start = time.monotonic()
    keys = (("s1", "g1"), ("s1", "g2"), ("s2", "g1"), ("s2", "g2"))
    for seed in range(20):
        g = np.random.default_rng(seed)
        base = {k: g.uniform(0.02, 0.2, size=2) for k in keys}
        cell_targets = {k: float(g.uniform(0.08, 0.18)) for k in keys}
        frac = g.uniform(0.25, 0.75)
        total = sum(cell_targets.values())
        race_targets = race6(frac * total, (1 - frac) * total)
        base_table = PredictionTable.from_label_cells(
            {k: np.concatenate([v, np.zeros(4)]) for k, v in base.items()}
        )
        result = rt.rake(base_table, rt.MarginSet.from_cells(race_targets, cell_targets))
        kl_raked = rt.kl_divergence(result.table, base_table)
        kl_grid = grid_kl_min(base, cell_targets, race_targets[0], step=1e-3)
        assert kl_raked <= kl_grid + 2e-3
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report("criterion 4: raked tables beat the brute-force feasible grid", elapsed, 30.0)


def test_c05_parametric_form_identity():
    start = time.monotonic()
    for seed in range(10):
        d = (0.25, 0.5, 0.75)[seed % 3]
        table = random_synth(seed, n_s=25, n_g=8, dependence=d)
        factors, totals, bisg_pred = self_fit_weighted(table)
        result = rt.rake(bisg_pred, rt.MarginSet.from_table(table))
        theta_r = result.theta_r
        for (key, vec), theta_sg in zip(result.table.items(), result.theta_sg):
            recon = bisg_pred.cell(*key) * np.exp(theta_r + theta_sg)
            live = vec > 0
            np.testing.assert_allclose(recon[live], vec[live], rtol=1e-8)
    report("criterion 5: converged tables equal base times exp(theta) cellwise")
    assert time.monotonic() - start < 30.0


def test_c06_calibration_map_optimality():
    start = time.monotonic()
    u = np.array([0.1, 0.2, 0.3, 0.15, 0.15, 0.1])
    identity = rt.solve_calibration_map(u, u)
    np.testing.assert_allclose(identity.matrix, np.eye(6), atol=1e-8)
    assert identity.objective == pytest.approx(0.0, abs=1e-8)

    hand = rt.solve_calibration_map([0.5, 0.5], [0.6, 0.4])
    np.testing.assert_allclose(hand.matrix, [[1.0, 0.2], [0.0, 0.8]], atol=1e-6)
    assert abs(hand.objective - grid_objective_2cat([0.5, 0.5], [0.6, 0.4])) <= 2e-3

    for seed in range(20):
        g = np.random.default_rng(300 + seed)
        u3 = 0.05 + 0.85 * g.dirichlet(np.ones(3))
        v3 = 0.05 + 0.85 * g.dirichlet(np.ones(3))
        u3 /= u3.sum()
        v3 /= v3.sum()
        cmap = rt.solve_calibration_map(u3, v3)
        np.testing.assert_allclose(cmap.matrix.sum(axis=0), np.ones(3), atol=1e-8)
        np.testing.assert_allclose(cmap.matrix @ u3, v3, atol=1e-8)
        assert cmap.matrix.min() >= -1e-12
        assert abs(cmap.objective - grid_objective_3cat(u3, v3)) <= 2e-3
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report("criterion 6: calibration maps match hand and grid oracles", elapsed, 30.0)


def test_c07_raking_beats_plain_estimator():
    # the test set is the stratified-subsample limit of each population:
    # every race slice rescaled to a perturbed (but cell-consistent) race
    # margin, mirroring test-set calibration against survey margins
    start = time.monotonic()
    wins = 0
    for seed in range(100):
        g = np.random.default_rng(seed)
        mix = g.dirichlet(np.ones(6))
        d = float(g.uniform(0.5, 1.0))
        table = generate(SynthConfig(
            n_s=60, n_g=5, race_mix=mix, dependence=d,
            total_population=10_000, seed=seed,
        ))
        factors = rt.fit_factors(table)
        race = table.margin("r")
        noise = 1.0 + g.uniform(-0.25, 0.25, size=6)
        scale = np.where(race > 0, noise, 0.0)
        truth = rt.ContingencyTable.from_label_cells(
            {key: vec * scale for key, vec in table.items()}
        )
        totals = {key: float(vec.sum()) for key, vec in truth.items()}
        targets = rt.MarginSet.from_cells(truth.margin("r"), totals)
        bisg_pred, _ = rt.weighted_counts(factors, totals)
        raked = rt.rake(bisg_pred, targets).table
        mae_bisg = np.abs(rt.subpop_report(truth, bisg_pred).abs_error).mean()
        mae_rake = np.abs(rt.subpop_report(truth, raked).abs_error).mean()
        wins += mae_rake <= mae_bisg
    assert wins >= 95
    elapsed = time.monotonic() - start
    report(f"criterion 7: raking at or below plain estimator error on {wins}/100 runs",
           elapsed, 60.0)


def test_c08_kuiper_correctness():
    flat = rt.kuiper([0.0, 0.0, 0.0])
    assert flat == 0.0

    truth = rt.ContingencyTable.from_label_cells(
        {("A", "g"): race6(0.4, 0.6), ("B", "g"): race6(0.6, 0.4)}
    )
    pred = PredictionTable.from_label_cells(
        {("A", "g"): race6(0.2, 0.8), ("B", "g"): race6(0.8, 0.2)}
    )
    curve = rt.calibration_curve(truth, pred, RaceCategory.AIAN)
    assert curve.kuiper == pytest.approx(0.1, abs=1e-12)
    assert curve.kuiper == pytest.approx(
        curve.values().max() - curve.values().min(), abs=1e-15
    )

    calibrated = rt.calibration_curve(
        truth,
        PredictionTable.from_label_cells(dict(truth.items())),
        RaceCategory.AIAN,
    )
    assert calibrated.kuiper == pytest.approx(0.0, abs=1e-12)

    for seed in range(20):
        table = random_synth(seed, n_s=15, n_g=6, dependence=0.5, total=5_000)
        _, _, pred = self_fit_weighted(table)
        for race in (RaceCategory.AIAN, RaceCategory.WHITE):
            c = rt.calibration_curve(table, pred, race)
            values = c.values()
            assert c.kuiper == pytest.approx(values.max() - values.min(), abs=1e-12)
    report("criterion 8: kuiper equals max minus min on all fixtures")


def test_c09_pipeline_determinism(tmp_path):
    outputs = {}
    for run in ("first", "second"):
        root = tmp_path / run
        fix = root / "fix"
        assert cli_main([
            "synth", "--surnames", "15", "--geos", "6", "--dependence", "0.5",
            "--total", "4000", "--seed", "77", "--out-dir", str(fix),
        ]) == 0
        pred = root / "pred"
        assert cli_main([
            "predict", "--surname-factors", str(fix / "surname_factors.csv"),
            "--geo-factors", str(fix / "geo_factors.csv"),
            "--prior", str(fix / "prior.json"),
            "--table", str(fix / "table.csv"), "--out-dir", str(pred),
        ]) == 0
        raked = root / "raked"
        assert cli_main([
            "rake", "--base", str(pred / "predictions.csv"),
            "--race-margin", str(fix / "race_margin.json"), "--out-dir", str(raked),
        ]) == 0
        ev = root / "eval"
        assert cli_main([
            "evaluate", "--truth-table", str(fix / "table.csv"),
            "--preds", str(raked / "raked.csv"), "--out-dir", str(ev),
        ]) == 0
        blobs = {}
        for d in (fix, pred, raked, ev):
            for f in sorted(d.iterdir()):
                if f.suffix == ".csv":
                    blobs[f"{d.name}/{f.name}"] = f.read_bytes()
        outputs[run] = blobs
    assert outputs["first"].keys() == outputs["second"].keys()
    assert outputs["first"] == outputs["second"]
    report("criterion 9: seeded pipeline reruns are byte-identical")


def test_c10_voter_population_adjustment():
    prior = race6(0.25, 0.15, 0.2, 0.1, 0.25, 0.05)
    factors = one_cell_factors(
        race6(0.2, 0.2, 0.25, 0.1, 0.2, 0.05), race6(0.3, 0.25, 0.15, 0.1, 0.15, 0.05), prior
    )
    identity = rt.voter_adjustment(prior, prior)
    plain = rt.bisg_probability(factors, "s", "g")
    adjusted = rt.bisg_probability(factors, "s", "g", adjustment=identity)
    np.testing.assert_array_equal(plain, adjusted)

    flat = one_cell_factors(race6(0.5, 0.5), race6(0.5, 0.5), race6(0.5, 0.5))
    adj = rt.voter_adjustment(race6(0.6, 0.4), race6(0.5, 0.5))
    shifted = rt.bisg_probability(flat, "s", "g", adjustment=adj)
    np.testing.assert_allclose(shifted[:2], [0.6, 0.4], atol=1e-12)
    report("criterion 10: registered-voter adjustment behaves exactly")
