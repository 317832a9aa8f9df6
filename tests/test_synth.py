import numpy as np
import pytest

from raketab import (
    MarginSet,
    SynthConfig,
    baseline_geo_only,
    bisg_counts,
    fit_factors,
    generate,
    rake,
    split_factors_and_truth,
    subpop_report,
    weighted_counts,
)

from conftest import race6

MIX4 = race6(0.4, 0.3, 0.2, 0.1)


def weighted_prediction(table):
    factors = fit_factors(table)
    totals = {key: float(vec.sum()) for key, vec in table.items()}
    pred, rejects = weighted_counts(factors, totals)
    assert rejects == []
    return pred


class TestGenerate:
    def test_independent_case_is_exactly_product_form(self):
        config = SynthConfig(
            n_s=12, n_g=6, race_mix=MIX4, dependence=0.0, total_population=5000, seed=9
        )
        table = generate(config)
        factors, truth = split_factors_and_truth(table)
        pred, _ = bisg_counts(factors, table.support())
        np.testing.assert_allclose(pred.cell_values, truth.cell_values, rtol=1e-10)

    def test_deterministic_per_seed(self):
        config = SynthConfig(
            n_s=8, n_g=5, race_mix=MIX4, dependence=0.6, total_population=1000, seed=17
        )
        t1, t2 = generate(config), generate(config)
        np.testing.assert_array_equal(t1.cell_values, t2.cell_values)
        assert t1.labels == t2.labels

    def test_seed_changes_table(self):
        base = dict(n_s=8, n_g=5, race_mix=MIX4, dependence=0.6, total_population=1000)
        t1 = generate(SynthConfig(seed=1, **base))
        t2 = generate(SynthConfig(seed=2, **base))
        assert np.abs(t1.margin("gr") - t2.margin("gr")).max() > 1.0

    def test_full_dependence_concentrates_on_diagonals(self):
        mix = race6(0.5, 0.5)
        config = SynthConfig(
            n_s=2, n_g=2, race_mix=mix, dependence=1.0, total_population=100, seed=3
        )
        table = generate(config)
        # race r puts surname i's mass at geolocation (i + r) mod 2 only
        for si in range(2):
            for r in range(2):
                gi = (si + r) % 2
                off = (si + r + 1) % 2
                s, g_on, g_off = f"S{si:03d}", f"g{gi:03d}", f"g{off:03d}"
                assert table.cell(s, g_on)[r] > 0
                assert table.cell(s, g_off)[r] == 0.0

    def test_full_dependence_breaks_county_estimates(self):
        mix = race6(0.5, 0.5)
        config = SynthConfig(
            n_s=2, n_g=2, race_mix=mix, dependence=1.0, total_population=100, seed=3
        )
        table = generate(config)
        pred = weighted_prediction(table)
        report = subpop_report(table, pred)
        active = table.margin("gr") > 0
        assert np.all(np.abs(report.abs_error[active]) > 0)

    def test_total_population_respected(self):
        config = SynthConfig(
            n_s=10, n_g=4, race_mix=MIX4, dependence=0.3, total_population=777, seed=5
        )
        assert generate(config).total() == pytest.approx(777.0, rel=1e-9)

    def test_multinomial_mode_draws_integers(self):
        config = SynthConfig(
            n_s=10, n_g=4, race_mix=MIX4, dependence=0.3,
            total_population=500, seed=5, multinomial=True,
        )
        table = generate(config)
        assert table.total() == 500.0
        assert np.all(table.cell_values == np.round(table.cell_values))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(n_s=1, n_g=4, race_mix=MIX4, dependence=0.0,
                        total_population=10, seed=0)
        with pytest.raises(ValueError):
            SynthConfig(n_s=4, n_g=4, race_mix=MIX4, dependence=1.5,
                        total_population=10, seed=0)
        with pytest.raises(ValueError):
            SynthConfig(n_s=4, n_g=4, race_mix=race6(0.5, 0.4), dependence=0.5,
                        total_population=10, seed=0)


class TestSplit:
    def test_returns_self_fit_factors_and_same_table(self, f1_table):
        factors, truth = split_factors_and_truth(f1_table)
        assert truth is f1_table
        np.testing.assert_allclose(baseline_geo_only(factors, "g1"), race6(0.55, 0.45))

    def test_independent_table_gives_zero_error_downstream(self):
        config = SynthConfig(
            n_s=6, n_g=4, race_mix=MIX4, dependence=0.0, total_population=900, seed=21
        )
        table = generate(config)
        pred = weighted_prediction(table)
        report = subpop_report(table, pred)
        assert np.abs(report.abs_error).max() < 1e-9


class TestDependenceKnob:
    def test_error_nondecreasing_in_dependence(self):
        for seed in (0, 1, 2):
            mix = np.random.default_rng(2000 + seed).dirichlet(np.ones(6))
            errors = []
            for d in (0.0, 0.25, 0.5, 0.75, 1.0):
                config = SynthConfig(
                    n_s=20, n_g=8, race_mix=mix, dependence=d,
                    total_population=10_000, seed=seed,
                )
                table = generate(config)
                pred = weighted_prediction(table)
                report = subpop_report(table, pred)
                errors.append(np.abs(report.abs_error).mean())
            for lo, hi in zip(errors, errors[1:]):
                assert hi >= lo - 1e-9

    def test_raking_repairs_statewide_margins(self):
        for d in (0.25, 0.6, 1.0):
            config = SynthConfig(
                n_s=15, n_g=6, race_mix=MIX4, dependence=d,
                total_population=5000, seed=8,
            )
            table = generate(config)
            pred = weighted_prediction(table)
            x_r = table.margin("r")
            result = rake(pred, MarginSet.from_table(table))
            m_r = result.table.margin("r")
            live = x_r > 0
            assert np.max(np.abs(m_r - x_r)[live] / x_r[live]) <= 1e-9
            if d >= 0.6:
                b_r = pred.margin("r")
                assert np.max(np.abs(b_r - x_r)[live] / x_r[live]) > 1e-4
