import itertools
import tracemalloc

import numpy as np
import pytest

from raketab import (
    AxisLabels,
    ContingencyTable,
    MarginSet,
    SynthConfig,
    bisg_counts,
    fit_factors,
    generate,
    rake,
    subpop_report,
    weighted_counts,
)
from raketab.synth import _labels

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
        pred, _ = bisg_counts(fit_factors(table), table)
        np.testing.assert_allclose(pred.cell_values, table.cell_values, rtol=1e-10)

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

    def test_a_mix_off_by_rounding_is_divided_by_its_sum(self):
        """Shares summing to 1 + 5e-7, as shares rounded to 7 decimals may, are
        divided by their sum, so expected counts still total the population;
        the CLI's default sixths (summing to 1 - 1.1e-16) are used as given."""
        mix = np.array(MIX4)
        mix[4] += 5e-7
        config = SynthConfig(n_s=5, n_g=4, race_mix=mix, dependence=0.0, total_population=1e6, seed=3)
        assert config.race_mix.tolist() == (mix / mix.sum()).tolist()
        assert generate(config).total() == pytest.approx(1e6, rel=1e-12)
        sixths = np.array([float(f"{1 / 6:.17g}")] * 6)
        assert sixths.sum() != 1.0
        same = SynthConfig(n_s=5, n_g=4, race_mix=sixths, dependence=0.0, total_population=1e6, seed=3)
        assert same.race_mix.tobytes() == sixths.tobytes()

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


def reference_generate(config):
    """`generate` as one `probs` cube scaled or drawn into a second and
    gathered into a third: the reference that the one-buffer version must
    match byte for byte."""
    n_s, n_g = config.n_s, config.n_g
    rng = np.random.default_rng(config.seed)
    p_s = rng.dirichlet(np.ones(n_s), size=6)
    p_g = rng.dirichlet(np.ones(n_g), size=6)
    d = config.dependence
    probs = np.zeros((n_s, n_g, 6))
    s_idx = np.arange(n_s)
    for r in range(6):
        share = config.race_mix[r]
        if share == 0:
            continue
        probs[:, :, r] = (1.0 - d) * share * np.outer(p_s[r], p_g[r])
        if d > 0:
            probs[s_idx, (s_idx + r) % n_g, r] += d * share * p_s[r]
    if config.multinomial:
        flat = probs.ravel()
        draws = rng.multinomial(int(config.total_population), flat / flat.sum())
        cube = draws.reshape(probs.shape).astype(np.float64)
    else:
        cube = probs * config.total_population
    labels = AxisLabels(_labels("S", n_s), _labels("g", n_g))
    si, gi = np.nonzero(cube.sum(axis=2) > 0)
    return ContingencyTable(labels, np.column_stack([si, gi]), cube[si, gi])


class TestOneBuffer:
    MIXES = (
        np.full(6, 1 / 6),
        MIX4,
        race6(0, 0, 0, 1),
        race6(0, 0.2, 0, 0.5, 0, 0.3),
        race6(0.5, 0.5),
        race6(0, 0, 0, 0, 0.9, 0.1),
    )

    def test_matches_the_reference_byte_for_byte(self):
        sizes = (2, 7, 40, 160)
        grid = itertools.product(sizes, sizes, (0.0, 0.3, 0.5, 1.0), (False, True), self.MIXES)
        for n_s, n_g, d, multinomial, mix in grid:
            config = SynthConfig(
                n_s=n_s, n_g=n_g, race_mix=mix, dependence=d, total_population=5000,
                seed=1000 * n_s + n_g, multinomial=multinomial,
            )
            table, ref = generate(config), reference_generate(config)
            assert table.labels == ref.labels, config
            assert table.cell_index.tobytes() == ref.cell_index.tobytes(), config
            assert table.cell_values.tobytes() == ref.cell_values.tobytes(), config

    def test_peak_is_about_one_and_a_half_cubes_plus_the_index(self):
        n_s, n_g = 300, 200
        config = SynthConfig(
            n_s=n_s, n_g=n_g, race_mix=MIX4, dependence=0.5, total_population=1e6, seed=4
        )
        cube_bytes, index_bytes = n_s * n_g * 6 * 8, n_s * n_g * 2 * 8
        tracemalloc.start()
        try:
            table = generate(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.n_cells == n_s * n_g  # expected counts fill every cell
        # the reference holds about 3.7 cubes at once
        assert peak <= 1.6 * cube_bytes + index_bytes


class TestSplit:
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
