import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from raketab import (
    AxisLabels,
    BisgFactors,
    ContingencyTable,
    MarginSet,
    MissingFactorError,
    VoterAdjustment,
    baseline_geo_only,
    baseline_surname_only,
    bisg_counts,
    bisg_probability,
    fit_factors,
    voter_adjustment,
    weighted_counts,
)
from raketab.bisg import posterior

from conftest import one_cell_factors, race6


class TestFitFactors:
    def test_f1_geo_conditional(self, f1_table):
        factors = fit_factors(f1_table)
        np.testing.assert_allclose(baseline_geo_only(factors, "g1"), race6(0.55, 0.45))

    def test_f1_prior(self, f1_table):
        factors = fit_factors(f1_table)
        np.testing.assert_allclose(factors.race_prior, race6(0.425, 0.575))

    def test_single_cell_concentration(self):
        table = ContingencyTable.from_label_cells({("s1", "g1"): race6(5)})
        factors = fit_factors(table)
        np.testing.assert_allclose(baseline_geo_only(factors, "g1"), race6(1))
        np.testing.assert_allclose(baseline_surname_only(factors, "s1"), race6(1))
        np.testing.assert_allclose(factors.race_prior, race6(1))

    def test_zero_mass_labels_omitted(self):
        table = ContingencyTable.from_label_cells(
            {("s1", "g1"): race6(5), ("s2", "g2"): race6()}
        )
        factors = fit_factors(table)
        assert factors.labels == AxisLabels(["s1"], ["g1"])

    def test_counts_recorded(self, f1_table):
        factors = fit_factors(f1_table)
        assert factors.labels == AxisLabels(["s1", "s2"], ["g1", "g2"])
        assert factors.surname_counts.tolist() == [15.0, 25.0]
        assert factors.geo_counts.tolist() == [20.0, 20.0]
        assert factors.total() == 40.0


class TestBisgCounts:
    def test_f1_cell_values(self, f1_table):
        factors = fit_factors(f1_table)
        pred, rejects = bisg_counts(factors, f1_table.support())
        assert rejects == []
        np.testing.assert_allclose(
            pred.cell("s1", "g1")[:2], [110 / 17, 45 / 23], rtol=1e-12
        )

    def test_product_form_reproduced_exactly(self):
        # conditional independence holds by construction, so the model is exact
        u = np.array([3.0, 1.0, 2.0])
        v = np.array([2.0, 5.0])
        w = race6(0.5, 0.2, 0.3)
        cells = {}
        for i, s in enumerate(["s1", "s2", "s3"]):
            for j, g in enumerate(["g1", "g2"]):
                cells[(s, g)] = u[i] * v[j] * w
        table = ContingencyTable.from_label_cells(cells)
        pred, _ = bisg_counts(fit_factors(table), table.support())
        np.testing.assert_allclose(pred.cell_values, table.cell_values, rtol=1e-10)

    def test_zero_prior_race_predicts_zero(self, f1_table):
        factors = fit_factors(f1_table)
        pred, _ = bisg_counts(factors, f1_table.support())
        assert np.all(pred.cell_values[:, 2:] == 0)

    def test_missing_labels_rejected_and_skipped(self, f1_table):
        factors = fit_factors(f1_table)
        pred, rejects = bisg_counts(
            factors, [("s1", "g1"), ("nope", "g1"), ("s1", "gx")]
        )
        assert ("nope", "g1", "missing surname factor") in rejects
        assert ("s1", "gx", "missing geolocation factor") in rejects
        assert pred.n_cells == 1

    def test_self_fit_two_way_margins_exact(self, f1_table):
        # the count-scale model reproduces the (g, r) and (s, r) margins
        # exactly over the full support; the (s, g) margin is NOT matched
        factors = fit_factors(f1_table)
        support = [(s, g) for s in ("s1", "s2") for g in ("g1", "g2")]
        pred, _ = bisg_counts(factors, support)
        np.testing.assert_allclose(pred.margin("gr"), f1_table.margin("gr"), rtol=1e-12)
        np.testing.assert_allclose(pred.margin("sr"), f1_table.margin("sr"), rtol=1e-12)
        assert np.max(np.abs(pred.margin("sg") - f1_table.margin("sg"))) > 0.1

    def test_margin_set_totals_match_mapping(self, f1_table):
        factors = fit_factors(f1_table)
        totals = {key: float(vec.sum()) for key, vec in f1_table.items()}
        want, _ = weighted_counts(factors, totals)
        got, _ = weighted_counts(factors, MarginSet.from_table(f1_table))
        assert got.labels == want.labels
        np.testing.assert_array_equal(got.cell_index, want.cell_index)
        np.testing.assert_array_equal(got.cell_values, want.cell_values)
        with pytest.raises(ValueError, match="no predictable cells"):
            weighted_counts(factors, MarginSet(None))

    def test_weighted_estimator_margin_not_inherited(self, f1_table):
        # normalizing per cell breaks the exact-margin identity: the
        # weighted estimate of (g1, r1) comes out near 11.592, not 11
        factors = fit_factors(f1_table)
        totals = {key: float(vec.sum()) for key, vec in f1_table.items()}
        pred, _ = weighted_counts(factors, totals)
        est = pred.margin("gr")[0, 0]
        assert est == pytest.approx(11.592, abs=1e-3)
        assert abs(est - 11.0) > 0.5


class TestBisgProbability:
    def test_f1_posterior(self, f1_table):
        factors = fit_factors(f1_table)
        out = bisg_probability(factors, "s1", "g1")
        np.testing.assert_allclose(out[:2], [0.767830, 0.232170], atol=5e-7)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_adjustment_reweights(self):
        # flat factors give a (0.5, 0.5) posterior; weights (1.2, 0.8)
        # shift it to (0.6, 0.4)
        factors = one_cell_factors(race6(0.5, 0.5), race6(0.5, 0.5), race6(0.5, 0.5))
        adj = voter_adjustment(race6(0.6, 0.4), race6(0.5, 0.5))
        out = bisg_probability(factors, "s", "g", adjustment=adj)
        np.testing.assert_allclose(out[:2], [0.6, 0.4], atol=1e-12)

    def test_uninformative_cell_returns_prior(self):
        prior = race6(0.3, 0.2, 0.1, 0.15, 0.2, 0.05)
        factors = one_cell_factors(prior.copy(), prior.copy(), prior.copy())
        np.testing.assert_allclose(
            bisg_probability(factors, "s", "g"), prior, rtol=1e-12
        )

    def test_unknown_label_raises(self, f1_table):
        factors = fit_factors(f1_table)
        with pytest.raises(MissingFactorError, match="label not in factors"):
            bisg_probability(factors, "sX", "g1")

    def test_all_zero_numerator(self):
        factors = one_cell_factors(race6(0, 1), race6(1, 0), race6(0.5, 0.5))
        with pytest.raises(ValueError, match="no admissible race"):
            bisg_probability(factors, "s", "g")

    @given(
        st.floats(0.1, 10.0),
        st.floats(0.1, 10.0),
        st.floats(0.1, 10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, a, b, c):
        rg = race6(0.3, 0.7)
        rs = race6(0.6, 0.4)
        prior = race6(0.45, 0.55)
        weight = race6(1.1, 0.9)
        base = posterior(rg, rs, prior, weight=weight)
        scaled = posterior(a * rg, b * rs, prior, weight=c * weight)
        np.testing.assert_allclose(scaled, base, rtol=1e-12)

    def test_all_ones_adjustment_is_identity(self, f1_table):
        factors = fit_factors(f1_table)
        adj = voter_adjustment(factors.race_prior, factors.race_prior)
        plain = bisg_probability(factors, "s1", "g1")
        adjusted = bisg_probability(factors, "s1", "g1", adjustment=adj)
        np.testing.assert_array_equal(plain, adjusted)


class TestVoterAdjustment:
    def test_entrywise_ratio(self):
        adj = voter_adjustment(race6(0.6, 0.4), race6(0.5, 0.5))
        np.testing.assert_allclose(adj.weight[:2], [1.2, 0.8], rtol=1e-12)

    def test_identical_distributions_give_unit_weights(self):
        prior = race6(0.2, 0.3, 0.1, 0.1, 0.25, 0.05)
        adj = voter_adjustment(prior, prior)
        np.testing.assert_allclose(adj.weight, np.ones(6), rtol=1e-12)

    def test_one_hot(self):
        adj = voter_adjustment(race6(1, 0), race6(0.5, 0.5))
        np.testing.assert_allclose(adj.weight[:2], [2.0, 0.0])

    def test_shared_zero_races_get_zero_weight(self):
        adj = voter_adjustment(race6(0.6, 0.4), race6(0.5, 0.5))
        assert np.all(adj.weight[2:] == 0)

    def test_unsupported_race_rejected(self):
        with pytest.raises(ValueError, match="unsupported race"):
            voter_adjustment(race6(0.5, 0.5), race6(1.0))

    def test_non_probability_rejected(self):
        with pytest.raises(ValueError):
            voter_adjustment(race6(0.5, 0.4), race6(0.5, 0.5))


class TestBaselines:
    def test_geo_only_f1(self, f1_table):
        factors = fit_factors(f1_table)
        np.testing.assert_allclose(
            baseline_geo_only(factors, "g1"), race6(0.55, 0.45), rtol=1e-12
        )

    def test_surname_only_f1(self, f1_table):
        factors = fit_factors(f1_table)
        np.testing.assert_allclose(
            baseline_surname_only(factors, "s2"), race6(0.28, 0.72), rtol=1e-12
        )

    def test_single_race_table_one_hot(self):
        table = ContingencyTable.from_label_cells(
            {("a", "x"): race6(0, 0, 4), ("b", "x"): race6(0, 0, 2)}
        )
        factors = fit_factors(table)
        np.testing.assert_array_equal(
            baseline_geo_only(factors, "x"), race6(0, 0, 1)
        )

    def test_unknown_label(self, f1_table):
        factors = fit_factors(f1_table)
        with pytest.raises(MissingFactorError, match="label not in factors"):
            baseline_geo_only(factors, "gX")
        with pytest.raises(MissingFactorError, match="label not in factors"):
            baseline_surname_only(factors, "sX")


class TestWeightedCounts:
    def test_missing_surname_falls_back_to_geo(self, f1_table):
        factors = fit_factors(f1_table)
        pred, rejects = weighted_counts(factors, {("sX", "g1"): 4.0})
        np.testing.assert_allclose(pred.cell("sX", "g1"), 4.0 * race6(0.55, 0.45))
        assert rejects == [("sX", "g1", "missing surname factor; used geolocation baseline")]

    def test_fallback_keeps_total(self, f1_table):
        factors = fit_factors(f1_table)
        totals = {("s1", "g1"): 3.0, ("sX", "g2"): 2.0}
        pred, _ = weighted_counts(factors, totals)
        assert pred.total() == pytest.approx(5.0, rel=1e-12)

    def test_missing_geo_skipped(self, f1_table):
        factors = fit_factors(f1_table)
        pred, rejects = weighted_counts(factors, {("s1", "g1"): 1.0, ("s1", "gX"): 1.0})
        assert rejects == [("s1", "gX", "missing geolocation factor")]
        assert pred.n_cells == 1

    def test_methods_match_baselines(self, f1_table):
        factors = fit_factors(f1_table)
        totals = {("s1", "g1"): 2.0}
        geo, _ = weighted_counts(factors, totals, method="geo-only")
        np.testing.assert_allclose(geo.cell("s1", "g1"), 2.0 * race6(0.55, 0.45))
        sur, _ = weighted_counts(factors, totals, method="surname-only")
        np.testing.assert_allclose(sur.cell("s1", "g1"), 2.0 * race6(10 / 15, 5 / 15))

    def test_zero_weight_cells_dropped(self, f1_table):
        factors = fit_factors(f1_table)
        pred, _ = weighted_counts(factors, {("s1", "g1"): 2.0, ("s2", "g1"): 0.0})
        assert pred.n_cells == 1

    def test_negative_weight_rejected(self, f1_table):
        factors = fit_factors(f1_table)
        with pytest.raises(ValueError, match="negative cell total"):
            weighted_counts(factors, {("s1", "g1"): -1.0})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, f1_table, bad):
        factors = fit_factors(f1_table)
        with pytest.raises(ValueError, match=r"non-finite cell total at \('s1', 'g1'\)"):
            weighted_counts(factors, {("s1", "g1"): bad, ("s2", "g1"): 1.0})


class TestFactorValidation:
    def test_bad_conditional_sum_rejected(self):
        with pytest.raises(ValueError, match=r"race_given_geo\['g'\] sums to"):
            one_cell_factors(race6(1), race6(0.5, 0.4), race6(1))

    def test_bad_prior_rejected(self):
        with pytest.raises(ValueError, match="race_prior"):
            one_cell_factors(race6(1), race6(1), race6(0.5, 0.4))

    def test_arrays_must_match_labels(self):
        with pytest.raises(ValueError, match=r"race_given_surname must have shape \(1, 6\)"):
            BisgFactors(AxisLabels(["s"], ["g"]), [race6(1)] * 2, [race6(1)], race6(1), [1], [1])
        with pytest.raises(ValueError, match=r"geo_counts must have shape \(1,\)"):
            BisgFactors(AxisLabels(["s"], ["g"]), [race6(1)], [race6(1)], race6(1), [1], [])
        factors = one_cell_factors(race6(1), race6(1), race6(1))
        with pytest.raises(ValueError, match="read-only"):
            factors.race_given_geo[0, 0] = 0.5

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_inputs_rejected(self, bad):
        with pytest.raises(ValueError, match=r"non-finite entries in race_given_geo\['g'\]"):
            one_cell_factors(race6(1), race6(bad, 0.5), race6(1))
        with pytest.raises(ValueError, match="non-finite race_prior"):
            one_cell_factors(race6(1), race6(1), race6(bad, 1))
        with pytest.raises(ValueError, match="non-finite entry in geo_counts"):
            one_cell_factors(race6(1), race6(1), race6(1), geo_count=bad)
        with pytest.raises(ValueError, match="non-finite adjustment weight"):
            VoterAdjustment(race6(bad, 1))
