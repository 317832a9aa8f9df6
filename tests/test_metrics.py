import csv

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from raketab import (
    AxisLabels,
    ContingencyTable,
    PredictionTable,
    RaceCategory,
    calibration_curve,
    cellwise_report,
    fit_factors,
    kuiper,
    subpop_report,
    weighted_counts,
)
from raketab.ingest import write_calibration_curves, write_cellwise, write_subpop
from raketab.metrics import (
    CURVE_RESOLUTION,
    CalibrationCurve,
    ESTIMATE_MINUS_TRUTH,
    TRUTH_MINUS_ESTIMATE,
    _aligned,
    _stable_order,
)

from conftest import race6


def as_prediction(table):
    return PredictionTable.from_label_cells(dict(table.items()))


def single_cell_pair(truth_vec, pred_vec):
    truth = ContingencyTable.from_label_cells({("s", "g"): truth_vec})
    pred = PredictionTable.from_label_cells({("s", "g"): pred_vec})
    return truth, pred


class TestSubpopReport:
    def test_statewide_black_conformance(self):
        # one-cell statewide comparison: truth 1,762,643 vs estimate
        # 1,725,555 must report a signed error of -37,088 and a relative
        # error near -2.10%
        truth, pred = single_cell_pair(race6(0, 0, 1_762_643), race6(0, 0, 1_725_555))
        report = subpop_report(truth, pred)
        assert abs(report.abs_error[0, 2] - (-37_087)) <= 1.0
        assert report.rel_error[0, 2] * 100 == pytest.approx(-2.10, abs=0.01)

    def test_f1_weighted_estimator_error(self, f1_table):
        factors = fit_factors(f1_table)
        totals = {key: float(vec.sum()) for key, vec in f1_table.items()}
        pred, _ = weighted_counts(factors, totals)
        report = subpop_report(f1_table, pred)
        assert report.abs_error[0, 0] == pytest.approx(0.592, abs=1e-3)
        assert report.rel_error[0, 0] == pytest.approx(0.054, abs=1e-3)

    def test_perfect_prediction_zero_errors(self, f1_table):
        report = subpop_report(f1_table, as_prediction(f1_table))
        assert np.all(report.abs_error == 0)
        assert np.all(report.mad == 0)
        assert np.all(report.avg_error == 0)

    def test_relative_error_null_on_empty_subpop(self, f1_table):
        report = subpop_report(f1_table, as_prediction(f1_table))
        assert np.all(np.isnan(report.rel_error[:, 2:]))

    def test_orientation_flip_negates_signed_errors(self, f1_table):
        factors = fit_factors(f1_table)
        totals = {key: float(vec.sum()) for key, vec in f1_table.items()}
        pred, _ = weighted_counts(factors, totals)
        fig = subpop_report(f1_table, pred, orientation=ESTIMATE_MINUS_TRUTH)
        apx = subpop_report(f1_table, pred, orientation=TRUTH_MINUS_ESTIMATE)
        np.testing.assert_allclose(apx.abs_error, -fig.abs_error)
        np.testing.assert_allclose(apx.avg_error, -fig.avg_error)
        np.testing.assert_array_equal(apx.mad, fig.mad)

    def test_mad_bounds_average_error(self, f1_table):
        factors = fit_factors(f1_table)
        totals = {key: float(vec.sum()) for key, vec in f1_table.items()}
        pred, _ = weighted_counts(factors, totals)
        report = subpop_report(f1_table, pred)
        assert np.all(report.mad >= np.abs(report.avg_error) - 1e-12)

    def test_label_mismatch_rejected(self, f1_table):
        stranger = PredictionTable.from_label_cells({("zz", "g9"): race6(1)})
        with pytest.raises(ValueError):
            subpop_report(f1_table, stranger)

    def test_csv_roundtrip(self, f1_table, tmp_path):
        report = subpop_report(f1_table, as_prediction(f1_table))
        path = tmp_path / "subpop.csv"
        write_subpop(path, report)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["geolocation", "race", "truth", "estimate", "error", "relative_error"]
        assert len(rows) == 1 + 2 * 6


class TestCellwiseReport:
    def test_perfect_prediction(self, f1_table):
        report = cellwise_report(f1_table, as_prediction(f1_table))
        np.testing.assert_array_equal(report.l1, np.zeros(2))
        np.testing.assert_array_equal(report.l2, np.zeros(2))

    def test_f1_l1_matches_brute_force(self, f1_table):
        factors = fit_factors(f1_table)
        totals = {key: float(vec.sum()) for key, vec in f1_table.items()}
        pred, _ = weighted_counts(factors, totals)
        report = cellwise_report(f1_table, pred)
        # brute-force summation over the two cells of g1
        acc_l1 = 0.0
        acc_l2 = 0.0
        for s in ("s1", "s2"):
            d = f1_table.cell(s, "g1") - pred.cell(s, "g1")
            acc_l1 += np.abs(d).sum()
            acc_l2 += np.sqrt((d * d).sum())
        assert report.l1[0] == pytest.approx(acc_l1 / 20.0, rel=1e-12)
        assert report.l2[0] == pytest.approx(acc_l2 / 20.0, rel=1e-12)

    def test_nll_single_cell(self):
        truth, pred = single_cell_pair(race6(1, 0), race6(0.5, 0.5))
        report = cellwise_report(truth, pred)
        assert report.nll[0] == pytest.approx(np.log(2), rel=1e-12)

    def test_nll_floors_zero_predictions(self):
        truth, pred = single_cell_pair(race6(1, 1), race6(0, 2))
        report = cellwise_report(truth, pred)
        assert np.isfinite(report.nll[0])
        assert report.nll[0] == pytest.approx(-np.log(1e-12) / 2, rel=1e-6)

    def test_zero_population_geo_is_null(self):
        truth = ContingencyTable.from_label_cells(
            {("a", "x"): race6(2, 2), ("a", "y"): race6()}
        )
        pred = PredictionTable.from_label_cells({("a", "x"): race6(2, 2)})
        report = cellwise_report(truth, pred)
        assert np.isnan(report.l1[1]) and np.isnan(report.nll[1])

    def test_region_aggregation(self, f1_table):
        factors = fit_factors(f1_table)
        totals = {key: float(vec.sum()) for key, vec in f1_table.items()}
        pred, _ = weighted_counts(factors, totals)
        region_map = {"g1": "north", "g2": "north"}
        report = cellwise_report(f1_table, pred, region_map=region_map)
        acc = 0.0
        for key, vec in f1_table.items():
            acc += np.abs(vec - pred.cell(*key)).sum()
        assert report.regions["north"][0] == pytest.approx(acc / 40.0, rel=1e-12)
        assert report.overall[0] == pytest.approx(acc / 40.0, rel=1e-12)

    def test_per_cell_l2_below_l1(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            d = rng.normal(size=6)
            assert np.sqrt((d * d).sum()) <= np.abs(d).sum() + 1e-12

    def test_csv_layout(self, f1_table, tmp_path):
        report = cellwise_report(
            f1_table, as_prediction(f1_table), region_map={"g1": "r", "g2": "r"}
        )
        path = tmp_path / "cellwise.csv"
        write_cellwise(path, report)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["level", "name", "l1", "l2", "nll"]
        levels = {row[0] for row in rows[1:]}
        assert levels == {"geolocation", "region", "overall"}


class TestAlignment:
    @staticmethod
    def reports(truth, pred):
        sub = subpop_report(truth, pred)
        cell = cellwise_report(truth, pred, region_map={"g1": "r", "g2": "r", "g3": "q"})
        curves = [calibration_curve(truth, pred, race).points for race in RaceCategory]
        return [sub.estimate_counts, sub.abs_error, cell.l1, cell.l2, cell.nll,
                np.array(cell.overall), *curves]

    def test_identity_layout_matches_general_join(self):
        # the truth has an empty cell ("c", "g3"), where the prediction is zero
        rng = np.random.default_rng(8)
        cells = {(s, g): rng.integers(0, 5, size=6) + 0.5 for s in "abc" for g in ("g1", "g2")}
        cells[("c", "g3")] = race6()
        truth = ContingencyTable.from_label_cells(cells)
        pred_cells = {key: rng.random(6) + 0.1 for key in cells}
        pred_cells[("c", "g3")] = race6()
        pred = PredictionTable(truth.labels, truth.cell_index,
                               [pred_cells[key] for key in truth.support()])
        assert _aligned(truth, pred)[1] is pred.cell_values

        # the same cells under labels in another order
        surs, geos = truth.labels.surnames[::-1], truth.labels.geolocations[::-1]
        relabelled = AxisLabels(surs, geos)
        idx = np.array([[surs.index(s), geos.index(g)] for s, g in truth.support()])
        order = np.lexsort((idx[:, 1], idx[:, 0]))
        moved = PredictionTable(relabelled, idx[order], pred.cell_values[order])
        # the occupied cells only, on the labels they use: the truth's
        # labels are a superset
        occupied = PredictionTable.from_label_cells(
            {key: vec for key, vec in pred_cells.items() if key != ("c", "g3")}
        )
        want = self.reports(truth, pred)
        for other in (moved, occupied):
            assert _aligned(truth, other)[1] is not other.cell_values
            for got, expected in zip(self.reports(truth, other), want):
                np.testing.assert_array_equal(got, expected)

    def test_unknown_labels_still_rejected(self, f1_table):
        # cells equal in position but under other labels take the general join
        pred = PredictionTable(AxisLabels(["s1", "x"], ["g1", "g2"]), f1_table.cell_index,
                               f1_table.cell_values)
        with pytest.raises(ValueError, match="surnames unknown"):
            subpop_report(f1_table, pred)


class TestCalibrationCurve:
    def test_perfectly_calibrated_flat(self, f1_table):
        curve = calibration_curve(f1_table, as_prediction(f1_table), RaceCategory.AIAN)
        np.testing.assert_allclose(curve.values(), np.zeros(len(curve.points)), atol=1e-12)
        assert curve.kuiper == pytest.approx(0.0, abs=1e-12)

    def test_two_cell_hand_example(self):
        truth = ContingencyTable.from_label_cells(
            {("a", "g"): race6(0.4, 0.6), ("b", "g"): race6(0.6, 0.4)}
        )
        pred = PredictionTable.from_label_cells(
            {("a", "g"): race6(0.2, 0.8), ("b", "g"): race6(0.8, 0.2)}
        )
        curve = calibration_curve(truth, pred, RaceCategory.AIAN)
        np.testing.assert_allclose(curve.values(), [0.0, 0.1, 0.0], atol=1e-12)
        assert curve.kuiper == pytest.approx(0.1, abs=1e-12)

    def test_curve_starts_at_origin(self, f1_table):
        curve = calibration_curve(f1_table, as_prediction(f1_table), RaceCategory.API)
        assert curve.points.shape == (f1_table.n_cells + 1, 2)
        assert tuple(curve.points[0]) == (0.0, 0.0)

    def test_zero_weight_cells_ignored(self):
        cells = {("a", "g"): race6(0.4, 0.6), ("b", "g"): race6(0.6, 0.4)}
        pred_cells = {("a", "g"): race6(0.2, 0.8), ("b", "g"): race6(0.8, 0.2)}
        truth1 = ContingencyTable.from_label_cells(cells)
        pred1 = PredictionTable.from_label_cells(pred_cells)
        truth2 = ContingencyTable.from_label_cells({**cells, ("zz", "g"): race6()})
        pred2 = PredictionTable.from_label_cells({**pred_cells, ("zz", "g"): race6(1, 1)})
        k1 = calibration_curve(truth1, pred1, RaceCategory.AIAN).kuiper
        k2 = calibration_curve(truth2, pred2, RaceCategory.AIAN).kuiper
        assert k1 == pytest.approx(k2, abs=1e-15)

    def test_missing_prediction_rejected(self, f1_table):
        pred = PredictionTable.from_label_cells({("s1", "g1"): race6(1, 1)})
        with pytest.raises(ValueError, match="missing prediction"):
            calibration_curve(f1_table, pred, RaceCategory.AIAN)

    def test_tie_break_deterministic(self):
        # equal predicted probabilities: cells are taken in label order
        truth = ContingencyTable.from_label_cells(
            {("a", "g"): race6(1, 0), ("b", "g"): race6(0, 1)}
        )
        pred = PredictionTable.from_label_cells(
            {("a", "g"): race6(1, 1), ("b", "g"): race6(1, 1)}
        )
        curve = calibration_curve(truth, pred, RaceCategory.AIAN)
        np.testing.assert_allclose(curve.values(), [0.0, 0.25, 0.0], atol=1e-12)

    def test_ties_follow_surname_then_geolocation(self):
        # few distinct conditionals, so most cells tie; the order must be
        # (probability, surname index, geolocation index), as a lexsort gives
        rng = np.random.default_rng(3)
        cells = {(f"s{i}", f"g{j}"): rng.integers(0, 4, size=6).astype(float) + 0.5
                 for i in range(7) for j in range(5)}
        choices = rng.integers(1, 3, size=(3, 6)).astype(float)
        truth = ContingencyTable.from_label_cells(cells)
        pred = PredictionTable.from_label_cells(
            {key: choices[rng.integers(0, 3)] for key in cells}
        )
        for race in RaceCategory:
            probs = pred.cell_values[:, race] / pred.cell_sums
            idx = truth.cell_index
            order = np.lexsort((idx[:, 1], idx[:, 0], probs))
            w = truth.cell_sums[order]
            gaps = truth.cell_values[order, race] / w - probs[order]
            want = np.cumsum(w * gaps) / w.sum()
            got = calibration_curve(truth, pred, race)
            np.testing.assert_array_equal(got.values()[1:], want)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.sampled_from([0.0, -0.0, 0.25, 1 / 3, 0.5, 1.0, 1e-300, 5e-324]) | st.floats(-1, 1),
        min_size=1, max_size=60,
    ))
    def test_order_is_the_stable_argsort(self, values):
        # many ties, 0.0 against -0.0, and lists without a tie
        a = np.array(values)
        np.testing.assert_array_equal(_stable_order(a), np.argsort(a, kind="stable"))

    def test_csv(self, f1_table, tmp_path):
        curve = calibration_curve(f1_table, as_prediction(f1_table), RaceCategory.AIAN)
        path = tmp_path / "curves.csv"
        write_calibration_curves(path, [curve])
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["race", "cumulative_weight", "cumulative_miscalibration"]
        assert len(rows) == 1 + len(curve.outline())
        assert [[float(x) for x in row[1:]] for row in rows[1:]] == curve.outline().tolist()
        assert {row[0] for row in rows[1:]} == {"aian"}

    def test_small_curve_outline_is_whole(self, f1_table):
        # no bin of cumulative weight holds more than 3 points
        curve = calibration_curve(f1_table, as_prediction(f1_table), RaceCategory.API)
        np.testing.assert_array_equal(curve.outline(), curve.points)

    @staticmethod
    def bin_envelope(points):
        """Per-bin (max, min) of the curve values, bins as `outline` makes them."""
        x, y = points[1:, 0], points[1:, 1]
        bins = np.clip(np.ceil(x * CURVE_RESOLUTION), 1, CURVE_RESOLUTION).astype(int)
        hi = np.full(CURVE_RESOLUTION + 1, -np.inf)
        lo = np.full(CURVE_RESOLUTION + 1, np.inf)
        np.maximum.at(hi, bins, y)
        np.minimum.at(lo, bins, y)
        return hi, lo

    def test_outline_is_bounded_and_keeps_extremes(self):
        # 20,000 cells, more than 3K points: bins hold about 5 points each.
        # Real curves from random tables, and a random walk whose extremes
        # lie inside the curve rather than at its ends
        rng = np.random.default_rng(5)
        n_s, n_g = 200, 100
        index = np.column_stack(np.divmod(np.arange(n_s * n_g), n_g))
        truth = ContingencyTable(
            AxisLabels([f"s{i:03d}" for i in range(n_s)], [f"g{j:03d}" for j in range(n_g)]),
            index, rng.gamma(0.3, 10.0, size=(n_s * n_g, 6)) + 1e-3,
        )
        pred = PredictionTable(truth.labels, index, rng.gamma(1.0, 1.0, size=(n_s * n_g, 6)) + 1e-3)
        curves = [calibration_curve(truth, pred, race) for race in RaceCategory]
        walk = np.zeros((n_s * n_g + 1, 2))
        walk[1:, 0] = np.arange(1, n_s * n_g + 1) / (n_s * n_g)
        walk[1:, 1] = np.cumsum(rng.normal(size=n_s * n_g))
        curves.append(CalibrationCurve(RaceCategory.AIAN, walk, kuiper(walk[1:, 1])))
        for curve in curves:
            outline = curve.outline()
            assert len(curve.points) > 3 * CURVE_RESOLUTION + 1
            assert len(outline) <= 3 * CURVE_RESOLUTION + 1
            # every written row is a row of the curve, in the curve's order
            rows = iter(curve.points.tolist())
            assert all(any(row == point for point in rows) for row in outline.tolist())
            assert outline[0].tolist() == [0.0, 0.0]
            np.testing.assert_array_equal(outline[-1], curve.points[-1])
            assert outline[:, 1].max() - outline[:, 1].min() == curve.kuiper
            for got, want in zip(self.bin_envelope(outline), self.bin_envelope(curve.points)):
                np.testing.assert_array_equal(got, want)


class TestKuiper:
    def test_flat_zero(self):
        assert kuiper([0.0, 0.0, 0.0]) == 0.0

    def test_two_point_curve(self):
        assert kuiper([0.1, 0.0]) == pytest.approx(0.1, abs=1e-15)

    def test_mixed_sign_curve(self):
        assert kuiper([-0.05, 0.02]) == pytest.approx(0.07, abs=1e-15)

    def test_accepts_curve_object(self, f1_table):
        curve = calibration_curve(f1_table, as_prediction(f1_table), RaceCategory.AIAN)
        assert kuiper(curve) == curve.kuiper

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            kuiper([])

    @given(st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_matches_definition(self, values):
        padded = np.concatenate([[0.0], values])
        assert kuiper(values) == pytest.approx(padded.max() - padded.min(), abs=1e-15)
