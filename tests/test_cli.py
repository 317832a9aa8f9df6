import csv
import json

import numpy as np
import pytest

from raketab import RACE_NAMES
from raketab.cli import main


def run_cli(*args):
    return main([str(a) for a in args])


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def synth_fixture(tmp_path, seed=11, dependence=0.6, name="fix"):
    out = tmp_path / name
    assert run_cli(
        "synth", "--surnames", 12, "--geos", 5, "--dependence", dependence,
        "--total", 2000, "--seed", seed, "--out-dir", out,
    ) == 0
    return out


def predict_dir(tmp_path, fix, name="pred", extra=()):
    out = tmp_path / name
    assert run_cli(
        "predict",
        "--surname-factors", fix / "surname_factors.csv",
        "--geo-factors", fix / "geo_factors.csv",
        "--prior", fix / "prior.json",
        "--table", fix / "table.csv",
        *extra,
        "--out-dir", out,
    ) == 0
    return out


class TestPipeline:
    def test_full_chain_produces_reports(self, tmp_path):
        fix = synth_fixture(tmp_path)
        pred = predict_dir(tmp_path, fix)
        info = read_json(pred / "manifest.json")["info"]
        # every one of the 12 x 5 occupied cells has both factors
        assert info["factor_labels"] == {"surname": 12, "geo": 5}
        assert info["cells_in"] == info["cells_out"] == 60

        raked = tmp_path / "raked"
        assert run_cli(
            "rake", "--base", pred / "predictions.csv",
            "--race-margin", fix / "race_margin.json", "--out-dir", raked,
        ) == 0
        theta = read_json(raked / "theta.json")
        assert theta["final_margin_gap"] <= 1e-10
        info = read_json(raked / "manifest.json")["info"]
        # the race-margin gap at the start and after each Newton step
        history = info["gap_history"]
        assert len(history) == info["iterations"] + 1 == theta["iterations"] + 1
        assert history[0] > 1e-10 >= info["final_margin_gap"] >= history[-1]
        assert info["peak_rss_mb"] > 0
        # every base cell has a positive target and keeps its mass
        rows = (pred / "predictions.csv").read_text(encoding="utf-8").count("\n") - 1
        assert info["cells_in"] == info["cells_out"] == rows
        # every base cell supports every race, so a set R of races has all
        # of the cell targets behind it and slack 1 - share(R): at the
        # uniform race mix the tightest sets are five races, at 1/6
        assert info["feasibility_slack"] == pytest.approx(1 / 6, rel=1e-9)
        assert len(info["tightest_races"]) == 5
        assert set(info["tightest_races"]) < set(RACE_NAMES)

        ev = tmp_path / "eval"
        assert run_cli(
            "evaluate", "--truth-table", fix / "table.csv",
            "--preds", raked / "raked.csv", "--out-dir", ev,
        ) == 0
        summary = read_json(ev / "summary.json")
        # raking restores the statewide race margin exactly
        for value in summary["subpopulation"]["avg_error"].values():
            assert abs(value) < 1e-6
        assert set(summary["kuiper"]) == {"aian", "api", "black", "hispanic", "white", "other"}
        assert summary["kuiper_includes_other"] is True
        assert (ev / "subpop.csv").exists()
        assert (ev / "cellwise.csv").exists()
        assert (ev / "calibration_curves.csv").exists()
        info = read_json(ev / "manifest.json")["info"]
        assert info["cells_in"] == {"truth": 60, "preds": 60}
        assert info["cells_out"] == 60
        # 60 cells are too few for a bin of more than 3 points: whole curves
        assert info["curve_points"] == {race: 61 for race in RACE_NAMES}
        curve_rows = read_csv(ev / "calibration_curves.csv")[1:]
        for race in RACE_NAMES:
            assert sum(row[0] == race for row in curve_rows) == info["curve_points"][race]

    def test_independent_population_evaluates_clean(self, tmp_path):
        fix = synth_fixture(tmp_path, seed=4, dependence=0.0)
        pred = predict_dir(tmp_path, fix)
        ev = tmp_path / "eval"
        assert run_cli(
            "evaluate", "--truth-table", fix / "table.csv",
            "--preds", pred / "predictions.csv", "--out-dir", ev,
        ) == 0
        summary = read_json(ev / "summary.json")
        for value in summary["subpopulation"]["mad"].values():
            assert abs(value) < 1e-8
        for value in summary["kuiper"].values():
            assert value < 1e-9

    def test_rake_fixed_point_records_no_step(self, tmp_path):
        fix = synth_fixture(tmp_path, seed=7)
        pred = predict_dir(tmp_path, fix)
        raked1 = tmp_path / "raked1"
        assert run_cli(
            "rake", "--base", pred / "predictions.csv",
            "--race-margin", fix / "race_margin.json", "--out-dir", raked1,
        ) == 0
        # raking the already-raked output is a fixed point: no Newton step
        # and numerically unchanged values
        raked2 = tmp_path / "raked2"
        assert run_cli(
            "rake", "--base", raked1 / "raked.csv",
            "--race-margin", fix / "race_margin.json", "--out-dir", raked2,
        ) == 0
        manifest = read_json(raked2 / "manifest.json")
        assert manifest["info"]["iterations"] == 0
        rows1, rows2 = read_csv(raked1 / "raked.csv"), read_csv(raked2 / "raked.csv")
        assert len(rows1) == len(rows2)
        for r1, r2 in zip(rows1[1:], rows2[1:]):
            assert r1[:2] == r2[:2]
            # a re-rake may move values by up to the convergence tolerance
            np.testing.assert_allclose(
                [float(x) for x in r1[2:]], [float(x) for x in r2[2:]], rtol=1e-9
            )

    def test_geo_only_method(self, tmp_path):
        fix = synth_fixture(tmp_path, seed=3)
        pred = predict_dir(tmp_path, fix, name="pred_geo", extra=("--method", "geo-only"))
        rows = read_csv(pred / "predictions.csv")
        # all cells in one geolocation share the same conditional
        by_geo = {}
        for row in rows[1:]:
            by_geo.setdefault(row[1], []).append([float(x) for x in row[3:]])
        for conds in by_geo.values():
            arr = np.array(conds)
            np.testing.assert_allclose(arr, np.tile(arr[0], (len(arr), 1)), rtol=1e-12)


class TestFitFactorsCli:
    def test_fit_from_voter_file_then_predict(self, tmp_path):
        voters = tmp_path / "v.csv"
        rows = ["voter_id,surname,geoid,race,active"]
        rng_rows = [
            ("1", "GARCIA", "g1", "hispanic"), ("2", "GARCIA", "g1", "hispanic"),
            ("3", "SMITH", "g1", "white"), ("4", "SMITH", "g2", "white"),
            ("5", "GARCIA", "g2", "white"), ("6", "JONES", "g2", "black"),
        ]
        for vid, s, g, r in rng_rows:
            rows.append(f"{vid},{s},{g},{r},true")
        rows.append("7,IGNORED,g1,black,false")  # inactive: excluded from fitting
        voters.write_text("\n".join(rows) + "\n")
        fit = tmp_path / "fit"
        assert run_cli(
            "fit-factors", "--voters", voters, "--mapping", "canonical",
            "--out-dir", fit,
        ) == 0
        prior = read_json(fit / "prior.json")["race_distribution"]
        assert prior["white"] == pytest.approx(3 / 6)
        out = tmp_path / "pred"
        assert run_cli(
            "predict", "--surname-factors", fit / "surname_factors.csv",
            "--geo-factors", fit / "geo_factors.csv", "--prior", fit / "prior.json",
            "--voters", voters, "--mapping", "canonical", "--out-dir", out,
        ) == 0
        rows = read_csv(out / "predictions.csv")
        assert len(rows) > 1

    def test_fit_from_table_matches_synth_factors(self, tmp_path):
        fix = synth_fixture(tmp_path, seed=6)
        fit = tmp_path / "fit"
        assert run_cli(
            "fit-factors", "--table", fix / "table.csv", "--out-dir", fit
        ) == 0
        assert (fit / "surname_factors.csv").read_bytes() == (
            fix / "surname_factors.csv"
        ).read_bytes()
        assert (fit / "prior.json").read_bytes() == (fix / "prior.json").read_bytes()

    def test_factor_parse_rejects_surfaced(self, tmp_path):
        fix = synth_fixture(tmp_path, seed=8)
        bad = tmp_path / "sf.csv"
        lines = (fix / "surname_factors.csv").read_text().splitlines()
        lines.append("BADROW,1,0.2,0.2,0,0,0,0")
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "pred"
        assert run_cli(
            "predict", "--surname-factors", bad,
            "--geo-factors", fix / "geo_factors.csv",
            "--prior", fix / "prior.json",
            "--table", fix / "table.csv", "--out-dir", out,
        ) == 0
        assert (out / "surname_factor_rejects.csv").exists()
        manifest = read_json(out / "manifest.json")
        assert manifest["info"]["surname_factor_rejects"] == 1
        assert manifest["info"]["factor_labels"] == {"surname": 12, "geo": 5}

    def test_predict_counts_cells_and_factor_labels(self, tmp_path):
        # without the last geolocation's factor row its 12 cells are skipped
        fix = synth_fixture(tmp_path, seed=8)
        geo = tmp_path / "gf.csv"
        lines = (fix / "geo_factors.csv").read_text(encoding="utf-8").splitlines()
        geo.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        out = tmp_path / "pred"
        assert run_cli(
            "predict", "--surname-factors", fix / "surname_factors.csv",
            "--geo-factors", geo, "--prior", fix / "prior.json",
            "--table", fix / "table.csv", "--out-dir", out,
        ) == 0
        info = read_json(out / "manifest.json")["info"]
        assert info["factor_labels"] == {"surname": 12, "geo": 4}
        assert info["cells_in"] == 60
        assert info["cells_out"] == 48
        assert info["rejected_cells"] == 12
        assert len(read_csv(out / "predictions.csv")) == 49


class TestCalibMapCli:
    def test_identity_map(self, tmp_path):
        margin = tmp_path / "m.json"
        dist = {"aian": 0.05, "api": 0.1, "black": 0.2, "hispanic": 0.15,
                "white": 0.45, "other": 0.05}
        margin.write_text(json.dumps({"race_distribution": dist}))
        out = tmp_path / "cm"
        assert run_cli(
            "calib-map", "--source", margin, "--target", margin, "--out-dir", out
        ) == 0
        rows = read_csv(out / "calibration_map.csv")
        matrix = np.array([[float(x) for x in row[1:]] for row in rows[1:]])
        np.testing.assert_allclose(matrix, np.eye(6), atol=1e-8)
        info = read_json(out / "manifest.json")["info"]
        assert info["objective"] <= 1e-8
        assert info["feasibility"] <= 1e-9 and info["kkt_residual"] <= 1e-6
        benchmark = np.linalg.norm(np.outer(list(dist.values()), np.ones(6)) - np.eye(6))
        assert info["rank_one_benchmark"] == pytest.approx(benchmark, rel=1e-12)

    def test_non_finite_share_exits_2(self, tmp_path, capsys):
        margin = tmp_path / "m.json"
        margin.write_text(
            '{"race_distribution": {"aian": NaN, "api": 0.1, "black": 0.2,'
            ' "hispanic": 0.15, "white": 0.45, "other": 0.1}}'
        )
        code = run_cli(
            "calib-map", "--source", margin, "--target", margin, "--out-dir", tmp_path / "cm"
        )
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError" and "non-finite" in err["message"]

    def test_evaluate_applies_calibration_map(self, tmp_path):
        fix = synth_fixture(tmp_path, seed=13)
        pred = predict_dir(tmp_path, fix)
        margin = tmp_path / "m.json"
        margin.write_text(
            json.dumps({"race_distribution": {
                "aian": 1 / 6, "api": 1 / 6, "black": 1 / 6,
                "hispanic": 1 / 6, "white": 1 / 6, "other": 1 / 6}})
        )
        cm = tmp_path / "cm"
        assert run_cli("calib-map", "--source", margin, "--target", margin, "--out-dir", cm) == 0
        ev = tmp_path / "ev"
        assert run_cli(
            "evaluate", "--truth-table", fix / "table.csv",
            "--preds", pred / "predictions.csv",
            "--calib-map", cm / "calibration_map.csv", "--out-dir", ev,
        ) == 0

    @pytest.mark.parametrize("entry", ["nan", "-0.5", "0.5"])
    def test_evaluate_rejects_invalid_calibration_map(self, tmp_path, capsys, entry):
        fix = synth_fixture(tmp_path, seed=13)
        pred = predict_dir(tmp_path, fix)
        cm = tmp_path / "cm.csv"
        rows = [",".join(["race", "aian", "api", "black", "hispanic", "white", "other"])]
        for i, race in enumerate(["aian", "api", "black", "hispanic", "white", "other"]):
            row = ["1.0" if i == j else "0.0" for j in range(6)]
            if i == 0:
                row[0] = entry
            rows.append(",".join([race] + row))
        cm.write_text("\n".join(rows) + "\n")
        ev = tmp_path / "ev"
        code = run_cli(
            "evaluate", "--truth-table", fix / "table.csv",
            "--preds", pred / "predictions.csv", "--calib-map", cm, "--out-dir", ev,
        )
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ParseError"
        assert not (ev / "summary.json").exists()


class TestSubsampleCli:
    def test_subsample_matches_target(self, tmp_path):
        voters = tmp_path / "v.csv"
        rows = ["voter_id,surname,geoid,race,active"]
        i = 0
        for race, n in (("white", 60), ("black", 20)):
            for _ in range(n):
                rows.append(f"{i},S{i % 7},g{i % 3},{race},true")
                i += 1
        # inactive and race-missing rows must not enter the sample pool
        rows.append(f"{i},S0,g0,black,false")
        rows.append(f"{i + 1},S1,g1,,true")
        voters.write_text("\n".join(rows) + "\n")
        target = tmp_path / "t.json"
        target.write_text(json.dumps({"race_distribution": {
            "aian": 0, "api": 0, "black": 0.5, "hispanic": 0, "white": 0.5, "other": 0}}))
        out = tmp_path / "sub"
        assert run_cli(
            "subsample", "--voters", voters, "--mapping", "canonical",
            "--target", target, "--seed", 5, "--out-dir", out,
        ) == 0
        sampled = read_csv(out / "subsampled.csv")[1:]
        races = [row[3] for row in sampled]
        assert len(sampled) == 40
        assert races.count("white") == 20 and races.count("black") == 20


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        outputs = {}
        for run in ("one", "two"):
            root = tmp_path / run
            fix = synth_fixture(root, seed=23, dependence=0.5)
            pred = predict_dir(root, fix)
            raked = root / "raked"
            assert run_cli(
                "rake", "--base", pred / "predictions.csv",
                "--race-margin", fix / "race_margin.json", "--out-dir", raked,
            ) == 0
            ev = root / "eval"
            assert run_cli(
                "evaluate", "--truth-table", fix / "table.csv",
                "--preds", raked / "raked.csv", "--out-dir", ev,
            ) == 0
            blobs = {}
            for d in (fix, pred, raked, ev):
                for f in sorted(d.iterdir()):
                    # manifests carry absolute paths; compare their digest
                    # payloads instead of their bytes
                    if f.name == "manifest.json":
                        manifest = read_json(f)
                        blobs[f"{d.name}/digests"] = sorted(
                            (o["path"].rsplit("/", 1)[-1], o["sha256"])
                            for o in manifest["outputs"]
                        )
                    elif f.suffix in (".csv", ".json"):
                        blobs[f"{d.name}/{f.name}"] = f.read_bytes()
            outputs[run] = blobs
        assert outputs["one"] == outputs["two"]

    def test_manifest_digests_cover_outputs(self, tmp_path):
        fix = synth_fixture(tmp_path, seed=2)
        manifest = read_json(fix / "manifest.json")
        assert {o["path"].split("/")[-1] for o in manifest["outputs"]} == {
            "table.csv", "surname_factors.csv", "geo_factors.csv",
            "prior.json", "race_margin.json",
        }
        for entry in manifest["outputs"]:
            assert len(entry["sha256"]) == 64

    def test_manifest_layer_split_and_versions(self, tmp_path):
        import platform

        import raketab

        fix = synth_fixture(tmp_path, seed=3)
        pred = predict_dir(tmp_path, fix)
        manifest = read_json(pred / "manifest.json")
        assert [i["path"].rsplit("/", 1)[-1] for i in manifest["inputs"]] == [
            "surname_factors.csv", "geo_factors.csv", "prior.json", "table.csv",
        ]
        timings = manifest["timings"]
        assert set(timings) == {"parse_s", "write_s", "digest_s", "compute_s"}
        assert all(np.isfinite(t) and t >= 0 for t in timings.values())
        assert timings["parse_s"] > 0 and timings["write_s"] > 0 and timings["digest_s"] > 0
        assert manifest["info"]["peak_rss_mb"] > 0
        assert manifest["versions"] == {
            "raketab": raketab.__version__, "numpy": np.__version__,
            "python": platform.python_version(),
        }


class TestErrors:
    def test_missing_input_gives_error_json_and_exit_2(self, tmp_path, capsys):
        code = run_cli(
            "rake", "--base", tmp_path / "nope.csv",
            "--race-margin", tmp_path / "m.json", "--out-dir", tmp_path / "o",
        )
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["exit_code"] == 2 and err["error"]

    def test_nonconvergence_exit_3(self, tmp_path, capsys):
        fix = synth_fixture(tmp_path, seed=31, dependence=0.9)
        pred = predict_dir(tmp_path, fix)
        code = run_cli(
            "rake", "--base", pred / "predictions.csv",
            "--race-margin", fix / "race_margin.json",
            "--max-iters", 1, "--tol", 1e-14,
            "--out-dir", tmp_path / "raked",
        )
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NonConvergenceError"
        # the diagnostics: the gap, the worst race and its gap at the start
        # and after the one step allowed
        assert err["margin_gap"] > 1e-14
        assert err["worst_race"] in ("aian", "api", "black", "hispanic", "white", "other")
        assert err["worst_race"] in err["message"]
        assert len(err["last_gaps"]) == 2 and err["last_gaps"][-1] <= err["margin_gap"]

    def test_unreachable_race_margin_exits_2(self, tmp_path, capsys):
        # cell a supports only aian and cell b only api, so no table meets
        # 3 aian and 1 api with 2 people in each cell
        base = tmp_path / "base.csv"
        base.write_text(
            "surname,geoid,count,p_aian,p_api,p_black,p_hispanic,p_white,p_other\n"
            "A,x,2,1,0,0,0,0,0\nB,x,2,0,1,0,0,0,0\n"
        )
        margin = tmp_path / "margin.json"
        margin.write_text(json.dumps({"race_distribution": {
            "aian": 0.75, "api": 0.25, "black": 0, "hispanic": 0, "white": 0, "other": 0}}))
        err = exits_2_with_json_error(
            capsys, "rake", "--base", base, "--race-margin", margin,
            "--out-dir", tmp_path / "raked",
        )
        assert err["error"] == "InfeasibleMarginError"
        assert "aian" in err["message"] and "api" in err["message"]
        assert not (tmp_path / "raked" / "raked.csv").exists()


class TestAdjustment:
    def test_adjust_cps_changes_predictions(self, tmp_path):
        fix = synth_fixture(tmp_path, seed=19, dependence=0.4)
        plain = predict_dir(tmp_path, fix, name="plain")
        cps = tmp_path / "cps.json"
        prior = read_json(fix / "prior.json")["race_distribution"]
        tilted = {k: v for k, v in prior.items()}
        # shift mass between the two largest categories, keep it a distribution
        top = sorted(tilted, key=tilted.get)[-2:]
        delta = 0.8 * min(tilted[top[0]], 0.05)
        tilted[top[0]] -= delta
        tilted[top[1]] += delta
        cps.write_text(json.dumps({"race_distribution": tilted}))
        adjusted = predict_dir(tmp_path, fix, name="adj", extra=("--adjust-cps", cps))
        assert read_csv(plain / "predictions.csv") != read_csv(adjusted / "predictions.csv")

    def test_adjust_with_prior_is_identity(self, tmp_path):
        fix = synth_fixture(tmp_path, seed=19, dependence=0.4)
        plain = predict_dir(tmp_path, fix, name="plain")
        same = predict_dir(
            tmp_path, fix, name="same", extra=("--adjust-cps", fix / "prior.json")
        )
        assert read_csv(plain / "predictions.csv") == read_csv(same / "predictions.csv")


def exits_2_with_json_error(capsys, *args):
    assert run_cli(*args) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 2
    return err


def replace_field(path, line, column, value):
    """Rewrite one field of a CSV file in place (line 1 is the header)."""
    rows = read_csv(path)
    rows[line - 1][column] = value
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


class TestNonFiniteInput:
    def test_nan_geo_factor_exits_2(self, tmp_path, capsys):
        fix = synth_fixture(tmp_path)
        replace_field(fix / "geo_factors.csv", 2, 4, "nan")
        # one bad row of five geolocations is over the 10% reject cap
        err = exits_2_with_json_error(
            capsys, "predict",
            "--surname-factors", fix / "surname_factors.csv",
            "--geo-factors", fix / "geo_factors.csv", "--prior", fix / "prior.json",
            "--table", fix / "table.csv", "--out-dir", tmp_path / "pred",
        )
        assert err["error"] == "ParseError" and "rejected" in err["message"]
        assert not (tmp_path / "pred" / "predictions.csv").exists()

    def test_inf_in_labeled_table_exits_2(self, tmp_path, capsys):
        fix = synth_fixture(tmp_path)
        replace_field(fix / "table.csv", 4, 3, "inf")
        err = exits_2_with_json_error(
            capsys, "fit-factors", "--table", fix / "table.csv", "--out-dir", tmp_path / "fit"
        )
        assert err["error"] == "ParseError"
        assert err["message"].endswith("table.csv:4: non-finite value")
        assert not (tmp_path / "fit" / "prior.json").exists()

    def test_nan_prediction_exits_2_before_raking(self, tmp_path, capsys):
        fix = synth_fixture(tmp_path)
        pred = predict_dir(tmp_path, fix)
        replace_field(pred / "predictions.csv", 3, 4, "nan")
        err = exits_2_with_json_error(
            capsys, "rake", "--base", pred / "predictions.csv",
            "--race-margin", fix / "race_margin.json", "--out-dir", tmp_path / "raked",
        )
        assert err["error"] == "ParseError"
        assert err["message"].endswith("predictions.csv:3: non-finite value")


class TestOversizedInput:
    def predict_with_surname_factors(self, tmp_path, fix, row):
        path = tmp_path / "sf.csv"
        lines = (fix / "surname_factors.csv").read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines + [row]) + "\n", encoding="utf-8")
        args = (
            "predict", "--surname-factors", path,
            "--geo-factors", fix / "geo_factors.csv", "--prior", fix / "prior.json",
            "--table", fix / "table.csv", "--out-dir", tmp_path / "pred",
        )
        return path, args

    def test_field_over_csv_limit_exits_2(self, tmp_path, capsys):
        fix = synth_fixture(tmp_path)
        # the 12 surnames of the fixture, then one longer than csv allows
        path, args = self.predict_with_surname_factors(
            tmp_path, fix, "A" * 200_000 + ",1,0.2,0.2,0.2,0.2,0.1,0.1"
        )
        err = exits_2_with_json_error(capsys, *args)
        assert err["error"] == "ParseError"
        assert err["message"] == f"{path}:14: field larger than field limit (131072)"
        assert not (tmp_path / "pred" / "predictions.csv").exists()

    def test_overflowing_factor_row_is_rejected_quietly(self, tmp_path, capsys):
        fix = synth_fixture(tmp_path)
        _, args = self.predict_with_surname_factors(tmp_path, fix, "BIG,1,1e308,1e308,0,0,0,0")
        assert run_cli(*args) == 0
        assert capsys.readouterr().err == ""
        rejects = read_csv(tmp_path / "pred" / "surname_factor_rejects.csv")
        assert rejects[1:] == [["14", "probabilities sum to inf"]]

    def test_overflowing_calibration_map_exits_2(self, tmp_path, capsys):
        fix = synth_fixture(tmp_path)
        pred = predict_dir(tmp_path, fix)
        cm = tmp_path / "cm.csv"
        cm.write_text("race," + ",".join(RACE_NAMES) + "\n" + "".join(
            f"{race},1e308,1e308,0,0,0,0\n" for race in RACE_NAMES
        ))
        err = exits_2_with_json_error(
            capsys, "evaluate", "--truth-table", fix / "table.csv",
            "--preds", pred / "predictions.csv", "--calib-map", cm, "--out-dir", tmp_path / "ev",
        )
        assert err["message"] == f"{cm}: matrix columns must sum to 1"


class TestPredictionRows:
    def test_lowercase_surnames_match_uppercase_truth(self, tmp_path):
        fix = synth_fixture(tmp_path)
        pred = predict_dir(tmp_path, fix)
        lower = tmp_path / "lower.csv"
        rows = read_csv(pred / "predictions.csv")
        with open(lower, "w", newline="") as fh:
            csv.writer(fh).writerows(rows[:1] + [[r[0].lower()] + r[1:] for r in rows[1:]])
        for name, preds in (("upper", pred / "predictions.csv"), ("lower", lower)):
            assert run_cli(
                "evaluate", "--truth-table", fix / "table.csv",
                "--preds", preds, "--out-dir", tmp_path / name,
            ) == 0
        for out in ("subpop.csv", "cellwise.csv", "calibration_curves.csv", "summary.json"):
            assert (tmp_path / "upper" / out).read_bytes() == (tmp_path / "lower" / out).read_bytes()

    def test_conditionals_must_sum_to_one(self, tmp_path, capsys):
        fix = synth_fixture(tmp_path)
        pred = predict_dir(tmp_path, fix)
        path = pred / "predictions.csv"
        rows = read_csv(path)
        rows[2][3:] = ["0.5", "0", "0", "0", "0", "0"]
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        err = exits_2_with_json_error(
            capsys, "evaluate", "--truth-table", fix / "table.csv",
            "--preds", path, "--out-dir", tmp_path / "ev",
        )
        assert err["error"] == "ParseError"
        assert err["message"].endswith("predictions.csv:3: conditionals sum to 0.5, expected 1")


class TestStrictJson:
    def test_empty_region_is_null_in_summary(self, tmp_path):
        fix = synth_fixture(tmp_path)
        pred = predict_dir(tmp_path, fix)
        regions = tmp_path / "regions.csv"
        geoids = [row[0] for row in read_csv(fix / "geo_factors.csv")[1:]]
        regions.write_text(
            "geoid,region\n" + "".join(f"{g},west\n" for g in geoids) + "nowhere,ghost\n"
        )
        ev = tmp_path / "ev"
        assert run_cli(
            "evaluate", "--truth-table", fix / "table.csv", "--preds", pred / "predictions.csv",
            "--region-map", regions, "--out-dir", ev,
        ) == 0

        def no_constants(name):
            raise AssertionError(f"non-standard JSON constant {name}")

        summary = json.loads((ev / "summary.json").read_text(), parse_constant=no_constants)
        regions_out = summary["cellwise"]["regions"]
        assert regions_out["ghost"] == {"l1": None, "l2": None, "nll": None}
        assert all(isinstance(v, float) for v in regions_out["west"].values())

    def test_padded_region_map_geoids_match(self, tmp_path):
        # a geoid written "g000 " names the same geolocation as "g000"
        fix = synth_fixture(tmp_path)
        pred = predict_dir(tmp_path, fix)
        geoids = [row[0] for row in read_csv(fix / "geo_factors.csv")[1:]]
        reports = {}
        for name, pad in (("plain", ""), ("padded", " ")):
            regions = tmp_path / f"{name}.csv"
            regions.write_text(
                "geoid,region\n" + "".join(f"{g}{pad},R{i % 2}{pad}\n" for i, g in enumerate(geoids)),
                encoding="utf-8",
            )
            ev = tmp_path / name
            assert run_cli(
                "evaluate", "--truth-table", fix / "table.csv",
                "--preds", pred / "predictions.csv", "--region-map", regions, "--out-dir", ev,
            ) == 0
            reports[name] = read_json(ev / "summary.json")["cellwise"]["regions"]
        assert set(reports["padded"]) == {"R0", "R1"}
        assert all(v is not None for r in reports["padded"].values() for v in r.values())
        assert reports["padded"] == reports["plain"]
