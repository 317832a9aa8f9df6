import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from raketab import RACE_NAMES, MarginSet, calibmap, cli
from raketab.cli import main
from test_golden import voter_outputs
from test_package import fresh_env


def run_cli(*args):
    return main([str(a) for a in args])


def run_child(*args):
    """Run a command as its own process, `python -m raketab.cli`, under
    fresh_env(); return the finished process."""
    return subprocess.run(
        [sys.executable, "-m", "raketab.cli", *map(str, args)],
        env=fresh_env(), capture_output=True, text=True,
    )


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

    def test_race_zeroed_by_a_zero_target_is_null_in_theta(self, tmp_path):
        preds = tmp_path / "predictions.csv"
        preds.write_text(
            "surname,geoid,count,p_aian,p_api,p_black,p_hispanic,p_white,p_other\n"
            "A,x,2,0.5,0.5,0,0,0,0\nB,x,2,0.25,0.75,0,0,0,0\n"
        )
        margin = tmp_path / "margin.json"
        margin.write_text(json.dumps({"race_distribution": {"aian": 1.0}}))
        raked = tmp_path / "raked"
        assert run_cli("rake", "--base", preds, "--race-margin", margin, "--out-dir", raked) == 0
        theta_r = read_json(raked / "theta.json")["theta_r"]
        assert theta_r["api"] is None
        assert all(v is not None for race, v in theta_r.items() if race != "api")

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
        # the six active records fill five cells of three surnames and two geoids
        info = read_json(fit / "manifest.json")["info"]
        assert info["cells_in"] == 5
        assert info["factor_labels"] == {"surname": 3, "geo": 2}
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
        info = read_json(fit / "manifest.json")["info"]
        assert info["cells_in"] == 60
        assert info["factor_labels"] == {"surname": 12, "geo": 5}

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
        assert manifest["info"]["surname_factor_rejects_by_reason"] == {"probabilities sum to …": 1}
        assert manifest["info"]["factor_labels"] == {"surname": 12, "geo": 5}

    @pytest.mark.parametrize("row", ["BADROW,1_0,0.5,0.5,0,0,0,0", "BADROW,\u0661,0.5,0.5,0,0,0,0"])
    def test_factor_number_that_is_not_plain_decimal_rejected(self, tmp_path, row):
        fix = synth_fixture(tmp_path, seed=8)
        bad = tmp_path / "sf.csv"
        lines = (fix / "surname_factors.csv").read_text(encoding="utf-8").splitlines()
        bad.write_text("\n".join(lines + [row]) + "\n", encoding="utf-8")
        out = tmp_path / "pred"
        assert run_cli(
            "predict", "--surname-factors", bad,
            "--geo-factors", fix / "geo_factors.csv",
            "--prior", fix / "prior.json",
            "--table", fix / "table.csv", "--out-dir", out,
        ) == 0
        assert read_csv(out / "surname_factor_rejects.csv")[1:] == [["14", "non-numeric field"]]
        info = read_json(out / "manifest.json")["info"]
        assert info["surname_factor_rejects_by_reason"] == {"non-numeric field": 1}
        assert (out / "predictions.csv").read_bytes() == (
            predict_dir(tmp_path, fix) / "predictions.csv"
        ).read_bytes()

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
        assert info["rejected_cells_by_reason"] == {"missing geolocation factor": 12}
        assert len(read_csv(out / "predictions.csv")) == 49


def test_golden_voter_run_counts_rejects_by_reason(tmp_path):
    # KIM has no factor row and LOPEZ's probabilities sum to 0.6, so each of
    # their four cells falls back to its geolocation
    voter_outputs(tmp_path)
    info = read_json(tmp_path / "voters_pred" / "manifest.json")["info"]
    assert info["surname_factor_rejects"] == 1
    assert info["surname_factor_rejects_by_reason"] == {"probabilities sum to …": 1}
    assert "geo_factor_rejects" not in info and "geo_factor_rejects_by_reason" not in info
    assert info["rejected_cells"] == 8
    assert info["rejected_cells_by_reason"] == {
        "missing surname factor; used geolocation baseline": 8,
    }


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

    @pytest.mark.parametrize("body", [
        '{"race_distribution": {"aian": null, "api": 1.0}}',
        '{"race_distribution": {"aian": [0.5], "api": 0.5}}',
        '[{"race_distribution": {"api": 1.0}}]',
        '{"race_distribution": {"aian": "x", "api": 1.0}}',
        '{"race_distribution": {"aian": true, "api": 0.0}}',
    ], ids=["null", "list", "top-level-array", "string", "bool"])
    def test_malformed_share_exits_2_naming_the_file(self, tmp_path, capsys, body):
        margin = tmp_path / "m.json"
        margin.write_text(body)
        err = exits_2_with_json_error(
            capsys, "calib-map", "--source", margin, "--target", margin,
            "--out-dir", tmp_path / "cm",
        )
        assert err["error"] == "ParseError"
        assert err["message"].startswith(f"{margin}: ")
        if "aian" in body and "[{" not in body:
            assert "'aian'" in err["message"]

    def test_refused_solve_exits_3_with_its_certificate(self, tmp_path, capsys, monkeypatch):
        # a KKT tolerance no residual meets forces the certificate stage to refuse
        monkeypatch.setattr(calibmap, "KKT_TOL", -1.0)
        source, target = tmp_path / "s.json", tmp_path / "t.json"
        source.write_text(json.dumps({"race_distribution": dict(zip(RACE_NAMES, [0.5, 0.5, 0, 0, 0, 0]))}))
        target.write_text(json.dumps({"race_distribution": dict(zip(RACE_NAMES, [0.6, 0.4, 0, 0, 0, 0]))}))
        code = run_cli("calib-map", "--source", source, "--target", target, "--out-dir", tmp_path / "cm")
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CalibrationSolveError" and err["exit_code"] == 3
        assert err["stage"] == "certificate"
        assert 0 <= err["feasibility"] <= calibmap.FEAS_TOL
        assert 0 <= err["kkt_residual"] <= 1e-6
        assert not (tmp_path / "cm" / "calibration_map.csv").exists()

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
        info = read_json(out / "manifest.json")["info"]
        assert info["records_in"] == 82
        assert info["records_labeled"] == 80
        assert info["sample_size"] == 40


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
        # in process, numpy loaded first: the BLAS threads are this process's
        assert manifest["info"]["blas_threads"]["set_by"] == "caller"
        assert manifest["versions"] == {
            "raketab": raketab.__version__, "numpy": np.__version__,
            "python": platform.python_version(),
        }


def vmhwm_mb(status):
    """Peak resident memory in MB from the text of /proc/<pid>/status."""
    return next(int(line.split()[1]) for line in status.splitlines() if line.startswith("VmHWM:")) / 1024


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
class TestManifestOfOneProcess:
    """A command run as its own process, as the benchmark runs it: the
    manifest holds that process's own peak memory and BLAS thread setting."""

    # main, then the process's /proc/self/status written to the file named first
    ENTRY = (
        "import sys; from raketab.cli import main; code = main(sys.argv[2:]); "
        "open(sys.argv[1], 'w').write(open('/proc/self/status').read()); sys.exit(code)"
    )

    def calib_map(self, tmp_path, **env):
        """Run calib-map in a child; return its manifest and its VmHWM in MB."""
        margin = tmp_path / "m.json"
        margin.write_text(json.dumps({"race_distribution": {"white": 0.6, "black": 0.4}}))
        status, out = tmp_path / "status", tmp_path / "cm"
        subprocess.run(
            [sys.executable, "-c", self.ENTRY, status, "calib-map", "--source", margin,
             "--target", margin, "--out-dir", out],
            env=fresh_env(**env), check=True,
        )
        return read_json(out / "manifest.json"), vmhwm_mb(status.read_text())

    def test_peak_rss_is_the_commands_own(self, tmp_path):
        ballast = b"\1" * (48 << 20)  # this process's peak, which a child can inherit
        manifest, child_peak = self.calib_map(tmp_path)
        assert vmhwm_mb(Path("/proc/self/status").read_text()) > child_peak + 8
        assert manifest["info"]["peak_rss_mb"] == pytest.approx(child_peak, abs=1.0)
        del ballast

    def test_blas_threads_record_who_chose_them(self, tmp_path):
        manifest, _ = self.calib_map(tmp_path)
        assert manifest["info"]["blas_threads"] == {
            "set_by": "raketab", "variables": {"OPENBLAS_NUM_THREADS": "1"},
        }
        manifest, _ = self.calib_map(tmp_path, OMP_NUM_THREADS="2")
        assert manifest["info"]["blas_threads"] == {
            "set_by": "caller", "variables": {"OMP_NUM_THREADS": "2"},
        }

    def test_startup_loads_only_the_commands_modules(self, tmp_path):
        # each table command as its own process, then in this process,
        # which imported numpy before raketab.cli and keeps its GC state
        fix, pred = tmp_path / "fix", tmp_path / "pred"
        commands = [  # each command, the modules it loads besides table and ingest, its flags
            ("synth", ["bisg", "synth"], ["--surnames", 12, "--geos", 5, "--dependence", 0.6,
                                          "--total", 2000, "--seed", 11]),
            ("fit-factors", ["bisg"], ["--table", fix / "table.csv"]),
            ("predict", ["bisg"], [
                "--surname-factors", fix / "surname_factors.csv",
                "--geo-factors", fix / "geo_factors.csv", "--prior", fix / "prior.json",
                "--table", fix / "table.csv",
            ]),
            ("rake", ["raking"], [
                "--base", pred / "predictions.csv", "--race-margin", fix / "race_margin.json",
            ]),
            ("evaluate", ["metrics"], [
                "--truth-table", fix / "table.csv", "--preds", pred / "predictions.csv",
            ]),
        ]
        for command, own, args in commands:
            out = {"synth": fix, "predict": pred}.get(command, tmp_path / command)
            child = run_child(command, *args, "--out-dir", out)
            assert child.returncode == 0, child.stderr
            startup = read_json(out / "manifest.json")["info"]["startup"]
            assert startup["modules"] == sorted(["ingest", "table", *own])
            assert 0 < startup["import_s"] < 30
            assert startup["frozen"] > 1000  # numpy's import leaves some 20,000
            assert run_cli(command, *args, "--out-dir", tmp_path / f"in_{command}") == 0
            manifest = read_json(tmp_path / f"in_{command}" / "manifest.json")
            assert manifest["info"]["startup"]["frozen"] == 0


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

    def test_exit_codes_of_a_fresh_process(self, tmp_path):
        # as its own process, rake loads its solver only when it runs: its
        # errors still exit 3 and 2 with their JSON
        fix = synth_fixture(tmp_path, seed=31, dependence=0.9)
        pred = predict_dir(tmp_path, fix)
        child = run_child(
            "rake", "--base", pred / "predictions.csv", "--race-margin", fix / "race_margin.json",
            "--max-iters", 1, "--tol", 1e-14, "--out-dir", tmp_path / "raked",
        )
        err = json.loads(child.stderr)
        assert child.returncode == 3 and err["exit_code"] == 3
        assert err["error"] == "NonConvergenceError"
        assert err["margin_gap"] > 1e-14 and err["worst_race"] in err["message"]
        assert len(err["last_gaps"]) == 2
        child = run_child(
            "rake", "--base", tmp_path / "nope.csv", "--race-margin", fix / "race_margin.json",
            "--out-dir", tmp_path / "o",
        )
        err = json.loads(child.stderr)
        assert child.returncode == 2 and err["exit_code"] == 2
        assert err["error"] == "FileNotFoundError"

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


    def test_race_margin_with_a_repeated_key_exits_2(self, tmp_path, capsys):
        fix = synth_fixture(tmp_path)
        pred = predict_dir(tmp_path, fix)
        margin = tmp_path / "margin.json"
        margin.write_text('{"race_distribution": {"aian": 0.9, "aian": 0.1, "api": 0.9}}')
        err = exits_2_with_json_error(
            capsys, "rake", "--base", pred / "predictions.csv", "--race-margin", margin,
            "--out-dir", tmp_path / "raked",
        )
        assert err["error"] == "ParseError"
        assert err["message"] == f"{margin}: repeated key 'aian'"
        assert not (tmp_path / "raked" / "raked.csv").exists()

    @pytest.mark.parametrize("row, error, message", [
        ("2,SMITH, ,black,true", "ParseError", "surname and geolocation must be nonempty"),
        ("2,,g1,black,true", "ParseError", "surname and geolocation must be nonempty"),
        ("2,SMITH,g1,martian,true", "KeyError", "canonical mapping has no category 'martian'"),
    ])
    def test_voter_file_error_names_its_line(self, tmp_path, capsys, row, error, message):
        voters = tmp_path / "v.csv"
        voters.write_text(f"voter_id,surname,geoid,race,active\n1,SMITH,g1,white,true\n{row}\n")
        fit = tmp_path / "fit"
        err = exits_2_with_json_error(
            capsys, "fit-factors", "--voters", voters, "--mapping", "canonical", "--out-dir", fit,
        )
        assert err["error"] == error
        assert err["message"] == (f"{voters}:3: {message}" if error == "ParseError"
                                  else repr(f"{voters}:3: {message}"))
        assert not (fit / "surname_factors.csv").exists()

class TestFailedRunWritesNothing:
    """A command that fails leaves its out-dir without outputs, and a
    writer that raises leaves no .tmp file."""

    def test_evaluate_with_no_prediction_for_an_occupied_cell(self, tmp_path, capsys):
        fix = synth_fixture(tmp_path)
        pred = predict_dir(tmp_path, fix)
        assert run_cli(
            "rake", "--base", pred / "predictions.csv",
            "--race-margin", fix / "race_margin.json", "--out-dir", tmp_path / "raked",
        ) == 0
        raked = tmp_path / "raked" / "raked.csv"
        rows = read_csv(raked)
        assert rows[1][:2] == ["S000", "g000"]
        rows[1][2:] = ["0"] * 7
        with open(raked, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        out = tmp_path / "ev"
        err = exits_2_with_json_error(
            capsys, "evaluate", "--truth-table", fix / "table.csv", "--preds", raked, "--out-dir", out,
        )
        assert err["message"] == "missing prediction for occupied cell ('S000', 'g000')"
        assert list(out.iterdir()) == []

    def test_writer_that_raises_midway_leaves_no_tmp(self, tmp_path, capsys, monkeypatch):
        from raketab import ingest

        def failing_writer(path, *args):
            with open(path, "w") as fh:
                fh.write("surname,count\r\n")
            raise OSError("No space left on device")

        fix = synth_fixture(tmp_path)
        monkeypatch.setattr(ingest, "write_surname_factors", failing_writer)
        out = tmp_path / "fit"
        err = exits_2_with_json_error(capsys, "fit-factors", "--table", fix / "table.csv", "--out-dir", out)
        assert err["message"] == "No space left on device"
        assert list(out.iterdir()) == []

    def test_predict_failing_after_factor_rejects_writes_no_reject_file(self, tmp_path, capsys):
        fix = synth_fixture(tmp_path, seed=8)
        bad = tmp_path / "sf.csv"
        lines = (fix / "surname_factors.csv").read_text().splitlines()
        bad.write_text("\n".join(lines + ["BADROW,1,0.2,0.2,0,0,0,0"]) + "\n")
        replace_field(fix / "table.csv", 4, 3, "inf")
        out = tmp_path / "pred"
        err = exits_2_with_json_error(
            capsys, "predict", "--surname-factors", bad,
            "--geo-factors", fix / "geo_factors.csv", "--prior", fix / "prior.json",
            "--table", fix / "table.csv", "--out-dir", out,
        )
        assert err["message"].endswith("table.csv:4: non-finite value")
        assert list(out.iterdir()) == []


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
        # a cell file (`--table`) has the same limit
        table = tmp_path / "table.csv"
        text = (fix / "table.csv").read_text(encoding="utf-8")
        table.write_text(text + "A" * 200_000 + ",g000,1,0,0,0,0,0\r\n", encoding="utf-8")
        err = exits_2_with_json_error(
            capsys, "predict", "--surname-factors", fix / "surname_factors.csv",
            "--geo-factors", fix / "geo_factors.csv", "--prior", fix / "prior.json",
            "--table", table, "--out-dir", tmp_path / "pred",
        )
        assert err["message"] == f"{table}:62: field larger than field limit (131072)"
        assert not (tmp_path / "pred" / "predictions.csv").exists()

    def test_label_over_csv_limit_stops_fit_factors(self, tmp_path, capsys):
        # a factor file holding this surname could not be read back
        fix = synth_fixture(tmp_path)
        table = tmp_path / "table.csv"
        text = (fix / "table.csv").read_text(encoding="utf-8")
        table.write_text(text + "A" * 200_000 + ",g000,1,0,0,0,0,0\r\n", encoding="utf-8")
        fit = tmp_path / "fit"
        err = exits_2_with_json_error(capsys, "fit-factors", "--table", table, "--out-dir", fit)
        assert err["error"] == "ParseError"
        assert err["message"] == f"{table}:62: field larger than field limit (131072)"
        assert not (fit / "surname_factors.csv").exists()
        # uppercased past the limit ("ß" becomes "SS"), a label stops the run too
        table.write_text(text + "ß" * 65_537 + ",g000,1,0,0,0,0,0\r\n", encoding="utf-8")
        err = exits_2_with_json_error(capsys, "fit-factors", "--table", table, "--out-dir", fit)
        assert err["message"] == f"{table}:62: field larger than field limit (131072)"
        # at the limit it is fitted, and predict reads the factor file back
        table.write_text(text + "a" * 131_072 + ",g000,1,0,0,0,0,0\r\n", encoding="utf-8")
        assert run_cli("fit-factors", "--table", table, "--out-dir", fit) == 0
        assert run_cli(
            "predict", "--surname-factors", fit / "surname_factors.csv",
            "--geo-factors", fit / "geo_factors.csv", "--prior", fit / "prior.json",
            "--table", table, "--out-dir", tmp_path / "pred",
        ) == 0

    def test_surname_uppercased_over_csv_limit_stops_fit_factors(self, tmp_path, capsys):
        voters = tmp_path / "v.csv"
        voters.write_text(
            "voter_id,surname,geoid,race,active\n1,SMITH,g1,white,true\n"
            f"2,{'ß' * 65_537},g1,black,true\n", encoding="utf-8",
        )
        fit = tmp_path / "fit"
        err = exits_2_with_json_error(capsys, "fit-factors", "--voters", voters, "--out-dir", fit)
        assert err["message"] == f"{voters}:3: field larger than field limit (131072)"
        assert not (fit / "surname_factors.csv").exists()

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

    def test_calibration_map_with_a_seventh_row_exits_2(self, tmp_path, capsys):
        fix = synth_fixture(tmp_path)
        pred = predict_dir(tmp_path, fix)
        cm = tmp_path / "cm.csv"
        cm.write_text("race," + ",".join(RACE_NAMES) + "\n" + "".join(
            f"{race}," + ",".join("1" if i == j else "0" for j in range(6)) + "\n"
            for i, race in enumerate(RACE_NAMES)
        ) + "white,0,0,0,0,1,0\n")
        err = exits_2_with_json_error(
            capsys, "evaluate", "--truth-table", fix / "table.csv",
            "--preds", pred / "predictions.csv", "--calib-map", cm, "--out-dir", tmp_path / "ev",
        )
        assert err["error"] == "ParseError"
        assert err["message"] == f"{cm}:8: more than 6 matrix rows"

    def test_calibration_map_with_a_non_numeric_entry_exits_2(self, tmp_path, capsys):
        fix = synth_fixture(tmp_path)
        pred = predict_dir(tmp_path, fix)
        cm = tmp_path / "cm.csv"
        cm.write_text("race," + ",".join(RACE_NAMES) + "\n" + "".join(
            f"{race}," + ",".join("abc" if i == j == 3 else str(int(i == j)) for j in range(6)) + "\n"
            for i, race in enumerate(RACE_NAMES)
        ))
        err = exits_2_with_json_error(
            capsys, "evaluate", "--truth-table", fix / "table.csv",
            "--preds", pred / "predictions.csv", "--calib-map", cm, "--out-dir", tmp_path / "ev",
        )
        assert err["error"] == "ParseError"
        assert err["message"] == f"{cm}:5: non-numeric matrix entry"


    @pytest.mark.parametrize("entry", ["1_0e-1", "\u0661.0"], ids=["underscore", "arabic-indic-digit"])
    def test_calibration_map_entry_that_is_not_plain_decimal_exits_2(self, tmp_path, capsys, entry):
        fix = synth_fixture(tmp_path)
        pred = predict_dir(tmp_path, fix)
        cm = tmp_path / "cm.csv"
        cm.write_text("race," + ",".join(RACE_NAMES) + "\n" + "".join(
            f"{race}," + ",".join(entry if i == j == 1 else str(int(i == j)) for j in range(6)) + "\n"
            for i, race in enumerate(RACE_NAMES)
        ), encoding="utf-8")
        err = exits_2_with_json_error(
            capsys, "evaluate", "--truth-table", fix / "table.csv",
            "--preds", pred / "predictions.csv", "--calib-map", cm, "--out-dir", tmp_path / "ev",
        )
        assert err["error"] == "ParseError"
        assert err["message"] == f"{cm}:3: non-numeric matrix entry"

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


    def test_rows_that_line_up_with_the_truth_are_moved_not_gathered(self, tmp_path, monkeypatch):
        # predictions in file order and reversed line up with the truth's
        # cells and are moved to the front of the parsed rows; with a cell
        # the truth lacks they are gathered: the same reports either way.
        # The rows are found from the parsed labels and index: no MarginSet
        # copies and checks them again
        fix = synth_fixture(tmp_path)
        rows = read_csv(predict_dir(tmp_path, fix) / "predictions.csv")
        variants = {
            "same": rows, "reversed": rows[:1] + rows[:0:-1],
            "extra": rows + [["ZZZ", *rows[1][1:]]],
        }
        moved, margin_sets = [], []
        to_front, init = cli._to_front, MarginSet.__init__
        monkeypatch.setattr(cli, "_to_front", lambda conds: moved.append(1) or to_front(conds))
        monkeypatch.setattr(
            MarginSet, "__init__", lambda self, *a: margin_sets.append(1) or init(self, *a)
        )
        for name, variant in variants.items():
            with open(tmp_path / f"{name}.csv", "w", newline="") as fh:
                csv.writer(fh, lineterminator="\r\n").writerows(variant)
            moved.clear()
            assert run_cli(
                "evaluate", "--truth-table", fix / "table.csv",
                "--preds", tmp_path / f"{name}.csv", "--out-dir", tmp_path / f"ev_{name}",
            ) == 0
            assert len(moved) == (name != "extra")
        assert margin_sets == []
        for out in ("subpop.csv", "cellwise.csv", "calibration_curves.csv", "summary.json"):
            want = (tmp_path / "ev_same" / out).read_bytes()
            assert all((tmp_path / f"ev_{name}" / out).read_bytes() == want for name in variants)

    def test_to_front_moves_the_conditionals_into_the_parsed_rows(self, tmp_path):
        rng = np.random.default_rng(3)
        counts, conds = rng.random(9_000), rng.dirichlet(np.ones(6), size=9_000)
        rows = np.column_stack([counts, conds])
        moved = cli._to_front(rows[:, 1:], block=1_000)
        assert moved.flags.c_contiguous and np.shares_memory(moved, rows)
        assert moved.tobytes() == conds.tobytes()


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
