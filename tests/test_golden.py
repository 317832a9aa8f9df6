"""Cross-version byte identity of CLI outputs.

The rerun test in test_cli.py compares two runs of the same code, so it
cannot notice a change that alters output bytes. This test pins the
SHA-256 of every CSV and JSON output (manifests excepted, since they carry
absolute paths) of the README round trip plus a calibration-map evaluation
to digests recorded before the label-join refactor. A change that moves
any output byte must update GOLDEN deliberately and say why.
"""

import hashlib
import json

from raketab.cli import main

GOLDEN = {
    "cmap/calibration_map.csv": "61c868637fd9ad17768224ee47aa00fb8188e936b551d07832c633445e170b08",
    "fitted/geo_factors.csv": "e2f7b825545a3257370e31497597b1c811ce72417288b3108b836817e94b4282",
    "fitted/prior.json": "c34d20fa5b1d868ca78978d22f97cb276ee147d02a5e25bf3c25eb2855191fb9",
    "fitted/surname_factors.csv": "4bbc074f64cac1b3eb733b5545f1f003baeef82249dc2fd4b75aee2579e37786",
    "fixture/geo_factors.csv": "e2f7b825545a3257370e31497597b1c811ce72417288b3108b836817e94b4282",
    "fixture/prior.json": "c34d20fa5b1d868ca78978d22f97cb276ee147d02a5e25bf3c25eb2855191fb9",
    "fixture/race_margin.json": "c34d20fa5b1d868ca78978d22f97cb276ee147d02a5e25bf3c25eb2855191fb9",
    "fixture/surname_factors.csv": "4bbc074f64cac1b3eb733b5545f1f003baeef82249dc2fd4b75aee2579e37786",
    "fixture/table.csv": "78abb392ec2b13a0b92ebfeebfb23eedd887224ade7e5630b17ac2cde916ed2e",
    "preds/predictions.csv": "f4a7b0a000cb89f4ba34da3410875f6e2f7db218c8e8d12932fff9891a700d24",
    "raked/raked.csv": "1340d807f1d5c206198b8c1c69a8487ef5154eab7ee519d5d19235a983e2167c",
    "raked/theta.json": "83fb63d56b71e33966da81276b0ab919d3f6af13c40bc053627e962e2a9c864f",
    "report/calibration_curves.csv": "dabda8cc16a57b6d6eef8048c4fefc2c46ac574d4e8f1ac990938583086ded4d",
    "report/cellwise.csv": "7ac4dea78edac95f9a2addadf792d509407a810a5d27b30f989f5da9c865f8b6",
    "report/subpop.csv": "df84bd266ef34326dd063d5ce81b5874e60f2a3d79514c62ff485a04358b3268",
    "report/summary.json": "eed5fd3446fb12bcd5fcd240ec72eccda20eeac5a6f65d8cac06a79db269df0e",
    "report_cmap/calibration_curves.csv": "da25e68ff94d9dbe4d4ba190abe522d964a0be7a397984237e6ee463d6f7bdab",
    "report_cmap/cellwise.csv": "3b0de0820358979fe39c66229f4ef9c610b1fd0954f95b3f4d5ae58001fbd799",
    "report_cmap/subpop.csv": "7790aaa1bc5711b80b87522827e6d1c69dc75340943a4992b346b2ea8bd88ae7",
    "report_cmap/summary.json": "00e6fb123e8cb0f1fd59d0d9b350edd95d461e6b255179d92d9349ab30dd3c0a",
}


def _run(*args):
    assert main([str(a) for a in args]) == 0


def golden_outputs(root):
    """Run the pipeline under `root`; return {relative path: sha256}."""
    fix, pred, raked, report = (root / n for n in ("fixture", "preds", "raked", "report"))
    _run(
        "synth", "--surnames", 20, "--geos", 6, "--dependence", 0.7,
        "--total", 5000, "--seed", 1, "--out-dir", fix,
    )
    _run("fit-factors", "--table", fix / "table.csv", "--out-dir", root / "fitted")
    _run(
        "predict", "--surname-factors", fix / "surname_factors.csv",
        "--geo-factors", fix / "geo_factors.csv", "--prior", fix / "prior.json",
        "--table", fix / "table.csv", "--out-dir", pred,
    )
    _run(
        "rake", "--base", pred / "predictions.csv",
        "--race-margin", fix / "race_margin.json", "--out-dir", raked,
    )
    _run(
        "evaluate", "--truth-table", fix / "table.csv",
        "--preds", raked / "raked.csv", "--out-dir", report,
    )

    target = root / "target.json"
    target.write_text(json.dumps({"race_distribution": {
        "aian": 0.02, "api": 0.08, "black": 0.25, "hispanic": 0.2,
        "white": 0.4, "other": 0.05}}))
    _run(
        "calib-map", "--source", fix / "race_margin.json", "--target", target,
        "--out-dir", root / "cmap",
    )
    geoids = sorted(line.split(",")[0] for line in
                    (fix / "geo_factors.csv").read_text().splitlines()[1:])
    regions = root / "regions.csv"
    regions.write_text(
        "geoid,region\n" + "".join(f"{g},R{i % 2}\n" for i, g in enumerate(geoids))
    )
    _run(
        "evaluate", "--truth-table", fix / "table.csv",
        "--preds", pred / "predictions.csv",
        "--calib-map", root / "cmap" / "calibration_map.csv",
        "--region-map", regions, "--out-dir", root / "report_cmap",
    )

    digests = {}
    for path in sorted(root.glob("*/*")):
        if path.suffix in (".csv", ".json") and path.name != "manifest.json":
            rel = f"{path.parent.name}/{path.name}"
            digests[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_outputs_match_recorded_digests(tmp_path):
    assert golden_outputs(tmp_path) == GOLDEN
