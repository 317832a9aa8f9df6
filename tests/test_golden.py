"""Cross-version byte identity of CLI outputs.

The rerun test in test_cli.py compares two runs of the same code, so it
cannot notice a change that alters output bytes. This test pins the
SHA-256 of every CSV and JSON output (manifests excepted, since they carry
absolute paths) of the README round trip, a calibration-map evaluation and
a voter-file path whose labels hold commas, quotes and non-ASCII letters,
and of the binary twins beside their cell files; the outputs hold when
every twin is deleted before each command, which then reads the text.
A change that moves any output byte must update GOLDEN deliberately and
say why.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import raketab as rt
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
    # the raked table is the exact KL-minimal fit (Newton on the race
    # dual), in the gauge sum over live races of theta_r = 0. Its sums over
    # cells and its 6x6 Newton solve take a fixed order with no BLAS call,
    # so these bytes do not depend on the BLAS kernel. Leaving BLAS moved
    # the raked values by at most 1.3e-15 relative and theta_r and theta_sg
    # by at most 7.1e-16 absolute; report/* is evaluated from raked.csv
    "raked/raked.csv": "a33f7ce956f7f7446a321efcefb57d87c5afe6eb97d8884db46a3d78a41691c0",
    "raked/theta.json": "64cf7cb387963bf2a55c18e3ee3bfe816f5640a829a56cb6d5c48ee51d4474fd",
    "raked/theta_sg.csv": "c3baa0ad96243033aee94baedea16cd44d3ff6f60137db517896042938762a40",
    "report/calibration_curves.csv": "2e8f22d19547cbae36d8ef12d38c5c3eef7f5984360f6629a8839c4d5651923a",
    "report/cellwise.csv": "744589836224833bff70351c1635332019f7e2441a3cbe8c3fd4d7ec0c0b89ac",
    "report/subpop.csv": "631936fb25eae97fa7e151f53bef42aeeab0328b59e87061cad4e47cc27aa1a5",
    "report/summary.json": "077f48fe718b187d6caccd4df780d81506229cc8ba61834a2cfeb4c21833e4d6",
    "report_cmap/calibration_curves.csv": "da25e68ff94d9dbe4d4ba190abe522d964a0be7a397984237e6ee463d6f7bdab",
    "report_cmap/cellwise.csv": "3b0de0820358979fe39c66229f4ef9c610b1fd0954f95b3f4d5ae58001fbd799",
    "report_cmap/subpop.csv": "7790aaa1bc5711b80b87522827e6d1c69dc75340943a4992b346b2ea8bd88ae7",
    "report_cmap/summary.json": "00e6fb123e8cb0f1fd59d0d9b350edd95d461e6b255179d92d9349ab30dd3c0a",
    "voters_eval/calibration_curves.csv": "fdafe3c2b1c098912672ff43934b0d8264da27addad82b82efee5035b4b06801",
    "voters_eval/cellwise.csv": "278d56d12f078109606e6e78ca3f3d2b38e6eee91dd4933b18ee1f59a21b86a5",
    "voters_eval/subpop.csv": "aa407617aa02bc03272c2f4f6288cdc451ba024d210da7e1bebb43c7b02c69d3",
    "voters_eval/summary.json": "876381f5ebefc0a213978fb0a2c63511dd259bb675e98ebe831ec67c365b379d",
    "voters_fit/geo_factors.csv": "38b92806d6c9bf5d07cfeb254af7dce16e026c5fd0dc57940c669db70bf7a92e",
    "voters_fit/prior.json": "831a0ef683fdbaf0b60416080b94b34e4a6955480931d2409930294fcbfc6ac8",
    "voters_fit/surname_factors.csv": "eb191856b12c381cdfe25f220bb3a51a91ad48d0671c5a6af75222a5d7e50590",
    "voters_pred/predictions.csv": "d900cb4c3df7243d76731ea513db8717fd6a68fd43b137b3e3cc1d6fd2fa0c07",
    "voters_pred/rejects.csv": "028a8ace5e904f2cc203d99bf13deb7b2481099fd879667d2f6a0a67209001c7",
    "voters_pred/surname_factor_rejects.csv": "da5da2041112bc8852c00b746af8ba644f328e27b7da4823a5a500be8378da0c",
    "voters_sub/subsampled.csv": "5fba5bf9496f6cdfe64adf18e2591908b0bff4dc7f229b31b5609bce2ce032a4",
}

RACES = ("aian", "api", "black", "hispanic", "white", "other")
# one surname and one geoid hold a comma and a quote, others non-ASCII
# letters, so the digests pin CSV quoting and UTF-8 bytes
SURNAMES = (
    "ADAMS", "BAKER", 'O"NEIL, JR', "MÜLLER", "CHEN", "DIAZ",
    "EVANS", "GARCÍA", "HALL", "KIM", "LOPEZ", "NGUYEN",
)
GEOIDS = ("g1", 'g"2,b', "g3", "gé4")


def _run(*args):
    assert main([str(a) for a in args]) == 0


def _write(path, text):
    path.write_text(text, encoding="utf-8", newline="")


def _csv_line(fields):
    def quote(f):
        return '"' + f.replace('"', '""') + '"' if any(c in f for c in ',"') else f

    return ",".join(quote(f) for f in fields) + "\r\n"


def table_outputs(root, run=_run):
    """The README round trip plus a calibration-map evaluation under `root`."""
    fix, pred, raked, report = (root / n for n in ("fixture", "preds", "raked", "report"))
    run(
        "synth", "--surnames", 20, "--geos", 6, "--dependence", 0.7,
        "--total", 5000, "--seed", 1, "--out-dir", fix,
    )
    run("fit-factors", "--table", fix / "table.csv", "--out-dir", root / "fitted")
    run(
        "predict", "--surname-factors", fix / "surname_factors.csv",
        "--geo-factors", fix / "geo_factors.csv", "--prior", fix / "prior.json",
        "--table", fix / "table.csv", "--out-dir", pred,
    )
    run(
        "rake", "--base", pred / "predictions.csv",
        "--race-margin", fix / "race_margin.json", "--out-dir", raked,
    )
    run(
        "evaluate", "--truth-table", fix / "table.csv",
        "--preds", raked / "raked.csv", "--out-dir", report,
    )

    target = root / "target.json"
    _write(target, json.dumps({"race_distribution": {
        "aian": 0.02, "api": 0.08, "black": 0.25, "hispanic": 0.2,
        "white": 0.4, "other": 0.05}}))
    run(
        "calib-map", "--source", fix / "race_margin.json", "--target", target,
        "--out-dir", root / "cmap",
    )
    geoids = sorted(line.split(",")[0] for line in
                    (fix / "geo_factors.csv").read_text(encoding="utf-8").splitlines()[1:])
    regions = root / "regions.csv"
    _write(regions, "geoid,region\n" + "".join(f"{g},R{i % 2}\n" for i, g in enumerate(geoids)))
    run(
        "evaluate", "--truth-table", fix / "table.csv",
        "--preds", pred / "predictions.csv",
        "--calib-map", root / "cmap" / "calibration_map.csv",
        "--region-map", regions, "--out-dir", root / "report_cmap",
    )


def voter_outputs(root, run=_run):
    """The voter-file path under `root`: fit, predict with factor rejects
    and a missing surname, evaluate with a region map, and subsample."""
    voters = root / "voters.csv"
    lines = [_csv_line(["voter_id", "surname", "geoid", "race", "active"])]
    for i in range(300):
        race = "" if i % 17 == 5 else RACES[(5 * i + i // 12) % 6]
        active = "false" if i % 13 == 4 else "true"
        lines.append(_csv_line(
            [f"v{i:03d}", SURNAMES[i % 12], GEOIDS[(i + i // 12) % 4], race, active]
        ))
    _write(voters, "".join(lines))
    fit, pred = root / "voters_fit", root / "voters_pred"
    run("fit-factors", "--voters", voters, "--out-dir", fit)

    # KIM is dropped and LOPEZ's probabilities sum to 0.6: one factor-file
    # reject, and two surnames predicted from their geolocation alone
    factor_lines = (fit / "surname_factors.csv").read_text(encoding="utf-8").splitlines(True)
    kept = [
        "LOPEZ,5.0,0.5,0.1,0.0,0.0,0.0,0.0\r\n" if line.startswith("LOPEZ,") else line
        for line in factor_lines if not line.startswith("KIM,")
    ]
    factors = root / "surname_factors_bad.csv"
    _write(factors, "".join(kept))
    run(
        "predict", "--surname-factors", factors,
        "--geo-factors", fit / "geo_factors.csv", "--prior", fit / "prior.json",
        "--voters", voters, "--out-dir", pred,
    )

    regions = root / "voter_regions.csv"
    _write(regions, "".join(_csv_line(row) for row in [
        ["geoid", "region"], ["g1", 'Nord, "A"'], ['g"2,b', "Süd"],
        ["g3", "Süd"], ["gé4", 'Nord, "A"'],
    ]))
    run(
        "evaluate", "--truth-voters", voters, "--preds", pred / "predictions.csv",
        "--region-map", regions, "--out-dir", root / "voters_eval",
    )

    target = root / "voter_target.json"
    _write(target, json.dumps({"race_distribution": {
        "aian": 0.1, "api": 0.1, "black": 0.2, "hispanic": 0.2,
        "white": 0.3, "other": 0.1}}))
    run(
        "subsample", "--voters", voters, "--target", target, "--seed", 5,
        "--out-dir", root / "voters_sub",
    )


def _digests(root, suffixes):
    """{relative path: sha256} of the files with `suffixes` one level under `root`, manifests aside."""
    return {
        f"{path.parent.name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.glob("*/*"))
        if path.suffix in suffixes and path.name != "manifest.json"
    }


def golden_outputs(root, drop_twins=False):
    """Run every pinned pipeline under `root`; return {relative path: sha256}
    of its CSV and JSON outputs. With `drop_twins`, every binary twin is
    deleted before each command, so that each cell file is read as text."""
    def run(*args):
        for twin in root.glob("*/*.npz") if drop_twins else ():
            twin.unlink()
        _run(*args)

    table_outputs(root, run)
    voter_outputs(root, run)
    return _digests(root, (".csv", ".json"))


# SHA-256 of the binary twin written beside each table and predictions file
# (ingest.twin_path): a change to their bytes must be made on purpose
TWINS = {
    "fixture/table.npz": "e466c07565e22915502581c789dadc85c5e4aeab76564184704267e687b98597",
    "preds/predictions.npz": "9ceae9d6b6bd4e41756d365692da9a3794c6ed767fc216acecdcee25c85c0dfd",
    "raked/raked.npz": "83288e945e4fe40b569232f3043ca8363d6df9ab8f1c3d7471e0bc6c0a683e5a",
    "voters_pred/predictions.npz": "805b9e75fb521243bd09e7757de8ea003b3cc6c96ab39319d2b604f7f5ce5c42",
}


def test_outputs_match_recorded_digests(tmp_path):
    assert golden_outputs(tmp_path) == GOLDEN
    assert _digests(tmp_path, (".npz",)) == TWINS


def test_outputs_read_without_twins_match_recorded_digests(tmp_path):
    """With every twin deleted before each command that could read one,
    the commands read each cell file's CSV and give the same outputs."""
    assert golden_outputs(tmp_path, drop_twins=True) == GOLDEN


def golden_in_subprocess(root, *flags, **env):
    """Run golden_outputs(root) in a new interpreter started with `flags`
    and the extra environment `env`; return the finished process, whose
    stdout is the digests as JSON."""
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")]
    code = ("import json, pathlib, sys, test_golden; "
            "print(json.dumps(test_golden.golden_outputs(pathlib.Path(sys.argv[1]))))")
    return subprocess.run(
        [sys.executable, *flags, "-c", code, str(root)], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path), **env),
    )


def test_pipeline_names_utf8_for_every_file(tmp_path):
    """Every subcommand exits 0 when an open without an encoding is an error."""
    proc = golden_in_subprocess(tmp_path, "-X", "warn_default_encoding", "-W", "error::EncodingWarning")
    assert proc.returncode == 0, proc.stderr[-2000:]


def _dynamic_openblas_on_x86_64():
    """Whether numpy's BLAS is an OpenBLAS built with DYNAMIC_ARCH on
    x86-64, the one setup where the kernels below can be chosen at run time."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints its configuration only
        return False
    return (platform.machine().lower() in ("x86_64", "amd64")
            and "openblas" in blas.get("name", "")
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


# What still depends on the kernel: calib-map solves with LAPACK, whose map
# the report_cmap evaluation reads, and theta_sg is numpy's SIMD log of the
# cell factors. Everything else, raked.csv and theta.json included, must
# keep its bytes.
CMAP = {"cmap/calibration_map.csv"} | {
    f"report_cmap/{name}"
    for name in ("calibration_curves.csv", "cellwise.csv", "subpop.csv", "summary.json")
}
KERNEL_SETTINGS = {
    "OPENBLAS_CORETYPE=Haswell": CMAP,  # AVX2 BLAS kernels
    "OPENBLAS_CORETYPE=Prescott": CMAP,  # SSE3 BLAS kernels
    "OPENBLAS_NUM_THREADS=1": CMAP,
    "NPY_ENABLE_CPU_FEATURES=X86_V2": {"raked/theta_sg.csv"},  # numpy's SSE4.2 loops
}


@pytest.mark.skipif(not _dynamic_openblas_on_x86_64(),
                    reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS on x86-64")
@pytest.mark.parametrize("setting", sorted(KERNEL_SETTINGS))
def test_digests_do_not_depend_on_the_blas_kernel(tmp_path, setting):
    """The golden digests hold under other OpenBLAS kernels, one OpenBLAS
    thread and numpy's SSE4.2 dispatch, except the files named above.

    Each setting picks the kernels of one child process on this CPU.
    Unverified: a real CPU without AVX-512, ARM, and operating systems
    other than Linux.
    """
    name, value = setting.split("=")
    proc = golden_in_subprocess(tmp_path, **{name: value})
    assert proc.returncode == 0, proc.stderr[-2000:]
    digests = json.loads(proc.stdout)
    exempt = KERNEL_SETTINGS[setting]
    assert {k: v for k, v in digests.items() if k not in exempt} == {
        k: v for k, v in GOLDEN.items() if k not in exempt}


# SHA-256 of the in-memory library chain on a small multinomial synth table;
# it moved with the raked digests above (raked values by at most 1.9e-15
# relative, theta by at most 8.9e-16 absolute)
LIBRARY_CHAIN = "955707e3bba60e4dae116ece7c40d864bf3f149fed463172c0ca5e66c117d1a4"


def library_chain_digest(cell_totals):
    """Digest every array of fit_factors -> weighted_counts -> rake to the
    table's own margins -> the three reports; `cell_totals(table)` is what
    is handed to weighted_counts."""
    table = rt.generate(rt.SynthConfig(
        n_s=40, n_g=15, race_mix=np.array([0.02, 0.08, 0.2, 0.25, 0.4, 0.05]),
        dependence=0.5, total_population=3000, seed=9, multinomial=True,
    ))
    factors = rt.fit_factors(table)
    pred, rejects = rt.weighted_counts(factors, cell_totals(table))
    result = rt.rake(pred, rt.MarginSet.from_table(table))
    raked = result.table
    sub = rt.subpop_report(table, raked)
    cell = rt.cellwise_report(table, raked)
    curves = [rt.calibration_curve(table, raked, rt.RaceCategory(r)) for r in range(6)]
    assert rejects == []
    h = hashlib.sha256()
    for arr in (
        pred.cell_index, pred.cell_values, raked.cell_index, raked.cell_values,
        result.theta_r, result.theta_sg, sub.truth_counts, sub.estimate_counts,
        sub.abs_error, sub.rel_error, sub.mad, sub.avg_error, cell.l1, cell.l2, cell.nll,
        np.array(cell.overall), *(c.points for c in curves),
    ):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(repr([c.kuiper for c in curves]).encode())
    return h.hexdigest()


def test_library_chain_matches_recorded_digest():
    digest = library_chain_digest(
        lambda table: {key: float(vec.sum()) for key, vec in table.items()}
    )
    assert digest == LIBRARY_CHAIN


def test_library_chain_with_margin_set_totals():
    """The table's MarginSet handed to weighted_counts gives the same bytes."""
    assert library_chain_digest(rt.MarginSet.from_table) == LIBRARY_CHAIN


# SHA-256 of the three reports on predictions that are not on the truth's
# cells, recorded before the reports' row sums moved to `row_sums`
MASKED_REPORTS = "232166836700ce173f1352561eb0adbc2059654e29a0258d59e47287cd0a50ea"


def masked_reports_digest():
    """Digest every array of the three reports where the alignment masks:
    the truth has empty cells and a geolocation of zero population; one
    prediction, on fewer labels, lacks the empty truth cells and holds
    cells the truth lacks; another, on the truth's labels, lacks some
    occupied cells (its curves fail, and their message is digested)."""
    rng = np.random.default_rng(12)
    n_s, n_g = 30, 8
    labels = rt.AxisLabels([f"s{i:02d}" for i in range(n_s)], [f"g{j}" for j in range(n_g)])
    codes = np.arange(n_s * n_g)
    in_truth = rng.random(len(codes)) < 0.7
    index = np.column_stack(np.divmod(codes[in_truth], n_g))
    values = rng.gamma(0.5, 4.0, size=(len(index), 6))
    values[rng.random(values.shape) < 0.3] = 0.0
    # empty cells, all of g7 and of the last surname among them
    values[(rng.random(len(index)) < 0.1) | (index[:, 1] == 7) | (index[:, 0] == n_s - 1)] = 0.0
    truth = rt.ContingencyTable(labels, index, values)
    occupied = truth.cell_sums > 0

    extra = codes[~in_truth & (codes // n_g < n_s - 1) & (rng.random(len(codes)) < 0.5)]
    pred_codes = np.concatenate([codes[in_truth][occupied], extra])
    order = np.argsort(pred_codes)
    pred_values = rng.gamma(1.0, 1.0, size=(len(pred_codes), 6)) + 1e-3
    pred_values[rng.random(pred_values.shape) < 0.2] = 0.0
    pred_values[:, 0] += 1e-3  # every cell keeps a positive total
    held = rt.ContingencyTable(*rt.table.compact_labels(
        labels, np.column_stack(np.divmod(pred_codes[order], n_g))), pred_values[order])
    assert held.labels != truth.labels

    kept = np.arange(truth.n_cells) % 5 != 2
    short = rt.ContingencyTable(labels, index[kept], rng.random((kept.sum(), 6)) + 1e-3)

    regions = {f"g{j}": f"R{j % 3}" for j in range(n_g - 2)}
    regions["g99"] = "R9"  # a geoid the truth lacks; g6 and g7 map to no region
    h = hashlib.sha256()
    for pred in (held, short):
        sub = rt.subpop_report(truth, pred, orientation=rt.metrics.TRUTH_MINUS_ESTIMATE)
        cell = rt.cellwise_report(truth, pred, region_map=regions)
        for arr in (sub.estimate_counts, sub.abs_error, sub.rel_error, sub.mad,
                    sub.avg_error, cell.l1, cell.l2, cell.nll, np.array(cell.overall)):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(repr(sorted(cell.regions.items())).encode())
        for race in rt.RaceCategory:
            try:
                curve = rt.calibration_curve(truth, pred, race)
            except ValueError as err:
                h.update(str(err).encode())
            else:
                h.update(curve.points.tobytes() + repr(curve.kuiper).encode())
    return h.hexdigest()


def test_masked_reports_match_recorded_digest():
    assert masked_reports_digest() == MASKED_REPORTS


def kernel_factors_and_cells():
    """Random factors on 60 surnames and 20 geolocations whose prior gives
    the last race no mass (the conditionals still do), and a mapping of
    cell totals, in unsorted order, over 64 surnames and 22 geolocations:
    four surnames and two geolocations have no factor, and a few totals
    are zero."""
    rng = np.random.default_rng(314)
    n_s, n_g = 60, 20
    surnames = [f"s{i:02d}" for i in range(n_s)]
    geos = [f"g{j:02d}" for j in range(n_g)]
    prior = rng.dirichlet(np.ones(6))
    prior[5] = 0.0
    factors = rt.BisgFactors(
        rt.AxisLabels(surnames, geos),
        race_given_surname=rng.dirichlet(np.ones(6), size=n_s),
        race_given_geo=rng.dirichlet(np.ones(6), size=n_g),
        race_prior=prior / prior.sum(),
        surname_counts=rng.gamma(2.0, 50.0, size=n_s),
        geo_counts=rng.gamma(2.0, 150.0, size=n_g),
    )
    pairs = [(f"s{i:02d}", f"g{j:02d}") for i in range(n_s + 4) for j in range(n_g + 2)]
    keep = rng.random(len(pairs)) < 0.4
    chosen = [pair for pair, k in zip(pairs, keep) if k]
    order = rng.permutation(len(chosen))
    totals = rng.gamma(1.5, 3.0, size=len(chosen))
    totals[rng.random(len(chosen)) < 0.05] = 0.0
    cells = {chosen[k]: float(totals[k]) for k in order}
    return factors, cells


# SHA-256 of weighted_counts under every method, with and without a voter
# adjustment, and of bisg_probability on a grid of cells, recorded before
# the three BISG products were folded into one
BISG_KERNELS = "ef3bf0dc7dce397f8392b28fd5aabc1df8f9dfa9c0a71351b48ea84f2cdb16a7"


def bisg_kernels_digest():
    factors, cells = kernel_factors_and_cells()
    adjustment = rt.VoterAdjustment(np.array([1.3, 0.7, 1.1, 0.0, 0.9, 1.0]))
    h = hashlib.sha256()
    for method in ("bisg", "geo-only", "surname-only"):
        for adj in (None, adjustment):
            pred, rejects = rt.weighted_counts(factors, cells, adjustment=adj, method=method)
            h.update(repr((pred.labels.surnames, pred.labels.geolocations, rejects)).encode())
            h.update(pred.cell_index.tobytes() + pred.cell_values.tobytes())
    for s in range(0, 64, 3):
        for g in range(0, 22, 2):
            for adj in (None, adjustment):
                try:
                    p = rt.bisg_probability(factors, f"s{s:02d}", f"g{g:02d}", adjustment=adj)
                except rt.MissingFactorError as err:
                    h.update(str(err).encode())
                else:
                    h.update(p.tobytes())
    return h.hexdigest()


def test_bisg_kernels_match_recorded_digest():
    assert bisg_kernels_digest() == BISG_KERNELS
