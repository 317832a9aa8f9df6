"""
batch command-line interface.

Subcommands cover the full offline pipeline: fit factors, predict, rake,
solve/apply calibration maps, subsample a voter file, evaluate predictions,
and generate synthetic fixtures. Every run writes a manifest.json recording
the command, flags, input and output digests, seconds spent parsing,
writing, digesting and computing, peak RSS, and versions; outputs are written
atomically (temp file + rename). Exit codes: 0 success, 2 input error,
3 non-convergence.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time

import numpy as np

from . import __version__, bisg, calibmap, ingest, metrics, raking
from .synth import SynthConfig, generate
from .table import N_RACES, RACE_NAMES, AxisLabels, ContingencyTable, MarginSet, PredictionTable
from .table import RaceCategory

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NONCONVERGENCE = 3


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _atomic(path, write_fn, *args):
    tmp = f"{path}.tmp"
    result = write_fn(tmp, *args)
    os.replace(tmp, path)
    return result


class _Run:
    """Collects inputs, outputs, timings and run info for the manifest."""

    def __init__(self, command, args, out_dir):
        self.start = time.perf_counter()
        self.command = command
        self.flags = {
            k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None
        }
        self.out_dir = out_dir
        self.inputs = []
        self.outputs = []
        self.info = {}
        self.timings = {"parse_s": 0.0, "write_s": 0.0, "digest_s": 0.0}
        os.makedirs(out_dir, exist_ok=True)

    def _timed(self, key, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        self.timings[key] += time.perf_counter() - start
        return result

    def read(self, path, parse_fn, *args):
        """Digest input `path` and return parse_fn(path, *args)."""
        self.inputs.append({"path": str(path), "sha256": self._timed("digest_s", _sha256, path)})
        return self._timed("parse_s", parse_fn, path, *args)

    def write(self, name, write_fn, *args):
        """Write output `name` atomically with write_fn(path, *args) and
        return what write_fn returns."""
        path = os.path.join(self.out_dir, name)
        result = self._timed("write_s", _atomic, path, write_fn, *args)
        self.outputs.append({"path": str(path), "sha256": self._timed("digest_s", _sha256, path)})
        return result

    def finish(self):
        # compute is the rest of the run, up to the manifest
        elapsed = time.perf_counter() - self.start
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
        manifest = {
            "command": self.command,
            "flags": {k: str(v) for k, v in self.flags.items()},
            "seed": self.flags.get("seed"),
            "inputs": self.inputs,
            "outputs": sorted(self.outputs, key=lambda o: o["path"]),
            "info": dict(self.info, peak_rss_mb=peak_kib / 1024),
            "timings": dict(self.timings, compute_s=elapsed - sum(self.timings.values())),
            "versions": {"raketab": __version__, "numpy": np.__version__,
                         "python": platform.python_version()},
        }
        _atomic(os.path.join(self.out_dir, "manifest.json"), ingest.write_manifest, manifest)


# shared input loading -----------------------------------------------------


def _load_truth(args, run) -> ContingencyTable:
    if getattr(args, "table", None) or getattr(args, "truth_table", None):
        path = getattr(args, "table", None) or args.truth_table
        return run.read(path, ingest.parse_table)
    voters = getattr(args, "voters", None) or args.truth_voters
    records = run.read(voters, ingest.parse_voter_file, ingest.MAPPINGS[args.mapping])
    table, _ = ingest.aggregate_voters(records, require_race=True)
    if table is None:
        raise ValueError("no labeled records in voter file")
    return table


def _load_occupancy(args, run):
    """Cell totals to predict for: from a table CSV or a voter file."""
    if getattr(args, "table", None):
        table = run.read(args.table, ingest.parse_table)
        return MarginSet(None, table.labels, table.cell_index, table.cell_sums)
    records = run.read(args.voters, ingest.parse_voter_file, ingest.MAPPINGS[args.mapping])
    _, occupancy = ingest.aggregate_voters(records, require_race=False)
    return occupancy


def _load_factors(args, run) -> bisg.BisgFactors:
    surnames, s_values, s_rejects = run.read(args.surname_factors, ingest.parse_surname_factors)
    geoids, g_values, g_rejects = run.read(args.geo_factors, ingest.parse_geo_factors)
    prior = run.read(args.prior, ingest.parse_race_margin)
    for kind, rejects in (("surname", s_rejects), ("geo", g_rejects)):
        if len(rejects):
            run.write(f"{kind}_factor_rejects.csv", ingest.write_rejects, rejects)
            run.info[f"{kind}_factor_rejects"] = len(rejects)
    # values hold each label's count, then P(r | label)
    return bisg.BisgFactors(
        AxisLabels(surnames, geoids), s_values[:, 1:], g_values[:, 1:], prior,
        s_values[:, 0], g_values[:, 0],
    )


def _write_factors(run, factors):
    s, g = factors.labels.surnames, factors.labels.geolocations
    run.write("surname_factors.csv", ingest.write_surname_factors,
              dict(zip(s, factors.race_given_surname)), dict(zip(s, factors.surname_counts)))
    run.write("geo_factors.csv", ingest.write_geo_factors,
              dict(zip(g, factors.race_given_geo)), dict(zip(g, factors.geo_counts)))
    run.write("prior.json", ingest.write_race_margin, factors.race_prior)


# subcommands ---------------------------------------------------------------


def cmd_fit_factors(args):
    run = _Run("fit-factors", args, args.out_dir)
    table = _load_truth(args, run)
    factors = bisg.fit_factors(table)
    _write_factors(run, factors)
    run.finish()
    return EXIT_OK


def cmd_predict(args):
    run = _Run("predict", args, args.out_dir)
    factors = _load_factors(args, run)
    occupancy = _load_occupancy(args, run)
    adjustment = None
    if args.adjust_cps:
        cps = run.read(args.adjust_cps, ingest.parse_race_margin)
        adjustment = bisg.voter_adjustment(cps, factors.race_prior)
    table, rejects = bisg.weighted_counts(
        factors, occupancy, adjustment=adjustment, method=args.method
    )
    run.write("predictions.csv", ingest.write_predictions, table)
    if rejects:
        rows = [(i + 1, f"{s},{g}: {reason}") for i, (s, g, reason) in enumerate(rejects)]
        run.write("rejects.csv", ingest.write_rejects, ingest.RejectReport(rows))
        run.info["rejected_cells"] = len(rejects)
    run.info["factor_labels"] = {"surname": factors.labels.n_s, "geo": factors.labels.n_g}
    run.info["cells_in"] = len(occupancy.totals)
    run.info["cells_out"] = table.n_cells
    run.finish()
    return EXIT_OK


def cmd_rake(args):
    run = _Run("rake", args, args.out_dir)
    labels, index, counts, conds = run.read(args.base, ingest.parse_predictions)
    distribution = run.read(args.race_margin, ingest.parse_race_margin)

    live = counts > 0
    base = PredictionTable(labels, index[live], counts[live, None] * conds[live])
    # renormalize so the race targets sum exactly to the cell-target total
    distribution = distribution / distribution.sum()
    targets = MarginSet(distribution * sum(counts.tolist()), labels, base.cell_index, counts[live])
    config = raking.RakingConfig(tolerance=args.tol, max_iterations=args.max_iters)
    result = raking.rake(base, targets, config)

    run.write("raked.csv", ingest.write_predictions, result.table)
    run.write("theta.json", ingest.write_theta, result)
    run.write("theta_sg.csv", ingest.write_theta_sg, result)
    run.info["iterations"] = result.iterations
    run.info["final_margin_gap"] = result.final_margin_gap
    run.info["gap_history"] = list(result.gap_history)
    run.info["feasibility_slack"] = result.feasibility_slack
    run.info["tightest_races"] = list(result.tightest_races)
    run.info["cells_in"] = len(counts)
    run.info["cells_out"] = result.table.n_cells
    run.finish()
    return EXIT_OK


def cmd_calib_map(args):
    run = _Run("calib-map", args, args.out_dir)
    u = run.read(args.source, ingest.parse_race_margin)
    v = run.read(args.target, ingest.parse_race_margin)
    cmap = calibmap.solve_calibration_map(u, v)

    run.write("calibration_map.csv", ingest.write_calibration_map, cmap.matrix)
    for key in ("objective", "feasibility", "kkt_residual", "rank_one_benchmark"):
        run.info[key] = getattr(cmap, key)
    run.finish()
    return EXIT_OK


def cmd_subsample(args):
    run = _Run("subsample", args, args.out_dir)
    records = run.read(args.voters, ingest.parse_voter_file, ingest.MAPPINGS[args.mapping])
    target = run.read(args.target, ingest.parse_race_margin)
    # the test-set convention: drop inactive and unanswered records first
    labeled = [r for r in records if r.active and r.race is not None]
    sample = ingest.subsample_to_margin(labeled, target, seed=args.seed)
    run.write("subsampled.csv", ingest.write_voter_file, sample)
    run.info["sample_size"] = len(sample)
    run.finish()
    return EXIT_OK


def cmd_evaluate(args):
    run = _Run("evaluate", args, args.out_dir)
    truth = _load_truth(args, run)
    labels, index, _, conds = run.read(args.preds, ingest.parse_predictions)

    matrix = None
    if args.calib_map:
        matrix = run.read(args.calib_map, ingest.parse_calibration_map)

    occupied = truth.cell_sums > 0
    rows = PredictionTable(labels, index, conds).locate(truth)[occupied]
    if np.any(rows < 0):
        missing = truth.labels.pairs(truth.cell_index[occupied][rows < 0])
        raise ValueError(f"predictions missing for {len(missing)} truth cells, e.g. {missing[:3]}")
    cond = conds[rows]
    if matrix is not None:
        cond = np.matmul(matrix, cond[:, :, None])[:, :, 0]
    pred = PredictionTable(
        truth.labels, truth.cell_index[occupied], truth.cell_sums[occupied, None] * cond
    )

    region_map = None
    if args.region_map:
        region_map = run.read(args.region_map, ingest.parse_region_map)

    sub = metrics.subpop_report(truth, pred)
    cell = metrics.cellwise_report(truth, pred, region_map=region_map)
    curves = [metrics.calibration_curve(truth, pred, RaceCategory(r)) for r in range(N_RACES)]

    run.write("subpop.csv", ingest.write_subpop, sub)
    run.write("cellwise.csv", ingest.write_cellwise, cell)
    rows = run.write("calibration_curves.csv", ingest.write_calibration_curves, curves)
    run.write("summary.json", ingest.write_summary, sub, cell, curves)
    run.info["cells_in"] = {"truth": truth.n_cells, "preds": len(index)}
    run.info["cells_out"] = pred.n_cells
    run.info["curve_points"] = {RACE_NAMES[c.race]: n for c, n in zip(curves, rows)}
    run.finish()
    return EXIT_OK


def cmd_synth(args):
    run = _Run("synth", args, args.out_dir)
    mix = np.array([float(x) for x in args.race_mix.split(",")])
    config = SynthConfig(
        n_s=args.surnames,
        n_g=args.geos,
        race_mix=mix,
        dependence=args.dependence,
        total_population=args.total,
        seed=args.seed,
        multinomial=args.multinomial,
    )
    table = generate(config)
    factors = bisg.fit_factors(table)
    run.write("table.csv", ingest.write_table, table)
    _write_factors(run, factors)
    run.write("race_margin.json", ingest.write_race_margin, table.margin("r") / table.total())
    run.finish()
    return EXIT_OK


# parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raketab",
        description="contingency-table race/ethnicity estimation pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out-dir", required=True, help="directory for outputs and manifest")

    p = sub.add_parser("fit-factors", help="fit factor files from labeled data")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--voters", help="labeled voter file CSV")
    src.add_argument("--table", help="labeled table CSV")
    p.add_argument("--mapping", default="canonical", choices=sorted(ingest.MAPPINGS))
    add_out(p)
    p.set_defaults(func=cmd_fit_factors)

    p = sub.add_parser("predict", help="per-cell race conditionals from factors")
    p.add_argument("--surname-factors", required=True)
    p.add_argument("--geo-factors", required=True)
    p.add_argument("--prior", required=True, help="race prior JSON")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--voters", help="voter file CSV to predict for")
    src.add_argument("--table", help="labeled table CSV to predict for")
    p.add_argument("--mapping", default="canonical", choices=sorted(ingest.MAPPINGS))
    p.add_argument("--method", default="bisg", choices=["bisg", "geo-only", "surname-only"])
    p.add_argument("--adjust-cps", help="voter race distribution JSON for registered-voter adjustment")
    add_out(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("rake", help="fit predictions to race and cell margins")
    p.add_argument("--base", required=True, help="predictions CSV to rake")
    p.add_argument("--race-margin", required=True, help="race distribution JSON")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iters", type=int, default=100, help="cap on Newton steps")
    add_out(p)
    p.set_defaults(func=cmd_rake)

    p = sub.add_parser("calib-map", help="solve the distribution calibration map")
    p.add_argument("--source", required=True, help="source race distribution JSON")
    p.add_argument("--target", required=True, help="target race distribution JSON")
    add_out(p)
    p.set_defaults(func=cmd_calib_map)

    p = sub.add_parser("subsample", help="subsample a voter file to a race distribution")
    p.add_argument("--voters", required=True)
    p.add_argument("--mapping", default="canonical", choices=sorted(ingest.MAPPINGS))
    p.add_argument("--target", required=True, help="target race distribution JSON")
    p.add_argument("--seed", type=int, required=True)
    add_out(p)
    p.set_defaults(func=cmd_subsample)

    p = sub.add_parser("evaluate", help="error and calibration reports")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--truth-voters", help="labeled voter file CSV")
    src.add_argument("--truth-table", help="labeled table CSV")
    p.add_argument("--mapping", default="canonical", choices=sorted(ingest.MAPPINGS))
    p.add_argument("--preds", required=True, help="predictions CSV")
    p.add_argument("--region-map", help="geoid,region CSV for region aggregates")
    p.add_argument("--calib-map", help="calibration matrix CSV applied to each conditional")
    add_out(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", help="generate a synthetic fixture set")
    p.add_argument("--surnames", type=int, required=True)
    p.add_argument("--geos", type=int, required=True)
    p.add_argument("--dependence", type=float, default=0.0)
    p.add_argument("--total", type=float, default=10_000.0)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--race-mix",
        default=",".join([f"{1 / N_RACES:.17g}"] * N_RACES),
        help="six comma-separated shares summing to 1",
    )
    p.add_argument("--multinomial", action="store_true", help="draw integer counts")
    add_out(p)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (raking.NonConvergenceError, calibmap.CalibrationSolveError) as exc:
        _emit_error(exc, EXIT_NONCONVERGENCE)
        return EXIT_NONCONVERGENCE
    except (ValueError, KeyError, LookupError, OSError) as exc:
        _emit_error(exc, EXIT_INPUT)
        return EXIT_INPUT


def _emit_error(exc, code):
    payload = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    if isinstance(exc, raking.NonConvergenceError):
        payload.update(vars(exc))  # margin_gap, worst_race, last_gaps
    json.dump(payload, sys.stderr)
    sys.stderr.write("\n")


if __name__ == "__main__":
    sys.exit(main())
