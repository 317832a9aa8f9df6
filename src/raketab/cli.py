"""
batch command-line interface.

Subcommands cover the full offline pipeline: fit factors, predict, rake,
solve/apply calibration maps, subsample a voter file, evaluate predictions,
and generate synthetic fixtures. Every run writes a manifest.json recording
the command, flags, input digests, and output digests; outputs are written
atomically (temp file + rename). Exit codes: 0 success, 2 input error,
3 non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys

import numpy as np

from . import bisg, calibmap, ingest, metrics, raking
from .synth import SynthConfig, generate
from .table import N_RACES, RACE_NAMES, ContingencyTable, PredictionTable, RaceCategory

PREDICTIONS_HEADER = ["surname", "geoid", "count"] + [f"p_{n}" for n in RACE_NAMES]
CALIB_MAP_HEADER = ["race"] + list(RACE_NAMES)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NONCONVERGENCE = 3


def _fmt(x: float) -> str:
    return repr(float(x))


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _atomic(path, write_fn):
    tmp = f"{path}.tmp"
    write_fn(tmp)
    os.replace(tmp, path)


class _Run:
    """Collects inputs, outputs, and run info for the manifest."""

    def __init__(self, command, args, out_dir):
        self.command = command
        self.flags = {
            k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None
        }
        self.out_dir = out_dir
        self.inputs = []
        self.outputs = []
        self.info = {}
        os.makedirs(out_dir, exist_ok=True)

    def track_input(self, path):
        self.inputs.append({"path": str(path), "sha256": _sha256(path)})
        return path

    def write(self, name, write_fn):
        path = os.path.join(self.out_dir, name)
        _atomic(path, write_fn)
        self.outputs.append({"path": str(path), "sha256": _sha256(path)})
        return path

    def finish(self):
        manifest = {
            "command": self.command,
            "flags": {k: str(v) for k, v in self.flags.items()},
            "seed": self.flags.get("seed"),
            "inputs": self.inputs,
            "outputs": sorted(self.outputs, key=lambda o: o["path"]),
            "info": self.info,
        }

        def dump(tmp):
            with open(tmp, "w") as fh:
                json.dump(manifest, fh, indent=2, sort_keys=True)
                fh.write("\n")

        _atomic(os.path.join(self.out_dir, "manifest.json"), dump)


# shared input loading -----------------------------------------------------


def _load_truth(args, run) -> ContingencyTable:
    if getattr(args, "table", None) or getattr(args, "truth_table", None):
        path = getattr(args, "table", None) or args.truth_table
        run.track_input(path)
        return ingest.parse_table(path)
    voters = getattr(args, "voters", None) or args.truth_voters
    run.track_input(voters)
    mapping = ingest.MAPPINGS[args.mapping]
    records = ingest.parse_voter_file(voters, mapping)
    table, _ = ingest.aggregate_voters(records, require_race=True)
    if table is None:
        raise ValueError("no labeled records in voter file")
    return table


def _load_occupancy(args, run):
    """Cell totals to predict for: from a table CSV or a voter file."""
    if getattr(args, "table", None):
        run.track_input(args.table)
        table = ingest.parse_table(args.table)
        return {key: float(vec.sum()) for key, vec in table.items()}
    run.track_input(args.voters)
    mapping = ingest.MAPPINGS[args.mapping]
    records = ingest.parse_voter_file(args.voters, mapping)
    _, occupancy = ingest.aggregate_voters(records, require_race=False)
    return occupancy


def _load_factors(args, run) -> bisg.BisgFactors:
    run.track_input(args.surname_factors)
    run.track_input(args.geo_factors)
    run.track_input(args.prior)
    s_probs, s_counts, s_rejects = ingest.parse_surname_factors(args.surname_factors)
    g_probs, g_counts, g_rejects = ingest.parse_geo_factors(args.geo_factors)
    if len(s_rejects):
        run.write("surname_factor_rejects.csv", s_rejects.to_csv)
        run.info["surname_factor_rejects"] = len(s_rejects)
    if len(g_rejects):
        run.write("geo_factor_rejects.csv", g_rejects.to_csv)
        run.info["geo_factor_rejects"] = len(g_rejects)
    prior = ingest.parse_race_margin(args.prior)
    return bisg.BisgFactors(
        race_given_geo=g_probs,
        race_given_surname=s_probs,
        race_prior=prior,
        geo_counts=g_counts,
        surname_counts=s_counts,
    )


def _write_predictions(run, name, table: PredictionTable):
    def write(tmp):
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(PREDICTIONS_HEADER)
            for (s, g), vec in table.items():
                tot = vec.sum()
                cond = vec / tot if tot > 0 else np.zeros(N_RACES)
                w.writerow([s, g, _fmt(tot)] + [_fmt(p) for p in cond])

    return run.write(name, write)


def _read_predictions(path):
    """Returns (conditionals {(s,g): 6-vector}, counts {(s,g): float})."""
    conds, counts = {}, {}
    fh, reader = ingest._open_reader(path, PREDICTIONS_HEADER)
    with fh:
        for line, row in enumerate(reader, start=2):
            if len(row) != len(PREDICTIONS_HEADER):
                raise ingest.ParseError(f"{path}:{line}: expected {len(PREDICTIONS_HEADER)} fields")
            key = (row[0], row[1])
            if key in conds:
                raise ingest.ParseError(f"{path}:{line}: duplicate cell {key}")
            count = float(row[2])
            vec = np.array([float(x) for x in row[3:]])
            if count < 0 or np.any(vec < 0):
                raise ingest.ParseError(f"{path}:{line}: negative value")
            counts[key] = count
            conds[key] = vec
    if not conds:
        raise ingest.ParseError(f"{path}: no data rows")
    return conds, counts


def _write_rejects(run, rejects):
    if not rejects:
        return
    report = ingest.RejectReport()
    for i, (s, g, reason) in enumerate(rejects):
        report.add(i + 1, f"{s},{g}: {reason}")
    run.write("rejects.csv", report.to_csv)
    run.info["rejected_cells"] = len(rejects)


# subcommands ---------------------------------------------------------------


def cmd_fit_factors(args):
    run = _Run("fit-factors", args, args.out_dir)
    table = _load_truth(args, run)
    factors = bisg.fit_factors(table)
    run.write(
        "surname_factors.csv",
        lambda p: ingest.write_surname_factors(p, factors.race_given_surname, factors.surname_counts),
    )
    run.write(
        "geo_factors.csv",
        lambda p: ingest.write_geo_factors(p, factors.race_given_geo, factors.geo_counts),
    )
    run.write("prior.json", lambda p: ingest.write_race_margin(p, factors.race_prior))
    run.finish()
    return EXIT_OK


def cmd_predict(args):
    run = _Run("predict", args, args.out_dir)
    factors = _load_factors(args, run)
    occupancy = _load_occupancy(args, run)
    adjustment = None
    if args.adjust_cps:
        run.track_input(args.adjust_cps)
        cps = ingest.parse_race_margin(args.adjust_cps)
        adjustment = bisg.voter_adjustment(cps, factors.race_prior)
    table, rejects = bisg.weighted_counts(
        factors, occupancy, adjustment=adjustment, method=args.method
    )
    _write_predictions(run, "predictions.csv", table)
    _write_rejects(run, rejects)
    run.finish()
    return EXIT_OK


def cmd_rake(args):
    run = _Run("rake", args, args.out_dir)
    run.track_input(args.base)
    conds, counts = _read_predictions(args.base)
    run.track_input(args.race_margin)
    distribution = ingest.parse_race_margin(args.race_margin)

    cells = {
        key: counts[key] * conds[key] for key in conds if counts[key] > 0
    }
    base = PredictionTable.from_label_cells(cells)
    total = sum(counts.values())
    # renormalize so the race targets sum exactly to the cell-target total
    distribution = distribution / distribution.sum()
    targets = raking.MarginSet(distribution * total, counts)
    config = raking.RakingConfig(tolerance=args.tol, max_iterations=args.max_iters)
    result = raking.rake(base, targets, config)

    _write_predictions(run, "raked.csv", result.table)

    def write_theta(tmp):
        def clean(x):
            return float(x) if np.isfinite(x) else None

        payload = {
            "theta_r": {RACE_NAMES[r]: clean(result.theta_r[r]) for r in range(N_RACES)},
            "theta_sg": [
                {"surname": s, "geoid": g, "theta": clean(t)}
                for (s, g), t in sorted(result.theta_sg.items())
            ],
            "iterations": result.iterations,
            "final_margin_gap": result.final_margin_gap,
        }
        with open(tmp, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    run.write("theta.json", write_theta)
    run.info["iterations"] = result.iterations
    run.info["final_margin_gap"] = result.final_margin_gap
    run.finish()
    return EXIT_OK


def cmd_calib_map(args):
    run = _Run("calib-map", args, args.out_dir)
    run.track_input(args.source)
    run.track_input(args.target)
    u = ingest.parse_race_margin(args.source)
    v = ingest.parse_race_margin(args.target)
    cmap = calibmap.solve_calibration_map(u, v)

    def write(tmp):
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(CALIB_MAP_HEADER)
            for i in range(N_RACES):
                w.writerow([RACE_NAMES[i]] + [_fmt(x) for x in cmap.matrix[i]])

    run.write("calibration_map.csv", write)
    for key in ("objective", "feasibility", "kkt_residual", "rank_one_benchmark"):
        run.info[key] = getattr(cmap, key)
    run.finish()
    return EXIT_OK


def _read_calib_matrix(path) -> np.ndarray:
    """A calibration matrix CSV: finite, nonnegative, columns summing to 1."""
    fh, reader = ingest._open_reader(path, CALIB_MAP_HEADER)
    rows = []
    with fh:
        for line, row in enumerate(reader, start=2):
            if len(row) != len(CALIB_MAP_HEADER) or row[0] != RACE_NAMES[len(rows)]:
                raise ingest.ParseError(f"{path}:{line}: malformed matrix row")
            rows.append([float(x) for x in row[1:]])
    if len(rows) != N_RACES:
        raise ingest.ParseError(f"{path}: expected {N_RACES} matrix rows")
    matrix = np.array(rows)
    if not np.all(np.isfinite(matrix)) or np.any(matrix < 0):
        raise ingest.ParseError(f"{path}: matrix entries must be finite and nonnegative")
    if np.abs(matrix.sum(axis=0) - 1.0).max() > 1e-6:
        raise ingest.ParseError(f"{path}: matrix columns must sum to 1")
    return matrix


def cmd_subsample(args):
    run = _Run("subsample", args, args.out_dir)
    run.track_input(args.voters)
    run.track_input(args.target)
    mapping = ingest.MAPPINGS[args.mapping]
    records = ingest.parse_voter_file(args.voters, mapping)
    # the test-set convention: drop inactive and unanswered records first
    labeled = [r for r in records if r.active and r.race is not None]
    target = ingest.parse_race_margin(args.target)
    sample = ingest.subsample_to_margin(labeled, target, seed=args.seed)
    run.write("subsampled.csv", lambda p: ingest.write_voter_file(p, sample))
    run.info["sample_size"] = len(sample)
    run.finish()
    return EXIT_OK


def cmd_evaluate(args):
    run = _Run("evaluate", args, args.out_dir)
    truth = _load_truth(args, run)
    run.track_input(args.preds)
    conds, _ = _read_predictions(args.preds)

    matrix = None
    if args.calib_map:
        run.track_input(args.calib_map)
        matrix = _read_calib_matrix(args.calib_map)

    cells = {}
    missing = []
    for key, vec in truth.items():
        w = vec.sum()
        if w <= 0:
            continue
        cond = conds.get(key)
        if cond is None:
            missing.append(key)
            continue
        if matrix is not None:
            cond = matrix @ cond
        cells[key] = w * cond
    if missing:
        raise ValueError(f"predictions missing for {len(missing)} truth cells, e.g. {missing[:3]}")
    pred = PredictionTable.from_label_cells(cells)

    region_map = None
    if args.region_map:
        run.track_input(args.region_map)
        region_map = ingest.parse_region_map(args.region_map)

    sub = metrics.subpop_report(truth, pred)
    cell = metrics.cellwise_report(truth, pred, region_map=region_map)
    curves = [metrics.calibration_curve(truth, pred, RaceCategory(r)) for r in range(N_RACES)]

    run.write("subpop.csv", sub.to_csv)
    run.write("cellwise.csv", cell.to_csv)

    def write_curves(tmp):
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["race", "cumulative_weight", "cumulative_miscalibration"])
            for curve in curves:
                for x, v in curve.points:
                    w.writerow([RACE_NAMES[curve.race], _fmt(x), _fmt(v)])

    run.write("calibration_curves.csv", write_curves)

    summary = {
        "subpopulation": sub.summary(),
        "cellwise": cell.summary(),
        "kuiper": {RACE_NAMES[c.race]: c.kuiper for c in curves},
        # the other category is computed like the rest but called out,
        # since reports often omit it
        "kuiper_includes_other": True,
    }
    run.write("summary.json", lambda p: metrics.write_summary_json(p, summary))
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
    run.write("table.csv", lambda p: ingest.write_table(p, table))
    run.write(
        "surname_factors.csv",
        lambda p: ingest.write_surname_factors(p, factors.race_given_surname, factors.surname_counts),
    )
    run.write(
        "geo_factors.csv",
        lambda p: ingest.write_geo_factors(p, factors.race_given_geo, factors.geo_counts),
    )
    run.write("prior.json", lambda p: ingest.write_race_margin(p, factors.race_prior))
    run.write(
        "race_margin.json",
        lambda p: ingest.write_race_margin(p, table.margin("r") / table.total()),
    )
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
    p.add_argument("--max-iters", type=int, default=10_000)
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
    json.dump(payload, sys.stderr)
    sys.stderr.write("\n")


if __name__ == "__main__":
    sys.exit(main())
