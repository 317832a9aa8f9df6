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

import time

_IMPORTS_START = time.perf_counter()

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import sys

# hashlib's blake2b is this same type (hashlib never takes BLAKE2b from
# OpenSSL), but hashlib's own import loads OpenSSL's libcrypto to look up
# its other constructors: about 3.6 MB of each command's peak
from _blake2 import blake2b

# a command process: raketab.cli loads before anything else loaded numpy
_FRESH = "numpy" not in sys.modules

# OpenBLAS starts a thread pool when numpy is imported: about 70 ms of each
# command's start on a 2-core machine, and no command gains from it (rake
# makes no BLAS call; calib-map's LAPACK solves are 12 by 36). So a command
# run as its own process takes one BLAS thread unless the caller chose a
# count with one of these variables. A process that loaded numpy first is
# left as it is, and so is `import raketab`.
_BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
_BLAS_THREADS = {"set_by": "caller"}  # the manifest's record of the setting
if _FRESH and not any(v in os.environ for v in _BLAS_VARIABLES):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    _BLAS_THREADS["set_by"] = "raketab"
_BLAS_THREADS["variables"] = {v: os.environ[v] for v in _BLAS_VARIABLES if v in os.environ}

import numpy as np

import raketab

from . import __version__, ingest
from .table import N_RACES, RACE_NAMES, AxisLabels, ContingencyTable, MarginSet
from .table import RaceCategory, check_cell_values


def _peak_rss_mb() -> float:
    """This process's own peak resident memory: VmHWM where /proc has it.

    Elsewhere ru_maxrss, in bytes on macOS and KiB on Linux, which a
    spawned process starts at its parent's peak.
    """
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024
    except (OSError, StopIteration):
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return peak / 2**20 if sys.platform == "darwin" else peak / 1024


# Each command loads the modules it calls when it runs, through the
# package's names (`raketab.fit_factors` loads `raketab.bisg`): a command
# process compiles no module it does not call. The objects these imports
# leave (about 22,000, most of them numpy's) live as long as the process,
# so a fresh process freezes them: no later collection, those at exit
# included, walks them again. A process that loaded numpy first keeps its
# GC state, as it keeps its BLAS setting. The start-up's peak memory is
# read once the imports are done.
_STARTUP = {"import_s": time.perf_counter() - _IMPORTS_START, "peak_rss_mb": _peak_rss_mb(),
            "frozen": 0}
if _FRESH:
    gc.freeze()
    _STARTUP["frozen"] = gc.get_freeze_count()

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NONCONVERGENCE = 3


def _digest(path) -> str:
    """The file's BLAKE2b-512 digest in hex, as coreutils' `b2sum` prints it."""
    h = blake2b()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _to_front(conds, block=4096):
    """The (n, 6) conditionals that `ingest.parse_predictions` returns,
    columns 1-6 of its C-ordered (n, 7) rows, moved to the front of those
    rows' memory as a C-ordered (n, 6) array: no second copy. Rows move a
    block at a time, in order, so each lands on rows already moved, never
    on one still to be read (numpy buffers a block's overlap with itself)."""
    front = conds.base.reshape(-1)[: conds.size].reshape(conds.shape)
    for lo in range(0, len(front), block):
        front[lo : lo + block] = conds[lo : lo + block]
    return front


def _atomic(path, write_fn, *args):
    """write_fn(tmp, *args) into `path`.tmp, renamed to `path`; a writer or
    rename that raises leaves no .tmp behind."""
    tmp = f"{path}.tmp"
    try:
        result = write_fn(tmp, *args)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
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
        self.info = {"inputs": {}}  # flag: {"form", "parse_s"} of each input read
        self.timings = {"parse_s": 0.0, "write_s": 0.0, "digest_s": 0.0}
        os.makedirs(out_dir, exist_ok=True)

    def _timed(self, key, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        self.timings[key] += time.perf_counter() - start
        return result

    def read(self, flag, parse_fn, *args):
        """Digest the input named by `flag` and return parse_fn(path, *args), for a table or
        predictions file from its twin, listed and digested too, if that records the digest
        (`ingest.open_twin`). info.inputs[flag] gives the form read and its seconds."""
        path = self.flags[flag]
        digest = self._timed("digest_s", _digest, path)
        self.inputs.append({"path": str(path), "blake2b": digest})
        start, cells = time.perf_counter(), parse_fn in (ingest.parse_table, ingest.parse_predictions)
        twin = ingest.open_twin(path, digest) if cells else None
        with twin or contextlib.nullcontext():
            result = parse_fn(path, *args, twin) if cells else parse_fn(path, *args)
        self.timings["parse_s"] += (parse_s := time.perf_counter() - start)
        form = "npz" if twin else "json" if parse_fn is ingest.parse_race_margin else "csv"
        self.info["inputs"][flag] = {"form": form, "parse_s": parse_s}
        if twin:
            twin_digest = self._timed("digest_s", _digest, twin.filename)
            self.inputs.append({"path": twin.filename, "blake2b": twin_digest})
        return result

    def write(self, name, write_fn, *args, twin=False):
        """Write output `name` atomically with write_fn(path, *args) and return what it returns;
        with `twin`, also the file's twin, write_fn(twin, *args, digest), where twinnable."""
        path = os.path.join(self.out_dir, name)
        result = self._timed("write_s", _atomic, path, write_fn, *args)
        self.outputs.append({"path": str(path), "blake2b": self._timed("digest_s", _digest, path)})
        if twin and ingest.twinnable(args[0]):
            self.write(os.path.basename(ingest.twin_path(path)), write_fn, *args, self.outputs[-1]["blake2b"])
        return result

    def finish(self):
        # compute is the rest of the run, up to the manifest
        elapsed = time.perf_counter() - self.start
        manifest = {
            "command": self.command,
            "flags": {k: str(v) for k, v in self.flags.items()},
            "seed": self.flags.get("seed"),
            "inputs": self.inputs,
            "outputs": sorted(self.outputs, key=lambda o: o["path"]),
            "info": dict(self.info, peak_rss_mb=_peak_rss_mb(), blas_threads=_BLAS_THREADS,
                         startup=dict(_STARTUP, modules=_raketab_modules())),
            "timings": dict(self.timings, compute_s=elapsed - sum(self.timings.values())),
            "versions": {"raketab": __version__, "numpy": np.__version__,
                         "python": platform.python_version()},
        }
        _atomic(os.path.join(self.out_dir, "manifest.json"), ingest.write_manifest, manifest)


def _raketab_modules():
    """The raketab modules this process has loaded, by their short names.
    cli is left out: `python -m raketab.cli` loads it as __main__, so the
    list is the same however the command was started."""
    return sorted(
        name.split(".", 1)[1] for name in sys.modules
        if name.startswith("raketab.") and name != "raketab.cli"
    )


# shared input loading -----------------------------------------------------


def _read_source(run, flag):
    """The table CSV or voter file named by `flag`. Only a voter file takes --mapping: the
    run's flags record the one applied, canonical unless given."""
    if not flag.endswith("table"):
        mapping = run.flags.setdefault("mapping", "canonical")
        return run.read(flag, ingest.parse_voter_file, ingest.MAPPINGS[mapping])
    if "mapping" in run.flags:
        raise ValueError(f"--mapping applies only to a voter file, not to --{flag.replace('_', '-')}")
    return run.read(flag, ingest.parse_table)


def _load_truth(run) -> ContingencyTable:
    """The labeled table: a table CSV, or a voter file's labeled records."""
    flag = next(f for f in ("table", "truth_table", "voters", "truth_voters") if f in run.flags)
    source = _read_source(run, flag)
    return source if flag.endswith("table") else ingest.aggregate_voters(source)


def _load_occupancy(run) -> MarginSet:
    """Cell totals to predict for: a table CSV's, or those of every record of a voter file."""
    if "voters" in run.flags:
        return ingest.occupancy(_read_source(run, "voters"))
    table = _read_source(run, "table")
    return MarginSet(None, table.labels, table.cell_index, table.cell_sums)


def _load_factors(args, run):
    """The factors, and each factor file's rejected rows by kind."""
    surnames, s_values, s_rejects = run.read("surname_factors", ingest.parse_surname_factors)
    geoids, g_values, g_rejects = run.read("geo_factors", ingest.parse_geo_factors)
    prior = run.read("prior", ingest.parse_race_margin)
    # values hold each label's count, then P(r | label)
    factors = raketab.BisgFactors(
        AxisLabels(surnames, geoids), s_values[:, 1:], g_values[:, 1:], prior,
        s_values[:, 0], g_values[:, 0],
    )
    return factors, {"surname": s_rejects, "geo": g_rejects}


def _write_factor_rejects(run, rejects):
    for kind, rows in rejects.items():
        if rows:
            run.write(f"{kind}_factor_rejects.csv", ingest.write_rejects, rows)
            run.info[f"{kind}_factor_rejects"] = len(rows)
            run.info[f"{kind}_factor_rejects_by_reason"] = ingest.reason_counts(r for _, r in rows)


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
    table = _load_truth(run)
    factors = raketab.fit_factors(table)
    _write_factors(run, factors)
    run.info["cells_in"] = table.n_cells
    run.info["factor_labels"] = {"surname": factors.labels.n_s, "geo": factors.labels.n_g}
    run.finish()
    return EXIT_OK


def cmd_predict(args):
    run = _Run("predict", args, args.out_dir)
    factors, factor_rejects = _load_factors(args, run)
    occupancy = _load_occupancy(run)
    adjustment = None
    if args.adjust_cps:
        cps = run.read("adjust_cps", ingest.parse_race_margin)
        adjustment = raketab.voter_adjustment(cps, factors.race_prior)
    table, rejects = raketab.weighted_counts(
        factors, occupancy, adjustment=adjustment, method=args.method
    )
    # nothing is written until every input is read and checked
    _write_factor_rejects(run, factor_rejects)
    run.write("predictions.csv", ingest.write_predictions, table, twin=True)
    if rejects:
        rows = [(i + 1, f"{s},{g}: {reason}") for i, (s, g, reason) in enumerate(rejects)]
        run.write("rejects.csv", ingest.write_rejects, rows)
        run.info["rejected_cells"] = len(rejects)
        run.info["rejected_cells_by_reason"] = ingest.reason_counts(r for *_, r in rejects)
    run.info["factor_labels"] = {"surname": factors.labels.n_s, "geo": factors.labels.n_g}
    run.info["cells_in"] = len(occupancy.totals)
    run.info["cells_out"] = table.n_cells
    run.finish()
    return EXIT_OK


def cmd_rake(args):
    run = _Run("rake", args, args.out_dir)
    labels, index, counts, conds = run.read("base", ingest.parse_predictions)
    distribution = run.read("race_margin", ingest.parse_race_margin)

    # counts and conds are views of the parsed (n, 7) rows: keep only the
    # cell targets, their total (added in row order), the row count and the
    # base values, built race-major for raking, which works in them
    live = counts > 0
    cells = slice(None) if live.all() else live
    cell_targets, cells_in = counts[live], len(counts)
    total = np.cumsum(np.r_[0.0, counts])[-1]  # as sum(counts.tolist()) adds, from 0.0
    values = np.empty((N_RACES, len(cell_targets)))
    for r, column in enumerate(values):
        np.multiply(cell_targets, conds[cells, r], out=column)
    index = index[cells]
    check_cell_values(labels, index, values.T, "count in cell")
    del counts, conds, live, cells
    # renormalize so the race targets sum exactly to the cell-target total
    distribution = distribution / distribution.sum()
    targets = MarginSet(distribution * total, labels, index, cell_targets)
    config = raketab.RakingConfig(tolerance=args.tol, max_iterations=args.max_iters)
    result = raketab.raking.rake_in_place(values, targets, targets, config)

    run.write("raked.csv", ingest.write_predictions, result.table, twin=True)
    run.write("theta.json", ingest.write_theta, result)
    run.write("theta_sg.csv", ingest.write_theta_sg, result)
    run.info["iterations"] = result.iterations
    run.info["final_margin_gap"] = result.final_margin_gap
    run.info["gap_history"] = list(result.gap_history)
    run.info["feasibility_slack"] = result.feasibility_slack
    run.info["tightest_races"] = list(result.tightest_races)
    run.info["cells_in"] = cells_in
    run.info["cells_out"] = result.table.n_cells
    run.finish()
    return EXIT_OK


def cmd_calib_map(args):
    run = _Run("calib-map", args, args.out_dir)
    u = run.read("source", ingest.parse_race_margin)
    v = run.read("target", ingest.parse_race_margin)
    cmap = raketab.solve_calibration_map(u, v)

    run.write("calibration_map.csv", ingest.write_calibration_map, cmap.matrix)
    for key in ("objective", "feasibility", "kkt_residual", "rank_one_benchmark"):
        run.info[key] = getattr(cmap, key)
    run.finish()
    return EXIT_OK


def cmd_subsample(args):
    run = _Run("subsample", args, args.out_dir)
    voters = _read_source(run, "voters")
    target = run.read("target", ingest.parse_race_margin)
    labeled = voters.labeled()
    sample = ingest.subsample_to_margin(labeled, target, seed=args.seed)
    run.write("subsampled.csv", ingest.write_voter_file, sample)
    run.info["records_in"] = len(voters.race)
    run.info["records_labeled"] = len(labeled.race)
    run.info["sample_size"] = len(sample.race)
    run.finish()
    return EXIT_OK


def cmd_evaluate(args):
    run = _Run("evaluate", args, args.out_dir)
    truth = _load_truth(run)
    labels, index, counts, conds = run.read("preds", ingest.parse_predictions)
    run.info["cells_in"] = {"truth": truth.n_cells, "preds": len(index)}

    matrix = None
    if args.calib_map:
        matrix = run.read("calib_map", ingest.parse_calibration_map)

    occupied = truth.cell_sums > 0
    rows = np.full(truth.n_cells + 1, -1)  # each truth cell's prediction row; the last takes -1s
    rows[truth.locate(labels, index)] = np.arange(len(index))
    rows = rows[:-1][occupied]
    if np.any(rows < 0):
        missing = truth.labels.pairs(truth.cell_index[occupied][rows < 0])
        raise ValueError(f"predictions missing for {len(missing)} truth cells, e.g. {missing[:3]}")
    if len(rows) == len(index) and np.array_equal(rows, np.arange(len(rows))):
        cond = _to_front(conds)  # the rows line up with the truth's cells: no gather
    else:
        cond = conds[rows]
    del labels, index, counts, conds, rows  # the parsed predictions: cond holds what is used
    if matrix is not None:
        cond = np.matmul(matrix, cond[:, :, None])[:, :, 0]
    # in place: each cell's counts; with every truth cell occupied, the
    # prediction shares the truth's index
    cells = slice(None) if occupied.all() else occupied
    cond *= truth.cell_sums[cells, None]
    pred = ContingencyTable(truth.labels, truth.cell_index[cells], cond)

    region_map = None
    if args.region_map:
        region_map = run.read("region_map", ingest.parse_region_map)

    sub = raketab.subpop_report(truth, pred)
    cell = raketab.cellwise_report(truth, pred, region_map=region_map)
    kuiper = {}

    def curves():
        """Each race's curve as the writer asks for it; its Kuiper statistic is kept."""
        for race in RaceCategory:
            curve = raketab.calibration_curve(truth, pred, race)
            kuiper[RACE_NAMES[race]] = curve.kuiper
            yield curve
            del curve  # released before the next race's curve is computed

    # the curves are written first: a curve fails on the first race or not
    # at all (no occupied cell, or one with no prediction), so a failing
    # evaluate writes nothing
    rows = run.write("calibration_curves.csv", ingest.write_calibration_curves, curves())
    run.write("subpop.csv", ingest.write_subpop, sub)
    run.write("cellwise.csv", ingest.write_cellwise, cell)
    run.write("summary.json", ingest.write_summary, sub, cell, kuiper)
    run.info["cells_out"] = pred.n_cells
    run.info["curve_points"] = dict(zip(RACE_NAMES, rows))
    run.finish()
    return EXIT_OK


def cmd_synth(args):
    run = _Run("synth", args, args.out_dir)
    mix = np.array([float(x) for x in args.race_mix.split(",")])
    config = raketab.SynthConfig(
        n_s=args.surnames,
        n_g=args.geos,
        race_mix=mix,
        dependence=args.dependence,
        total_population=args.total,
        seed=args.seed,
        multinomial=args.multinomial,
    )
    table = raketab.generate(config)
    factors = raketab.fit_factors(table)
    run.write("table.csv", ingest.write_table, table, twin=True)
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
    p.add_argument("--mapping", choices=sorted(ingest.MAPPINGS), help="voter file race mapping")
    add_out(p)
    p.set_defaults(func=cmd_fit_factors)

    p = sub.add_parser("predict", help="per-cell race conditionals from factors")
    p.add_argument("--surname-factors", required=True)
    p.add_argument("--geo-factors", required=True)
    p.add_argument("--prior", required=True, help="race prior JSON")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--voters", help="voter file CSV to predict for")
    src.add_argument("--table", help="labeled table CSV to predict for")
    p.add_argument("--mapping", choices=sorted(ingest.MAPPINGS), help="voter file race mapping")
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
    p.add_argument("--mapping", choices=sorted(ingest.MAPPINGS), help="voter file race mapping")
    p.add_argument("--target", required=True, help="target race distribution JSON")
    p.add_argument("--seed", type=int, required=True)
    add_out(p)
    p.set_defaults(func=cmd_subsample)

    p = sub.add_parser("evaluate", help="error and calibration reports")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--truth-voters", help="labeled voter file CSV")
    src.add_argument("--truth-table", help="labeled table CSV")
    p.add_argument("--mapping", choices=sorted(ingest.MAPPINGS), help="voter file race mapping")
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
        help="six comma-separated shares summing to 1 within 1e-6, divided by their sum",
    )
    p.add_argument("--multinomial", action="store_true", help="draw integer counts")
    add_out(p)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # the solver errors are named only once something raised: a command
    # that loaded neither solver loads them here, and only on failure
    except (raketab.NonConvergenceError, raketab.CalibrationSolveError) as exc:
        # margin_gap, worst_race, last_gaps; or stage, feasibility, kkt_residual
        _emit_error(exc, EXIT_NONCONVERGENCE, vars(exc))
        return EXIT_NONCONVERGENCE
    except (ValueError, KeyError, LookupError, OSError) as exc:
        _emit_error(exc, EXIT_INPUT)
        return EXIT_INPUT


def _emit_error(exc, code, details=()):
    payload = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    payload.update(details)
    json.dump(payload, sys.stderr)
    sys.stderr.write("\n")


if __name__ == "__main__":
    sys.exit(main())
