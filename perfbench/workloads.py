"""
The three workloads: what each sets up, the stages of one pass, and the
checks on every stage's outputs.

Each workload runs in one process, stage after stage: a closed loop with
no threads and at most one child process at a time. CLI stages run as
`raketab` child processes, timed from spawn to reap; table-lib calls the
same public functions the CLI calls, in memory.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import numpy as np

import checks
import inputs
import refspeed
from spans import clock_ns, load_spans, tracing

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "cli_child.py")
# the `raketab` console script, spelled out so no install is needed, that
# also writes the process's peak RSS (VmHWM) to the file named first
ENTRY = (
    "import sys; from raketab.cli import main; code = main(sys.argv[2:]); "
    "open(sys.argv[1], 'w').write(open('/proc/self/status').read()); sys.exit(code)"
)
RAKE_TOL = 1e-10
STAGE_TIMEOUT_S = 150.0
MIN_STAGE_S = 0.5


class Pass:
    """What one pass measured and what went wrong in it."""

    def __init__(self):
        self.times = {}  # stage -> seconds at reference speed, successful stages only
        self.wall = {}  # stage -> wall seconds
        self.rss_mb = 0.0
        self.cells = 0
        self.attempted = 0
        self.failed = 0  # failed operations, refused solves included
        self.wrong = 0  # failed operations other than refused solves
        self.errors = []
        self.digests = {}  # output name -> sha256
        self.solve_ms = []
        self.spans = []

    def fail(self, stage, messages, refused=False):
        """Count a failed operation; `refused` marks a solve the program declined.

        A refused solve (CalibrationSolveError) is the program saying it
        could not solve a problem: it counts in `failed` and `fail_frac`,
        but unlike a crash, a wrong output or a skipped stage it does not
        make the run incorrect.
        """
        self.failed += 1
        self.wrong += not refused
        self.errors.extend(f"{stage}: {'refused: ' if refused else ''}{m}" for m in messages)


class Context:
    """Paths and settings shared by a run's setups and passes."""

    def __init__(self, src, work, scale, seed):
        self.work = work
        self.scale = scale
        self.seed = seed
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.deadline = time.monotonic() + STAGE_TIMEOUT_S
        self.verified = set()  # (output name, sha256) pairs that passed the checks
        self.gauge = refspeed.Gauge()

    def measure(self, run, tracer):
        """(run's result, scale to reference time); traced runs are not scaled."""
        if tracer is not None:
            return run(), 1.0
        return self.gauge.around(run)

    def path(self, *parts):
        return os.path.join(self.work, *parts)


def mean_call_s(fn, min_s):
    """(result, seconds per call) of fn, called until min_s have gone (once at least).

    A short call is timed over many, so one slow moment of a shared
    machine does not decide its time. The last result is dropped before
    the next call, so repeats do not raise the peak memory.
    """
    calls, start = 0, time.perf_counter()
    while True:
        result = None
        result = fn()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_s:
            return result, elapsed / calls


def peak_rss_mb(status_text=None):
    """Peak RSS (VmHWM) of this process, or of the /proc status text given.

    Not ru_maxrss: that also counts the parent's RSS at the fork, which the
    exec carries over.
    """
    if status_text is None:
        with open("/proc/self/status") as fh:
            status_text = fh.read()
    for line in status_text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def _wait(proc, timeout):
    """Reap a child, returning its exit code; kill it on timeout."""

    def kill(signum, frame):
        proc.kill()  # wait4 then resumes and reaps the killed child

    previous = signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        _, status = os.waitpid(proc.pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode


def run_cli(ctx, name, args, tracer=None):
    """Run one raketab command in a child process.

    Returns (wall seconds, peak RSS MB, error messages). Traced, the child
    is cli_child.py, which records spans under a bench span for the stage.
    """
    err_path = ctx.path(f"{name}.stderr")
    status_path = ctx.path(f"{name}.status")
    if tracer is None:
        argv = [sys.executable, "-c", ENTRY, status_path, *args]
        span = None
    else:
        span = tracer.open(f"bench.{name}")
        spans_path = ctx.path(f"{name}.spans.json")
        argv = [sys.executable, CHILD, spans_path, span["id"], str(tracer.run_id), *args]
    timeout = max(1.0, ctx.deadline - time.monotonic())
    with open(err_path, "wb") as err:
        start = clock_ns()
        proc = subprocess.Popen(argv, env=ctx.env, stdout=subprocess.DEVNULL, stderr=err)
        code = _wait(proc, timeout)
        end = clock_ns()
    wall = (end - start) / 1e9
    rss = 0.0
    if tracer is None and code == 0:
        with open(status_path) as fh:
            rss = peak_rss_mb(fh.read())
    if span is not None:
        tracer.close(span)
        span["start"], span["end"] = start, end
        if code == 0:
            tracer.adopt(load_spans(spans_path))
    if code != 0:
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            detail = fh.read().strip().splitlines()[-1:] or [""]
        return wall, rss, [f"exit {code}: {detail[0][:300]}"]
    return wall, rss, []


def _check_outputs(out_dir, p, stage, verified):
    """Finite CSVs and strict JSON in a stage's out dir; records CSV digests.

    A CSV whose digest is in `verified` passed these checks earlier in the
    run, so it is not parsed again. Returns (errors, CSVs not yet verified).
    """
    errors, fresh = [], []
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if name.endswith(".csv"):
            key = (f"{stage}/{name}", checks.sha256(path))
            p.digests[key[0]] = key[1]
            if key not in verified:
                fresh.append(key)
                errors += checks.finite_csv(path)
        elif name.endswith(".json"):
            errors += checks.strict_json(path)[1]
    return errors, fresh


def _count_rows(path):
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b"")) - 1


class CliWorkload:
    """A chain of raketab commands; later stages read earlier outputs."""

    stages = ()

    def commands(self, ctx, inp):
        """(stage, out dir, raketab args) for one pass, in order."""
        raise NotImplementedError

    def stage_checks(self, ctx, inp, stage, out_dir):
        return []

    def input_digests(self, inp):
        return {name: checks.sha256(path) for name, path in inp.items()}

    def run_pass(self, ctx, inp, tracer=None):
        p = Pass()
        cmds = self.commands(ctx, inp)
        for i, (stage, out_dir, args) in enumerate(cmds):
            p.attempted += 1
            # only what this pass writes is checked and passed on
            shutil.rmtree(out_dir, ignore_errors=True)
            os.makedirs(out_dir)
            (wall, rss, errors), scale = ctx.measure(lambda: run_cli(ctx, stage, args, tracer), tracer)
            p.rss_mb = max(p.rss_mb, rss)
            if not errors:
                errors, fresh = _check_outputs(out_dir, p, stage, ctx.verified)
                if fresh and not errors:
                    errors = self.stage_checks(ctx, inp, stage, out_dir)
                if not errors:
                    ctx.verified.update(fresh)
            if errors:
                # later stages read this one's outputs: count them as failed too
                p.fail(stage, errors)
                for later, _, _ in cmds[i + 1:]:
                    p.attempted += 1
                    p.fail(later, ["skipped after an earlier stage failed"])
                break
            p.wall[stage], p.times[stage] = wall, wall * scale
            if stage == "predict":
                p.cells = _count_rows(os.path.join(out_dir, "predictions.csv"))
        return p


class TableCli(CliWorkload):
    name = "table-cli"
    stages = ("fit", "predict", "rake", "evaluate")

    def setup(self, ctx, out_dir, tracer=None):
        os.makedirs(out_dir, exist_ok=True)
        args = inputs.synth_args(ctx.scale, ctx.seed, out_dir)
        _, _, errors = run_cli(ctx, "synth", args, tracer)
        if errors:
            raise RuntimeError(f"raketab synth failed: {errors[0]}")
        names = ("table.csv", "race_margin.json")
        inp = {n: os.path.join(out_dir, n) for n in names}
        sizes = {"cells": _count_rows(inp["table.csv"])}
        sizes.update({f"bytes:{n}": os.path.getsize(p) for n, p in inp.items()})
        return inp, sizes

    def commands(self, ctx, inp):
        fit, pred, raked, ev = (ctx.path(d) for d in ("fit", "predict", "rake", "evaluate"))
        return [
            ("fit", fit, ["fit-factors", "--table", inp["table.csv"], "--out-dir", fit]),
            ("predict", pred, [
                "predict",
                "--surname-factors", os.path.join(fit, "surname_factors.csv"),
                "--geo-factors", os.path.join(fit, "geo_factors.csv"),
                "--prior", os.path.join(fit, "prior.json"),
                "--table", inp["table.csv"], "--out-dir", pred,
            ]),
            ("rake", raked, [
                "rake", "--base", os.path.join(pred, "predictions.csv"),
                "--race-margin", inp["race_margin.json"], "--out-dir", raked,
            ]),
            ("evaluate", ev, [
                "evaluate", "--truth-table", inp["table.csv"],
                "--preds", os.path.join(raked, "raked.csv"), "--out-dir", ev,
            ]),
        ]

    def stage_checks(self, ctx, inp, stage, out_dir):
        if stage != "rake":
            return []
        return checks.raked_file_margins(
            os.path.join(out_dir, "raked.csv"),
            ctx.path("predict", "predictions.csv"),
            inp["race_margin.json"],
            RAKE_TOL,
        )


class VoterCli(CliWorkload):
    name = "voter-cli"
    stages = ("fit", "predict", "rake", "evaluate", "subsample")

    def setup(self, ctx, out_dir, tracer=None):
        with tracing(tracer):
            inp = inputs.write_voter_inputs(ctx.scale, ctx.seed, out_dir)
        sizes = {"records": _count_rows(inp["voters.csv"])}
        sizes.update({f"bytes:{n}": os.path.getsize(p) for n, p in inp.items()})
        return inp, sizes

    def commands(self, ctx, inp):
        fit, pred, raked, ev, sub = (
            ctx.path(d) for d in ("fit", "predict", "rake", "evaluate", "subsample")
        )
        voters = inp["voters.csv"]
        return [
            ("fit", fit, ["fit-factors", "--voters", voters, "--out-dir", fit]),
            ("predict", pred, [
                "predict",
                "--surname-factors", inp["surname_factors.csv"],
                "--geo-factors", inp["geo_factors.csv"],
                "--prior", inp["prior.json"],
                "--voters", voters, "--out-dir", pred,
            ]),
            ("rake", raked, [
                "rake", "--base", os.path.join(pred, "predictions.csv"),
                "--race-margin", inp["labeled_margin.json"], "--out-dir", raked,
            ]),
            ("evaluate", ev, [
                "evaluate", "--truth-voters", voters,
                "--preds", os.path.join(raked, "raked.csv"), "--out-dir", ev,
            ]),
            ("subsample", sub, [
                "subsample", "--voters", voters, "--target", inp["prior.json"],
                "--seed", str(ctx.seed), "--out-dir", sub,
            ]),
        ]

    def stage_checks(self, ctx, inp, stage, out_dir):
        if stage == "rake":
            return checks.raked_file_margins(
                os.path.join(out_dir, "raked.csv"),
                ctx.path("predict", "predictions.csv"),
                inp["labeled_margin.json"],
                RAKE_TOL,
            )
        if stage == "subsample":
            return checks.subsample_counts(
                os.path.join(out_dir, "subsampled.csv"), inp["prior.json"]
            )
        return []


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class TableLib:
    """The table pipeline in memory, plus a batch of calibration-map solves."""

    name = "table-lib"
    stages = ("fit", "predict", "rake", "evaluate", "calib")

    def setup(self, ctx, out_dir, tracer=None):
        import raketab

        with tracing(tracer):
            table = raketab.generate(inputs.synth_config(ctx.scale, ctx.seed))
        problems = inputs.calib_problems(ctx.scale, ctx.seed)
        inp = {"table": table, "problems": problems}
        return inp, {"cells": table.n_cells, "solves": len(problems)}

    def input_digests(self, inp):
        table = inp["table"]
        return {"table+problems": _digest(
            table.cell_index, table.cell_values, *(np.concatenate(uv) for uv in inp["problems"])
        )}

    def run_pass(self, ctx, inp, tracer=None):
        import raketab

        p = Pass()
        table = inp["table"]

        def stage(name, fn):
            # traced only while the program runs, not while the checks do.
            # Untraced, a stage shorter than MIN_STAGE_S is called again until
            # that much time has gone, and its time is the mean call.
            p.attempted += 1
            with tracing(tracer):
                span = tracer.open(f"bench.{name}") if tracer else None
                try:
                    (result, wall), scale = ctx.measure(
                        lambda: mean_call_s(fn, 0.0 if tracer else MIN_STAGE_S), tracer
                    )
                    p.wall[name], p.times[name] = wall, wall * scale
                except (ValueError, LookupError, RuntimeError) as exc:
                    p.fail(name, [f"{type(exc).__name__}: {exc}"])
                    return None
                finally:
                    if span is not None:
                        tracer.close(span)
            return result

        def predict(factors):
            totals = {key: float(vec.sum()) for key, vec in table.items()}
            return raketab.weighted_counts(factors, totals)[0]

        def rake(pred):
            targets = raketab.MarginSet.from_table(table)
            return targets, raketab.rake(pred, targets)

        def evaluate(raked):
            return (
                raketab.subpop_report(table, raked),
                raketab.cellwise_report(table, raked),
                [raketab.calibration_curve(table, raked, raketab.RaceCategory(r)) for r in range(6)],
            )

        state = {}
        chain = (
            ("fit", lambda: raketab.fit_factors(table)),
            ("predict", lambda: predict(state["fit"])),
            ("rake", lambda: rake(state["predict"])),
            ("evaluate", lambda: evaluate(state["rake"][1].table)),
        )
        for i, (name, fn) in enumerate(chain):
            state[name] = stage(name, fn)
            errors = [] if state[name] is None else self._check(name, state, p)
            if state[name] is None or errors:
                if errors:
                    del p.times[name], p.wall[name]
                    p.fail(name, errors)
                for later, _ in chain[i + 1:]:
                    p.attempted += 1
                    p.fail(later, ["skipped after an earlier stage failed"])
                break
            if name == "predict":
                p.cells = state["predict"].n_cells
        self._calib(ctx, inp["problems"], p, tracer)
        p.rss_mb = peak_rss_mb()
        return p

    def _check(self, name, state, p):
        if name == "rake":
            targets, result = state["rake"]
            raked = result.table
            sums = dict(zip(raked.support(), raked.cell_sums))
            achieved = np.array([sums.get(k, 0.0) for k in targets.cell])
            p.digests["rake"] = _digest(raked.cell_index, raked.cell_values)
            return checks.margin_gaps(
                raked.margin("r"), targets.race, achieved,
                np.array(list(targets.cell.values())), RAKE_TOL + checks.READBACK_SLACK,
            )
        if name == "evaluate":
            sub, cell, curves = state["evaluate"]
            occupied = sub.truth_counts > 0
            numbers = [
                sub.abs_error, sub.rel_error[occupied], sub.mad, sub.avg_error,
                np.array(cell.overall),
            ] + [np.array(c.points) for c in curves]
            p.digests["evaluate"] = _digest(*numbers)
            if not all(np.all(np.isfinite(a)) for a in numbers):
                return ["non-finite number in a report"]
            summary = {
                "subpopulation": sub.summary(),
                "cellwise": cell.summary(),
                "kuiper": {str(c.race): c.kuiper for c in curves},
            }
            try:
                json.dumps(summary, allow_nan=False)
            except ValueError as exc:
                return [f"summary is not strict JSON: {exc}"]
        if name == "predict":
            pred = state["predict"]
            p.digests["predict"] = _digest(pred.cell_index, pred.cell_values)
            if not np.all(np.isfinite(pred.cell_values)):
                return ["non-finite prediction"]
        return []

    def _calib(self, ctx, problems, p, tracer):
        h = hashlib.sha256()
        span = tracer.open("bench.calib") if tracer else None
        with tracing(tracer):
            solve_ms, scale = ctx.measure(lambda: self._solve_all(problems, p, h), tracer)
        if span is not None:
            tracer.close(span)
        p.solve_ms = [ms * scale for ms in solve_ms]
        if solve_ms:  # the solves that succeeded; refused ones are not timed
            p.wall["calib"] = sum(solve_ms) / 1e3
            p.times["calib"] = p.wall["calib"] * scale
        p.digests["calib"] = h.hexdigest()

    @staticmethod
    def _solve_all(problems, p, h):
        """Solve and check every problem; returns the solve times in ms."""
        import raketab

        solve_ms = []
        for u, v in problems:
            p.attempted += 1
            t0 = time.perf_counter()
            try:
                cmap = raketab.solve_calibration_map(u, v)
            except (ValueError, RuntimeError) as exc:
                refused = isinstance(exc, raketab.CalibrationSolveError)
                p.fail("calib", [f"{type(exc).__name__}: {exc}"], refused)
                continue
            ms = (time.perf_counter() - t0) * 1e3
            errors = checks.calibration_map(cmap, u, v)
            if errors:
                p.fail("calib", errors)
                continue
            solve_ms.append(ms)
            h.update(cmap.matrix.tobytes())
        return solve_ms


WORKLOADS = {w.name: w for w in (TableCli(), TableLib(), VoterCli())}
