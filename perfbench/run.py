"""
raketab benchmark.

    python3 perfbench/run.py --workload table-cli --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 1 --scale smoke

Run from the root of a raketab checkout: the program is imported and run
from its src/ directory, never from an installed copy. A run sets its
inputs up from the seed several times (setup_s is the median), then runs
passes of the workload's stages until --seconds have passed. With
--trace 0 it reports the end-to-end metrics from untraced passes; with
--trace 1 it alternates untraced and traced passes and reports per-layer
metrics from the traced ones, plus the tracing overhead.

Every stage's outputs are checked (see checks.py) and their SHA-256
digests must agree between passes, and with earlier runs of the same code,
seed and scale recorded under .perfbench_out/records. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The exit code is 0 when every check passed, 1 when one failed, and 2 when
the checkout has no src/raketab to run. A calibration solve the program
refuses (CalibrationSolveError) counts in `failed` but is not a failed
check.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import spans
from workloads import WORKLOADS, Context

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# input sizes and setup batches per scale; smoke is for the benchmark's
# own tests and checks schema and correctness, not timings. Each of the
# `setups` batches repeats the setup until `setup_s` seconds have gone, so
# that a setup of a few milliseconds still gives a steady median.
SCALES = {
    "full": {
        "setups": 9,
        "setup_s": 0.25,
        "table-cli": {"surnames": 160, "geos": 160, "total": 1_000_000},
        "table-lib": {"surnames": 400, "geos": 300, "total": 1_000_000, "solves": 90},
        "voter-cli": {"records": 30_000, "surnames": 20_000, "geos": 800},
    },
    "smoke": {
        "setups": 1,
        "setup_s": 0.0,
        "table-cli": {"surnames": 12, "geos": 6, "total": 5_000},
        "table-lib": {"surnames": 12, "geos": 6, "total": 5_000, "solves": 6},
        "voter-cli": {"records": 600, "surnames": 200, "geos": 12},
    },
}

# BENCHMARK.json declares the result-line metrics and their units. These
# are printed and recorded for the workloads that run them but are not in
# the result line, which must carry every metric on every workload, never 0
EXTRA_UNITS = {
    "subsample_s": "s",
    "calib_s": "s",
    "calib_solve_p95_ms": "ms",
    "fail_frac": "share",
    "refspeed.kernel_ms": "ms",
    **{f"wall.{stage}_s": "s" for stage in
       ("fit", "predict", "rake", "evaluate", "subsample", "calib", "pipeline")},
}


def _die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "raketab", "__init__.py")):
        _die(f"no src/raketab under {ROOT}; run from a raketab checkout")
    sys.path.insert(0, SRC)
    import raketab

    if not os.path.abspath(raketab.__file__).startswith(SRC + os.sep):
        _die(f"raketab imported from {raketab.__file__}, not from {SRC}")


def _median(values):
    return statistics.median(values) if values else None


def _fingerprint():
    """Digest of the program and benchmark sources: same code, same digest."""
    h = hashlib.sha256()
    files = sorted(glob.glob(os.path.join(SRC, "raketab", "*.py")))
    files += sorted(glob.glob(os.path.join(HERE, "*.py")))
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _environment():
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "code_sha256": _fingerprint(),
    }


def _setup(workload, ctx, scale, trace):
    """Set the inputs up; untraced in several batches (median), traced once.

    A batch repeats the setup until `setup_s` seconds have gone and counts
    the mean at reference speed (see refspeed.py); every repeat must give
    the same inputs.
    """
    times, digests, setup_spans, repeats = [], None, [], itertools.count()

    def once(tracer=None):
        nonlocal digests
        k = next(repeats)
        shutil.rmtree(ctx.path(f"inputs-{k - 1}"), ignore_errors=True)
        t0 = time.perf_counter()
        inp, sizes = workload.setup(ctx, ctx.path(f"inputs-{k}"), tracer)
        elapsed = time.perf_counter() - t0
        d = workload.input_digests(inp)
        if digests is not None and d != digests:
            raise RuntimeError("setup is not deterministic: input digests differ between repeats")
        digests = d
        return inp, sizes, elapsed

    if trace:
        tracer = spans.Tracer("setup")
        inp, sizes, _ = once(tracer)
        setup_spans = tracer.spans
    else:
        def batch():
            nonlocal inp, sizes
            spent, n = 0.0, 0
            while not n or spent < scale["setup_s"]:
                inp = None  # so that setup never holds two sets of inputs
                inp, sizes, elapsed = once()
                spent, n = spent + elapsed, n + 1
            return spent / n

        inp = sizes = None
        for _ in range(scale["setups"]):
            mean, ref_scale = ctx.gauge.around(batch)
            times.append(mean * ref_scale)
    return inp, sizes, digests, times, setup_spans


def _passes(workload, ctx, inp, trace, seconds):
    """Passes until the time is up; traced runs alternate untraced and traced."""
    untraced, traced = [], []
    deadline = min(time.monotonic() + seconds, ctx.deadline - 5)
    longest = 0.0
    while True:
        t0 = time.monotonic()
        untraced.append(workload.run_pass(ctx, inp))
        if trace:
            tracer = spans.Tracer(f"pass-{len(traced)}")
            p = workload.run_pass(ctx, inp, tracer)
            p.spans = tracer.spans
            traced.append(p)
        longest = max(longest, time.monotonic() - t0)
        if time.monotonic() + longest > deadline:
            return untraced, traced


def _determinism(passes, previous):
    """Digest mismatches between passes, and with earlier runs of this code."""
    errors = []
    reference = dict(previous)
    for p in passes:
        for name, digest in p.digests.items():
            ref = reference.setdefault(name, digest)
            if ref != digest:
                errors.append(f"{name}: output differs between runs of the same code and inputs")
    return errors


def _previous_digests(key):
    """Output digests an earlier run of the same code, workload, seed and scale recorded."""
    out = {}
    for path in sorted(glob.glob(os.path.join(OUT, "records", "*.json"))):
        try:
            with open(path) as fh:
                rec = json.load(fh)
        except (OSError, ValueError):
            continue
        if rec.get("key") == key:
            out.update(rec.get("output_sha256", {}))
    return out


def _e2e(workload, setup_times, passes, readings):
    m = {"setup_s": (_median(setup_times), len(setup_times))}
    for stage in workload.stages:
        vals = [p.times[stage] for p in passes if stage in p.times]
        m[f"{stage}_s"] = (_median(vals), len(vals))
    full = [p for p in passes if set(p.times) == set(workload.stages)]
    m["pipeline_s"] = (_median([sum(p.times.values()) for p in full]), len(full))
    rates = [
        p.cells / sum(p.times[s] for s in ("fit", "predict", "rake", "evaluate"))
        for p in full
    ]
    m["cells_per_s"] = (_median(rates), len(rates))
    m["peak_rss_mb"] = (_median([p.rss_mb for p in passes if p.rss_mb]), len(passes))
    for stage in workload.stages:
        vals = [p.wall[stage] for p in passes if stage in p.times]
        m[f"wall.{stage}_s"] = (_median(vals), len(vals))
    m["wall.pipeline_s"] = (_median([sum(p.wall.values()) for p in full]), len(full))
    m["refspeed.kernel_ms"] = (_median(readings) * 1e3, len(readings))
    solve_ms = sorted(ms for p in passes for ms in p.solve_ms)
    if solve_ms:
        m["calib_solve_p95_ms"] = (spans.percentile(solve_ms, 95), len(solve_ms))
    attempted = sum(p.attempted for p in passes)
    m["fail_frac"] = (sum(p.failed for p in passes) / attempted, attempted)
    return m


def _staged_s(passes):
    """Median wall time of the stages summed over a pass.

    Not the pass wall time, which also counts the checks: the first pass
    checks every output in full and later passes skip what they verified.
    """
    return _median([sum(p.wall.values()) for p in passes if p.wall])


def _per_layer(setup_spans, untraced, traced):
    per_pass = [spans.layer_metrics(setup_spans + p.spans) for p in traced]
    m = {k: (_median([pp[k] for pp in per_pass]), len(per_pass)) for k in per_pass[0]}
    m["trace.overhead_s"] = (_staged_s(traced) - _staged_s(untraced), len(traced))
    return m


def _declared(trace):
    """(name, unit) of every metric BENCHMARK.json asks for in this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def run_workload(name, seed, seconds, trace, scale_name):
    _import_program()
    workload = WORKLOADS[name]
    scale = SCALES[scale_name]
    declared = _declared(trace)
    work = os.path.join(OUT, f"work-{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ctx = Context(SRC, work, scale[name], seed)
    env = _environment()
    try:
        inp, sizes, input_digests, setup_times, setup_spans = _setup(workload, ctx, scale, trace)
        untraced, traced = _passes(workload, ctx, inp, trace, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    key = {"workload": name, "seed": seed, "scale": scale_name, "code": env["code_sha256"]}
    passes = untraced + traced
    det_errors = _determinism(passes, _previous_digests(key))
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes) + len(det_errors)
    wrong = sum(p.wrong for p in passes) + len(det_errors)
    errors = [e for p in passes for e in p.errors] + det_errors

    if trace:
        measured = _per_layer(setup_spans, untraced, traced)
    else:
        measured = _e2e(workload, setup_times, untraced, ctx.gauge.readings)
    units = {**EXTRA_UNITS, **declared}
    # a declared metric must be measured; an end-to-end one must also not be 0
    missing = [k for k in declared if measured.get(k, (None,))[0] in ((None,) if trace else (None, 0))]
    correct = wrong == 0 and not missing

    header = {"workload": name, "seed": seed, "scale": scale_name, "passes": len(untraced),
              "traced_passes": len(traced), **env, "inputs": sizes}
    print("# " + json.dumps(header, sort_keys=True))
    for k, (value, n) in measured.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{k:34s} {shown:>14s} {units.get(k, ''):8s} n={n}")
    for e in errors[:20]:
        print(f"FAILED {e}")
    if missing:
        print(f"FAILED no measurement for {', '.join(missing)}")

    record = {
        "key": key, "environment": env, "inputs": sizes, "input_sha256": input_digests,
        # a run whose outputs disagreed records none, so it cannot become a reference
        "output_sha256": {} if det_errors else {k: v for p in passes for k, v in p.digests.items()},
        "metrics": {k: {"value": v, "unit": units.get(k), "samples": n} for k, (v, n) in measured.items()},
        "passes": [{"times": p.times, "wall": p.wall, "rss_mb": p.rss_mb} for p in untraced],
        "refspeed_readings": ctx.gauge.readings,
        "setup_times": setup_times,
        "attempted": attempted, "failed": failed, "errors": errors[:100],
        "trace": trace, "seconds": seconds,
    }
    stem = f"{name}-seed{seed}-{scale_name}-t{trace}-{time.time_ns()}.json"
    os.makedirs(os.path.join(OUT, "records"), exist_ok=True)
    with open(os.path.join(OUT, "records", stem), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if trace:
        os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
        with open(os.path.join(OUT, "spans", stem), "w") as fh:
            json.dump(setup_spans + [s for p in traced for s in p.spans], fh)

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": measured[k][0], "unit": unit}
            for k, unit in declared.items()
            if k not in missing
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args):
    """Every workload in turn, each in its own process; nonzero if any fails."""
    code, combined = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("table-cli", "table-lib", "voter-cli"):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--scale", args.scale],
            stdout=subprocess.PIPE, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}/{k}"] = v
    print(json.dumps(combined))
    return code or (0 if combined["correct"] else 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["table-cli", "table-lib", "voter-cli", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, args.trace, args.scale)


if __name__ == "__main__":
    sys.exit(main())
