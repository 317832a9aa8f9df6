"""
Correctness checks on the program's outputs.

Each check returns a list of failure messages; an empty list means the
output passed. A stage whose output fails a check is counted as failed
and its time is not used.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math

import numpy as np

RACES = ("aian", "api", "black", "hispanic", "white", "other")
# raked margins are read back from CSV text; the parse and the sums add
# rounding far below this on top of the rake tolerance
READBACK_SLACK = 1e-12
CALIB_FEASIBILITY = 1e-9


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(path):
    """Parse a JSON file, rejecting NaN and Infinity. Returns (value, errors)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_reject_constant), []
    except (OSError, ValueError) as exc:
        return None, [f"{path}: {exc}"]


def finite_csv(path):
    """Every field that reads as a number must be finite. Returns errors."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            next(reader, None)
            for line, row in enumerate(reader, start=2):
                for field in row:
                    try:
                        x = float(field)
                    except ValueError:
                        continue
                    if not math.isfinite(x):
                        return [f"{path}:{line}: non-finite value {field!r}"]
    except OSError as exc:
        return [f"{path}: {exc}"]
    return []


def read_predictions(path):
    """(cell keys, counts, conditionals) from a predictions or raked CSV."""
    keys, counts, conds = [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            keys.append((row[0], row[1]))
            counts.append(float(row[2]))
            conds.append([float(x) for x in row[3:]])
    return keys, np.array(counts), np.array(conds).reshape(len(keys), len(RACES))


def race_vector(payload):
    dist = payload["race_distribution"]
    return np.array([float(dist[r]) for r in RACES])


def margin_gaps(achieved_race, race_targets, achieved_cells, cell_targets, tol):
    """Worst |achieved - target| / max(target, 1) over races and cells."""
    errors = []
    race_gap = np.abs(achieved_race - race_targets) / np.maximum(race_targets, 1.0)
    cell_gap = np.abs(achieved_cells - cell_targets) / np.maximum(cell_targets, 1.0)
    if not np.all(np.isfinite(race_gap)) or race_gap.max() > tol:
        errors.append(f"raked race margin off target by {race_gap.max():.3e} (tol {tol:.1e})")
    if not np.all(np.isfinite(cell_gap)) or (len(cell_gap) and cell_gap.max() > tol):
        errors.append(f"raked cell sums off target by {cell_gap.max():.3e} (tol {tol:.1e})")
    return errors


def raked_file_margins(raked_csv, base_csv, margin_json, tol):
    """Raked margins read back from the files against the rake's targets.

    The targets are those `raketab rake` fits: the race distribution scaled
    to the base's total count, and the base's per-cell counts.
    """
    payload, errors = strict_json(margin_json)
    if errors:
        return errors
    base_keys, base_counts, _ = read_predictions(base_csv)
    keys, counts, conds = read_predictions(raked_csv)
    dist = race_vector(payload)
    race_targets = dist / dist.sum() * base_counts.sum()
    achieved_race = (counts[:, None] * conds).sum(axis=0)
    pos = {k: i for i, k in enumerate(keys)}
    achieved_cells = np.array([counts[pos[k]] if k in pos else 0.0 for k in base_keys])
    return margin_gaps(achieved_race, race_targets, achieved_cells, base_counts, tol + READBACK_SLACK)


def calibration_map(cmap, u, v):
    """Nonnegative, column-stochastic, feasible, and no worse than rank one."""
    a = np.asarray(cmap.matrix)
    n = len(v)
    errors = []
    if not np.all(np.isfinite(a)) or a.min() < 0:
        errors.append("calibration matrix has a negative or non-finite entry")
    if np.abs(a.sum(axis=0) - 1.0).max() > CALIB_FEASIBILITY:
        errors.append("calibration matrix is not column-stochastic")
    # the solver snaps source shares below 1e-5 of the largest to zero
    if np.abs(cmap.source - u).max() > 1e-4 * u.max():
        errors.append("calibration source differs from the input beyond snapping")
    if np.abs(a @ cmap.source - v).max() > CALIB_FEASIBILITY:
        errors.append(f"A @ u misses v by {np.abs(a @ cmap.source - v).max():.3e}")
    # recomputed from the matrix, not taken from what the solver reports
    objective = float(np.linalg.norm(a - np.eye(n)))
    rank_one = float(np.linalg.norm(np.outer(v, np.ones(n)) - np.eye(n)))
    if not objective <= rank_one + CALIB_FEASIBILITY:
        errors.append(f"objective {objective!r} exceeds rank-one {rank_one!r}")
    if abs(objective - cmap.objective) > CALIB_FEASIBILITY:
        errors.append(f"stated objective {cmap.objective!r} is not the matrix's {objective!r}")
    return errors


def subsample_counts(sample_csv, target_json):
    """Race counts of a subsample within one record of n * target share."""
    payload, errors = strict_json(target_json)
    if errors:
        return errors
    target = race_vector(payload)
    counts = dict.fromkeys(RACES, 0)
    with open(sample_csv, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if row[3] not in counts:
                return [f"{sample_csv}: record {row[0]} has race {row[3]!r}"]
            counts[row[3]] += 1
    n = sum(counts.values())
    if n == 0:
        return [f"{sample_csv}: empty subsample"]
    off = {r: abs(counts[r] - n * target[i]) for i, r in enumerate(RACES)}
    worst = max(off, key=off.get)
    if off[worst] > 1.0:
        return [f"subsample has {counts[worst]} {worst} records, target {n * target[RACES.index(worst)]:.2f}"]
    return []
