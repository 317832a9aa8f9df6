"""The label joins and the reports make no Python-level call per cell.

Each join runs under `sys.setprofile` on synth tables of 20 x 10 and
200 x 100 cells, counting "call" events (Python functions, comprehensions
included) and "c_call" events (builtins and C methods called from Python
code). Calls made inside C, such as `map` calling `dict.get`, raise no
event. A join that makes a fixed number of numpy passes gives the same
counts at both sizes; a per-cell `dict.get`, lambda or method call makes
them grow a hundredfold. The counts are deterministic: no timing is taken.
`rake`'s Newton step count may differ by size, so its counts are taken
per step.
"""

import gc
import sys
from collections import Counter

import numpy as np
import pytest

from raketab import AxisLabels, ContingencyTable, MarginSet, SynthConfig
from raketab import calibration_curve, cellwise_report, fit_factors, generate
from raketab import rake, subpop_report, weighted_counts
from raketab.table import compact_labels, index_cells

SIZES = ((20, 10), (200, 100))


def count_calls(fn):
    """Run fn() under a profiler; return its (call, c_call) event counts.

    The garbage collector is paused, since finalizers of other tests'
    objects would otherwise run, and be counted, at any allocation.
    """
    counts = Counter()

    def profile(frame, event, arg):
        counts[event] += 1

    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        gc.enable()
    return counts["call"], counts["c_call"]


def joins(n_s, n_g):
    """Each measured join and report on an n_s x n_g synth table, as a
    no-argument call."""
    table = generate(SynthConfig(n_s, n_g, np.full(6, 1 / 6), 0.5, 1e5, seed=3))
    assert table.n_cells == n_s * n_g
    factors = fit_factors(table)
    margins = MarginSet.from_table(table)
    keys = table.support()
    totals = dict(zip(keys, table.cell_sums.tolist()))
    cells = dict(zip(keys, table.cell_values))
    surnames, geos = [s for s, _ in keys], [g for _, g in keys]
    # a fixed shuffle with repeats takes the np.unique path of index_cells
    order = np.random.default_rng(0).permutation(len(keys)).tolist() + [0, 1]
    shuffled_s, shuffled_g = [surnames[i] for i in order], [geos[i] for i in order]
    # every other cell: with an even n_g this drops the odd geolocations
    half = table.cell_index[::2]
    other = ContingencyTable(*compact_labels(table.labels, half), np.ones((len(half), 6)))
    # the table as a prediction of itself, on its own cells and on labels in
    # reverse order, which the reports join; three regions over the geolocations
    same = ContingencyTable(table.labels, table.cell_index, table.cell_values)
    flipped = [n_s - 1, n_g - 1] - table.cell_index
    order = np.lexsort((flipped[:, 1], flipped[:, 0]))
    joined = ContingencyTable(
        AxisLabels(table.labels.surnames[::-1], table.labels.geolocations[::-1]),
        flipped[order], table.cell_values[order],
    )
    regions = {g: f"R{i % 3}" for i, g in enumerate(table.labels.geolocations)}
    reports = {
        f"{name}({layout})": (lambda fn=fn, pred=pred: fn(table, pred))
        for layout, pred in (("same cells", same), ("joined", joined))
        for name, fn in (
            ("subpop_report", subpop_report),
            ("cellwise_report", lambda t, p: cellwise_report(t, p, region_map=regions)),
            ("calibration_curve", lambda t, p: calibration_curve(t, p, 2)),
        )
    }
    return reports | {
        "weighted_counts(MarginSet)": lambda: weighted_counts(factors, margins),
        "weighted_counts(mapping)": lambda: weighted_counts(factors, totals),
        "index_cells(sorted)": lambda: index_cells(surnames, geos),
        "index_cells(shuffled)": lambda: index_cells(shuffled_s, shuffled_g),
        "compact_labels(all used)": lambda: compact_labels(table.labels, table.cell_index),
        "compact_labels(some dropped)": lambda: compact_labels(table.labels, half),
        "MarginSet.from_cells": lambda: MarginSet.from_cells(None, totals),
        "ContingencyTable.from_label_cells": lambda: ContingencyTable.from_label_cells(cells),
        "locate(same cells)": lambda: table.locate(margins),
        "locate(other labels)": lambda: table.locate(other),
        "positions": lambda: table.labels.positions("s", surnames),
        "pairs": lambda: table.labels.pairs(table.cell_index),
    }


@pytest.fixture(scope="module")
def calls_by_size():
    return [{name: count_calls(fn) for name, fn in joins(*size).items()} for size in SIZES]


@pytest.mark.parametrize("name", sorted(joins(*SIZES[0])))
def test_calls_do_not_grow_with_cells(calls_by_size, name):
    small, large = (calls[name] for calls in calls_by_size)
    assert small == large, f"{name}: (call, c_call) {small} at 200 cells, {large} at 20,000"


def rake_calls_per_step(n_s, n_g):
    """rake's (call, c_call) counts per Newton step on an n_s x n_g BISG
    prediction raked to its table's margins: the counts less those of a
    rake to the prediction's own margins, which starts at the fit and
    takes no step, divided by the steps."""
    table = generate(SynthConfig(n_s, n_g, np.full(6, 1 / 6), 0.5, 1e5, seed=3))
    targets = MarginSet.from_table(table)
    pred = weighted_counts(fit_factors(table), targets)[0]
    assert pred.labels is targets.labels and np.array_equal(pred.cell_index, targets.cell_index)
    fixed = MarginSet(pred.margin("r"), targets.labels, targets.cell_index, pred.cell_sums)
    steps = rake(pred, targets).iterations
    assert steps > 0 and rake(pred, fixed).iterations == 0
    moved = count_calls(lambda: rake(pred, targets))
    still = count_calls(lambda: rake(pred, fixed))
    return tuple((m - s) / steps for m, s in zip(moved, still))


def test_rake_calls_per_newton_step_do_not_grow_with_cells():
    small, large = (rake_calls_per_step(*size) for size in SIZES)
    assert small == large, f"rake: (call, c_call) per step {small} at 200 cells, {large} at 20,000"
