"""
core data model: sparse three-way (surname x geolocation x race) tables.

Tables are stored sparsely by (surname, geolocation) cell with a dense
6-vector of race counts per cell. Counts are real-valued; absent cells are
exactly zero. Tables are immutable after construction, so they are safe to
share across threads.
"""

from __future__ import annotations

from enum import IntEnum
from itertools import compress, repeat
from typing import Iterable, Iterator, Mapping

import numpy as np

N_RACES = 6


class RaceCategory(IntEnum):
    """The six canonical race/ethnicity categories, in fixed order."""

    AIAN = 0
    API = 1
    BLACK = 2
    HISPANIC = 3
    WHITE = 4
    OTHER = 5


# lowercase names used in file headers and JSON keys, in category order
RACE_NAMES = ("aian", "api", "black", "hispanic", "white", "other")

_AXES = ("s", "g", "r")


def _check_finite_nonnegative(values, what):
    """Raise ValueError unless every entry is finite and nonnegative."""
    values = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"non-finite {what}")
    if np.any(values < 0):
        raise ValueError(f"negative {what}")


def _as_race_vector(values, name="values"):
    vec = np.asarray(values, dtype=np.float64)
    if vec.shape != (N_RACES,):
        raise ValueError(f"{name} must have length {N_RACES}, got shape {vec.shape}")
    return vec


def probability_vector(values, what, length=N_RACES):
    """`values` as float64 `length` shares (two or more if None), finite, nonnegative
    and summing to 1 within 1e-6 (the race-margin file's rule), or a ValueError."""
    vec = np.asarray(values, dtype=np.float64)
    if (vec.shape != (length,)) if length else (vec.ndim != 1 or len(vec) < 2):
        raise ValueError(f"{what} must hold {length or 'two or more'} shares, got shape {vec.shape}")
    _check_finite_nonnegative(vec, what)
    with np.errstate(over="ignore"):  # a sum past the float range fails the test
        total = float(vec.sum())
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"{what} sums to {total!r}")
    return vec


class AxisLabels:
    """Ordered surname and geolocation labels, unique within each axis."""

    __slots__ = ("surnames", "geolocations", "_lookup", "_objects")

    def __init__(self, surnames, geolocations):
        surnames = tuple(surnames)
        geolocations = tuple(geolocations)
        if len(surnames) < 1 or len(geolocations) < 1:
            raise ValueError("need at least one surname and one geolocation")
        if len(set(surnames)) != len(surnames):
            raise ValueError("duplicate surname labels")
        if len(set(geolocations)) != len(geolocations):
            raise ValueError("duplicate geolocation labels")
        self.surnames = surnames
        self.geolocations = geolocations
        self._lookup = None
        self._objects = None

    def positions(self, axis, labels) -> np.ndarray:
        """Index of each label on axis "s" or "g"; -1 where the label is absent.

        `labels` is any iterable; the lookups run inside `map`, with no
        Python-level call per label.
        """
        if self._lookup is None:
            self._lookup = {
                name: {label: i for i, label in enumerate(ax)}
                for name, ax in (("s", self.surnames), ("g", self.geolocations))
            }
        return np.fromiter(map(self._lookup[axis].get, labels, repeat(-1)), np.int64)

    def pairs(self, index) -> list[tuple[str, str]]:
        """(surname, geolocation) labels of each row of an (n, 2) cell index.

        The labels' object arrays are built on first use and kept, so a
        call costs O(rows) after that.
        """
        if self._objects is None:
            self._objects = (
                np.fromiter(self.surnames, object, self.n_s),
                np.fromiter(self.geolocations, object, self.n_g),
            )
        index = np.asarray(index).reshape(-1, 2)
        surs, geos = self._objects
        return list(zip(surs[index[:, 0]].tolist(), geos[index[:, 1]].tolist()))

    @property
    def n_s(self):
        return len(self.surnames)

    @property
    def n_g(self):
        return len(self.geolocations)

    def __eq__(self, other):
        if not isinstance(other, AxisLabels):
            return NotImplemented
        return (
            self.surnames == other.surnames
            and self.geolocations == other.geolocations
        )

    def __repr__(self):
        return f"AxisLabels(n_s={self.n_s}, n_g={self.n_g})"


def index_cells(surnames, geolocations):
    """Resolve labeled (surname, geolocation) pairs to a sorted cell index.

    Returns (labels, index, rows): `labels` holds the sorted distinct
    surnames and geolocations, `index` the sorted unique (n, 2) array of
    (surname index, geolocation index) cells, and `rows[i]` the row of
    index that the i-th input pair maps to. Repeated pairs share a row.
    """
    surnames, geolocations = list(surnames), list(geolocations)
    labels = AxisLabels(sorted(set(surnames)), sorted(set(geolocations)))
    cells = np.column_stack([labels.positions("s", surnames), labels.positions("g", geolocations)])
    return labels, *sorted_index(cells, labels.n_g)


def sorted_index(cells, n_g):
    """(index, rows): the sorted unique rows of an (n, 2) array of cell
    positions, and for each input row its row of index. When `cells` is
    already sorted and unique it is the index itself, not a copy."""
    codes = cells[:, 0] * n_g + cells[:, 1]
    if np.all(codes[1:] > codes[:-1]):  # each cell is its own row
        return cells, np.arange(len(cells))
    unique, rows = np.unique(codes, return_inverse=True)
    return np.column_stack(divmod(unique, n_g)), rows


def sum_by_group(groups, values, n_groups) -> np.ndarray:
    """(n_groups, k) sums of the rows of a (n, k) array by group index.

    One bincount per column adds each group's rows in row order.
    """
    return np.column_stack(
        [np.bincount(groups, weights=col, minlength=n_groups) for col in values.T]
    )


def row_sums(values) -> np.ndarray:
    """Sum each row of an (n, k) array, adding its columns left to right.

    For float64 values this is `values.sum(axis=1)` bit for bit, in the
    same order and from the same +0.0 (so a row of -0.0 sums to 0.0), as
    one pass per column instead of numpy's strided, buffered reduction
    over a short axis.
    """
    out = np.zeros(len(values))
    for column in values.T:
        out += column
    return out


def compact_labels(labels: AxisLabels, index):
    """Drop the labels no cell uses and renumber `index` onto the rest.

    Kept labels stay in their order, so a sorted index stays sorted. When
    every label is used, `labels` and `index` come back unchanged.
    """
    used_s = np.bincount(index[:, 0], minlength=labels.n_s) > 0
    used_g = np.bincount(index[:, 1], minlength=labels.n_g) > 0
    if used_s.all() and used_g.all():
        return labels, index
    kept = AxisLabels(compress(labels.surnames, used_s), compress(labels.geolocations, used_g))
    return kept, np.column_stack(
        [(np.cumsum(used_s) - 1)[index[:, 0]], (np.cumsum(used_g) - 1)[index[:, 1]]]
    )


def _read_only(*arrays):
    """Mark each array read-only; None is skipped."""
    for array in arrays:
        if array is not None:
            array.flags.writeable = False


def _check_index(labels: AxisLabels, index):
    """Raise ValueError unless an (n, 2) int64 cell index lies in its
    labels' ranges and is sorted and unique."""
    if len(index) and (
        index.min() < 0
        or index[:, 0].max() >= labels.n_s
        or index[:, 1].max() >= labels.n_g
    ):
        raise ValueError("cell index outside label ranges")
    codes = index[:, 0] * labels.n_g + index[:, 1]
    if np.any(codes[1:] <= codes[:-1]):
        raise ValueError("cell index must be sorted and unique")


def check_cell_values(labels: AxisLabels, index, values, what):
    """Raise ValueError unless every per-cell value is finite and
    nonnegative: the error names the first bad cell of `index` after `what`.
    `values` has a row per cell, or is 1-D with one value per cell."""
    # min and max see NaN and inf without a temporary per entry
    if len(values) and not (values.min() >= 0 and values.max() < np.inf):
        for bad, kind in ((~np.isfinite(values), "non-finite"), (values < 0, "negative")):
            if np.any(bad):
                key = labels.pairs(index[bad.reshape(len(index), -1).any(axis=1)])[0]
                raise ValueError(f"{kind} {what} {key}")


class ContingencyTable:
    """Sparse nonnegative three-way table of counts over (s, g, r).

    Cells are keyed by (surname index, geolocation index) and hold a dense
    6-vector of race counts. `index` must be sorted and unique and lie in
    the label ranges; `values` must be finite and nonnegative, one row per
    cell. Counts may be fractional. Instances are immutable: the backing
    arrays are marked read-only. An argument that already is a contiguous
    int64 index or float64 values array is kept, not copied, and the array
    object handed in is itself marked read-only, so the table cannot be
    written through it. When that object is a view, a base array that the
    caller keeps stays writable, and the caller must not write to it after.
    """

    def __init__(self, labels: AxisLabels, index, values):
        given = np.ascontiguousarray(index, np.int64), np.ascontiguousarray(values, np.float64)
        index = given[0].reshape(-1, 2)
        values = given[1].reshape(len(index), N_RACES)
        _check_index(labels, index)
        check_cell_values(labels, index, values, "count in cell")
        _read_only(*given, index, values)
        self.labels = labels
        self._index = index
        self._values = values
        self._codes = None  # s * n_g + g of each cell, built by the first `locate`
        self._sums = None

    @classmethod
    def from_label_cells(cls, cells: Mapping[tuple[str, str], Iterable[float]]):
        """Build a table from cells keyed by (surname, geolocation) strings.

        Axis labels are the sorted distinct strings that appear.
        """
        keys = list(cells)
        labels, index, rows = index_cells([s for s, _ in keys], [g for _, g in keys])
        values = np.zeros((len(index), N_RACES))
        values[rows] = np.asarray(list(cells.values()), dtype=np.float64).reshape(
            len(keys), N_RACES
        )
        return cls(labels, index, values)

    # raw views ---------------------------------------------------------

    @property
    def cell_index(self) -> np.ndarray:
        """(n_cells, 2) array of (surname index, geolocation index) keys."""
        return self._index

    @property
    def cell_values(self) -> np.ndarray:
        """(n_cells, 6) array of race counts, aligned with `cell_index`."""
        return self._values

    @property
    def n_cells(self):
        return len(self._index)

    @property
    def cell_sums(self) -> np.ndarray:
        """Per-cell totals x_{sg+}, aligned with `cell_index`: computed on
        first use, then kept read-only."""
        if self._sums is None:
            sums = row_sums(self._values)
            sums.flags.writeable = False
            self._sums = sums
        return self._sums

    def locate(self, cells, index=None) -> np.ndarray:
        """Row of each given cell in this table, or -1 where it is absent.

        `cells` is AxisLabels with `index` an (n, 2) cell index on them;
        another table or a MarginSet, anything with `labels` and a
        `cell_index`; or an iterable of (surname, geolocation) label pairs.
        Cells are taken in the order given. Cells with this table's labels
        and cell index map to 0, 1, ..., n_cells - 1 without a search.
        """
        if hasattr(cells, "cell_index"):
            cells, index = cells.labels, cells.cell_index
        if index is not None:
            if cells == self.labels and np.array_equal(index, self._index):
                return np.arange(self.n_cells)
            si = gi = index[:, 0]
            if len(index):  # an empty cell family carries no labels
                si = self.labels.positions("s", cells.surnames)[index[:, 0]]
                gi = self.labels.positions("g", cells.geolocations)[index[:, 1]]
        else:
            pairs = list(cells)
            si = self.labels.positions("s", [s for s, _ in pairs])
            gi = self.labels.positions("g", [g for _, g in pairs])
        if not self.n_cells:
            return np.full(len(si), -1, dtype=np.int64)
        if self._codes is None:
            codes = self._index[:, 0] * self.labels.n_g + self._index[:, 1]
            codes.flags.writeable = False
            self._codes = codes
        wanted = si * self.labels.n_g + gi
        rows = np.minimum(np.searchsorted(self._codes, wanted), self.n_cells - 1)
        found = (si >= 0) & (gi >= 0) & (self._codes[rows] == wanted)
        return np.where(found, rows, -1)

    def cell(self, surname: str, geolocation: str) -> np.ndarray:
        """Race 6-vector at a labeled cell; zeros if the cell is absent."""
        row = self.locate([(surname, geolocation)])[0]
        return self._values[row].copy() if row >= 0 else np.zeros(N_RACES)

    def support(self) -> list[tuple[str, str]]:
        """Labeled (surname, geolocation) keys of stored cells, sorted.

        Builds one label tuple per cell, so array code should use `labels`
        and `cell_index` instead; kept while `perfbench/workloads.py`
        builds its mapping input from `items()`.
        """
        return self.labels.pairs(self._index)

    def items(self) -> Iterator[tuple[tuple[str, str], np.ndarray]]:
        """(label tuple, race 6-vector) of each stored cell, in index order.

        Like `support`, builds one label tuple per cell (and a row view);
        kept while `perfbench/workloads.py` uses it.
        """
        return zip(self.support(), self._values)

    # aggregates --------------------------------------------------------

    def total(self) -> float:
        return float(self._values.sum())

    def margin(self, axes) -> np.ndarray:
        """Sum the table down to the retained axes.

        Parameters
        ----------
        axes : iterable of {"s", "g", "r"}
            Nonempty subset of axes to retain, e.g. "gr" or {"r"}.

        Returns
        -------
        numpy array
            Dense array over the retained axes in (s, g, r) order:
            "r" gives a 6-vector, "gr" an (n_g, 6) array, "sg" an
            (n_s, n_g) array, and so on. Summing the result over all of
            its axes equals ``total()``.
        """
        keep = tuple(a for a in _AXES if a in set(axes))
        if not keep or not set(axes) <= set(_AXES):
            raise ValueError(f"axes must be a nonempty subset of {_AXES}, got {axes!r}")
        n_s, n_g = self.labels.n_s, self.labels.n_g
        si, gi = self._index[:, 0], self._index[:, 1]
        if keep == ("s", "g", "r"):
            out = np.zeros((n_s, n_g, N_RACES))
            out[si, gi] = self._values
            return out
        if keep == ("s", "g"):
            out = np.zeros((n_s, n_g))
            out[si, gi] = self.cell_sums
            return out
        if keep == ("s", "r"):
            return sum_by_group(si, self._values, n_s)
        if keep == ("g", "r"):
            return sum_by_group(gi, self._values, n_g)
        if keep == ("s",):
            return np.bincount(si, weights=self.cell_sums, minlength=n_s)
        if keep == ("g",):
            return np.bincount(gi, weights=self.cell_sums, minlength=n_g)
        return self._values.sum(axis=0)  # ("r",)

    def __repr__(self):
        with np.errstate(over="ignore"):  # a total past the float range prints as inf
            total = self.total()
        return (
            f"{type(self).__name__}(n_s={self.labels.n_s}, n_g={self.labels.n_g}, "
            f"cells={self.n_cells}, total={total:.6g})"
        )


class MarginSet:
    """Raking targets: a race-margin 6-vector and per-cell (s, g) totals.

    The cell totals are a table with one column: `labels`, a sorted unique
    (n, 2) `cell_index` and the float `totals` aligned with it, checked as
    a ContingencyTable checks its cells. The race vector, index and totals
    are kept and marked read-only as a ContingencyTable's arrays are. When both
    families are given they must sum to the same grand total (relative
    tolerance 1e-9). Either may be absent (race None; labels None and no
    cells) for partial target sets, e.g. when only measuring margin gaps.
    """

    __slots__ = ("race", "labels", "cell_index", "totals")

    def __init__(self, race, labels: AxisLabels | None = None, index=(), totals=()):
        self.race = None if race is None else _as_race_vector(race, name="race margin")
        self.labels = labels
        given = np.ascontiguousarray(index, np.int64), np.ascontiguousarray(totals, np.float64)
        self.cell_index = index = given[0].reshape(-1, 2)
        self.totals = totals = given[1].reshape(len(index))
        if self.race is not None:
            _check_finite_nonnegative(self.race, "race-margin target")
        if len(index):
            if labels is None:
                raise ValueError("cell targets need labels")
            _check_index(labels, index)
            check_cell_values(labels, index, totals, "cell-margin target at")
        if self.race is not None and len(index):
            race_total, cell_total = float(self.race.sum()), float(totals.sum())
            if abs(race_total - cell_total) > 1e-9 * max(race_total, cell_total, 1e-300):
                raise ValueError(
                    "inconsistent targets: race margin sums to "
                    f"{race_total!r} but cell margins sum to {cell_total!r}"
                )
        _read_only(*given, index, totals, self.race)

    @classmethod
    def from_table(cls, table: ContingencyTable) -> "MarginSet":
        """Targets equal to a table's own race and cell margins."""
        return cls(table.margin("r"), table.labels, table.cell_index, table.cell_sums)

    @classmethod
    def from_cells(cls, race, cells: Mapping[tuple[str, str], float]) -> "MarginSet":
        """Targets from cell totals keyed by (surname, geolocation) strings."""
        if not cells:
            return cls(race)
        labels, index, rows = index_cells([s for s, _ in cells], [g for _, g in cells])
        totals = np.zeros(len(index))
        totals[rows] = np.fromiter(cells.values(), dtype=np.float64, count=len(rows))
        return cls(race, labels, index, totals)

    @property
    def cell(self) -> dict:
        """The cell totals keyed by (surname, geolocation), built on each call."""
        pairs = [] if self.labels is None else self.labels.pairs(self.cell_index)
        return dict(zip(pairs, self.totals.tolist()))

    def __repr__(self):
        return f"MarginSet(race={self.race}, cells={len(self.totals)})"


def build_table(records) -> ContingencyTable:
    """Accumulate (surname, geolocation, race-weight-vector) records.

    Parameters
    ----------
    records : iterable of (str, str, length-6 array-like)
        Each record adds its nonnegative weight vector to the cell for its
        (surname, geolocation) pair. Axis labels of the result are the
        sorted distinct strings encountered.

    Raises
    ------
    ValueError
        On an empty record list, an empty surname/geolocation string, or a
        negative weight (the message names the offending record index).
    """
    records = list(records)
    for i, (surname, geo, weights) in enumerate(records):
        if not surname or not geo:
            raise ValueError(f"record {i}: empty surname or geolocation")
        if np.any(_as_race_vector(weights, name=f"record {i} weights") < 0):
            raise ValueError(f"record {i}: negative weight")
    if not records:
        raise ValueError("empty table")
    labels, index, rows = index_cells([r[0] for r in records], [r[1] for r in records])
    weights = np.array([r[2] for r in records], dtype=np.float64)
    return ContingencyTable(labels, index, sum_by_group(rows, weights, len(index)))

