"""
canonical on-disk formats: the one module that reads and writes files.

CSV files are UTF-8 with a fixed header (a leading byte-order mark is
ignored on input) and go through one CSV writer: labels quoted as
csv.writer quotes them, then floats as their shortest round-trip repr, and
an empty field for a value with no finite result. JSON files go through
one strict JSON writer (UTF-8, sorted keys, indent 2, trailing newline)
that writes such a value as null. Inputs:

* surname factors:  surname,count,p_aian,p_api,p_black,p_hispanic,p_white,p_other
* geolocation factors:  geoid,count,aian,api,black,hispanic,white,other  (counts)
* voter file:  voter_id,surname,geoid,race,active  (race may be empty)
* labeled table:  surname,geoid,aian,api,black,hispanic,white,other  (counts)
* race margin JSON:  {"race_distribution": {"aian": ..., ..., "other": ...}}
* region map:  geoid,region
* predictions and raked predictions:  surname,geoid,count,p_aian,...,p_other
* calibration map:  race,aian,api,black,hispanic,white,other  (a row per race)

Outputs only (besides manifest.json):

* theta.json:  {"theta_r": {race: log factor}, "iterations", "final_margin_gap"}
* theta_sg.csv:  surname,geoid,theta  (one log cell factor per raked cell)
* reject reports:  line,reason
* subpop.csv:  geolocation,race,truth,estimate,error,relative_error
* cellwise.csv:  level,name,l1,l2,nll  (geolocation, region and overall rows)
* calibration_curves.csv:  race,cumulative_weight,cumulative_miscalibration
  (each race's `CalibrationCurve.outline()`: with K = CURVE_RESOLUTION =
  4096, the origin, then per bin ceil(x * K) of cumulative weight x its
  last point and its first maximum and minimum, a bin of at most 3 points
  whole; at most 3K + 1 rows per race, all points of the full curve, whose
  max - min is the Kuiper statistic; summary.json's kuiper comes from the
  full curve)
* summary.json:  {"subpopulation", "cellwise", "kuiper", "kuiper_includes_other"}

Every CSV input is read by one block reader, `_read_rows`: blocks of
_CSV_BLOCK lines, one np.loadtxt call each with csv quoting, or a csv scan of
the block, the reference, where np.loadtxt fails or may read otherwise. A
line counts one record, the header being line 1. A blank line, a row with
too few or too many fields, a field over csv's size limit and a number that
is not plain ASCII decimal text (float() reads "1_000" and non-ASCII digits,
and np.loadtxt a number next to a no-break space; no reader here does) are
found while reading: the first is an input error naming the file and line,
ahead of any defect checked once the file is read (a repeated cell, id or
geoid, an empty label, a value rule), even on an earlier line. Factor files
keep bad rows for a reject report, except where a defect (a repeated label,
an excessive reject rate) would corrupt results; calibration maps check
theirs in file order once read. A surname that uppercasing takes over csv's
limit is an input error too, so that every label written to a factor file
can be read back.

A table or predictions CSV that one command writes for another gets a binary
twin (`twin_path`), an .npz of its labels as UTF-8 bytes with int64 offsets,
index, float64 rows and BLAKE2b digest, where parsing the CSV gives back the
writer's arrays (`twinnable`). A reader trusts a twin that records the CSV's
digest (`open_twin`) and runs on it every check that follows a parse of text.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import warnings
import zipfile
from collections import Counter
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from itertools import count, filterfalse, islice
from types import SimpleNamespace
from typing import Mapping, NamedTuple, Optional

import numpy as np

from .table import N_RACES, RACE_NAMES, AxisLabels, ContingencyTable, MarginSet, RaceCategory
from .table import compact_labels, probability_vector, row_sums, sorted_index

SURNAME_FACTORS_HEADER = [
    "surname", "count",
    "p_aian", "p_api", "p_black", "p_hispanic", "p_white", "p_other",
]
GEO_FACTORS_HEADER = ["geoid", "count"] + list(RACE_NAMES)
VOTER_FILE_HEADER = ["voter_id", "surname", "geoid", "race", "active"]
TABLE_HEADER = ["surname", "geoid"] + list(RACE_NAMES)
REGION_MAP_HEADER = ["geoid", "region"]
PREDICTIONS_HEADER = ["surname", "geoid", "count"] + [f"p_{n}" for n in RACE_NAMES]
CALIB_MAP_HEADER = ["race"] + list(RACE_NAMES)
THETA_SG_HEADER = ["surname", "geoid", "theta"]
REJECTS_HEADER = ["line", "reason"]
SUBPOP_HEADER = ["geolocation", "race", "truth", "estimate", "error", "relative_error"]
CELLWISE_HEADER = ["level", "name", "l1", "l2", "nll"]
CURVES_HEADER = ["race", "cumulative_weight", "cumulative_miscalibration"]

# rows per block of the cell-file reader and of the CSV writer
_CSV_BLOCK = 1024
# _ENDS_QUOTED[q]: whether a line ends inside a quoted field, q whether it starts inside one.
# As in csv and np.loadtxt, a quote opens a field only at its start, "" inside is a quote, and
# the field runs on from its closing quote to a comma. Possessive: linear, no backtracking
_QUOTED = r'(?:[^"]|"")*+'
_OPENED = rf'(?:(?:"{_QUOTED}"[^,]*+|[^",][^,]*+)?,)*+"{_QUOTED}'  # whole fields, then one open
_ENDS_QUOTED = (re.compile(rf'{_OPENED}\Z'), re.compile(rf'{_QUOTED}(?:"[^,]*+,{_OPENED})?\Z'))
# np.loadtxt reading a block as csv splits it
_LOADTXT = dict(delimiter=",", quotechar='"', comments=None)

# a row whose probabilities sum inside this window is renormalized;
# anything further off is rejected
PROB_SUM_WINDOW = (0.98, 1.02)
MAX_REJECT_FRACTION = 0.10


class ParseError(ValueError):
    """A file-level defect that cannot be skipped row by row."""


# the row-specific tail of a reject reason: a probability sum, a field
# count or a geoid
_ROW_SPECIFIC = re.compile(r"\b(sum to|got|geoid) .*$")


def reason_counts(reasons):
    """{reason: count} of reject reasons, with each reason's row-specific
    tail elided as "…" so that the rows one rule rejects share a key."""
    return dict(Counter(_ROW_SPECIFIC.sub(r"\1 …", reason) for reason in reasons))


@dataclass(frozen=True)
class VoterRecord:
    voter_id: str
    surname: str
    geolocation: str
    race: Optional[RaceCategory]
    active: bool


@dataclass(frozen=True)
class CategoryMapping:
    """Total mapping from one source's race strings to the six categories.

    A value of None marks a source category that means "race not answered";
    strings outside the map raise, rather than being guessed.
    """

    source: str
    mapping: Mapping[str, Optional[RaceCategory]]

    def map_value(self, value: str) -> Optional[RaceCategory]:
        key = value.strip()
        if key == "":
            return None
        if key not in self.mapping:
            raise KeyError(f"{self.source} mapping has no category {value!r}")
        return self.mapping[key]


# Florida-style voter files label race directly; multi-racial responses go
# to the other bucket.
FLORIDA_MAPPING = CategoryMapping(
    source="florida",
    mapping={
        "American Indian/Alaskan Native": RaceCategory.AIAN,
        "Asian/Pacific Islander": RaceCategory.API,
        "Black, Not Hispanic": RaceCategory.BLACK,
        "Hispanic": RaceCategory.HISPANIC,
        "White, Not Hispanic": RaceCategory.WHITE,
        "Multi-racial": RaceCategory.OTHER,
        "Other": RaceCategory.OTHER,
        "Unknown": None,
    },
)


def _north_carolina_mapping() -> CategoryMapping:
    # compound "<ethnicity>:<race>" codes; a Hispanic ethnicity flag wins
    # over whatever the race field says
    race_codes = {
        "A": RaceCategory.API,
        "B": RaceCategory.BLACK,
        "I": RaceCategory.AIAN,
        "M": RaceCategory.OTHER,
        "O": RaceCategory.OTHER,
        "P": RaceCategory.API,
        "W": RaceCategory.WHITE,
        "U": None,
    }
    mapping: dict[str, Optional[RaceCategory]] = {}
    for race, category in race_codes.items():
        mapping[f"HL:{race}"] = RaceCategory.HISPANIC
        mapping[f"NL:{race}"] = category
        mapping[f"UN:{race}"] = category
    return CategoryMapping(source="north_carolina", mapping=mapping)


NORTH_CAROLINA_MAPPING = _north_carolina_mapping()

# identity mapping for data already using the canonical lowercase names
CANONICAL_MAPPING = CategoryMapping(
    source="canonical",
    mapping={name: RaceCategory(i) for i, name in enumerate(RACE_NAMES)},
)

MAPPINGS = {
    "florida": FLORIDA_MAPPING,
    "north_carolina": NORTH_CAROLINA_MAPPING,
    "canonical": CANONICAL_MAPPING,
}


@contextmanager
def _open_reader(path, header):
    """Open a CSV file and check its header; yields the file at the first data row."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            got = next(csv.reader(fh), None)
        except csv.Error as exc:
            raise ParseError(f"{path}:1: {exc}") from None
        if got is None:
            raise ParseError(f"{path}: empty file, expected header {','.join(header)}")
        if got != header:
            raise ParseError(f"{path}: bad header {got!r}, expected {header!r}")
        yield fh


def _block(fh):
    """The next _CSV_BLOCK lines of a CSV file and those that a quoted field open
    at the last runs on to: whole records. Each line is scanned once, if at all."""
    lines, quoted = list(islice(fh, _CSV_BLOCK)), False
    for line in lines if '"' in "".join(lines) else ():
        quoted = _ENDS_QUOTED[quoted].match(line) is not None
    while quoted and (line := next(fh, "")):
        lines.append(line)
        quoted = _ENDS_QUOTED[True].match(line) is not None
    return lines


def _scan(path, lines, dtype, width, first, bad):
    """The reference reading of a block of `lines`, data rows `first` on, into np.loadtxt's
    `dtype`: split by csv, numbers by `_plain_floats`. A csv.Error, or with `bad` None a row of
    the wrong width or with a non-numeric number, is a ParseError; with `bad` a dict, such a row
    is kept with NaN numbers (and empty labels for a wrong width), bad[i] the field count of row i."""
    n_labels, rows = len(dtype) - 1, []
    try:
        for i, row in enumerate(csv.reader(lines), first):
            numbers = _plain_floats(row[n_labels:]) if len(row) == width else None
            if numbers is None and bad is None:
                what = "non-numeric value" if len(row) == width else f"expected {width} fields, got {len(row)}"
                raise ParseError(f"{path}:{i + 2}: {what}")
            if numbers is None:
                bad[i], numbers = len(row), [np.nan] * (width - n_labels)
                row = row if len(row) == width else [""] * n_labels
            rows.append((*row[:n_labels], numbers))
    except csv.Error as exc:  # in the record after the rows kept
        raise ParseError(f"{path}:{first + len(rows) + 2}: {exc}") from None
    return np.array(rows, dtype)


def _read_rows(path, header, n_labels, bad=None):
    """Read a CSV file of `n_labels` text columns, then numbers, a block
    (`_block`) at a time, each block reduced to codes and float rows before
    the next is read. Returns (raw, codes, values): per text column its
    distinct entries as read, in order of first row, each row's (n, n_labels)
    codes into them and its (n, k) numbers. Row i is line i + 2. A block is
    one np.loadtxt call, or `_scan`'s reading with its policy `bad` where
    np.loadtxt fails or may read otherwise: fewer rows than lines (a blank
    line, or a record over several), a line longer than csv's field-size
    limit, or non-ASCII text in a number (np.loadtxt drops a no-break space).
    """
    k, limit = len(header) - n_labels, csv.field_size_limit()
    dtype = [(str(j), object) for j in range(n_labels)] + [("v", np.float64, (k,))]
    # each row's numbers and the codes of its entries, grown in place
    raw, values, codes = [{} for _ in range(n_labels)], np.empty((0, k)), np.empty((0, n_labels), np.int64)
    n = 0
    with _open_reader(path, header) as fh, warnings.catch_warnings():
        # a block of blank lines is scanned, not warned about
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        while lines := _block(fh):
            try:
                block = np.loadtxt(lines, dtype=dtype, ndmin=1, **_LOADTXT)
                scan = len(block) < len(lines) or max(map(len, lines)) > limit or not (
                    k == 0 or "".join(lines).isascii() or "".join(np.loadtxt(
                        lines, dtype=object, ndmin=2, usecols=range(n_labels, len(header)), **_LOADTXT
                    ).ravel().tolist()).isascii())
            except ValueError:
                scan = True
            if scan:
                block = _scan(path, lines, dtype, len(header), n, bad)
            end = n + len(block)
            if end > len(values):  # a quarter more, by realloc: rows read are not copied
                for grown in (values, codes):
                    grown.resize((end + end // 4, grown.shape[1]), refcheck=False)
            for j, known in enumerate(raw):
                column = block[str(j)]
                known.update(zip(filterfalse(known.__contains__, dict.fromkeys(column)), count(len(known))))
                codes[n:end, j] = np.fromiter(map(known.__getitem__, column), np.int64, len(column))
            values[n:end] = block["v"]
            n = end
    for grown in (values, codes):
        grown.resize((n, grown.shape[1]), refcheck=False)
    return [list(known) for known in raw], codes, values


def _raise_first(path, codes, texts, bad_length, what):
    """Raise the ParseError `what` naming the first row whose entry in some
    column j, texts[j][codes[row, j]], has a length that `bad_length` flags."""
    rows = np.zeros(len(codes), bool)
    for j, column in enumerate(texts):
        rows |= bad_length(np.fromiter(map(len, column), np.int64, len(column)))[codes[:, j]]
    if rows.any():
        raise ParseError(f"{path}:{np.argmax(rows) + 2}: {what}")


def _raise_repeat(path, keys, what):
    """Raise the ParseError `what(i)` naming the first row i whose key an earlier row holds."""
    firsts = np.unique(keys, return_index=True)[1]
    if len(firsts) < len(keys):
        i = int(np.setdiff1d(np.arange(len(keys)), firsts)[0])
        raise ParseError(f"{path}:{i + 2}: {what(i)}")


def _label_cells(path, raw, codes):
    """(labels, cells) of the (surname, geoid) `raw` and `codes` of
    `_read_rows`: each distinct surname uppercased and stripped and geoid
    stripped once, and `codes` overwritten by the positions in the labels.
    No rows, or a surname that uppercasing takes past csv's limit, is a ParseError."""
    if not len(codes):
        raise ParseError(f"{path}: no data rows")
    clean = [[s.strip().upper() for s in raw[0]], [g.strip() for g in raw[1]]]
    limit = csv.field_size_limit()
    _raise_first(path, codes, clean[:1], lambda n: n > limit, f"field larger than field limit ({limit})")
    labels = AxisLabels(sorted(set(clean[0])), sorted(set(clean[1])))
    for j, axis in enumerate("sg"):
        codes[:, j] = labels.positions(axis, clean[j])[codes[:, j]]
    return labels, codes


def _read_cells(path, header, twin=None):
    """Read a cell file (surname, geoid, numbers...) onto a sorted cell index:
    (labels, index, values, rows), the numbers of each cell in index order and
    the cell of each data row. A non-finite or negative number or a repeated
    cell is a ParseError naming the file and line. With `twin`, the file's
    open twin, its arrays stand in for the text's and pass the same checks.
    """
    raw, codes, values = _read_rows(path, header, 2) if twin is None else _twin_rows(twin, len(header) - 2)
    labels, cells = _label_cells(path, raw, codes)
    for bad, what in (
        (~np.isfinite(values).all(axis=1), "non-finite value"),
        ((values < 0).any(axis=1), "negative value"),
    ):
        if np.any(bad):
            raise ParseError(f"{path}:{np.argmax(bad) + 2}: {what}")
    index, rows = sorted_index(cells, labels.n_g)
    if len(index) < len(cells):
        _raise_repeat(path, rows, lambda i: f"duplicate cell {labels.pairs(cells[i])[0]}")
    if not np.all(rows[1:] > rows[:-1]):  # rows out of index order
        values = values[np.argsort(rows)]
    return labels, index, values, rows


# what a twin that cannot be read raises, zipfile's and numpy's .npy reader's errors included
_TWIN_ERRORS = (OSError, EOFError, LookupError, ValueError, RuntimeError, zipfile.BadZipFile)


def twin_path(path):
    """The binary twin of cell file `path`: its name with the suffix .npz."""
    return os.path.splitext(path)[0] + ".npz"


def open_twin(path, blake2b):
    """The twin of cell file `path`, open, if it records `blake2b`, the file's
    digest; else None: a twin missing, unreadable or of other bytes is ignored."""
    try:
        zf = zipfile.ZipFile(twin_path(path))
    except _TWIN_ERRORS:
        return None
    with suppress(*_TWIN_ERRORS):
        if _member(zf, "blake2b", np.uint8).tobytes().hex() == blake2b:
            return zf
    zf.close()
    return None


def _member(zf, name, dtype, width=None):
    """Member `name`.npy of twin `zf`, a C-ordered array of `dtype`, 1-D or of
    `width` columns, read by numpy a block at a time once its header is checked:
    another header, or one whose data the member and file do not hold, raises."""
    columns, size = () if width is None else (width,), zf.getinfo(f"{name}.npy").file_size
    with zf.open(f"{name}.npy") as fh:
        read = {(1, 0): np.lib.format.read_array_header_1_0, (2, 0): np.lib.format.read_array_header_2_0}
        shape, fortran, got = read[np.lib.format.read_magic(fh)](fh)
        if (got, fortran, len(shape), shape[1:]) != (np.dtype(dtype), False, 1 + len(columns), columns) or not (
                math.prod(shape) * got.itemsize == size - fh.tell() <= os.path.getsize(zf.filename)):
            raise ValueError(f"{name}: {got} array of shape {shape} in {size} bytes")
    with zf.open(f"{name}.npy") as fh:
        return np.lib.format.read_array(fh, allow_pickle=False)


def _twin_rows(zf, k):
    """`_read_rows`'s (raw, codes, values) from open twin `zf` of `k` numbers a row. A
    member missing or extra, of another dtype or shape, offsets out of order,
    labels not UTF-8 or an index outside them is a ParseError naming the twin."""
    try:
        if len(zf.namelist()) != 7:  # and a missing one is a KeyError
            raise ValueError(f"members {zf.namelist()}")
        raw = []
        for axis in ("surnames", "geoids"):
            data, ends = _member(zf, axis, np.uint8).tobytes(), _member(zf, f"{axis}_offsets", np.int64)
            if not (len(ends) and ends[0] == 0 and ends[-1] == len(data) and np.all(ends[1:] >= ends[:-1])):
                raise ValueError(f"{axis}: offsets out of order")
            raw.append([data[a:b].decode() for a, b in zip(ends[:-1].tolist(), ends[1:].tolist())])
        codes, values = _member(zf, "index", np.int64, 2), _member(zf, "values", np.float64, k)
        if len(codes) != len(values) or np.any(codes < 0) or np.any(codes >= [len(r) for r in raw]):
            raise ValueError(f"index of {len(codes)} cells on {len(values)} rows or outside the labels")
    except _TWIN_ERRORS as exc:
        raise ParseError(f"{zf.filename}: bad twin: {exc}") from None
    return raw, codes, values


def _plain_floats(fields):
    """The floats of CSV fields if each is plain decimal text (float() also reads "1_0", "١"), else None."""
    text = "".join(fields)
    if "_" in text or not text.isascii():
        return None
    try:
        return list(map(float, fields))
    except ValueError:
        return None


def _parse_factors(path, header, kind, clean_label, sum_ok, sum_reason):
    """The factor parsers: (labels, values, rejects), the accepted labels in
    file order, their (n, 7) counts and P(r|label), and the (line, reason)
    pair of each rejected row, lines 1-based.

    A row is rejected, the first reason it has in this order winning: the
    wrong number of fields, an empty label, a non-numeric or non-finite
    field, a negative value, or a sum s of the race entries that fails
    `sum_ok(s)` (the reason is `sum_reason(label, s)`); accepted rows are
    divided by s. A label repeating that of an earlier accepted row, no
    data rows or more than 10% rejected rows is a ParseError.
    """
    bad = {}
    raw, codes, values = _read_rows(path, header, 1, bad)
    if not len(values):
        raise ParseError(f"{path}: no data rows")
    clean, known = [clean_label(text) for text in raw[0]], {}  # each distinct label cleaned once
    labels = np.array(clean, dtype=object)[codes[:, 0]]
    keys = np.array([known.setdefault(label, len(known)) for label in clean], np.int64)[codes[:, 0]]
    # the rules below reject a row whose sum overflows or mixes inf and -inf
    with np.errstate(over="ignore", invalid="ignore"):
        sums = row_sums(values[:, 1:])
    reasons = np.empty(len(values), dtype=object)
    for i in np.flatnonzero(~sum_ok(sums)).tolist():
        reasons[i] = sum_reason(labels[i], sums[i])
    # a later rule overwrites an earlier one: a row's reason is the first it breaks
    reasons[(values < 0).any(axis=1)] = "negative value"
    reasons[~np.isfinite(values).all(axis=1)] = "non-finite field"
    reasons[list(bad)] = "non-numeric field"  # their numbers are NaN
    reasons[labels == ""] = f"empty {header[0]}"
    short = {i: f"expected {len(header)} fields, got {got}" for i, got in bad.items() if got != len(header)}
    reasons[list(short)] = list(short.values())
    accepted = np.equal(reasons, None)

    # each label's first accepted row: a row after it repeats the label ("" is never accepted)
    first = np.full(len(known), len(keys))
    np.minimum.at(first, keys[accepted], np.flatnonzero(accepted))
    repeat = first[keys] < np.arange(len(keys))
    if repeat.any():
        i = int(np.argmax(repeat))
        raise ParseError(f"{path}:{i + 2}: duplicate {kind} {labels[i]!r}")
    rejected = np.flatnonzero(~accepted)
    if len(rejected) > MAX_REJECT_FRACTION * len(keys):
        raise ParseError(
            f"{path}: {len(rejected)} of {len(keys)} rows rejected "
            f"(limit {MAX_REJECT_FRACTION:.0%})"
        )
    values = values[accepted]
    values[:, 1:] /= sums[accepted, None]
    return labels[accepted].tolist(), values, list(zip((rejected + 2).tolist(), reasons[rejected]))


def parse_surname_factors(path):
    """Read per-surname race probabilities and surname populations.

    Probabilities are renormalized when their sum lies in [0.98, 1.02] and
    the row is rejected otherwise. Surnames are uppercased and stripped.
    More than 10% rejected rows is a hard error, as is a duplicate surname.
    Returns (surnames, values, rejects): the accepted surnames in file
    order, their (n, 7) population and P(r|s), and the rows rejected.
    """
    lo, hi = PROB_SUM_WINDOW
    return _parse_factors(
        path, SURNAME_FACTORS_HEADER, "surname", lambda label: label.strip().upper(),
        lambda s: (lo <= s) & (s <= hi), lambda _, s: f"probabilities sum to {s:.6g}",
    )


def parse_geo_factors(path):
    """Read per-geolocation race counts.

    Returns (geoids, values, rejects): the accepted geoids in file order,
    and per geoid the row's population column followed by P(r|g) computed
    from the race counts. All-zero rows are rejected with their geoid. More
    than 10% rejected rows is a hard error, as is a duplicate geoid.
    """
    return _parse_factors(
        path, GEO_FACTORS_HEADER, "geolocation", str.strip,
        lambda s: s > 0, lambda geoid, _: f"zero-total row for geoid {geoid}",
    )


class Voters(NamedTuple):
    """The records of a voter file as columns, in file order."""

    labels: AxisLabels  # the sorted, cleaned surnames and geoids
    cells: np.ndarray  # each record's (n, 2) (surname, geoid) positions in labels
    voter_id: np.ndarray  # as read
    race: np.ndarray  # int RaceCategory codes, -1 where unanswered
    active: np.ndarray  # bool

    def take(self, rows):
        """The records at `rows` (a mask or positions), in that order."""
        return Voters(self.labels, *(column[rows] for column in self[1:]))


def _active_flag(text):
    flag = text.strip().lower()
    if flag not in ("true", "1", "yes", "false", "0", "no"):
        raise ParseError(f"bad active flag {text!r}")
    return flag in ("true", "1", "yes")


def _map_distinct(path, texts, codes, convert):
    """convert(text) of each distinct text of `_read_rows`, taken to the rows
    by their `codes`. A ParseError or KeyError of convert is raised again
    with the file and line of the first row holding its text."""
    values = []
    for code, text in enumerate(texts):  # in order of first row
        try:
            values.append(convert(text))
        except (ParseError, KeyError) as exc:
            raise type(exc)(f"{path}:{np.argmax(codes == code) + 2}: {exc.args[0]}") from None
    return np.array(values)[codes]


def parse_voter_file(path, mapping: CategoryMapping) -> Voters:
    """Read a voter file as columns, applying a source-specific race mapping.

    Inactive records and records with an unanswered race are kept but
    flagged; excluding them is a separate, explicit step (see
    `aggregate_voters`). Each distinct surname, geoid, race and active
    string is read once. Besides the errors of `_read_rows` and
    `_label_cells`, an empty surname or geoid, a repeated voter id, a bad
    active flag and a race outside `mapping` (a KeyError) are errors naming
    the file and line.
    """
    def race_code(text):
        race = mapping.map_value(text)
        return -1 if race is None else int(race)

    raw, codes, _ = _read_rows(path, VOTER_FILE_HEADER, len(VOTER_FILE_HEADER))
    # a copy, so that the cells do not hold the other columns' codes
    labels, cells = _label_cells(path, raw[1:3], np.ascontiguousarray(codes[:, 1:3]))
    _raise_first(path, cells, (labels.surnames, labels.geolocations), lambda n: n == 0,
                 "surname and geolocation must be nonempty")
    if len(raw[0]) < len(codes):
        _raise_repeat(path, codes[:, 0], lambda i: f"duplicate voter_id {raw[0][codes[i, 0]]!r}")
    active = _map_distinct(path, raw[4], codes[:, 4], _active_flag)
    race = _map_distinct(path, raw[3], codes[:, 3], race_code)
    return Voters(labels, cells, np.array(raw[0], dtype=object)[codes[:, 0]], race, active)


def aggregate_voters(voters: Voters, require_race: bool):
    """Accumulate voter records into a labeled table and cell totals.

    With `require_race`, inactive records and records with an unanswered
    race are excluded first, and every remaining record adds one unit to
    its (surname, geolocation, race) cell. Without it, all records count
    toward the (surname, geolocation) occupancy totals and only labeled
    ones contribute race mass.

    Returns
    -------
    (ContingencyTable or None, MarginSet)
        The labeled table (None when nothing is labeled) and the
        occupancy count of each (surname, geolocation) cell, with no race part.
    """
    if require_race:
        voters = voters.take(voters.active & (voters.race >= 0))
    if not len(voters.race):
        raise ValueError("no records to aggregate")
    index, rows = sorted_index(voters.cells, voters.labels.n_g)
    labels, index = compact_labels(voters.labels, index)  # labels of excluded records go
    occupancy = MarginSet(None, labels, index, np.bincount(rows, minlength=len(index)))
    labeled = voters.race >= 0
    if not labeled.any():
        return None, occupancy
    codes = rows[labeled] * N_RACES + voters.race[labeled]
    values = np.bincount(codes, minlength=len(index) * N_RACES).reshape(-1, N_RACES)
    keep = row_sums(values) > 0
    return ContingencyTable(*compact_labels(labels, index[keep]), values[keep]), occupancy


def subsample_to_margin(voters: Voters, target, seed: int) -> Voters:
    """Subsample labeled records so their race distribution matches a target.

    The sample size is the largest N such that every race with a positive
    target share has enough records for its quota; per-race quotas come
    from largest-remainder rounding of N * target, and records are drawn
    without replacement with a seeded generator from each race's records
    in file order. The sample is shuffled. Deterministic for a fixed seed.
    """
    target = probability_vector(target, "target")
    if np.any(voters.race < 0):
        raise ValueError(f"record {voters.voter_id[np.argmax(voters.race < 0)]!r} has no race label")
    by_race = [np.flatnonzero(voters.race == r) for r in range(N_RACES)]
    counts = np.array([len(pool) for pool in by_race], dtype=np.float64)
    for r in range(N_RACES):
        if target[r] > 0 and counts[r] == 0:
            raise ValueError(f"target is positive for race {RACE_NAMES[r]} with no records")
    live = target > 0
    with np.errstate(over="ignore"):  # denormal shares can overflow the ratio
        n = int(np.floor((counts[live] / target[live]).min()))
    if n < 1:
        raise ValueError("not enough records for any sample")
    quotas = _largest_remainder(n * target)

    rng = np.random.default_rng(seed)
    out = np.concatenate([
        pool[rng.choice(len(pool), size=q, replace=False)] for pool, q in zip(by_race, quotas.tolist()) if q
    ])
    return voters.take(out[rng.permutation(len(out))])


def _largest_remainder(quotas_float):
    """Round nonnegative quotas to integers preserving their (integer) sum."""
    base = np.floor(quotas_float)
    remainder = int(round(quotas_float.sum() - base.sum()))
    frac = quotas_float - base
    order = sorted(range(len(frac)), key=lambda i: (-frac[i], i))
    for i in order[:remainder]:
        base[i] += 1
    return base.astype(np.int64)


# cell, margin, map and matrix readers -------------------------------------


def parse_table(path, twin=None) -> ContingencyTable:
    """Read a labeled table CSV, or its open `twin`, into a ContingencyTable.

    Surnames are uppercased, matching the other canonical formats.
    """
    labels, index, values, _ = _read_cells(path, TABLE_HEADER, twin)
    return ContingencyTable(labels, index, values)


def parse_predictions(path, twin=None):
    """A predictions or raked CSV on a sorted cell index, read from its open
    `twin` if given: (labels, index, counts, conds). counts and conds are
    columns 0 and 1-6 of C-ordered (n, 7) rows, whose memory is their `base`.

    Each row's conditionals must sum to 1 (within 1e-6), or be all zero
    when its count is zero.
    """
    labels, index, values, rows = _read_cells(path, PREDICTIONS_HEADER, twin)
    counts, conds = values[:, 0], values[:, 1:]
    sums = row_sums(conds)
    bad = ~((np.abs(sums - 1.0) <= 1e-6) | ((counts == 0) & (sums == 0)))
    if np.any(bad):
        i = int(np.argmax(bad[rows]))  # the first bad data row
        raise ParseError(f"{path}:{i + 2}: conditionals sum to {float(sums[rows[i]])!r}, expected 1")
    return labels, index, counts, conds


def parse_race_margin(path) -> np.ndarray:
    """Read a race-distribution JSON object into a `probability_vector`;
    each share is a JSON number (not a boolean), an absent race's is 0. A
    key repeated in any object is a ParseError: json keeps only the last.
    A leading byte-order mark is ignored, as in a CSV input."""

    def unique_keys(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"{path}: repeated key {key!r}")
            seen.add(key)
        return dict(pairs)

    with open(path, encoding="utf-8-sig") as fh:
        try:  # an integer past the float range reads as inf, not an OverflowError
            payload = json.load(fh, parse_int=float, object_pairs_hook=unique_keys)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from None
    dist = payload.get("race_distribution") if isinstance(payload, dict) else None
    if not isinstance(dist, dict):
        raise ParseError(f"{path}: missing race_distribution object")
    unknown = set(dist) - set(RACE_NAMES)
    if unknown:
        raise ParseError(f"{path}: unknown race keys {sorted(unknown)}")
    for name, share in dist.items():
        if type(share) is not float:
            raise ParseError(f"{path}: race share {name!r} is not a number")
    try:
        return probability_vector([dist.get(name, 0.0) for name in RACE_NAMES], "race distribution")
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def parse_region_map(path) -> dict:
    """Read geoid -> region, in file order. Both fields are stripped; a
    geoid repeated after stripping is a ParseError naming its line."""
    raw, codes, _ = _read_rows(path, REGION_MAP_HEADER, 2)
    geoids, regions = (np.array([text.strip() for text in texts], dtype=object) for texts in raw)
    keys = np.unique(geoids, return_inverse=True)[1][codes[:, 0]]
    _raise_repeat(path, keys, lambda i: f"duplicate geoid {geoids[codes[i, 0]]!r}")
    return dict(zip(geoids[codes[:, 0]].tolist(), regions[codes[:, 1]].tolist()))


def parse_calibration_map(path) -> np.ndarray:
    """A calibration matrix CSV: a row per race, in order, of finite,
    nonnegative entries, columns summing to 1. Its rows are checked in file
    order once the file is read."""
    bad = {}
    raw, codes, matrix = _read_rows(path, CALIB_MAP_HEADER, 1, bad)
    for i, code in enumerate(codes[:N_RACES + 1, 0].tolist()):
        if i == N_RACES:
            raise ParseError(f"{path}:{i + 2}: more than {N_RACES} matrix rows")
        if raw[0][code] != RACE_NAMES[i]:  # a row of the wrong width has an empty label
            raise ParseError(f"{path}:{i + 2}: malformed matrix row")
        if i in bad:
            raise ParseError(f"{path}:{i + 2}: non-numeric matrix entry")
    if len(matrix) != N_RACES:
        raise ParseError(f"{path}: expected {N_RACES} matrix rows")
    if not np.all(np.isfinite(matrix)) or np.any(matrix < 0):
        raise ParseError(f"{path}: matrix entries must be finite and nonnegative")
    with np.errstate(over="ignore"):  # a column sum past the float range fails the test
        off = np.abs(matrix.sum(axis=0) - 1.0).max()
    if off > 1e-6:
        raise ParseError(f"{path}: matrix columns must sum to 1")
    return matrix


# writers -----------------------------------------------------------------


def _fields(column, texts):
    """Each entry of `column` as csv writes it inside a row of two or more
    fields; `texts` keeps each distinct entry's, so csv quotes each once."""
    # writerow returns what its file's write returns: here, the row's text
    row_text = csv.writer(SimpleNamespace(write=str)).writerow
    for x in set(column).difference(texts):
        texts[x] = row_text([x, ""])[:-3]
    return list(map(texts.__getitem__, column))


def _write_csv(path, header, parts):
    """The one CSV writer: `header`, then the rows of each part in turn;
    returns each part's row count.

    A part is (n, rows): `rows(slice(lo, hi))` gives the label columns of
    its rows lo:hi and None or a 2-D float array of their values. A row is
    its labels, then its values, and has two or more fields. The bytes are
    those of csv.writer: labels quoted by csv itself, floats as their repr,
    rows ending in CRLF. A value with no finite result is an empty field.
    Rows are asked for and built in blocks of _CSV_BLOCK, so memory stays
    bounded by the block, not the file.
    """
    sizes = []
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_fields(header, {})) + "\r\n")
        for n, rows in parts:
            sizes.append(n)
            _write_part(fh, len(header), n, rows)
            del rows  # the part, and with it its last block, goes before the next is asked for
    return sizes


def _write_part(fh, width, n, rows):
    """Write the n rows of one part of `_write_csv`, a block at a time."""
    texts = [{} for _ in range(width)]
    for lo in range(0, n, _CSV_BLOCK):
        labels, values = rows(slice(lo, min(lo + _CSV_BLOCK, n)))
        block = [_fields(column, known) for column, known in zip(labels, texts)]
        if values is not None:
            for column in values.T:
                text = list(map(repr, column.tolist()))
                for i in np.flatnonzero(~np.isfinite(column)).tolist():
                    text[i] = ""
                block.append(text)
        fh.write("\r\n".join(map(",".join, zip(*block))) + "\r\n")


def _columns(labels, values=None):
    """A part of `_write_csv` of whole label columns and None or an array."""
    return len(labels[0]), lambda rows: ([c[rows] for c in labels], None if values is None else values[rows])


def _cells(table, values):
    """A part of `_write_csv`: a table's cells' labels, then `values(rows)`."""
    axes = [np.array(axis, dtype=object) for axis in (table.labels.surnames, table.labels.geolocations)]
    index = table.cell_index
    return table.n_cells, lambda rows: ([axis[index[rows, j]] for j, axis in enumerate(axes)], values(rows))


def _write_json(path, payload):
    """The one JSON writer: strict (no NaN or inf), sorted keys, indent 2."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _factor_rows(probs, counts):
    keys = sorted(probs)
    p = np.array([probs[k] for k in keys], dtype=np.float64).reshape(len(keys), N_RACES)
    return keys, np.array([counts[k] for k in keys], dtype=np.float64), p


def write_surname_factors(path, probs, counts):
    keys, c, p = _factor_rows(probs, counts)
    _write_csv(path, SURNAME_FACTORS_HEADER, [_columns([keys], np.column_stack([c, p]))])


def write_geo_factors(path, probs, counts):
    # rows carry race counts: P(r|g) scaled back by the population column
    keys, c, p = _factor_rows(probs, counts)
    _write_csv(path, GEO_FACTORS_HEADER, [_columns([keys], np.column_stack([c, p * c[:, None]]))])


def write_voter_file(path, voters):
    """A voter file of `Voters`, or of a list of VoterRecord: perfbench/inputs.py
    writes records, and this branch goes with VoterRecord once it writes Voters."""
    if isinstance(voters, Voters):
        axes = (voters.labels.surnames, voters.labels.geolocations)
        columns = [
            voters.voter_id, *(np.array(axis, dtype=object)[voters.cells[:, j]] for j, axis in enumerate(axes)),
            np.array([*RACE_NAMES, ""], dtype=object)[voters.race],  # -1: the last, ""
            np.where(voters.active, "true", "false"),
        ]
    else:
        columns = [
            [rec.voter_id for rec in voters],
            [rec.surname for rec in voters],
            [rec.geolocation for rec in voters],
            ["" if rec.race is None else RACE_NAMES[rec.race] for rec in voters],
            ["true" if rec.active else "false" for rec in voters],
        ]
    _write_csv(path, VOTER_FILE_HEADER, [_columns(columns)])


def twinnable(table: ContingencyTable):
    """Whether parsing the CSV of `table`'s cells gives back its own arrays, so that a
    twin may stand in for it: some cells, no value that a cell total could take past
    the float range, and labels sorted, each in a cell, within csv's limit and clean."""
    s, g = table.labels.surnames, table.labels.geolocations
    return bool(table.n_cells and table.cell_values.max() <= np.finfo(float).max / N_RACES
                and compact_labels(table.labels, table.cell_index)[0] is table.labels
                and list(s) == sorted(s) == [x.strip().upper() for x in s]
                and list(g) == sorted(g) == [x.strip() for x in g]
                and max(map(len, s + g)) <= csv.field_size_limit())


def _write_cells(path, header, table, values, blake2b):
    """`_write_csv` of `table`'s cells and `values(rows)`; with `blake2b`, the
    digest of that CSV, its twin instead, the values a block at a time and each
    member dated as ZipInfo dates it, 1980-01-01, so that equal CSVs give equal twins."""
    if blake2b is None:
        return _write_csv(path, header, [_cells(table, values)])
    npy = dict(descr=np.dtype(float).str, fortran_order=False, shape=(table.n_cells, len(header) - 2))
    with zipfile.ZipFile(path, "w") as zf:
        def member(name, array=None):
            with zf.open(zipfile.ZipInfo(f"{name}.npy"), "w", force_zip64=True) as fh:
                if array is not None:
                    return np.lib.format.write_array(fh, array, allow_pickle=False)
                np.lib.format.write_array_header_1_0(fh, npy)  # the values' header, then their blocks
                for lo in range(0, table.n_cells, _CSV_BLOCK):
                    fh.write(values(slice(lo, lo + _CSV_BLOCK)).tobytes())
        for axis, labels in (("surnames", table.labels.surnames), ("geoids", table.labels.geolocations)):
            data = [label.encode() for label in labels]
            member(axis, np.frombuffer(b"".join(data), np.uint8))
            member(f"{axis}_offsets", np.cumsum([0, *map(len, data)], dtype=np.int64))
        member("index", table.cell_index)
        member("values")
        member("blake2b", np.frombuffer(bytes.fromhex(blake2b), np.uint8))


def write_table(path, table: ContingencyTable, blake2b=None):
    _write_cells(path, TABLE_HEADER, table, table.cell_values.__getitem__, blake2b)


def write_predictions(path, table: ContingencyTable, blake2b=None):
    """Each cell's total and race conditionals (all zero for an empty cell)."""
    values, sums = table.cell_values, table.cell_sums[:, None]

    def rows(block):
        v, s = values[block], sums[block]
        return np.column_stack([s, np.divide(v, s, out=np.zeros_like(v), where=s > 0)])

    _write_cells(path, PREDICTIONS_HEADER, table, rows, blake2b)


def write_theta(path, result):
    """theta.json of a RakingResult: theta_r (null where not finite), the
    Newton step count and the final margin gap."""
    theta_r = [t if np.isfinite(t) else None for t in result.theta_r.tolist()]
    _write_json(path, {
        "theta_r": dict(zip(RACE_NAMES, theta_r)),
        "iterations": result.iterations,
        "final_margin_gap": result.final_margin_gap,
    })


def write_theta_sg(path, result):
    """theta_sg.csv of a RakingResult: one log cell factor per raked cell."""
    _write_csv(path, THETA_SG_HEADER, [_cells(result.table, result.theta_sg[:, None].__getitem__)])


def write_race_margin(path, distribution):
    vec = np.asarray(distribution, dtype=np.float64)
    _write_json(path, {"race_distribution": dict(zip(RACE_NAMES, vec.tolist()))})


def write_calibration_map(path, matrix):
    _write_csv(path, CALIB_MAP_HEADER, [_columns([RACE_NAMES], np.asarray(matrix, dtype=np.float64))])


def write_rejects(path, rows):
    """Rejected rows, a list of (line, reason) pairs."""
    _write_csv(path, REJECTS_HEADER, [_columns([[line for line, _ in rows], [reason for _, reason in rows]])])


def write_subpop(path, report):
    """A SubpopReport: one row per (geolocation, race)."""
    n_g = len(report.geolocations)
    fields = (report.truth_counts, report.estimate_counts, report.abs_error, report.rel_error)
    _write_csv(path, SUBPOP_HEADER, [_columns(
        [np.repeat(np.array(report.geolocations, dtype=object), N_RACES), RACE_NAMES * n_g],
        np.column_stack([f.ravel() for f in fields]),
    )])


def write_cellwise(path, report):
    """A CellwiseReport: geolocation rows, then sorted regions, then overall."""
    regions = sorted(report.regions or {})
    levels = ["geolocation"] * len(report.geolocations) + ["region"] * len(regions)
    names = list(report.geolocations) + regions
    values = [np.column_stack([report.l1, report.l2, report.nll])]
    values += [np.array([report.regions[name] for name in regions]).reshape(-1, 3)]
    if report.overall is not None:
        levels.append("overall")
        names.append("")
        values.append(np.array([report.overall]))
    _write_csv(path, CELLWISE_HEADER, [_columns([levels, names], np.vstack(values))])


def write_calibration_curves(path, curves):
    """The outline of each CalibrationCurve (see `CalibrationCurve.outline`),
    origin first, one race after another. `curves` may be a generator: each
    curve is let go once its outline is taken, and each outline once it is
    written, before the next curve is asked for: one curve is held at a
    time.
    Returns the rows of each curve."""

    def parts():
        for curve in curves:
            race, outline = RACE_NAMES[curve.race], curve.outline()
            del curve
            yield _columns([[race] * len(outline)], outline)
            del outline  # written: let go before the next curve is asked for

    return _write_csv(path, CURVES_HEADER, parts())


def write_summary(path, subpop, cellwise, kuiper):
    """summary.json of an evaluation: the report summaries and `kuiper`,
    each race's Kuiper statistic by name."""
    _write_json(path, {
        "subpopulation": subpop.summary(),
        "cellwise": cellwise.summary(),
        "kuiper": kuiper,
        # the other category is computed like the rest but called out,
        # since reports often omit it
        "kuiper_includes_other": True,
    })


def write_manifest(path, manifest):
    _write_json(path, manifest)
