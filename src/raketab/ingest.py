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

Cell files (tables, predictions, raked predictions) are read by one
np.loadtxt pass with csv quoting: a blank line, a row with too few or too
many fields, and a number that is not plain decimal text (float() reads
"1_000" and non-ASCII digits; this reader does not) are input errors naming
the file and line. Factor files are read by a csv loop that only splits
rows and converts numbers with float(), then checked as arrays: malformed
rows go to a reject report, except where a defect (a repeated label, an
excessive reject rate) would corrupt results. Other parsers go row by row.
A row that csv cannot split (a field over its size limit) is an input error
naming the file and line.
"""

from __future__ import annotations

import csv
import json
import re
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Mapping, Optional

import numpy as np

from .table import N_RACES, RACE_NAMES, ContingencyTable, MarginSet, RaceCategory
from .table import compact_labels, index_cells

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

# rows per block of the CSV writer
_CSV_BLOCK = 4096

# a row whose probabilities sum inside this window is renormalized;
# anything further off is rejected
PROB_SUM_WINDOW = (0.98, 1.02)
MAX_REJECT_FRACTION = 0.10


class ParseError(ValueError):
    """A file-level defect that cannot be skipped row by row."""


@dataclass
class RejectReport:
    """Rows dropped during parsing, with 1-based line numbers."""

    rows: list = field(default_factory=list)

    def __len__(self):
        return len(self.rows)


@dataclass(frozen=True)
class VoterRecord:
    voter_id: str
    surname: str
    geolocation: str
    race: Optional[RaceCategory]
    active: bool

    def __post_init__(self):
        if not self.surname or not self.geolocation:
            raise ValueError("surname and geolocation must be nonempty")


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
    """Open a CSV file and check its header; yields (file, csv reader) at the
    first data row. A csv.Error inside the block, such as a field over csv's
    size limit, becomes a ParseError naming the file and the line read last."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            got = next(reader, None)
            if got is None:
                raise ParseError(f"{path}: empty file, expected header {','.join(header)}")
            if got != header:
                raise ParseError(f"{path}: bad header {got!r}, expected {header!r}")
            yield fh, reader
        except csv.Error as exc:
            raise ParseError(f"{path}:{reader.line_num}: {exc}") from None


def _raise_bad_row(path, header, bad=None):
    """Raise the ParseError naming the first row of a cell file that is
    blank, has the wrong number of fields, or is data row `bad` (0-based),
    which holds a value np.loadtxt could not convert. Values are not read."""
    with _open_reader(path, header) as (_, reader):
        for i, row in enumerate(reader):
            if len(row) != len(header):
                raise ParseError(f"{path}:{i + 2}: expected {len(header)} fields, got {len(row)}")
            if i == bad:
                raise ParseError(f"{path}:{i + 2}: non-numeric value")


def _line_ends_meet(path):
    """Whether two line ends meet other than as one CRLF: a blank line, which
    np.loadtxt skips, or a line break in a quoted field (the scan decides)."""
    text = np.fromfile(path, dtype=np.uint8)
    ends = np.flatnonzero((text == 10) | (text == 13))
    first = ends[:-1][np.diff(ends) == 1]
    return bool(np.any((text[first] != 13) | (text[first + 1] != 10)))


def _read_cells(path, header):
    """Read a cell file (surname, geoid, numbers...) onto a sorted cell index.

    Surnames are uppercased and stripped, geoids stripped. Besides the row
    errors of the module docstring, a non-finite or negative number or a
    repeated cell is a ParseError naming the file and line. Returns
    (labels, index, values, lines): the numbers of each cell in index
    order, and each cell's line.
    """
    dtype = [("s", object), ("g", object), ("v", np.float64, (len(header) - 2,))]
    with _open_reader(path, header) as (fh, _), warnings.catch_warnings():
        # the rows after the header, split into lines as csv splits them;
        # a file with no rows is named below, not warned about
        warnings.simplefilter("ignore")
        try:
            cells = np.loadtxt(fh, dtype=dtype, delimiter=",", quotechar='"', comments=None, ndmin=1)
        except ValueError as exc:
            # numpy names the 0-based data row of a value it cannot convert
            bad = re.search(r"at row (\d+), column", str(exc))
            _raise_bad_row(path, header, bad and int(bad[1]))
            raise ParseError(f"{path}: {exc}") from None
    if _line_ends_meet(path):
        _raise_bad_row(path, header)
    if not len(cells):
        raise ParseError(f"{path}: no data rows")
    surnames = [s.strip().upper() for s in cells["s"].tolist()]
    geoids = [g.strip() for g in cells["g"].tolist()]
    values, n = cells["v"], len(cells)
    for bad, what in (
        (~np.isfinite(values).all(axis=1), "non-finite value"),
        ((values < 0).any(axis=1), "negative value"),
    ):
        if np.any(bad):
            raise ParseError(f"{path}:{np.argmax(bad) + 2}: {what}")
    labels, index, cell_of_row = index_cells(surnames, geoids)
    if len(index) < n:
        first = np.zeros(n, dtype=bool)
        first[np.unique(cell_of_row, return_index=True)[1]] = True
        dup = int(np.argmin(first))
        raise ParseError(f"{path}:{dup + 2}: duplicate cell {(surnames[dup], geoids[dup])}")
    out = np.empty(values.shape)
    out[cell_of_row] = values
    lines = np.empty(n, dtype=np.int64)
    lines[cell_of_row] = np.arange(2, n + 2)
    return labels, index, out, lines


def _parse_factors(path, header, kind, clean_label, sum_ok, sum_reason):
    """The factor parsers: (labels, values, rejects), the accepted labels in
    file order, their (n, 7) counts and P(r|label), and the RejectReport.

    The row loop rejects a short or long row, an empty label or a
    non-numeric field. Vectorised rules then reject, in this order, a
    non-finite field, a negative value, or a sum s of the race entries that
    fails `sum_ok(s)` (the reason is `sum_reason(label, s)`); accepted rows
    are divided by s. A label repeating that of an earlier accepted row, no
    data rows or more than 10% rejected rows is a ParseError.
    """
    lines, labels, numbers, non_numeric, rejects = [], [], [], [], []
    with _open_reader(path, header) as (_, reader):
        for line, row in enumerate(reader, start=2):
            if len(row) != len(header):
                rejects.append((line, f"expected {len(header)} fields, got {len(row)}"))
                continue
            label = clean_label(row[0])
            if not label:
                rejects.append((line, f"empty {header[0]}"))
                continue
            try:
                numbers.append(list(map(float, row[1:])))
            except ValueError:
                numbers.append([np.nan] * (len(header) - 1))
                non_numeric.append(len(lines))
            lines.append(line)
            labels.append(label)
    values = np.array(numbers, dtype=np.float64).reshape(len(lines), len(header) - 1)
    # the rules below reject a row whose sum overflows or mixes inf and -inf
    with np.errstate(over="ignore", invalid="ignore"):
        sums = values[:, 1:].sum(axis=1)
    reasons = np.empty(len(lines), dtype=object)
    for i in np.flatnonzero(~sum_ok(sums)).tolist():
        reasons[i] = sum_reason(labels[i], sums[i])
    # a later rule overwrites an earlier one: a row's reason is the first it breaks
    reasons[(values < 0).any(axis=1)] = "negative value"
    reasons[~np.isfinite(values).all(axis=1)] = "non-finite field"
    reasons[non_numeric] = "non-numeric field"  # their numbers are NaN
    accepted = np.equal(reasons, None)

    seen = set()
    for line, label, ok in zip(lines, labels, accepted.tolist()):
        if label in seen:
            raise ParseError(f"{path}:{line}: duplicate {kind} {label!r}")
        if ok:
            seen.add(label)
    total_rows = len(lines) + len(rejects)
    rejects = sorted(rejects + list(zip(np.array(lines)[~accepted].tolist(), reasons[~accepted])))
    if total_rows == 0:
        raise ParseError(f"{path}: no data rows")
    if len(rejects) > MAX_REJECT_FRACTION * total_rows:
        raise ParseError(
            f"{path}: {len(rejects)} of {total_rows} rows rejected "
            f"(limit {MAX_REJECT_FRACTION:.0%})"
        )
    values = values[accepted]
    values[:, 1:] /= sums[accepted, None]
    return np.array(labels, dtype=object)[accepted].tolist(), values, RejectReport(rejects)


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


def parse_voter_file(path, mapping: CategoryMapping):
    """Read voter records, applying a source-specific race mapping.

    Inactive records and records with an unanswered race are kept but
    flagged; excluding them is a separate, explicit step (see
    `aggregate_voters`). Duplicate voter ids are an error.
    """
    records: list[VoterRecord] = []
    seen: set[str] = set()
    with _open_reader(path, VOTER_FILE_HEADER) as (_, reader):
        for line, row in enumerate(reader, start=2):
            if len(row) != len(VOTER_FILE_HEADER):
                raise ParseError(
                    f"{path}:{line}: expected {len(VOTER_FILE_HEADER)} fields, got {len(row)}"
                )
            voter_id, surname, geoid, race_str, active_str = row
            if voter_id in seen:
                raise ParseError(f"{path}:{line}: duplicate voter_id {voter_id!r}")
            seen.add(voter_id)
            active_norm = active_str.strip().lower()
            if active_norm in ("true", "1", "yes"):
                active = True
            elif active_norm in ("false", "0", "no"):
                active = False
            else:
                raise ParseError(f"{path}:{line}: bad active flag {active_str!r}")
            race = mapping.map_value(race_str)
            records.append(
                VoterRecord(
                    voter_id=voter_id,
                    surname=surname.strip().upper(),
                    geolocation=geoid.strip(),
                    race=race,
                    active=active,
                )
            )
    return records


# CPS-style keys are "<origin>:<race combination>"; combinations join the
# race tokens below with "+"
CPS_ORIGINS = ("hispanic", "non-hispanic")
CPS_RACE_TOKENS = ("white", "black", "aian", "asian", "hpi", "other")
_CPS_SINGLE = {
    "white": RaceCategory.WHITE,
    "black": RaceCategory.BLACK,
    "aian": RaceCategory.AIAN,
    "asian": RaceCategory.API,
    "hpi": RaceCategory.API,
    "other": RaceCategory.OTHER,
}


def map_cps_categories(histogram: Mapping[str, float]) -> np.ndarray:
    """Collapse a detailed survey race/origin histogram to the six counts.

    Rules, applied in order per key: any Hispanic origin scores Hispanic;
    a single race maps directly (Asian and Hawaiian/Pacific-Islander both
    to API); a multi-race combination containing black scores Black; a
    remaining combination containing asian or hpi scores API; anything
    left scores Other. Unknown keys raise.
    """
    out = np.zeros(N_RACES)
    for key, weight in histogram.items():
        if weight < 0:
            raise ValueError(f"negative weight for {key!r}")
        parts = key.strip().lower().split(":")
        if len(parts) != 2 or parts[0] not in CPS_ORIGINS:
            raise KeyError(f"unknown survey category {key!r}")
        origin, combo = parts
        tokens = [t for t in combo.split("+") if t]
        if not tokens or any(t not in CPS_RACE_TOKENS for t in tokens):
            raise KeyError(f"unknown survey category {key!r}")
        if origin == "hispanic":
            cat = RaceCategory.HISPANIC
        elif len(tokens) == 1:
            cat = _CPS_SINGLE[tokens[0]]
        elif "black" in tokens:
            cat = RaceCategory.BLACK
        elif "asian" in tokens or "hpi" in tokens:
            cat = RaceCategory.API
        else:
            cat = RaceCategory.OTHER
        out[cat] += weight
    return out


def aggregate_voters(records, require_race: bool):
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
    records = [r for r in records if not require_race or (r.active and r.race is not None)]
    if not records:
        raise ValueError("no records to aggregate")
    surnames, geoids = [r.surname for r in records], [r.geolocation for r in records]
    labels, index, rows = index_cells(surnames, geoids)
    occupancy = MarginSet(None, labels, index, np.bincount(rows, minlength=len(index)))
    races = np.array([-1 if r.race is None else int(r.race) for r in records])
    labeled = races >= 0
    if not labeled.any():
        return None, occupancy
    codes = rows[labeled] * N_RACES + races[labeled]
    values = np.bincount(codes, minlength=len(index) * N_RACES).reshape(-1, N_RACES)
    keep = values.sum(axis=1) > 0
    return ContingencyTable(*compact_labels(labels, index[keep]), values[keep]), occupancy


def subsample_to_margin(records, target, seed: int):
    """Subsample labeled records so their race distribution matches a target.

    The sample size is the largest N such that every race with a positive
    target share has enough records for its quota; per-race quotas come
    from largest-remainder rounding of N * target, and records are drawn
    without replacement with a seeded generator. The returned list is
    shuffled. Deterministic for a fixed seed.
    """
    target = np.asarray(target, dtype=np.float64)
    if target.shape != (N_RACES,) or np.any(target < 0) or abs(target.sum() - 1.0) > 1e-6:
        raise ValueError("target must be a probability 6-vector")
    by_race: dict[int, list] = {r: [] for r in range(N_RACES)}
    for rec in records:
        if rec.race is None:
            raise ValueError(f"record {rec.voter_id!r} has no race label")
        by_race[int(rec.race)].append(rec)
    counts = np.array([len(by_race[r]) for r in range(N_RACES)], dtype=np.float64)
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
    out = []
    for r in range(N_RACES):
        q = int(quotas[r])
        if q == 0:
            continue
        pool = by_race[r]
        chosen = rng.choice(len(pool), size=q, replace=False)
        out.extend(pool[i] for i in chosen)
    perm = rng.permutation(len(out))
    return [out[i] for i in perm]


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


def parse_table(path) -> ContingencyTable:
    """Read a labeled table CSV back into a ContingencyTable.

    Surnames are uppercased, matching the other canonical formats.
    """
    labels, index, values, _ = _read_cells(path, TABLE_HEADER)
    return ContingencyTable(labels, index, values)


def parse_predictions(path):
    """A predictions or raked CSV on a sorted cell index: (labels, index,
    counts, conds).

    Each row's conditionals must sum to 1 (within 1e-6), or be all zero
    when its count is zero.
    """
    labels, index, values, lines = _read_cells(path, PREDICTIONS_HEADER)
    counts, conds = values[:, 0], values[:, 1:]
    sums = conds.sum(axis=1)
    bad = ~((np.abs(sums - 1.0) <= 1e-6) | ((counts == 0) & (sums == 0)))
    if np.any(bad):
        line, row = min(zip(lines[bad], np.nonzero(bad)[0]))
        raise ParseError(f"{path}:{line}: conditionals sum to {float(sums[row])!r}, expected 1")
    return labels, index, counts, conds


def parse_race_margin(path) -> np.ndarray:
    """Read a race-distribution JSON file into a probability 6-vector."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    dist = payload.get("race_distribution")
    if not isinstance(dist, dict):
        raise ParseError(f"{path}: missing race_distribution object")
    unknown = set(dist) - set(RACE_NAMES)
    if unknown:
        raise ParseError(f"{path}: unknown race keys {sorted(unknown)}")
    vec = np.array([float(dist.get(name, 0.0)) for name in RACE_NAMES])
    if not np.all(np.isfinite(vec)):
        raise ParseError(f"{path}: non-finite race share")
    if np.any(vec < 0):
        raise ParseError(f"{path}: negative race share")
    with np.errstate(over="ignore"):  # a sum past the float range fails the test
        total = float(vec.sum())
    if total <= 0:
        raise ParseError(f"{path}: race distribution sums to zero")
    if abs(total - 1.0) > 1e-6:
        raise ParseError(f"{path}: race distribution sums to {total!r}")
    return vec


def parse_region_map(path) -> dict:
    """Read geoid -> region. Both fields are stripped; a geoid repeated
    after stripping is a ParseError."""
    regions: dict[str, str] = {}
    with _open_reader(path, REGION_MAP_HEADER) as (_, reader):
        for line, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise ParseError(f"{path}:{line}: expected 2 fields")
            geoid, region = row[0].strip(), row[1].strip()
            if geoid in regions:
                raise ParseError(f"{path}:{line}: duplicate geoid {geoid!r}")
            regions[geoid] = region
    return regions


def parse_calibration_map(path) -> np.ndarray:
    """A calibration matrix CSV: finite, nonnegative, columns summing to 1."""
    rows = []
    with _open_reader(path, CALIB_MAP_HEADER) as (_, reader):
        for line, row in enumerate(reader, start=2):
            if len(row) != len(CALIB_MAP_HEADER) or row[0] != RACE_NAMES[len(rows)]:
                raise ParseError(f"{path}:{line}: malformed matrix row")
            rows.append([float(x) for x in row[1:]])
    if len(rows) != N_RACES:
        raise ParseError(f"{path}: expected {N_RACES} matrix rows")
    matrix = np.array(rows)
    if not np.all(np.isfinite(matrix)) or np.any(matrix < 0):
        raise ParseError(f"{path}: matrix entries must be finite and nonnegative")
    with np.errstate(over="ignore"):  # a column sum past the float range fails the test
        off = np.abs(matrix.sum(axis=0) - 1.0).max()
    if off > 1e-6:
        raise ParseError(f"{path}: matrix columns must sum to 1")
    return matrix


# writers -----------------------------------------------------------------


def _fields(column):
    """Each entry of `column` as csv writes it inside a row of two or more
    fields: csv quotes each distinct entry once."""
    # writerow returns what its file's write returns: here, the row's text
    row_text = csv.writer(SimpleNamespace(write=str)).writerow
    text = {x: row_text([x, ""])[:-3] for x in set(column)}
    return [text[x] for x in column]


def _write_csv(path, header, labels, values=None):
    """The one CSV writer: `header`, then one row per entry.

    A row is the entry of each column in `labels`, then the row of the
    2-D float array `values`, and has two or more fields. The bytes are
    those of csv.writer: labels quoted by csv itself, floats as their
    repr, rows ending in CRLF. A value with no finite result is an empty
    field. Rows are built column by column in blocks, so memory stays
    bounded by the block, not the file.
    """
    n = len(labels[0])
    columns = [_fields(column) for column in labels]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_fields(header)) + "\r\n")
        for lo in range(0, n, _CSV_BLOCK):
            hi = min(lo + _CSV_BLOCK, n)
            block = [column[lo:hi] for column in columns]
            if values is not None:
                for column in values[lo:hi].T:
                    text = list(map(repr, column.tolist()))
                    for i in np.flatnonzero(~np.isfinite(column)).tolist():
                        text[i] = ""
                    block.append(text)
            fh.write("\r\n".join(map(",".join, zip(*block))) + "\r\n")


def _write_json(path, payload):
    """The one JSON writer: strict (no NaN or inf), sorted keys, indent 2."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _cell_labels(table):
    """The surname and geoid columns of a table's cells."""
    labels, index = table.labels, table.cell_index
    return [
        np.array(labels.surnames, dtype=object)[index[:, 0]],
        np.array(labels.geolocations, dtype=object)[index[:, 1]],
    ]


def _factor_rows(probs, counts):
    keys = sorted(probs)
    p = np.array([probs[k] for k in keys], dtype=np.float64).reshape(len(keys), N_RACES)
    return keys, np.array([counts[k] for k in keys], dtype=np.float64), p


def write_surname_factors(path, probs, counts):
    keys, c, p = _factor_rows(probs, counts)
    _write_csv(path, SURNAME_FACTORS_HEADER, [keys], np.column_stack([c, p]))


def write_geo_factors(path, probs, counts):
    # rows carry race counts: P(r|g) scaled back by the population column
    keys, c, p = _factor_rows(probs, counts)
    _write_csv(path, GEO_FACTORS_HEADER, [keys], np.column_stack([c, p * c[:, None]]))


def write_voter_file(path, records):
    _write_csv(path, VOTER_FILE_HEADER, [
        [rec.voter_id for rec in records],
        [rec.surname for rec in records],
        [rec.geolocation for rec in records],
        ["" if rec.race is None else RACE_NAMES[rec.race] for rec in records],
        ["true" if rec.active else "false" for rec in records],
    ])


def write_table(path, table: ContingencyTable):
    _write_csv(path, TABLE_HEADER, _cell_labels(table), table.cell_values)


def write_predictions(path, table: ContingencyTable):
    """Each cell's total and race conditionals (all zero for an empty cell)."""
    values = np.column_stack([table.cell_sums, table.conditionals()[1]])
    _write_csv(path, PREDICTIONS_HEADER, _cell_labels(table), values)


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
    _write_csv(path, THETA_SG_HEADER, _cell_labels(result.table), result.theta_sg[:, None])


def write_race_margin(path, distribution):
    vec = np.asarray(distribution, dtype=np.float64)
    _write_json(path, {"race_distribution": dict(zip(RACE_NAMES, vec.tolist()))})


def write_calibration_map(path, matrix):
    _write_csv(path, CALIB_MAP_HEADER, [RACE_NAMES], np.asarray(matrix, dtype=np.float64))


def write_rejects(path, report: RejectReport):
    rows = report.rows
    _write_csv(path, REJECTS_HEADER, [[line for line, _ in rows], [reason for _, reason in rows]])


def write_subpop(path, report):
    """A SubpopReport: one row per (geolocation, race)."""
    n_g = len(report.geolocations)
    fields = (report.truth_counts, report.estimate_counts, report.abs_error, report.rel_error)
    _write_csv(
        path, SUBPOP_HEADER,
        [np.repeat(np.array(report.geolocations, dtype=object), N_RACES), RACE_NAMES * n_g],
        np.column_stack([f.ravel() for f in fields]),
    )


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
    _write_csv(path, CELLWISE_HEADER, [levels, names], np.vstack(values))


def write_calibration_curves(path, curves):
    """The outline of each CalibrationCurve (see `CalibrationCurve.outline`),
    origin first, one race after another. Returns the rows of each curve."""
    outlines = [c.outline() for c in curves]
    _write_csv(
        path, CURVES_HEADER,
        [[RACE_NAMES[c.race] for c, o in zip(curves, outlines) for _ in range(len(o))]],
        np.vstack(outlines),
    )
    return [len(o) for o in outlines]


def write_summary(path, subpop, cellwise, curves):
    """summary.json of an evaluation: the report summaries and the Kuiper
    statistic of each curve."""
    _write_json(path, {
        "subpopulation": subpop.summary(),
        "cellwise": cellwise.summary(),
        "kuiper": {RACE_NAMES[c.race]: c.kuiper for c in curves},
        # the other category is computed like the rest but called out,
        # since reports often omit it
        "kuiper_includes_other": True,
    })


def write_manifest(path, manifest):
    _write_json(path, manifest)
