"""
canonical on-disk formats and ingestion.

Formats (UTF-8 CSV with fixed headers, plus one JSON file):

* surname factors:  surname,count,p_aian,p_api,p_black,p_hispanic,p_white,p_other
* geolocation factors:  geoid,count,aian,api,black,hispanic,white,other  (counts)
* voter file:  voter_id,surname,geoid,race,active  (race may be empty)
* labeled table:  surname,geoid,aian,api,black,hispanic,white,other  (counts)
* race margin JSON:  {"race_distribution": {"aian": ..., ..., "other": ...}}
* region map:  geoid,region

Parsers are streaming and single-pass; malformed rows are collected into a
reject report rather than aborting, except where a defect (duplicate keys,
excessive reject rate) would corrupt downstream results.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from .table import N_RACES, RACE_NAMES, ContingencyTable, RaceCategory

SURNAME_FACTORS_HEADER = [
    "surname", "count",
    "p_aian", "p_api", "p_black", "p_hispanic", "p_white", "p_other",
]
GEO_FACTORS_HEADER = ["geoid", "count"] + list(RACE_NAMES)
VOTER_FILE_HEADER = ["voter_id", "surname", "geoid", "race", "active"]
TABLE_HEADER = ["surname", "geoid"] + list(RACE_NAMES)
REGION_MAP_HEADER = ["geoid", "region"]

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

    def add(self, line: int, reason: str):
        self.rows.append((line, reason))

    def __len__(self):
        return len(self.rows)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["line", "reason"])
            for line, reason in self.rows:
                w.writerow([line, reason])


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


def _open_reader(path, header):
    fh = open(path, newline="", encoding="utf-8")
    reader = csv.reader(fh)
    try:
        got = next(reader)
    except StopIteration:
        fh.close()
        raise ParseError(f"{path}: empty file, expected header {','.join(header)}")
    if got != header:
        fh.close()
        raise ParseError(f"{path}: bad header {got!r}, expected {header!r}")
    return fh, reader


def parse_surname_factors(path):
    """Read per-surname race probabilities and surname populations.

    Probabilities are renormalized when their sum lies in [0.98, 1.02] and
    the row is rejected otherwise. Surnames are uppercased and stripped.
    More than 10% rejected rows is a hard error, as is a duplicate surname.

    Returns
    -------
    (probs, counts, rejects)
        probs: surname -> 6-vector P(r|s); counts: surname -> population;
        rejects: RejectReport of dropped rows.
    """
    probs: dict[str, np.ndarray] = {}
    counts: dict[str, float] = {}
    rejects = RejectReport()
    total_rows = 0
    fh, reader = _open_reader(path, SURNAME_FACTORS_HEADER)
    with fh:
        for line, row in enumerate(reader, start=2):
            total_rows += 1
            if len(row) != len(SURNAME_FACTORS_HEADER):
                rejects.add(line, f"expected {len(SURNAME_FACTORS_HEADER)} fields, got {len(row)}")
                continue
            surname = row[0].strip().upper()
            if not surname:
                rejects.add(line, "empty surname")
                continue
            try:
                count = float(row[1])
                vec = np.array([float(x) for x in row[2:]], dtype=np.float64)
            except ValueError:
                rejects.add(line, "non-numeric field")
                continue
            if count < 0 or np.any(vec < 0):
                rejects.add(line, "negative value")
                continue
            s = vec.sum()
            if not (PROB_SUM_WINDOW[0] <= s <= PROB_SUM_WINDOW[1]):
                rejects.add(line, f"probabilities sum to {s:.6g}")
                continue
            if surname in probs:
                raise ParseError(f"{path}:{line}: duplicate surname {surname!r}")
            probs[surname] = vec / s
            counts[surname] = count
    if total_rows == 0:
        raise ParseError(f"{path}: no data rows")
    if len(rejects) > MAX_REJECT_FRACTION * total_rows:
        raise ParseError(
            f"{path}: {len(rejects)} of {total_rows} rows rejected "
            f"(limit {MAX_REJECT_FRACTION:.0%})"
        )
    return probs, counts, rejects


def parse_geo_factors(path):
    """Read per-geolocation race counts.

    Returns (probs, counts, rejects) where probs maps geoid -> P(r|g)
    computed from the race counts, and counts maps geoid -> the row's
    population column. All-zero rows are rejected with their geoid; a
    duplicate geoid is a hard error.
    """
    probs: dict[str, np.ndarray] = {}
    counts: dict[str, float] = {}
    rejects = RejectReport()
    fh, reader = _open_reader(path, GEO_FACTORS_HEADER)
    with fh:
        for line, row in enumerate(reader, start=2):
            if len(row) != len(GEO_FACTORS_HEADER):
                rejects.add(line, f"expected {len(GEO_FACTORS_HEADER)} fields, got {len(row)}")
                continue
            geoid = row[0].strip()
            if not geoid:
                rejects.add(line, "empty geoid")
                continue
            if geoid in probs:
                raise ParseError(f"{path}:{line}: duplicate geolocation {geoid!r}")
            try:
                count = float(row[1])
                vec = np.array([float(x) for x in row[2:]], dtype=np.float64)
            except ValueError:
                rejects.add(line, "non-numeric field")
                continue
            if count < 0 or np.any(vec < 0):
                rejects.add(line, "negative value")
                continue
            row_total = vec.sum()
            if row_total <= 0:
                rejects.add(line, f"zero-total row for geoid {geoid}")
                continue
            probs[geoid] = vec / row_total
            counts[geoid] = count
    if not probs:
        raise ParseError(f"{path}: no usable rows")
    return probs, counts, rejects


def parse_voter_file(path, mapping: CategoryMapping):
    """Read voter records, applying a source-specific race mapping.

    Inactive records and records with an unanswered race are kept but
    flagged; excluding them is a separate, explicit step (see
    `aggregate_voters`). Duplicate voter ids are an error.
    """
    records: list[VoterRecord] = []
    seen: set[str] = set()
    fh, reader = _open_reader(path, VOTER_FILE_HEADER)
    with fh:
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
    (ContingencyTable or None, dict)
        The labeled table (None when nothing is labeled) and the
        occupancy map (surname, geolocation) -> count.
    """
    cells: dict[tuple[str, str], np.ndarray] = {}
    occupancy: dict[tuple[str, str], float] = {}
    for rec in records:
        if require_race and not (rec.active and rec.race is not None):
            continue
        key = (rec.surname, rec.geolocation)
        occupancy[key] = occupancy.get(key, 0.0) + 1.0
        if rec.race is not None:
            vec = cells.get(key)
            if vec is None:
                vec = np.zeros(N_RACES)
                cells[key] = vec
            vec[rec.race] += 1.0
    if not occupancy:
        raise ValueError("no records to aggregate")
    table = ContingencyTable.from_label_cells(cells) if cells else None
    return table, occupancy


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


# writers -----------------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def write_surname_factors(path, probs, counts):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(SURNAME_FACTORS_HEADER)
        for surname in sorted(probs):
            w.writerow([surname, _fmt(counts[surname])] + [_fmt(p) for p in probs[surname]])


def write_geo_factors(path, probs, counts):
    # rows carry race counts: P(r|g) scaled back by the population column
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(GEO_FACTORS_HEADER)
        for geoid in sorted(probs):
            race_counts = probs[geoid] * counts[geoid]
            w.writerow([geoid, _fmt(counts[geoid])] + [_fmt(c) for c in race_counts])


def write_voter_file(path, records):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(VOTER_FILE_HEADER)
        for rec in records:
            w.writerow(
                [
                    rec.voter_id,
                    rec.surname,
                    rec.geolocation,
                    "" if rec.race is None else RACE_NAMES[rec.race],
                    "true" if rec.active else "false",
                ]
            )


def write_table(path, table: ContingencyTable):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(TABLE_HEADER)
        for (s, g), vec in table.items():
            w.writerow([s, g] + [_fmt(x) for x in vec])


def parse_table(path) -> ContingencyTable:
    """Read a labeled table CSV back into a ContingencyTable.

    Surnames are uppercased, matching the other canonical formats.
    """
    cells: dict[tuple[str, str], np.ndarray] = {}
    fh, reader = _open_reader(path, TABLE_HEADER)
    with fh:
        for line, row in enumerate(reader, start=2):
            if len(row) != len(TABLE_HEADER):
                raise ParseError(f"{path}:{line}: expected {len(TABLE_HEADER)} fields")
            key = (row[0].strip().upper(), row[1].strip())
            if key in cells:
                raise ParseError(f"{path}:{line}: duplicate cell {key}")
            try:
                vec = np.array([float(x) for x in row[2:]], dtype=np.float64)
            except ValueError:
                raise ParseError(f"{path}:{line}: non-numeric count")
            if np.any(vec < 0):
                raise ParseError(f"{path}:{line}: negative count")
            cells[key] = vec
    if not cells:
        raise ParseError(f"{path}: no data rows")
    return ContingencyTable.from_label_cells(cells)


def write_race_margin(path, distribution):
    vec = np.asarray(distribution, dtype=np.float64)
    payload = {"race_distribution": {RACE_NAMES[r]: float(vec[r]) for r in range(N_RACES)}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    total = vec.sum()
    if total <= 0:
        raise ParseError(f"{path}: race distribution sums to zero")
    if abs(total - 1.0) > 1e-6:
        raise ParseError(f"{path}: race distribution sums to {total!r}")
    return vec


def parse_region_map(path) -> dict:
    regions: dict[str, str] = {}
    fh, reader = _open_reader(path, REGION_MAP_HEADER)
    with fh:
        for line, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise ParseError(f"{path}:{line}: expected 2 fields")
            if row[0] in regions:
                raise ParseError(f"{path}:{line}: duplicate geoid {row[0]!r}")
            regions[row[0]] = row[1]
    return regions
