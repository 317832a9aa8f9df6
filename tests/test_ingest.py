import csv
import gc
import io
import json
import math
import re
import tempfile
import time
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import raketab
from raketab import RACE_NAMES, ContingencyTable, RaceCategory, SynthConfig, generate, ingest
from raketab import MarginSet, fit_factors, rake, weighted_counts
from raketab import calibration_curve, cellwise_report, cli, subpop_report
from raketab import CalibrationSolveError, solve_calibration_map, voter_adjustment
from raketab.table import N_RACES, index_cells
from raketab.ingest import (
    CANONICAL_MAPPING,
    FLORIDA_MAPPING,
    NORTH_CAROLINA_MAPPING,
    ParseError,
    VoterRecord,
    Voters,
    aggregate_voters,
    occupancy,
    parse_calibration_map,
    parse_geo_factors,
    parse_predictions,
    parse_race_margin,
    parse_region_map,
    parse_surname_factors,
    parse_table,
    parse_voter_file,
    subsample_to_margin,
    write_race_margin,
    write_surname_factors,
    write_calibration_map,
    write_geo_factors,
    write_table,
    write_voter_file,
    _largest_remainder,
)

from conftest import one_cell_factors, race6


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestSurnameFactors:
    HEADER = "surname,count,p_aian,p_api,p_black,p_hispanic,p_white,p_other"

    def test_basic_row(self, tmp_path):
        f = tmp_path / "s.csv"
        write_lines(f, [self.HEADER, "SMITH,100,0.0,0.0,0.2,0.0,0.8,0.0"])
        labels, values, rejects = parse_surname_factors(f)
        assert labels == ["SMITH"]
        np.testing.assert_allclose(values[0, 1:], race6(0, 0, 0.2, 0, 0.8))
        assert values[0, 0] == 100.0
        assert len(rejects) == 0

    def test_renormalizes_near_one(self, tmp_path):
        f = tmp_path / "s.csv"
        write_lines(f, [self.HEADER, "lee,10,0.0,0.49,0.0,0.0,0.5,0.0"])
        labels, values, rejects = parse_surname_factors(f)
        assert labels == ["LEE"]
        assert values[0, 1:].sum() == pytest.approx(1.0, abs=1e-12)
        assert len(rejects) == 0

    def test_rejects_far_from_one(self, tmp_path):
        f = tmp_path / "s.csv"
        write_lines(
            f,
            [
                self.HEADER,
                "GOOD,5,0,0,0,0,1,0",
                "BAD,5,0.2,0.3,0,0,0,0",
                "ALSOGOOD,2,1,0,0,0,0,0",
                "WORSE,1,x,0,0,0,0,0",
                "G3,1,0,0,0,0,0,1",
                "G4,1,0,1,0,0,0,0",
                "G5,1,0,1,0,0,0,0",
                "G6,1,0,1,0,0,0,0",
                "G7,1,0,1,0,0,0,0",
                "G8,1,0,1,0,0,0,0",
                "G9,1,0,1,0,0,0,0",
                "G10,1,0,1,0,0,0,0",
                "G11,1,0,1,0,0,0,0",
                "G12,1,0,1,0,0,0,0",
                "G13,1,0,1,0,0,0,0",
                "G14,1,0,1,0,0,0,0",
                "G15,1,0,1,0,0,0,0",
                "G16,1,0,1,0,0,0,0",
                "G17,1,0,1,0,0,0,0",
                "G18,1,0,1,0,0,0,0",
                "G19,1,0,1,0,0,0,0",
                "G20,1,0,1,0,0,0,0",
            ],
        )
        labels, _, rejects = parse_surname_factors(f)
        assert "BAD" not in labels and "WORSE" not in labels
        reasons = {line: reason for line, reason in rejects}
        assert 3 in reasons and "sum" in reasons[3]
        assert 5 in reasons and "non-numeric" in reasons[5]

    @pytest.mark.parametrize("row", [
        "SMITH,1_0,0.5,0.5,0,0,0,0", "SMITH,\u0661,0.5,0.5,0,0,0,0", "SMITH,10,0.5,0.5,0,0,0,0\u00a0",
    ])
    def test_number_that_is_not_plain_decimal_rejected(self, tmp_path, row):
        # float() reads "1_0" as 10 and the Arabic-Indic digit one as 1
        f = tmp_path / "s.csv"
        good = [f"G{i},1,0,1,0,0,0,0" for i in range(9)]
        write_lines(f, [self.HEADER, row, *good])
        labels, _, rejects = parse_surname_factors(f)
        assert "SMITH" not in labels and len(labels) == 9
        assert rejects == [(2, "non-numeric field")]
        # the reject counts toward the 10% limit
        write_lines(f, [self.HEADER, row, *good[:8]])
        with pytest.raises(ParseError, match=r"1 of 9 rows rejected \(limit 10%\)"):
            parse_surname_factors(f)

    def test_excessive_rejects_hard_error(self, tmp_path):
        f = tmp_path / "s.csv"
        write_lines(f, [self.HEADER, "A,1,0.5,0,0,0,0,0", "B,1,0,1,0,0,0,0"])
        with pytest.raises(ParseError, match="rejected"):
            parse_surname_factors(f)

    def test_duplicate_surname_hard_error(self, tmp_path):
        f = tmp_path / "s.csv"
        write_lines(f, [self.HEADER, "A,1,0,1,0,0,0,0", "a,2,0,1,0,0,0,0"])
        with pytest.raises(ParseError, match="duplicate surname"):
            parse_surname_factors(f)

    def test_bad_header(self, tmp_path):
        f = tmp_path / "s.csv"
        write_lines(f, ["surname,count", "A,1"])
        with pytest.raises(ParseError, match="bad header"):
            parse_surname_factors(f)


class TestGeoFactors:
    HEADER = "geoid,count,aian,api,black,hispanic,white,other"

    def test_basic_row(self, tmp_path):
        f = tmp_path / "g.csv"
        write_lines(f, [self.HEADER, "12086,100,1,5,20,60,12,2"])
        labels, values, rejects = parse_geo_factors(f)
        assert labels == ["12086"]
        assert values[0, 1 + RaceCategory.HISPANIC] == pytest.approx(0.6)
        assert values[0, 0] == 100.0
        assert len(rejects) == 0

    def test_zero_total_rejected(self, tmp_path):
        f = tmp_path / "g.csv"
        # nine good rows keep the one reject within the 10% cap
        good = [f"{g},4,0,0,1,0,3,0" for g in range(222, 231)]
        write_lines(f, [self.HEADER, "111,5,0,0,0,0,0,0"] + good)
        labels, _, rejects = parse_geo_factors(f)
        assert "111" not in labels
        assert any("111" in reason for _, reason in rejects)

    def test_excessive_rejects_hard_error(self, tmp_path):
        f = tmp_path / "g.csv"
        good = [f"{g},4,0,0,1,0,3,0" for g in range(222, 230)]
        bad = ["111,5,0,0,0,0,0,0", "112,5,nan,0,0,0,0,1"]
        write_lines(f, [self.HEADER] + bad + good)
        with pytest.raises(ParseError, match="2 of 10 rows rejected"):
            parse_geo_factors(f)

    def test_reasons_counted_by_rule(self, tmp_path):
        # the rows one rule rejects share a key whatever their geoid or sum
        f = tmp_path / "g.csv"
        good = [f"{g},4,0,0,1,0,3,0" for g in range(200, 240)]
        bad = ["111,5,0,0,0,0,0,0", "112,5,0,0,0,0,0,0", "113,inf,0,0,1,0,3,0", "114,1,2"]
        write_lines(f, [self.HEADER] + bad + good)
        _, _, rejects = parse_geo_factors(f)
        assert ingest.reason_counts(reason for _, reason in rejects) == {
            "zero-total row for geoid …": 2, "non-finite field": 1, "expected 8 fields, got …": 1,
        }
        surnames = tmp_path / "s.csv"
        good = [f"S{k},1,0,1,0,0,0,0" for k in range(20)]
        write_lines(surnames, [TestSurnameFactors.HEADER, "A,5,0.2,0.3,0,0,0,0", "B,5,2,0,0,0,0,0"] + good)
        _, _, rejects = parse_surname_factors(surnames)
        assert ingest.reason_counts(reason for _, reason in rejects) == {
            "probabilities sum to …": 2,
        }

    def test_non_finite_field_rejected(self, tmp_path):
        f = tmp_path / "g.csv"
        good = [f"{g},4,0,0,1,0,3,0" for g in range(222, 231)]
        write_lines(f, [self.HEADER, "111,inf,0,0,1,0,3,0"] + good)
        labels, _, rejects = parse_geo_factors(f)
        assert "111" not in labels
        assert rejects == [(2, "non-finite field")]

    def test_duplicate_geoid(self, tmp_path):
        f = tmp_path / "g.csv"
        write_lines(f, [self.HEADER, "1,4,0,0,1,0,3,0", "1,4,0,0,1,0,3,0"])
        with pytest.raises(ParseError, match="duplicate geolocation"):
            parse_geo_factors(f)


# the factor parsers against the row-at-a-time loop they replace ----------


def csv_records(path, header):
    """(line, row) of each data row of a CSV file, read by a csv row loop: a
    line counts records, the header being line 1, and a csv.Error (a field
    over csv's size limit) is a ParseError naming the line of its record."""
    with ingest._open_reader(path, header) as fh:
        line = 1
        try:
            for line, row in enumerate(csv.reader(fh), start=2):
                yield line, row
        except csv.Error as exc:
            raise ParseError(f"{path}:{line + 1}: {exc}") from None


def reference_parse_factors(path, header, kind, clean_label, bad_sum):
    """A factor file read one row at a time with numpy per row: label ->
    P(r|label) and count, the rules of the module docstring applied to each
    row as it is read. The parser must agree with it row for row."""
    probs, counts = {}, {}
    rejects = []
    # the whole file is split first: a field over csv's size limit comes before a
    # duplicate label on an earlier line
    for line, row in list(csv_records(path, header)):
        if len(row) != len(header):
            rejects.append((line, f"expected {len(header)} fields, got {len(row)}"))
            continue
        label = clean_label(row[0])
        if not label:
            rejects.append((line, f"empty {header[0]}"))
            continue
        if label in probs:
            raise ParseError(f"{path}:{line}: duplicate {kind} {label!r}")
        try:
            # only plain decimal text is a number: float() also reads
            # "1_0" and non-ASCII digits
            if any("_" in x or not x.isascii() for x in row[1:]):
                raise ValueError(row)
            count = float(row[1])
            vec = np.array([float(x) for x in row[2:]], dtype=np.float64)
        except ValueError:
            rejects.append((line, "non-numeric field"))
            continue
        s = vec.sum()
        if not (np.isfinite(count) and np.all(np.isfinite(vec))):
            reason = "non-finite field"
        elif count < 0 or np.any(vec < 0):
            reason = "negative value"
        else:
            reason = bad_sum(label, s)
        if reason:
            rejects.append((line, reason))
            continue
        probs[label] = vec / s
        counts[label] = count
    total_rows = len(probs) + len(rejects)
    if total_rows == 0:
        raise ParseError(f"{path}: no data rows")
    if len(rejects) > ingest.MAX_REJECT_FRACTION * total_rows:
        raise ParseError(
            f"{path}: {len(rejects)} of {total_rows} rows rejected "
            f"(limit {ingest.MAX_REJECT_FRACTION:.0%})"
        )
    labels = list(probs)
    values = np.array([[counts[k], *probs[k]] for k in labels]).reshape(len(labels), N_RACES + 1)
    return labels, values, rejects


def reference_surname_factors(path):
    lo, hi = ingest.PROB_SUM_WINDOW
    return reference_parse_factors(
        path, ingest.SURNAME_FACTORS_HEADER, "surname", lambda label: label.strip().upper(),
        lambda _, s: None if lo <= s <= hi else f"probabilities sum to {s:.6g}",
    )


def reference_geo_factors(path):
    return reference_parse_factors(
        path, ingest.GEO_FACTORS_HEADER, "geolocation", str.strip,
        lambda geoid, s: None if s > 0 else f"zero-total row for geoid {geoid}",
    )


FACTOR_KINDS = {
    "surname": (parse_surname_factors, reference_surname_factors, ingest.SURNAME_FACTORS_HEADER),
    "geo": (parse_geo_factors, reference_geo_factors, ingest.GEO_FACTORS_HEADER),
}
# a few labels that repeat, some of which cleaning maps onto each other,
# among many that do not
FACTOR_LABELS = st.sampled_from(["A", "a", " A ", "b ", "", "  ", 'x,"y']) | st.integers(
    0, 10**6).map("L{}".format)
FACTOR_FIELDS = st.sampled_from([
    "0", "1", "-1", "-0.0", "0.5", "1e308", "5e-324", "nan", "inf", "-inf", "(S)", "", " 2 ", "x",
    "1_0", "\u0661", "1\u00a0",
]) | st.floats(min_value=0, max_value=1e6).map(repr)


@st.composite
def factor_rows(draw, kind):
    """One data row of a factor file: mostly well formed, sometimes not."""
    label = draw(FACTOR_LABELS)
    shape = draw(st.sampled_from(["probs", "probs", "probs", "zero", "fields", "short", "long"]))
    if shape == "short":
        return [label] + [draw(FACTOR_FIELDS) for _ in range(draw(st.integers(0, 6)))]
    if shape == "long":
        return [label] + [draw(FACTOR_FIELDS) for _ in range(8)]
    if shape == "fields":
        return [label] + [draw(FACTOR_FIELDS) for _ in range(7)]
    count = repr(draw(st.floats(min_value=0, max_value=1e6)))
    if shape == "zero":
        return [label, count] + ["0"] * N_RACES
    weights = draw(st.lists(st.floats(min_value=0, max_value=1), min_size=N_RACES,
                            max_size=N_RACES).filter(lambda w: sum(w) > 0))
    # geo rows are counts; surname rows sum to `scale`, inside or outside
    # the [0.98, 1.02] window
    scale = 100.0 if kind == "geo" else draw(st.sampled_from([1.0, 0.97, 0.985, 1.0199, 1.03]))
    return [label, count] + [repr(w / sum(weights) * scale) for w in weights]


def _parsed(parse, path):
    """A factor parser's result, or the text of the ParseError it raised."""
    try:
        labels, values, rejects = parse(path)
    except ParseError as exc:
        return str(exc)
    return labels, values.shape, values.tobytes(), rejects


@pytest.mark.parametrize("kind", sorted(FACTOR_KINDS))
@settings(max_examples=150, deadline=None)
@given(data=st.data(), crlf=st.booleans(), cap=st.sampled_from([0.10, 1.0]))
def test_factor_parser_matches_row_loop(kind, data, crlf, cap):
    """Same accepted labels, bit-identical counts and probabilities, same
    reject rows and same ParseError text as the row loop, with the reject
    cap as shipped and lifted, read in blocks of 1, 2, 3, 7 lines and of
    the default size."""
    parse, reference, header = FACTOR_KINDS[kind]
    rows = data.draw(st.lists(factor_rows(kind), max_size=25))
    text = io.StringIO(newline="")
    csv.writer(text, lineterminator="\r\n" if crlf else "\n").writerows([header, *rows])
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "MAX_REJECT_FRACTION", cap)
        path = Path(tmp) / "factors.csv"
        path.write_text(text.getvalue(), encoding="utf-8", newline="")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the row loop's sums overflow
            expected = _parsed(reference, path)
        for block in (1, 2, 3, 7, DEFAULT_BLOCK):
            mp.setattr(ingest, "_CSV_BLOCK", block)
            assert _parsed(parse, path) == expected, block  # a RuntimeWarning here fails the test


@pytest.mark.parametrize("repeat, expected", [
    # a label rejected first may come back and be accepted
    ("A,1,0.5,0,0,0,0,0\nA,1,0,1,0,0,0,0\n", ["A"]),
    # a label accepted first may not, even on a row that is itself rejected
    ("A,1,0,1,0,0,0,0\na,1,x,0,0,0,0,0\n", "duplicate surname 'A'"),
    ("A,1,0,1,0,0,0,0\nA,1,0.5,0,0,0,0,0\n", "duplicate surname 'A'"),
    # a short row or an empty label is rejected before the duplicate rule
    ("A,1,0,1,0,0,0,0\nA,1\n", ["A"]),
])
def test_factor_duplicate_rule(tmp_path, repeat, expected):
    path = tmp_path / "s.csv"
    path.write_text(TestSurnameFactors.HEADER + "\n" + repeat, encoding="utf-8")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "MAX_REJECT_FRACTION", 1.0)
        got, want = _parsed(parse_surname_factors, path), _parsed(reference_surname_factors, path)
    assert got == want
    if isinstance(expected, list):
        assert got[0] == expected
    else:
        assert got.endswith(f"s.csv:3: {expected}")


def voters_of(records):
    """Voters holding (voter_id, surname, geoid, race or None, active)
    records, in their order."""
    ids, surnames, geoids, races, active = zip(*records)
    labels, index, rows = index_cells(surnames, geoids)
    race = np.array([-1 if r is None else int(r) for r in races])
    return Voters(labels, index[rows], np.array(ids, dtype=object), race, np.array(active))


def voter_records(voters):
    """The (voter_id, surname, geoid, race code, active) record of each voter, in order."""
    labels = voters.labels
    surnames, geoids = (np.array(axis, dtype=object) for axis in (labels.surnames, labels.geolocations))
    return list(zip(voters.voter_id.tolist(), surnames[voters.cells[:, 0]].tolist(),
                    geoids[voters.cells[:, 1]].tolist(), voters.race.tolist(), voters.active.tolist()))


class TestVoterFile:
    HEADER = "voter_id,surname,geoid,race,active"

    def test_florida_multiracial_goes_to_other(self, tmp_path):
        f = tmp_path / "v.csv"
        write_lines(f, [self.HEADER, "1,Diaz,12086,Multi-racial,true"])
        voters = parse_voter_file(f, FLORIDA_MAPPING)
        assert voters.race[0] == RaceCategory.OTHER
        assert voters.labels.surnames[voters.cells[0, 0]] == "DIAZ"

    def test_nc_hispanic_flag_wins(self, tmp_path):
        f = tmp_path / "v.csv"
        write_lines(f, [self.HEADER, "1,PEREZ,37001,HL:W,true", "2,SMITH,37001,NL:W,true"])
        voters = parse_voter_file(f, NORTH_CAROLINA_MAPPING)
        assert voters.race[0] == RaceCategory.HISPANIC
        assert voters.race[1] == RaceCategory.WHITE

    def test_empty_race_flagged_missing(self, tmp_path):
        f = tmp_path / "v.csv"
        write_lines(f, [self.HEADER, "1,LEE,g1,,true"])
        voters = parse_voter_file(f, FLORIDA_MAPPING)
        assert voters.race[0] == -1

    def test_inactive_retained_with_flag(self, tmp_path):
        f = tmp_path / "v.csv"
        write_lines(f, [self.HEADER, "1,LEE,g1,Hispanic,false"])
        voters = parse_voter_file(f, FLORIDA_MAPPING)
        assert len(voters.race) == 1 and not voters.active[0]

    def test_duplicate_voter_id(self, tmp_path):
        f = tmp_path / "v.csv"
        write_lines(f, [self.HEADER, "1,A,g,Other,true", "1,B,g,Other,true"])
        with pytest.raises(ParseError, match="duplicate voter_id"):
            parse_voter_file(f, FLORIDA_MAPPING)

    def test_unknown_category_raises(self, tmp_path):
        f = tmp_path / "v.csv"
        write_lines(f, [self.HEADER, "1,A,g,Martian,true"])
        with pytest.raises(KeyError, match="Martian"):
            parse_voter_file(f, FLORIDA_MAPPING)

    @pytest.mark.parametrize("row, error, message", [
        ("2,  ,g,Other,true", ParseError, "surname and geolocation must be nonempty"),
        ("2,A, ,Other,true", ParseError, "surname and geolocation must be nonempty"),
        ('2,A,"",Other,true', ParseError, "surname and geolocation must be nonempty"),
        ("2,A,g,Martian,true", KeyError, "florida mapping has no category 'Martian'"),
    ])
    def test_input_error_names_its_line(self, tmp_path, row, error, message):
        f = tmp_path / "v.csv"
        write_lines(f, [self.HEADER, "1,A,g,Other,true", row, "3,B,g,Other,true"])
        with pytest.raises(error) as exc:
            parse_voter_file(f, FLORIDA_MAPPING)
        assert exc.value.args[0] == f"{f}:3: {message}"

    def test_header_only_is_an_error(self, tmp_path):
        f = tmp_path / "v.csv"
        write_lines(f, [self.HEADER])
        with pytest.raises(ParseError, match=f"^{re.escape(str(f))}: no data rows$"):
            parse_voter_file(f, FLORIDA_MAPPING)

    def test_mapping_totality(self):
        for mapping in (FLORIDA_MAPPING, NORTH_CAROLINA_MAPPING, CANONICAL_MAPPING):
            for key in mapping.mapping:
                value = mapping.map_value(key)
                assert value is None or isinstance(value, RaceCategory)


class TestAggregate:
    def test_three_identical_records(self):
        voters = voters_of([(str(i), "A", "g", RaceCategory.WHITE, True) for i in (1, 2, 3)])
        assert aggregate_voters(voters).cell("A", "g")[RaceCategory.WHITE] == 3
        assert occupancy(voters).cell[("A", "g")] == 3

    def test_labeled_records_and_every_record(self):
        # one record of each kind in one cell: only the active, answered one is labeled
        voters = voters_of([
            ("1", "A", "g", RaceCategory.WHITE, True),
            ("2", "A", "g", RaceCategory.WHITE, False),
            ("3", "A", "g", None, True),
            ("4", "A", "g", None, False),
        ])
        assert voters.labeled().voter_id.tolist() == ["1"]
        table = aggregate_voters(voters)
        assert table.cell("A", "g").sum() == 1 and table.cell("A", "g")[RaceCategory.WHITE] == 1
        assert occupancy(voters).cell[("A", "g")] == 4

    def test_labels_are_those_of_each_population(self):
        voters = voters_of([
            ("1", "A", "g", RaceCategory.WHITE, True),
            ("2", "B", "h", RaceCategory.WHITE, False),
            ("3", "C", "g", None, True),
        ])
        table = aggregate_voters(voters)
        assert (table.labels.surnames, table.labels.geolocations) == (("A",), ("g",))
        totals = occupancy(voters)
        assert (totals.labels.surnames, totals.labels.geolocations) == (("A", "B", "C"), ("g", "h"))
        assert totals.cell == {("A", "g"): 1, ("B", "h"): 1, ("C", "g"): 1}

    def test_no_labeled_record_is_an_error(self):
        voters = voters_of([("1", "A", "g", RaceCategory.WHITE, False), ("2", "A", "g", None, True)])
        with pytest.raises(ValueError, match="^no labeled records in voter file$"):
            aggregate_voters(voters)
        assert occupancy(voters).cell[("A", "g")] == 2

    def test_f1_multiset(self, f1_records, f1_table):
        records = []
        i = 0
        for s, g, weights in f1_records:
            r = int(np.argmax(weights))
            for _ in range(int(weights[r])):
                records.append((str(i), s, g, RaceCategory(r), True))
                i += 1
        table = aggregate_voters(voters_of(records))
        np.testing.assert_array_equal(table.cell_values, f1_table.cell_values)

    def test_total_matches_contributing_records(self):
        voters = voters_of([(str(i), "A", "g", RaceCategory.BLACK, True) for i in range(7)])
        assert aggregate_voters(voters).total() == 7.0


def make_records(counts):
    records = []
    i = 0
    for r, n in enumerate(counts):
        for _ in range(n):
            records.append((str(i), f"S{i}", "g", RaceCategory(r), True))
            i += 1
    return voters_of(records)


class TestSubsample:
    def test_bounded_by_scarcest_race(self):
        records = make_records([30, 10])
        out = subsample_to_margin(records, race6(0.5, 0.5), seed=0)
        assert len(out.race) == 20
        counts = np.bincount(out.race, minlength=6)
        np.testing.assert_array_equal(counts[:2], [10, 10])

    def test_matching_target_returns_everything(self):
        records = make_records([30, 10])
        out = subsample_to_margin(records, race6(0.75, 0.25), seed=1)
        assert len(out.race) == 40
        assert set(out.voter_id) == set(records.voter_id)

    def test_deterministic(self):
        records = make_records([25, 15, 8])
        target = race6(0.4, 0.4, 0.2)
        a = subsample_to_margin(records, target, seed=42)
        b = subsample_to_margin(records, target, seed=42)
        assert a.voter_id.tolist() == b.voter_id.tolist()

    def test_no_duplicates_and_quota_bounds(self):
        records = make_records([9, 14, 3])
        target = race6(0.31, 0.52, 0.17)
        out = subsample_to_margin(records, target, seed=3)
        ids = out.voter_id.tolist()
        assert len(ids) == len(set(ids))
        counts = np.bincount(out.race, minlength=6)
        assert counts[0] <= 9 and counts[1] <= 14 and counts[2] <= 3
        n = len(ids)
        np.testing.assert_array_less(np.abs(counts - n * target), 1 + 1e-9)

    def test_impossible_target(self):
        records = make_records([5, 0])
        with pytest.raises(ValueError, match="no records"):
            subsample_to_margin(records, race6(0.5, 0.5), seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_target_rejected(self, bad):
        records = make_records([5, 5])
        with pytest.raises(ValueError, match="^non-finite target$"):
            subsample_to_margin(records, race6(0.5, 0.5, bad), seed=0)

    def test_target_off_one_within_the_rule_is_divided_by_its_sum(self):
        # 300,001 white and 300,000 black records, a target summing to
        # 1 + 9e-7: N is 600,000, and quotas of N times the undivided target
        # would add up to 600,001
        races = [RaceCategory.WHITE, RaceCategory.BLACK]
        race = np.repeat(races, [300_001, 300_000])
        voters = Voters(ingest.AxisLabels(["A"], ["g"]), np.zeros((len(race), 2), dtype=np.int64),
                        np.arange(len(race)), race, np.ones(len(race), dtype=bool))
        target = np.zeros(N_RACES)
        target[races] = [0.5 + 9e-7, 0.5]
        out = subsample_to_margin(voters, target, seed=0)
        assert len(out.race) == 600_000
        assert np.bincount(out.race, minlength=N_RACES)[races].tolist() == [300_000, 300_000]

    def test_unlabeled_record_rejected(self):
        records = voters_of([("1", "A", "g", None, True)])
        with pytest.raises(ValueError, match="no race label"):
            subsample_to_margin(records, race6(1), seed=0)

    @given(
        st.lists(st.integers(0, 40), min_size=6, max_size=6),
        st.lists(st.integers(0, 100), min_size=6, max_size=6),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_quota_properties(self, counts, raw_target, seed):
        target = np.array(raw_target, dtype=float)
        if target.sum() <= 0:
            return
        target /= target.sum()
        counts = np.array(counts, dtype=float)
        if np.any((target > 0) & (counts == 0)):
            return
        live = target > 0
        n = int(np.floor((counts[live] / target[live]).min()))
        if n < 1:
            return
        quotas = _largest_remainder(n * target)
        assert quotas.sum() == n
        assert np.all(quotas <= counts + 1e-9)


@settings(max_examples=300, deadline=None)
@given(
    weights=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6).filter(lambda w: sum(w) > 0),
    at=st.integers(0, 5),
    off=st.floats(-1e-5, 1e-5),
    kind=st.sampled_from(["as drawn", "rounded to 7 decimals", "nan", "inf", "-inf", "negative"]),
)
def test_every_distribution_entry_point_accepts_what_the_file_reader_accepts(weights, at, off, kind):
    # shares of at least 1e-4 before the sum is moved by off, so that no
    # solve is refused for a tiny share; a vector the reader accepts must
    # be accepted everywhere else, and one it rejects rejected everywhere
    w = np.array(weights)
    vec = 1e-4 + (1 - 6e-4) * w / w.sum()
    vec[at] += off
    if kind == "rounded to 7 decimals":
        vec = np.round(vec, 7)
    elif kind == "negative":
        vec[at] = -vec[at]
    elif kind != "as drawn":
        vec[at] = float(kind)
    uniform = np.full(N_RACES, 1 / N_RACES)
    entry_points = {
        "BisgFactors race_prior": lambda: one_cell_factors(race6(1), race6(1), vec),
        "voter_adjustment cps": lambda: voter_adjustment(vec, uniform),
        "voter_adjustment census prior": lambda: voter_adjustment(uniform, vec),
        "SynthConfig race_mix": lambda: SynthConfig(
            n_s=2, n_g=2, race_mix=vec, dependence=0.5, total_population=10, seed=0),
        "subsample_to_margin": lambda: subsample_to_margin(make_records([3] * N_RACES), vec, seed=0),
        "calibration source": lambda: solve_calibration_map(vec, uniform),
        "calibration target": lambda: solve_calibration_map(uniform, vec),
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "margin.json"
        path.write_text(json.dumps({"race_distribution": dict(zip(RACE_NAMES, vec.tolist()))}))
        try:
            np.testing.assert_array_equal(parse_race_margin(path), vec)
            read = True
        except ParseError:
            read = False
    for name, call in entry_points.items():
        try:
            call()
            accepted = True
        except (ValueError, CalibrationSolveError):
            accepted = False
        assert accepted == read, (name, vec.tolist())


class TestRoundTrips:
    def test_surname_factors(self, tmp_path, f1_table):
        # identity modulo the parser's canonical uppercasing
        from raketab import fit_factors

        factors = fit_factors(f1_table)
        path = tmp_path / "s.csv"
        surnames = factors.labels.surnames
        write_surname_factors(path, dict(zip(surnames, factors.race_given_surname)),
                              dict(zip(surnames, factors.surname_counts)))
        labels, values, rejects = parse_surname_factors(path)
        assert len(rejects) == 0
        assert labels == [s.upper() for s in surnames]
        np.testing.assert_array_equal(values[:, 0], factors.surname_counts)
        np.testing.assert_array_equal(values[:, 1:], factors.race_given_surname)
        # a second write/parse cycle is the exact identity
        write_surname_factors(path, dict(zip(labels, values[:, 1:])),
                              dict(zip(labels, values[:, 0])))
        labels2, values2, _ = parse_surname_factors(path)
        assert labels2 == labels
        np.testing.assert_array_equal(values2, values)

    def test_geo_factors(self, tmp_path, f1_table):
        from raketab import fit_factors

        factors = fit_factors(f1_table)
        path = tmp_path / "g.csv"
        geoids = factors.labels.geolocations
        write_geo_factors(path, dict(zip(geoids, factors.race_given_geo)),
                          dict(zip(geoids, factors.geo_counts)))
        labels, values, _ = parse_geo_factors(path)
        assert labels == list(geoids)
        np.testing.assert_array_equal(values[:, 0], factors.geo_counts)
        np.testing.assert_allclose(values[:, 1:], factors.race_given_geo, rtol=1e-15)

    def test_voter_file(self, tmp_path):
        records = [("1", "DIAZ", "g1", RaceCategory.HISPANIC, True), ("2", "LEE", "g2", None, False)]
        path = tmp_path / "v.csv"
        write_voter_file(path, voters_of(records))
        back = parse_voter_file(path, CANONICAL_MAPPING)
        assert voter_records(back) == [("1", "DIAZ", "g1", 3, True), ("2", "LEE", "g2", -1, False)]
        # a list of VoterRecord is written to the same bytes
        written = path.read_bytes()
        write_voter_file(path, [VoterRecord(*record) for record in records])
        assert path.read_bytes() == written

    def test_table(self, tmp_path, f1_table):
        # identity modulo the canonical surname uppercasing
        path = tmp_path / "t.csv"
        write_table(path, f1_table)
        back = parse_table(path)
        assert back.labels.surnames == ("S1", "S2")
        assert back.labels.geolocations == f1_table.labels.geolocations
        np.testing.assert_array_equal(back.cell_values, f1_table.cell_values)
        write_table(path, back)
        again = parse_table(path)
        assert again.labels == back.labels
        np.testing.assert_array_equal(again.cell_values, back.cell_values)

    def test_race_margin(self, tmp_path):
        path = tmp_path / "m.json"
        dist = race6(0.1, 0.2, 0.3, 0.2, 0.15, 0.05)
        write_race_margin(path, dist)
        np.testing.assert_array_equal(parse_race_margin(path), dist)

    def test_race_margin_validation(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"race_distribution": {"aian": 0.5, "api": 0.4}}')
        with pytest.raises(ParseError, match="sums to 0.9$"):
            parse_race_margin(path)
        # an overflowing sum is rejected without a RuntimeWarning
        path.write_text('{"race_distribution": {"aian": 1e308, "api": 1e308}}')
        with pytest.raises(ParseError, match="sums to inf$"):
            parse_race_margin(path)
        path.write_text('{"race_distribution": {"klingon": 1.0}}')
        with pytest.raises(ParseError, match="unknown race"):
            parse_race_margin(path)
        path.write_text('{"race_distribution": {"aian": 1' + "0" * 400 + ', "api": 1.0}}')
        with pytest.raises(ParseError, match="non-finite"):
            parse_race_margin(path)
        path.write_text('{"race_distribution": {"aian": 1.0,')
        with pytest.raises(ParseError, match=re.escape(f"{path}: Expecting")):
            parse_race_margin(path)
        for bad in ("NaN", "Infinity"):
            path.write_text(f'{{"race_distribution": {{"aian": {bad}, "api": 1.0}}}}')
            with pytest.raises(ParseError, match="non-finite"):
                parse_race_margin(path)

    def test_race_margin_with_a_repeated_key(self, tmp_path):
        # json keeps the last of repeated keys, so each would be dropped silently
        path = tmp_path / "m.json"
        for body, key in (
            ('{"race_distribution": {"aian": 0.9, "aian": 0.1, "api": 0.9}}', "aian"),
            ('{"race_distribution": {"api": 1.0}, "race_distribution": {"aian": 1.0}}',
             "race_distribution"),
            ('{"source": {"year": 1, "year": 2}, "race_distribution": {"api": 1.0}}', "year"),
        ):
            path.write_text(body)
            with pytest.raises(ParseError, match=re.escape(f"{path}: repeated key {key!r}")):
                parse_race_margin(path)

    def test_region_map(self, tmp_path):
        path = tmp_path / "r.csv"
        write_lines(path, ["geoid,region", "g1,north", "g2,south"])
        assert parse_region_map(path) == {"g1": "north", "g2": "south"}

    def test_region_map_strips_fields(self, tmp_path):
        path = tmp_path / "r.csv"
        write_lines(path, ["geoid,region", "g1 , north", " g2,south "])
        assert parse_region_map(path) == {"g1": "north", "g2": "south"}
        write_lines(path, ["geoid,region", "g1,north", "g1 ,south"])
        with pytest.raises(ParseError, match="duplicate geoid 'g1'"):
            parse_region_map(path)

    def test_calibration_map_with_a_seventh_row(self, tmp_path):
        path = tmp_path / "cm.csv"
        write_calibration_map(path, np.eye(6))
        np.testing.assert_array_equal(parse_calibration_map(path), np.eye(6))
        with open(path, "a", newline="") as fh:
            fh.write("white,0,0,0,0,1,0\r\n")
        with pytest.raises(ParseError, match=re.escape(f"{path}:8: more than 6 matrix rows")):
            parse_calibration_map(path)

    def test_calibration_map_with_a_non_numeric_entry(self, tmp_path):
        path = tmp_path / "cm.csv"
        write_calibration_map(path, np.eye(6))
        lines = path.read_text().splitlines(True)
        lines[3] = lines[3].replace("0.0", "abc", 1)
        path.write_text("".join(lines))
        with pytest.raises(ParseError, match=re.escape(f"{path}:4: non-numeric matrix entry")):
            parse_calibration_map(path)


    @pytest.mark.parametrize("entry", ["1_0e-1", "\u0661.0", "\u00a01.0"],
                             ids=["underscore", "arabic-indic-digit", "no-break-space"])
    def test_calibration_map_entry_that_is_not_plain_decimal(self, tmp_path, entry):
        # float() reads each as 1.0, so the map would parse as the identity
        path = tmp_path / "cm.csv"
        write_calibration_map(path, np.eye(6))
        lines = path.read_text(encoding="utf-8").splitlines(True)
        lines[2] = lines[2].replace("1.0", entry)
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ParseError, match=re.escape(f"{path}:3: non-numeric matrix entry")):
            parse_calibration_map(path)

# the two cell formats share one reader; a row maker gives a valid data
# row of each from a surname, a geoid and one number
CELL_FORMATS = {
    "table": (
        parse_table, "surname,geoid,aian,api,black,hispanic,white,other",
        lambda s, g, x: [s, g, x, "1", "0", "0", "2", "0"],
    ),
    "predictions": (
        parse_predictions, "surname,geoid,count,p_aian,p_api,p_black,p_hispanic,p_white,p_other",
        lambda s, g, x: [s, g, x, "0.25", "0", "0", "0.75", "0", "0"],
    ),
}


class TestCellFiles:
    """The reader of labeled tables, predictions and raked files."""

    @staticmethod
    def write(path, header, rows, end="\n"):
        path.write_text(end.join([header] + rows) + end, encoding="utf-8", newline="")

    @pytest.fixture(params=sorted(CELL_FORMATS))
    def fmt(self, request):
        return CELL_FORMATS[request.param]

    def good_rows(self, make, n=4):
        return [",".join(make(f"S{i}", f"g{i}", "3")) for i in range(n)]

    @pytest.mark.parametrize("change, line", [
        ("short", 3), ("long", 4), ("blank", 3), ("blank", 6), ("trailing_blank", 6),
        ("whitespace", 4),
    ])
    def test_bad_row_names_its_line(self, tmp_path, fmt, change, line):
        parse, header, make = fmt
        rows = self.good_rows(make)
        i = line - 2
        if change == "short":
            rows[i] = rows[i].rsplit(",", 1)[0]
        elif change == "long":
            rows[i] += ",0"
        elif change in ("blank", "trailing_blank"):
            rows.insert(i, "")
        else:
            rows[i] = "   "
        path = tmp_path / "cells.csv"
        self.write(path, header, rows)
        width = len(header.split(","))
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}:{line}: expected {width} fields"):
            parse(path)

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_blank_line_names_its_line_with_any_ending(self, tmp_path, fmt, end):
        parse, header, make = fmt
        rows = self.good_rows(make)
        rows.insert(1, "")
        path = tmp_path / "cells.csv"
        self.write(path, header, rows, end=end)
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}:3: expected"):
            parse(path)

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    def test_blank_lines_only(self, tmp_path, fmt, end):
        parse, header, _ = fmt
        path = tmp_path / "cells.csv"
        self.write(path, header, ["", ""], end=end)
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}:2: expected"):
            parse(path)

    def test_first_defect_in_file_order(self, tmp_path, fmt):
        # a non-numeric field on line 3 comes before a blank line 5
        parse, header, make = fmt
        rows = self.good_rows(make)
        rows[1] = ",".join(make("S1", "g1", "x"))
        rows.insert(3, "")
        path = tmp_path / "cells.csv"
        self.write(path, header, rows)
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}:3: non-numeric value"):
            parse(path)

    @pytest.mark.parametrize("bad", ["x", "", " ", "1..5", "0x10"])
    def test_non_numeric_field_names_its_line(self, tmp_path, fmt, bad):
        parse, header, make = fmt
        rows = self.good_rows(make, n=6)
        rows[4] = ",".join(make("S4", "g4", bad))
        path = tmp_path / "cells.csv"
        self.write(path, header, rows)
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}:6: non-numeric value"):
            parse(path)

    def test_line_counts_records_not_physical_lines(self, tmp_path, fmt):
        # a quoted label holding a line break and a blank line is one record
        parse, header, make = fmt
        rows = self.good_rows(make)
        rows[0] = ",".join(['"A\n\nB"'] + make("S0", "g0", "3")[1:])
        rows[2] = rows[2].rsplit(",", 1)[0]
        path = tmp_path / "cells.csv"
        self.write(path, header, rows)
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}:4: expected"):
            parse(path)

    def test_quoting_comments_and_crlf_read_as_csv(self, tmp_path, fmt):
        parse, header, make = fmt
        rows = [
            make('"o\'neil, ""jr"""', "g#1", '"1.5"'),
            make("#lee", '"g,2"', " 2 "),
            make("kim#", "g3", "1e3"),
            make('"a\r\nb\rc"', "g4", "+.5"),
        ]
        path = tmp_path / "cells.csv"
        self.write(path, header, [",".join(r) for r in rows], end="\r\n")
        got = parse(path)
        labels, index = (got.labels, got.cell_index) if fmt[0] is parse_table else got[:2]
        values = got.cell_values if fmt[0] is parse_table else got[2][:, None]
        pairs = labels.pairs(index)
        expected = {}
        with path.open(newline="", encoding="utf-8") as fh:
            for row in list(csv.reader(fh))[1:]:
                expected[(row[0].strip().upper(), row[1].strip())] = float(row[2])
        assert pairs == sorted(expected)
        assert values[:, 0].tolist() == [expected[p] for p in pairs]

    def test_repeated_cell_names_its_first_repeat(self, tmp_path, fmt):
        # rows out of order, and cells that are equal only once cleaned
        parse, header, make = fmt
        rows = [make("b", "g1", "1"), make("lee", "g1", "1"), make("a", "g2", "1"),
                make(" LEE ", "g1", "2"), make("b", " g1", "3")]
        path = tmp_path / "cells.csv"
        self.write(path, header, [",".join(r) for r in rows])
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}:5: duplicate cell \('LEE', 'g1'\)$"):
            parse(path)

    def test_underscore_and_non_ascii_digits_rejected(self, tmp_path, fmt):
        # float() reads "1_000" and Arabic-Indic digits, and np.loadtxt a
        # number next to a no-break space; the cell reader takes plain
        # decimal text only
        parse, header, make = fmt
        for bad in ("1_000", "١", "1\u00a0", "\u00a01.5"):
            rows = self.good_rows(make)
            rows[1] = ",".join(make("S1", "g1", bad))
            path = tmp_path / "cells.csv"
            self.write(path, header, rows)
            with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}:3: non-numeric value"):
                parse(path)

    # the file is rewritten by every example
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(
        st.tuples(
            # below the largest float, so rounding to 4 digits stays finite
            st.floats(min_value=0, max_value=1e300),
            st.sampled_from(["{!r}", " {!r} ", '"{!r}"', "{:.3e}", "{:E}", "+{!r}"]),
        ),
        min_size=1, max_size=20,
    ))
    def test_numbers_match_float(self, tmp_path, numbers):
        texts = [spelling.format(x) for x, spelling in numbers]
        path = tmp_path / "t.csv"
        self.write(path, CELL_FORMATS["table"][1],
                   [f"S{i:03d},g,{t},0,0,0,0,0" for i, t in enumerate(texts)])
        got = parse_table(path).cell_values[:, 0]
        expected = [float(next(csv.reader([t]))[0]) for t in texts]
        assert np.array_equal(got.view(np.int64), np.array(expected).view(np.int64))


def _field(text, raw):
    """A label as a CSV field: quoted as csv.writer quotes it, or with `raw`
    a quote inside it left bare when nothing else needs quoting (np.loadtxt
    and csv open a quoted field only at a field's start)."""
    if (raw and not set(text) & set(",\r\n")) or not set(text) & set(',"\r\n'):
        return text
    return '"' + text.replace('"', '""') + '"'


CELL_DEFECTS = (
    None, "blank", "short", "long", "non-numeric", "non-finite", "negative", "repeat",
    "long label", "long cleaned label",
)


@st.composite
def cell_files(draw):
    """(reader, file text) of a cell file whose labels hold commas, quotes
    and line breaks, with CRLF, LF or CR line ends, rows in any order and
    at most two defects, on any rows."""
    kind = draw(st.sampled_from(sorted(CELL_FORMATS)))
    parse, header, make = CELL_FORMATS[kind]
    n = draw(st.integers(1, 12))
    label = st.text(alphabet=' ab\u00e9,"\r\n', max_size=4)
    raw = draw(st.booleans())
    # a leading row number keeps the cells distinct after cleaning
    rows = [
        make(_field(f"{i}{draw(label)}", raw), _field(f"g{draw(label)}", raw),
             draw(st.sampled_from(["3", "0.5", '"2"', " 1e3 ", "+.5", "0"])))
        for i in draw(st.permutations(range(n)))
    ]
    # a blank row goes in last, so that the other defect finds a row of fields
    for defect in sorted(draw(st.lists(st.sampled_from(CELL_DEFECTS), min_size=1, max_size=2)),
                         key=lambda defect: defect == "blank"):
        at = draw(st.integers(0, n - 1))
        if defect == "blank":
            rows.insert(draw(st.integers(0, len(rows))), [])
        elif defect == "short":
            rows[at].pop()
        elif defect == "long":
            rows[at].append("0")
        elif defect == "repeat":
            rows[at][:2] = rows[draw(st.integers(0, n - 1))][:2]
        elif defect in ("long label", "long cleaned label"):
            # over a field-size limit of 12, as read or once uppercased
            rows[at][0] = "L" * 13 if defect == "long label" else "\u00df" * 7
        elif defect is not None:
            rows[at][2] = draw(st.sampled_from({
                "non-numeric": ["x", "1_0", "\u0661", "", "1\u00a0"],
                "non-finite": ["nan", "inf", "1e309"],
                "negative": ["-1", "-0.5"],
            }[defect]))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return parse, end.join([header] + [",".join(row) for row in rows]) + end


def _cells_read(parse, path):
    """A cell reader's arrays, as bytes with their shapes, or its ParseError text."""
    try:
        got = parse(path)
    except ParseError as exc:
        return str(exc)
    if isinstance(got, ContingencyTable):
        got = (got.labels, got.cell_index, got.cell_values)
    return [(x.shape, x.dtype, x.tobytes()) if isinstance(x, np.ndarray) else x for x in got]


DEFAULT_BLOCK = ingest._CSV_BLOCK
# csv's field-size limit as shipped, or one of 12 that a long label passes: under it every
# line of a test file is longer than the limit, so np.loadtxt reads no block
FIELD_LIMITS = st.sampled_from([12, csv.field_size_limit()])


@settings(max_examples=300, deadline=None)
@given(cell_files(), FIELD_LIMITS)
def test_block_reads_equal_a_one_block_read(case, field_limit):
    """Blocks of 1, 2, 3 or 7 lines, across which quoted fields run and at
    whose edges defects sit, read a file as one block does: the same
    arrays, or the same ParseError, which names the first defect found
    while reading even where a file has two."""
    parse, text = case
    limit = csv.field_size_limit(field_limit)
    try:
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            path = Path(tmp) / "cells.csv"
            path.write_text(text, encoding="utf-8", newline="")
            reads = []
            for block in (1, 2, 3, 7, DEFAULT_BLOCK):
                mp.setattr(ingest, "_CSV_BLOCK", block)
                reads.append(_cells_read(parse, path))
    finally:
        csv.field_size_limit(limit)
    for read in reads[:-1]:
        assert read == reads[-1]


def reference_rows(path, header):
    """(line, row) of each data row of a CSV file, read by a csv row loop
    (`csv_records`), a row of the wrong width being a ParseError."""
    for line, row in csv_records(path, header):
        if len(row) != len(header):
            raise ParseError(f"{path}:{line}: expected {len(header)} fields, got {len(row)}")
        yield line, row


def reference_voter_file(path, mapping):
    """parse_voter_file as the row loop it replaced: (labels, records), the
    (voter_id, surname, geoid, race code, active) records in file order."""
    records, seen, limit = [], set(), csv.field_size_limit()
    for line, (voter_id, surname, geoid, race, active) in reference_rows(path, ingest.VOTER_FILE_HEADER):
        if voter_id in seen:
            raise ParseError(f"{path}:{line}: duplicate voter_id {voter_id!r}")
        seen.add(voter_id)
        flag = active.strip().lower()
        if flag not in ("true", "1", "yes", "false", "0", "no"):
            raise ParseError(f"{path}:{line}: bad active flag {active!r}")
        try:
            category = mapping.map_value(race)
        except KeyError as exc:
            raise KeyError(f"{path}:{line}: {exc.args[0]}") from None
        surname, geoid = surname.strip().upper(), geoid.strip()
        if len(surname) > limit:
            raise ParseError(f"{path}:{line}: field larger than field limit ({limit})")
        if not surname or not geoid:
            raise ParseError(f"{path}:{line}: surname and geolocation must be nonempty")
        race = -1 if category is None else int(category)
        records.append((voter_id, surname, geoid, race, flag in ("true", "1", "yes")))
    if not records:
        raise ParseError(f"{path}: no data rows")
    labels = ingest.AxisLabels(sorted({r[1] for r in records}), sorted({r[2] for r in records}))
    return labels, records


def reference_region_map(path):
    """parse_region_map as the row loop it replaced: its (geoid, region) items."""
    regions = {}
    for line, row in reference_rows(path, ingest.REGION_MAP_HEADER):
        geoid, region = row[0].strip(), row[1].strip()
        if geoid in regions:
            raise ParseError(f"{path}:{line}: duplicate geoid {geoid!r}")
        regions[geoid] = region
    return list(regions.items())


def block_read_voter_file(path):
    voters = parse_voter_file(path, CANONICAL_MAPPING)
    assert (voters.race.dtype, voters.active.dtype, voters.voter_id.dtype) == (np.int64, bool, object)
    return voters.labels, voter_records(voters)


ROW_READERS = {
    "voters": (block_read_voter_file, lambda path: reference_voter_file(path, CANONICAL_MAPPING)),
    "regions": (lambda path: list(parse_region_map(path).items()), reference_region_map),
}
# each defect, with "long field j" over a field-size limit of 12 in column j
ROW_CASES = [
    (kind, defect)
    for kind, defects, width in (
        ("voters", ("bad active", "unknown race", "empty surname", "empty geoid", "long cleaned surname"), 5),
        ("regions", (), 2),
    )
    for defect in (
        None, "blank", "short", "long", "repeat", *defects, *(f"long field {j}" for j in range(width))
    )
]
# the rows a defect of voter values goes to, a column and the values there: two rows, which
# may hold different values, so the error must name the first
VOTER_VALUES = {
    "bad active": (4, ["maybe", "", "t"]),
    "unknown race": (3, ["martian", "White"]),
    "empty surname": (1, ["", "  "]),
    "empty geoid": (2, ["", " "]),
    "long cleaned surname": (1, ["\u00df" * 7]),
}


@st.composite
def row_files(draw, kind, defect):
    """The text of a voter file or a region map whose ids and labels hold
    commas, quotes, line breaks, padding and non-ASCII letters, with LF or
    CRLF line ends and the defect (or none), on any row."""
    n = draw(st.integers(1, 12))
    text = st.text(alphabet=' a\u00e9,"\r\n', max_size=4)
    pad = st.sampled_from(["", " ", "  "])
    if kind == "voters":
        rows = [[
            f"{draw(pad)}{i}{draw(text)}{draw(pad)}",
            draw(st.sampled_from(["a", "Lee", "\u00df", "\u00e9"])) + draw(text),
            f"{draw(pad)}g{draw(text)}",
            draw(st.sampled_from([*RACE_NAMES, "", " api "])),
            draw(st.sampled_from(["true", "false", " Yes", "0", "1", "NO", "False "])),
        ] for i in range(n)]
    else:
        # a field starts with a letter or a space: a bare quote there would open it
        rows = [[f"{draw(pad)}g{i}{draw(text)}{draw(pad)}", draw(pad | text.map("r{}".format))]
                for i in range(n)]
    at = draw(st.integers(0, n - 1))
    if defect == "blank":
        rows.insert(draw(st.integers(0, n)), [])
    elif defect == "short":
        rows[at].pop()
    elif defect == "long":
        rows[at].append("x")
    elif defect == "repeat":  # equal as read, or for a region map once stripped
        source = rows[draw(st.integers(0, n - 1))][0]
        rows[at][0] = draw(pad) + source.strip() if kind == "regions" else source
    elif defect and defect.startswith("long field"):
        rows[at][int(defect[-1])] = "L" * 13
    elif defect is not None:
        column, values = VOTER_VALUES[defect]
        for row in (at, draw(st.integers(0, n - 1))):
            rows[row][column] = draw(st.sampled_from(values))
    raw = draw(st.booleans())
    end = draw(st.sampled_from(["\n", "\r\n"]))
    header = ingest.VOTER_FILE_HEADER if kind == "voters" else ingest.REGION_MAP_HEADER
    return end.join(",".join(_field(x, raw) for x in row) for row in [header] + rows) + end


def _read_or_error(read, path):
    try:
        return read(path)
    except (ParseError, KeyError) as exc:
        return type(exc), exc.args[0]


@pytest.mark.parametrize("kind, defect", ROW_CASES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_voter_files_and_region_maps_read_as_a_row_loop(kind, defect, data):
    """Read in blocks of 1, 2, 3 or 7 lines and of the default size, a voter
    file or region map gives the columns of a csv row loop, or the same
    exception with the same text."""
    text = data.draw(row_files(kind, defect))
    read, reference = ROW_READERS[kind]
    limit = csv.field_size_limit(data.draw(FIELD_LIMITS))
    try:
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            path = Path(tmp) / f"{kind}.csv"
            path.write_text(text, encoding="utf-8", newline="")
            expected = _read_or_error(reference, path)
            for block in (1, 2, 3, 7, DEFAULT_BLOCK):
                mp.setattr(ingest, "_CSV_BLOCK", block)
                assert _read_or_error(read, path) == expected, block
    finally:
        csv.field_size_limit(limit)


def test_a_defect_found_while_reading_comes_first(tmp_path):
    # a repeated geoid is checked once the file is read; the short row is found while reading
    path = tmp_path / "regions.csv"
    write_lines(path, ["geoid,region", "g1,a", "g1,b", "g2,c", "g3,d", "g4"])
    with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}:6: expected 2 fields, got 1$"):
        parse_region_map(path)


def reference_calibration_map(path):
    """parse_calibration_map as the row loop it replaced."""
    rows = []
    for line, row in list(csv_records(path, ingest.CALIB_MAP_HEADER)):
        if len(rows) == N_RACES:
            raise ParseError(f"{path}:{line}: more than {N_RACES} matrix rows")
        if len(row) != len(ingest.CALIB_MAP_HEADER) or row[0] != RACE_NAMES[len(rows)]:
            raise ParseError(f"{path}:{line}: malformed matrix row")
        try:
            if any("_" in x or not x.isascii() for x in row[1:]):
                raise ValueError(row)
            rows.append([float(x) for x in row[1:]])
        except ValueError:
            raise ParseError(f"{path}:{line}: non-numeric matrix entry") from None
    if len(rows) != N_RACES:
        raise ParseError(f"{path}: expected {N_RACES} matrix rows")
    matrix = np.array(rows)
    if not np.all(np.isfinite(matrix)) or np.any(matrix < 0):
        raise ParseError(f"{path}: matrix entries must be finite and nonnegative")
    with np.errstate(over="ignore"):
        off = np.abs(matrix.sum(axis=0) - 1.0).max()
    if off > 1e-6:
        raise ParseError(f"{path}: matrix columns must sum to 1")
    return matrix


CALIB_DEFECTS = (None, "short", "long", "blank", "name", "order", "non-numeric", "not plain")


@st.composite
def calibration_maps(draw):
    """The text of a calibration map of 0-8 rows, a column-stochastic matrix
    in any spelling of its numbers, with at most one defect, a BOM or not
    and LF or CRLF line ends."""
    n = draw(st.integers(0, 8))
    weights = draw(st.lists(st.floats(0.01, 1), min_size=N_RACES * N_RACES, max_size=N_RACES * N_RACES))
    matrix = np.array(weights).reshape(N_RACES, N_RACES)
    matrix /= matrix.sum(axis=0)
    spell = st.sampled_from(["{!r}", '"{!r}"', " {!r} ", "+{!r}", "{:.17e}"])
    rows = [[RACE_NAMES[i % N_RACES]] + [draw(spell).format(x) for x in matrix[i % N_RACES]]
            for i in range(n)]
    defect, at = draw(st.sampled_from(CALIB_DEFECTS)), draw(st.integers(0, max(n - 1, 0)))
    if defect == "blank":
        rows.insert(at, [])
    elif rows and defect == "short":
        rows[at].pop()
    elif rows and defect == "long":
        rows[at].append("0")
    elif rows and defect == "name":
        rows[at][0] = draw(st.sampled_from(["", "White", " white", "x", "\u00e9"]))
    elif rows and defect == "order":
        rows[at][0] = RACE_NAMES[(at + draw(st.integers(1, N_RACES - 1))) % N_RACES]
    elif rows and defect is not None:
        rows[at][draw(st.integers(1, N_RACES))] = draw(st.sampled_from(
            ["x", "", "1..0", "0x1"] if defect == "non-numeric" else ["1_0", "\u0661", "1\u00a0", "\u00a00"]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(row) for row in [ingest.CALIB_MAP_HEADER, *rows]]
    return draw(st.sampled_from(["", "\ufeff"])) + end.join(lines) + end


@settings(max_examples=300, deadline=None)
@given(calibration_maps())
def test_calibration_map_reads_as_a_row_loop(text):
    """Read in blocks of 1, 2, 3 or 7 lines and of the default size, a
    calibration map gives the row loop's matrix, bit for bit, or the same
    ParseError."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = Path(tmp) / "calibration_map.csv"
        path.write_text(text, encoding="utf-8", newline="")

        def read(parse):
            try:
                matrix = parse(path)
            except ParseError as exc:
                return str(exc)
            return matrix.shape, matrix.tobytes()

        expected = read(reference_calibration_map)
        for block in (1, 2, 3, 7, DEFAULT_BLOCK):
            mp.setattr(ingest, "_CSV_BLOCK", block)
            assert read(parse_calibration_map) == expected, block


@pytest.mark.parametrize("surname, geoid, region", [
    ("LEE", "g1", "north"), ('O"NEIL, JR', "g,2", "R"), ("M\u00dcLLER", "g\u00e94", "S\u00fcd"),
])
def test_clean_files_are_read_without_the_scan(tmp_path, monkeypatch, surname, geoid, region):
    """np.loadtxt alone reads a clean file of every kind, its labels ASCII
    or not: its numbers are ASCII and each line is one record."""
    def scan(*args):
        raise AssertionError("scanned")

    monkeypatch.setattr(ingest, "_scan", scan)
    rows = [[surname, geoid, "1", "0", "2.5", "0", "3", "0"], ["KIM", geoid, "0", "1", "0", "0", "0", "4"]]
    files = {
        "table": (parse_table, ingest.TABLE_HEADER, rows),
        "predictions": (parse_predictions, ingest.PREDICTIONS_HEADER,
                        [r[:2] + ["5", "0.5", "0.5", "0", "0", "0", "0"] for r in rows]),
        "surnames": (parse_surname_factors, ingest.SURNAME_FACTORS_HEADER,
                     [[r[0], "10", "0.5", "0", "0.5", "0", "0", "0"] for r in rows]),
        "geoids": (parse_geo_factors, ingest.GEO_FACTORS_HEADER, [[geoid, "10", *rows[0][2:]]]),
        "voters": (lambda path: parse_voter_file(path, CANONICAL_MAPPING), ingest.VOTER_FILE_HEADER,
                   [["1", surname, geoid, "white", "true"], ["2", "KIM", geoid, "", "false"]]),
        "regions": (parse_region_map, ingest.REGION_MAP_HEADER, [[geoid, region]]),
        "calibration map": (parse_calibration_map, ingest.CALIB_MAP_HEADER,
                            [[race, *(["0"] * i + ["1.0"] + ["0"] * (N_RACES - 1 - i))]
                             for i, race in enumerate(RACE_NAMES)]),
    }
    for name, (parse, header, data) in files.items():
        path = tmp_path / f"{name}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([header, *data])
        parse(path)


@pytest.mark.parametrize("line, quoted, expected", [
    ('a,b\n', False, False),
    ('"a\n', False, True),
    ('a,"b,c\n', False, True),
    ('"a,",b\n', False, False),  # a quote that closes a field after a comma
    ('a"b,c\n', False, False),  # a quote inside an unquoted field is text
    ('"a""b\n', False, True),  # "" is a quote inside the field
    ('"a"x"y,b\n', False, False),  # text after the closing quote runs to the comma
    ('b\n', True, True),
    ('",b\n', True, False),  # a quote at a line's start can close a field, not open one
    ('"",b\n', True, True),
    ('",b,"c\r', True, True),
])
def test_ends_quoted_follows_csv(line, quoted, expected):
    assert (ingest._ENDS_QUOTED[quoted].match(line) is not None) is expected
    # a strict csv reader meets the end of the text inside a quoted field, or not
    text = ('"x\n' if quoted else "") + line
    try:
        list(csv.reader(io.StringIO(text, newline=""), strict=True))
    except csv.Error as exc:
        assert (str(exc) == "unexpected end of data") is expected
    else:
        assert not expected


@pytest.mark.parametrize("label", ['"ONEIL', '"SMITH\n"', '"SMITH,"'])
def test_quote_near_the_top_is_scanned_once(tmp_path, monkeypatch, label):
    """A quote that opens a field and never closes, or a quoted label that
    ends in a line break or a comma, near the top of a file of 25 blocks:
    each later line is scanned once, and the file reads as one block reads
    it; the unclosed quote gives csv's error, named at the line of its
    record, where its field passes csv's size limit."""
    rows = [f"S{i},G{i % 160},1,2,0,0,3,0.5" for i in range(25_600)]
    rows[2] = f"{label},G1,1,1,1,1,1,1"
    path = tmp_path / "cells.csv"
    path.write_text("\n".join([",".join(ingest.TABLE_HEADER), *rows]) + "\n", encoding="utf-8", newline="")
    start = time.perf_counter()
    got = _cells_read(parse_table, path)
    # scanning the open field again for each line added takes minutes at this size
    assert time.perf_counter() - start < 10
    if label == '"ONEIL':
        with open(path, newline="", encoding="utf-8") as fh, pytest.raises(csv.Error) as exc:
            list(csv.reader(fh))
        assert got == f"{path}:4: {exc.value}"
    else:
        assert not isinstance(got, str)
    monkeypatch.setattr(ingest, "_CSV_BLOCK", len(rows) + 1)
    assert got == _cells_read(parse_table, path)


def _traced_peak(call):
    """call()'s result and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _array_bytes(result):
    """The bytes of the arrays a reader's result holds, a table's own included."""
    parts = vars(result).values() if isinstance(result, ContingencyTable) else result
    return sum(x.nbytes for x in parts if isinstance(x, np.ndarray))


def test_cell_files_are_read_and_written_a_block_at_a_time(tmp_path):
    """At 25,600 cells, reading a table or a predictions file peaks at the
    arrays returned plus one block, and writing predictions at one block:
    memory does not follow the file's size. A block is _CSV_BLOCK rows of
    the file's text, at up to 8 bytes of Python objects per byte of text
    (its lines and their join, numpy's 4-byte characters, the label
    strings)."""
    table = generate(SynthConfig(160, 160, np.full(6, 1 / 6), 0.5, 1e6, seed=5))
    assert table.n_cells == 25_600
    paths = {parse_table: tmp_path / "table.csv", parse_predictions: tmp_path / "preds.csv"}
    write_table(paths[parse_table], table)
    ingest.write_predictions(paths[parse_predictions], table)

    def block(path):
        return 8 * ingest._CSV_BLOCK * path.stat().st_size / table.n_cells

    for read, path in paths.items():
        got, peak = _traced_peak(lambda: read(path))
        assert peak <= _array_bytes(got) + block(path), read.__name__
    table.cell_sums  # the table's cached cell totals are not the writer's
    _, peak = _traced_peak(lambda: ingest.write_predictions(tmp_path / "out.csv", table))
    assert peak <= block(paths[parse_predictions])


def _stage_inputs(tmp_path, table=None):
    """A table with every cell occupied, by default 160 x 160 (25,600
    cells), written as table.csv, with its race distribution and its BISG
    predictions."""
    if table is None:
        table = generate(SynthConfig(160, 160, np.full(6, 1 / 6), 0.5, 1e6, seed=5))
        assert table.n_cells == 25_600
    assert np.all(table.cell_sums > 0)
    tmp_path.mkdir(parents=True, exist_ok=True)
    write_table(tmp_path / "table.csv", table)
    write_race_margin(tmp_path / "margin.json", table.margin("r") / table.total())
    pred, _ = weighted_counts(fit_factors(table), MarginSet.from_table(table))
    ingest.write_predictions(tmp_path / "preds.csv", pred)


def test_rake_holds_no_copy_of_the_parsed_rows(tmp_path):
    """At 25,600 cells, `rake` peaks at the base's and the targets' arrays
    plus raking's own memory: the parsed (n, 7) rows of counts and
    conditionals are let go before raking, and what else the command
    holds stays under half of them."""
    _stage_inputs(tmp_path)
    labels, index, counts, conds = parse_predictions(tmp_path / "preds.csv")
    rows = 7 * counts.nbytes
    live = counts > 0
    base = ContingencyTable(labels, index[live], counts[live, None] * conds[live])
    targets = MarginSet(
        parse_race_margin(tmp_path / "margin.json") * counts.sum(), labels, base.cell_index, counts[live]
    )
    held = _array_bytes(base) + targets.totals.nbytes  # the targets share the base's index
    _, own = _traced_peak(lambda: rake(base, targets))
    del labels, index, counts, conds, live, base, targets
    code, peak = _traced_peak(lambda: cli.main([
        "rake", "--base", str(tmp_path / "preds.csv"), "--race-margin", str(tmp_path / "margin.json"),
        "--out-dir", str(tmp_path / "raked"),
    ]))
    assert code == 0
    assert peak <= held + own + rows / 2


def test_evaluate_holds_one_calibration_curve_at_a_time(tmp_path):
    """At 25,600 cells, `evaluate` peaks at the truth's and the
    prediction's arrays plus the memory of its largest report, and less
    than one more curve's (n + 1, 2) points (the last outline written, a
    block of text): the six curves are computed, written and let go one at
    a time, not held together."""
    _stage_inputs(tmp_path)
    truth = parse_table(tmp_path / "table.csv")
    _, index, _, conds = parse_predictions(tmp_path / "preds.csv")
    assert np.array_equal(index, truth.cell_index)
    pred = ContingencyTable(truth.labels, truth.cell_index, conds * truth.cell_sums[:, None])
    pred.cell_sums  # cached by the first report, as in evaluate
    # the prediction shares the truth's index
    held = _array_bytes(truth) + _array_bytes(pred) - truth.cell_index.nbytes
    reports = [lambda: subpop_report(truth, pred), lambda: cellwise_report(truth, pred)]
    reports += [lambda race=race: calibration_curve(truth, pred, race) for race in RaceCategory]
    own = max(_traced_peak(report)[1] for report in reports)
    curve = 16 * (truth.n_cells + 1)
    del truth, index, conds, pred, reports
    code, peak = _traced_peak(lambda: cli.main([
        "evaluate", "--truth-table", str(tmp_path / "table.csv"), "--preds", str(tmp_path / "preds.csv"),
        "--out-dir", str(tmp_path / "ev"),
    ]))
    assert code == 0
    assert peak <= held + own + curve


def _stage_argv(stage, tmp_path):
    if stage == "rake":
        return ["rake", "--base", str(tmp_path / "preds.csv"), "--race-margin",
                str(tmp_path / "margin.json"), "--out-dir", str(tmp_path / "raked")]
    return ["evaluate", "--truth-table", str(tmp_path / "table.csv"), "--preds",
            str(tmp_path / "preds.csv"), "--out-dir", str(tmp_path / "ev")]


# bytes per cell of the arrays a stage holds: an (n, 2) int64 cell index,
# (n, 6) float64 values, the parsed (n, 7) rows of a predictions file, an
# (n,) float64 or int64 vector and an (n,) bool mask
INDEX, VALUES, ROWS, VECTOR, MASK = 16, 48, 56, 8, 1


@pytest.fixture(scope="module")
def stage_sizes(tmp_path_factory):
    """Stage inputs on the same 320 + 320 labels at 102,400 cells (all of
    320 x 320) and at 25,600 (every fourth geolocation of each surname):
    {cells: directory}. The labels' memory cancels between the two."""
    root = tmp_path_factory.mktemp("stages")
    table = generate(SynthConfig(320, 320, np.full(6, 1 / 6), 0.5, 1e6, seed=5))
    keep = table.cell_index.sum(axis=1) % 4 == 0
    tables = [table, ContingencyTable(table.labels, table.cell_index[keep], table.cell_values[keep])]
    for t in tables:
        _stage_inputs(root / str(t.n_cells), t)
    return {t.n_cells: root / str(t.n_cells) for t in tables}


@pytest.mark.parametrize("stage, per_cell", [
    # the race-major base values and the Newton work array, the cell index,
    # the cell targets, a trial step's two (n,) vectors (cell sums, then
    # x / sums), the live-cell mask and one more: the parsed rows are gone,
    # and no copy of the base sits beside its values
    ("rake", 2 * VALUES + INDEX + 3 * VECTOR + 2 * MASK),
    # the truth (values, index, codes, cell totals), the prediction (its
    # values in the memory of the parsed rows, with no copy beside them,
    # and its cell totals) and the largest report's scratch, less than the
    # (n, 6) array that none of them makes, with a few masks
    ("evaluate", (VALUES + INDEX + 2 * VECTOR) + (ROWS + VECTOR) + VALUES + 3 * MASK),
])
def test_stage_memory_grows_by_its_arrays_per_cell(stage_sizes, stage, per_cell):
    """From 25,600 to 102,400 cells, the traced peak of `rake` and of
    `evaluate` grows by no more than the bytes a cell takes in the arrays
    each holds at its peak. Labels and text blocks cancel in the
    difference; the interpreter's own garbage and caches, which do not grow
    with cells, vary by tens of KB from run to run, and 128 KiB allows for
    that (1.7 bytes a cell here)."""
    peaks = {}
    for cells, path in stage_sizes.items():
        gc.collect()
        code, peaks[cells] = _traced_peak(lambda: cli.main(_stage_argv(stage, path)))
        assert code == 0
    (n1, p1), (n2, p2) = sorted(peaks.items())
    assert p2 - p1 <= per_cell * (n2 - n1) + 2**17


def test_evaluate_lets_go_of_each_curve_before_the_next(tmp_path, monkeypatch):
    """At 25,600 cells, traced memory on entry to each calibration curve
    after the first is within one text block of the curves file of what
    it was on entry to the first: the last curve's outline, its rows and
    its text are let go before the next curve is computed."""
    _stage_inputs(tmp_path)
    entries, curve = [], raketab.calibration_curve

    def traced(*args):
        entries.append(tracemalloc.get_traced_memory()[0])
        return curve(*args)

    monkeypatch.setattr(raketab, "calibration_curve", traced)
    code, _ = _traced_peak(lambda: cli.main(_stage_argv("evaluate", tmp_path)))
    assert code == 0 and len(entries) == len(RaceCategory)
    path = tmp_path / "ev" / "calibration_curves.csv"
    block = ingest._CSV_BLOCK * path.stat().st_size / len(path.read_bytes().splitlines())
    assert max(entries[1:]) - entries[0] <= block


def test_write_csv_lets_go_of_each_part_before_the_next(tmp_path):
    """`_write_csv` holds no part, its rows or its values, while it asks
    for the next part."""
    seen = []

    def parts():
        for i in range(3):
            assert all(ref() is None for ref in seen)
            values = np.full((2 * ingest._CSV_BLOCK + 1, 2), float(i))
            seen.append(weakref.ref(values))
            yield ingest._columns([["a"] * len(values)], values)
            del values

    assert ingest._write_csv(tmp_path / "out.csv", ["k", "x", "y"], parts()) == [2049] * 3
    assert all(ref() is None for ref in seen)


LABEL_TEXT = st.text(st.sampled_from('ab ,"\n\r;#éÜ中\t'), max_size=6) | st.sampled_from(
    ["", " ", " lead", "trail ", '"', '""', ",", "\r\n", "\n", "\r"]
)
FLOAT_VALUES = st.floats() | st.sampled_from([
    float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, 1e-05, 0.0001, 1e16,
    9999999999999998.0, 1.7976931348623157e308,
])


@settings(max_examples=80, deadline=None)
@given(
    n_labels=st.integers(1, 3), n_values=st.integers(0, 3), n_rows=st.integers(0, 12),
    block=st.integers(1, 5), data=st.data(),
)
def test_csv_writer_matches_csv_module(n_labels, n_values, n_rows, block, data):
    """_write_csv writes the bytes of csv.writer given the same rows, with
    an empty field for each value that is not finite."""
    if n_labels + n_values < 2:
        n_values = 1
    labels = [data.draw(st.lists(LABEL_TEXT, min_size=n_rows, max_size=n_rows))
              for _ in range(n_labels)]
    header = [f"c{j}" for j in range(n_labels + n_values)]
    values = None
    if n_values:
        values = np.array(
            data.draw(st.lists(FLOAT_VALUES, min_size=n_rows * n_values, max_size=n_rows * n_values)),
            dtype=np.float64,
        ).reshape(n_rows, n_values)
    expected = io.StringIO(newline="")
    w = csv.writer(expected)
    w.writerow(header)
    for i in range(n_rows):
        numbers = [] if values is None else values[i].tolist()
        w.writerow([c[i] for c in labels] + [x if math.isfinite(x) else "" for x in numbers])
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "_CSV_BLOCK", block)
        path = Path(tmp) / "out.csv"
        ingest._write_csv(path, header, [ingest._columns(labels, values)])
        got = path.read_bytes().decode("utf-8")
    assert got.split("\r\n") == expected.getvalue().split("\r\n")


BOM_INPUTS = {
    "table": (parse_table, ["surname,geoid,aian,api,black,hispanic,white,other",
                            "lee,g1,1,0,2,0,3,0", "kim,g2,0,1,0,0,0,4"]),
    "predictions": (parse_predictions, [
        "surname,geoid,count,p_aian,p_api,p_black,p_hispanic,p_white,p_other",
        "LEE,g1,6,0.5,0,0.5,0,0,0", "KIM,g2,5,0,0.2,0,0,0.8,0"]),
    "surname factors": (parse_surname_factors, [TestSurnameFactors.HEADER,
                                                "SMITH,100,0.0,0.0,0.2,0.0,0.8,0.0"]),
    "geo factors": (parse_geo_factors, [TestGeoFactors.HEADER, "12086,100,1,5,20,60,12,2"]),
    "region map": (parse_region_map, ["geoid,region", "g1,north", "g2,south"]),
    "voter file": (lambda path: parse_voter_file(path, CANONICAL_MAPPING), [
        TestVoterFile.HEADER, "1,Diaz,g1,hispanic,true", "2,Lee,g2,,false"]),
}


def _comparable(parsed):
    """Parser results as plain values that compare with ==."""
    if isinstance(parsed, ContingencyTable):
        return parsed.labels, parsed.cell_index.tolist(), parsed.cell_values.tolist()
    if isinstance(parsed, tuple):
        return [_comparable(p) for p in parsed]
    if isinstance(parsed, np.ndarray):
        return parsed.tolist()
    if isinstance(parsed, dict):
        return {k: _comparable(v) for k, v in parsed.items()}
    return parsed


@pytest.mark.parametrize("kind", sorted(BOM_INPUTS))
def test_byte_order_mark_is_ignored(tmp_path, kind):
    parse, lines = BOM_INPUTS[kind]
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    write_lines(plain, lines)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert _comparable(parse(marked)) == _comparable(parse(plain))
