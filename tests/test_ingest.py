import csv
import io
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from raketab import ContingencyTable, RaceCategory, ingest
from raketab.table import N_RACES
from raketab.ingest import (
    CANONICAL_MAPPING,
    CPS_ORIGINS,
    CPS_RACE_TOKENS,
    FLORIDA_MAPPING,
    NORTH_CAROLINA_MAPPING,
    ParseError,
    RejectReport,
    VoterRecord,
    aggregate_voters,
    map_cps_categories,
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
    write_geo_factors,
    write_table,
    write_voter_file,
    _largest_remainder,
)

from conftest import race6


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
        reasons = {line: reason for line, reason in rejects.rows}
        assert 3 in reasons and "sum" in reasons[3]
        assert 5 in reasons and "non-numeric" in reasons[5]

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
        assert any("111" in reason for _, reason in rejects.rows)

    def test_excessive_rejects_hard_error(self, tmp_path):
        f = tmp_path / "g.csv"
        good = [f"{g},4,0,0,1,0,3,0" for g in range(222, 230)]
        bad = ["111,5,0,0,0,0,0,0", "112,5,nan,0,0,0,0,1"]
        write_lines(f, [self.HEADER] + bad + good)
        with pytest.raises(ParseError, match="2 of 10 rows rejected"):
            parse_geo_factors(f)

    def test_non_finite_field_rejected(self, tmp_path):
        f = tmp_path / "g.csv"
        good = [f"{g},4,0,0,1,0,3,0" for g in range(222, 231)]
        write_lines(f, [self.HEADER, "111,inf,0,0,1,0,3,0"] + good)
        labels, _, rejects = parse_geo_factors(f)
        assert "111" not in labels
        assert rejects.rows == [(2, "non-finite field")]

    def test_duplicate_geoid(self, tmp_path):
        f = tmp_path / "g.csv"
        write_lines(f, [self.HEADER, "1,4,0,0,1,0,3,0", "1,4,0,0,1,0,3,0"])
        with pytest.raises(ParseError, match="duplicate geolocation"):
            parse_geo_factors(f)


# the factor parsers against the row-at-a-time loop they replace ----------


def reference_parse_factors(path, header, kind, clean_label, bad_sum):
    """A factor file read one row at a time with numpy per row: label ->
    P(r|label) and count, the rules of the module docstring applied to each
    row as it is read. The parser must agree with it row for row."""
    probs, counts = {}, {}
    rejects = RejectReport()
    with ingest._open_reader(path, header) as (_, reader):
        for line, row in enumerate(reader, start=2):
            if len(row) != len(header):
                rejects.rows.append((line, f"expected {len(header)} fields, got {len(row)}"))
                continue
            label = clean_label(row[0])
            if not label:
                rejects.rows.append((line, f"empty {header[0]}"))
                continue
            if label in probs:
                raise ParseError(f"{path}:{line}: duplicate {kind} {label!r}")
            try:
                count = float(row[1])
                vec = np.array([float(x) for x in row[2:]], dtype=np.float64)
            except ValueError:
                rejects.rows.append((line, "non-numeric field"))
                continue
            s = vec.sum()
            if not (np.isfinite(count) and np.all(np.isfinite(vec))):
                reason = "non-finite field"
            elif count < 0 or np.any(vec < 0):
                reason = "negative value"
            else:
                reason = bad_sum(label, s)
            if reason:
                rejects.rows.append((line, reason))
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
    return labels, values.shape, values.tobytes(), rejects.rows


@pytest.mark.parametrize("kind", sorted(FACTOR_KINDS))
@settings(max_examples=150, deadline=None)
@given(data=st.data(), crlf=st.booleans(), cap=st.sampled_from([0.10, 1.0]))
def test_factor_parser_matches_row_loop(kind, data, crlf, cap):
    """Same accepted labels, bit-identical counts and probabilities, same
    reject rows and same ParseError text as the row loop, with the reject
    cap as shipped and lifted."""
    parse, reference, header = FACTOR_KINDS[kind]
    rows = data.draw(st.lists(factor_rows(kind), max_size=25))
    text = io.StringIO(newline="")
    csv.writer(text, lineterminator="\r\n" if crlf else "\n").writerows([header, *rows])
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "MAX_REJECT_FRACTION", cap)
        path = Path(tmp) / "factors.csv"
        path.write_text(text.getvalue(), encoding="utf-8", newline="")
        got = _parsed(parse, path)  # a RuntimeWarning here fails the test
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the row loop's sums overflow
            assert got == _parsed(reference, path)


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


class TestVoterFile:
    HEADER = "voter_id,surname,geoid,race,active"

    def test_florida_multiracial_goes_to_other(self, tmp_path):
        f = tmp_path / "v.csv"
        write_lines(f, [self.HEADER, "1,Diaz,12086,Multi-racial,true"])
        records = parse_voter_file(f, FLORIDA_MAPPING)
        assert records[0].race == RaceCategory.OTHER
        assert records[0].surname == "DIAZ"

    def test_nc_hispanic_flag_wins(self, tmp_path):
        f = tmp_path / "v.csv"
        write_lines(f, [self.HEADER, "1,PEREZ,37001,HL:W,true", "2,SMITH,37001,NL:W,true"])
        records = parse_voter_file(f, NORTH_CAROLINA_MAPPING)
        assert records[0].race == RaceCategory.HISPANIC
        assert records[1].race == RaceCategory.WHITE

    def test_empty_race_flagged_missing(self, tmp_path):
        f = tmp_path / "v.csv"
        write_lines(f, [self.HEADER, "1,LEE,g1,,true"])
        records = parse_voter_file(f, FLORIDA_MAPPING)
        assert records[0].race is None

    def test_inactive_retained_with_flag(self, tmp_path):
        f = tmp_path / "v.csv"
        write_lines(f, [self.HEADER, "1,LEE,g1,Hispanic,false"])
        records = parse_voter_file(f, FLORIDA_MAPPING)
        assert len(records) == 1 and not records[0].active

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

    def test_mapping_totality(self):
        for mapping in (FLORIDA_MAPPING, NORTH_CAROLINA_MAPPING, CANONICAL_MAPPING):
            for key in mapping.mapping:
                value = mapping.map_value(key)
                assert value is None or isinstance(value, RaceCategory)


class TestCpsCategories:
    def test_hispanic_origin_rule(self):
        out = map_cps_categories({"hispanic:white+black": 10})
        assert out[RaceCategory.HISPANIC] == 10

    def test_multirace_black_rule(self):
        out = map_cps_categories({"non-hispanic:white+black": 4})
        assert out[RaceCategory.BLACK] == 4

    def test_multirace_asian_rule(self):
        out = map_cps_categories({"non-hispanic:asian+white": 2})
        assert out[RaceCategory.API] == 2

    def test_single_race_direct(self):
        out = map_cps_categories({"non-hispanic:hpi": 3, "non-hispanic:aian": 1})
        assert out[RaceCategory.API] == 3 and out[RaceCategory.AIAN] == 1

    def test_residual_multirace_goes_to_other(self):
        out = map_cps_categories({"non-hispanic:white+aian": 5})
        assert out[RaceCategory.OTHER] == 5

    def test_unknown_key_raises(self):
        with pytest.raises(KeyError, match="klingon"):
            map_cps_categories({"non-hispanic:klingon": 1})
        with pytest.raises(KeyError):
            map_cps_categories({"martian:white": 1})

    def test_documented_universe_is_total(self):
        # every single and pairwise combination with either origin maps
        keys = []
        for origin in CPS_ORIGINS:
            for i, a in enumerate(CPS_RACE_TOKENS):
                keys.append(f"{origin}:{a}")
                for b in CPS_RACE_TOKENS[i + 1 :]:
                    keys.append(f"{origin}:{a}+{b}")
        out = map_cps_categories({k: 1.0 for k in keys})
        assert out.sum() == len(keys)


class TestAggregate:
    def test_three_identical_records(self):
        rec = VoterRecord("1", "A", "g", RaceCategory.WHITE, True)
        recs = [rec, VoterRecord("2", "A", "g", RaceCategory.WHITE, True),
                VoterRecord("3", "A", "g", RaceCategory.WHITE, True)]
        table, occupancy = aggregate_voters(recs, require_race=True)
        assert table.cell("A", "g")[RaceCategory.WHITE] == 3
        assert occupancy.cell[("A", "g")] == 3

    def test_require_race_filters(self):
        recs = [
            VoterRecord("1", "A", "g", RaceCategory.WHITE, True),
            VoterRecord("2", "A", "g", RaceCategory.WHITE, False),
            VoterRecord("3", "A", "g", None, True),
        ]
        table, occupancy = aggregate_voters(recs, require_race=True)
        assert occupancy.cell[("A", "g")] == 1
        table2, occupancy2 = aggregate_voters(recs, require_race=False)
        assert occupancy2.cell[("A", "g")] == 3
        assert table2.cell("A", "g").sum() == 2  # the race-missing one has no race mass

    def test_f1_multiset(self, f1_records, f1_table):
        records = []
        i = 0
        for s, g, weights in f1_records:
            r = int(np.argmax(weights))
            for _ in range(int(weights[r])):
                records.append(VoterRecord(str(i), s, g, RaceCategory(r), True))
                i += 1
        table, _ = aggregate_voters(records, require_race=True)
        np.testing.assert_array_equal(table.cell_values, f1_table.cell_values)

    def test_total_matches_contributing_records(self):
        recs = [VoterRecord(str(i), "A", "g", RaceCategory.BLACK, True) for i in range(7)]
        table, _ = aggregate_voters(recs, require_race=True)
        assert table.total() == 7.0


def make_records(counts):
    records = []
    i = 0
    for r, n in enumerate(counts):
        for _ in range(n):
            records.append(VoterRecord(str(i), f"S{i}", "g", RaceCategory(r), True))
            i += 1
    return records


class TestSubsample:
    def test_bounded_by_scarcest_race(self):
        records = make_records([30, 10])
        out = subsample_to_margin(records, race6(0.5, 0.5), seed=0)
        assert len(out) == 20
        counts = np.zeros(6)
        for rec in out:
            counts[rec.race] += 1
        np.testing.assert_array_equal(counts[:2], [10, 10])

    def test_matching_target_returns_everything(self):
        records = make_records([30, 10])
        out = subsample_to_margin(records, race6(0.75, 0.25), seed=1)
        assert len(out) == 40
        assert {r.voter_id for r in out} == {r.voter_id for r in records}

    def test_deterministic(self):
        records = make_records([25, 15, 8])
        target = race6(0.4, 0.4, 0.2)
        a = subsample_to_margin(records, target, seed=42)
        b = subsample_to_margin(records, target, seed=42)
        assert [r.voter_id for r in a] == [r.voter_id for r in b]

    def test_no_duplicates_and_quota_bounds(self):
        records = make_records([9, 14, 3])
        target = race6(0.31, 0.52, 0.17)
        out = subsample_to_margin(records, target, seed=3)
        ids = [r.voter_id for r in out]
        assert len(ids) == len(set(ids))
        counts = np.zeros(6)
        for rec in out:
            counts[rec.race] += 1
        assert counts[0] <= 9 and counts[1] <= 14 and counts[2] <= 3
        n = len(out)
        np.testing.assert_array_less(np.abs(counts - n * target), 1 + 1e-9)

    def test_impossible_target(self):
        records = make_records([5, 0])
        with pytest.raises(ValueError, match="no records"):
            subsample_to_margin(records, race6(0.5, 0.5), seed=0)

    def test_unlabeled_record_rejected(self):
        records = [VoterRecord("1", "A", "g", None, True)]
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
        records = [
            VoterRecord("1", "DIAZ", "g1", RaceCategory.HISPANIC, True),
            VoterRecord("2", "LEE", "g2", None, False),
        ]
        path = tmp_path / "v.csv"
        write_voter_file(path, records)
        back = parse_voter_file(path, CANONICAL_MAPPING)
        assert back == records

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
        for bad in ("NaN", "Infinity"):
            path.write_text(f'{{"race_distribution": {{"aian": {bad}, "api": 1.0}}}}')
            with pytest.raises(ParseError, match="non-finite"):
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

    def test_underscore_and_non_ascii_digits_rejected(self, tmp_path, fmt):
        # float() reads "1_000" and Arabic-Indic digits; the cell reader
        # takes plain decimal text only
        parse, header, make = fmt
        for bad in ("1_000", "١"):
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
        ingest._write_csv(path, header, labels, values)
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
    if isinstance(parsed, RejectReport):
        return parsed.rows
    return parsed


@pytest.mark.parametrize("kind", sorted(BOM_INPUTS))
def test_byte_order_mark_is_ignored(tmp_path, kind):
    parse, lines = BOM_INPUTS[kind]
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    write_lines(plain, lines)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert _comparable(parse(marked)) == _comparable(parse(plain))
