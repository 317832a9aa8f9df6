import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from raketab import RaceCategory
from raketab.ingest import (
    CANONICAL_MAPPING,
    CPS_ORIGINS,
    CPS_RACE_TOKENS,
    FLORIDA_MAPPING,
    NORTH_CAROLINA_MAPPING,
    ParseError,
    VoterRecord,
    aggregate_voters,
    map_cps_categories,
    parse_geo_factors,
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
        probs, counts, rejects = parse_surname_factors(f)
        np.testing.assert_allclose(probs["SMITH"], race6(0, 0, 0.2, 0, 0.8))
        assert counts["SMITH"] == 100.0
        assert len(rejects) == 0

    def test_renormalizes_near_one(self, tmp_path):
        f = tmp_path / "s.csv"
        write_lines(f, [self.HEADER, "lee,10,0.0,0.49,0.0,0.0,0.5,0.0"])
        probs, _, rejects = parse_surname_factors(f)
        assert probs["LEE"].sum() == pytest.approx(1.0, abs=1e-12)
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
        probs, _, rejects = parse_surname_factors(f)
        assert "BAD" not in probs and "WORSE" not in probs
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
        probs, counts, rejects = parse_geo_factors(f)
        assert probs["12086"][RaceCategory.HISPANIC] == pytest.approx(0.6)
        assert counts["12086"] == 100.0
        assert len(rejects) == 0

    def test_zero_total_rejected(self, tmp_path):
        f = tmp_path / "g.csv"
        write_lines(f, [self.HEADER, "111,5,0,0,0,0,0,0", "222,4,0,0,1,0,3,0"])
        probs, _, rejects = parse_geo_factors(f)
        assert "111" not in probs
        assert any("111" in reason for _, reason in rejects.rows)

    def test_duplicate_geoid(self, tmp_path):
        f = tmp_path / "g.csv"
        write_lines(f, [self.HEADER, "1,4,0,0,1,0,3,0", "1,4,0,0,1,0,3,0"])
        with pytest.raises(ParseError, match="duplicate geolocation"):
            parse_geo_factors(f)


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
        assert occupancy[("A", "g")] == 3

    def test_require_race_filters(self):
        recs = [
            VoterRecord("1", "A", "g", RaceCategory.WHITE, True),
            VoterRecord("2", "A", "g", RaceCategory.WHITE, False),
            VoterRecord("3", "A", "g", None, True),
        ]
        table, occupancy = aggregate_voters(recs, require_race=True)
        assert occupancy[("A", "g")] == 1
        table2, occupancy2 = aggregate_voters(recs, require_race=False)
        assert occupancy2[("A", "g")] == 3
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
        write_surname_factors(path, factors.race_given_surname, factors.surname_counts)
        probs, counts, rejects = parse_surname_factors(path)
        assert len(rejects) == 0
        assert counts == {k.upper(): v for k, v in factors.surname_counts.items()}
        for key, vec in factors.race_given_surname.items():
            np.testing.assert_array_equal(probs[key.upper()], vec)
        # a second write/parse cycle is the exact identity
        write_surname_factors(path, probs, counts)
        probs2, counts2, _ = parse_surname_factors(path)
        assert counts2 == counts
        for key, vec in probs.items():
            np.testing.assert_array_equal(probs2[key], vec)

    def test_geo_factors(self, tmp_path, f1_table):
        from raketab import fit_factors

        factors = fit_factors(f1_table)
        path = tmp_path / "g.csv"
        write_geo_factors(path, factors.race_given_geo, factors.geo_counts)
        probs, counts, _ = parse_geo_factors(path)
        assert counts == factors.geo_counts
        for key, vec in factors.race_given_geo.items():
            np.testing.assert_allclose(probs[key], vec, rtol=1e-15)

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
        with pytest.raises(ParseError, match="sums to"):
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
