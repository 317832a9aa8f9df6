import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from raketab import (
    AxisLabels,
    ContingencyTable,
    MarginSet,
    build_table,
)
from raketab.ingest import parse_predictions, write_predictions
from raketab.table import compact_labels, index_cells, probability_vector, row_sums

from conftest import race6


class TestBuildTable:
    def test_additive_accumulation(self):
        records = [
            ("s1", "g1", race6(1)),
            ("s1", "g1", race6(1)),
        ]
        table = build_table(records)
        np.testing.assert_array_equal(table.cell("s1", "g1"), race6(2))

    def test_empty_record_list(self):
        with pytest.raises(ValueError, match="empty table"):
            build_table([])

    def test_f1_total(self, f1_records):
        assert build_table(f1_records).total() == 40.0

    def test_negative_weight_names_record(self):
        records = [("s1", "g1", race6(1)), ("s2", "g1", race6(-1))]
        with pytest.raises(ValueError, match="record 1"):
            build_table(records)

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError, match="record 0"):
            build_table([("", "g1", race6(1))])

    @given(st.permutations(range(8)))
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariant(self, order):
        base = [
            ("a", "x", race6(1, 2)),
            ("a", "y", race6(0, 3)),
            ("b", "x", race6(2, 2)),
            ("b", "y", race6(4, 0)),
            ("a", "x", race6(0.5, 0)),
            ("c", "y", race6(1, 1)),
            ("c", "x", race6(0, 0.25)),
            ("b", "x", race6(1, 0)),
        ]
        shuffled = [base[i] for i in order]
        t1, t2 = build_table(base), build_table(shuffled)
        assert t1.labels == t2.labels
        np.testing.assert_array_equal(t1.cell_values, t2.cell_values)


class TestMargin:
    def test_f1_geo_race(self, f1_table):
        gr = f1_table.margin("gr")
        np.testing.assert_allclose(gr[0], race6(11, 9))
        np.testing.assert_allclose(gr[1], race6(6, 14))

    def test_f1_race(self, f1_table):
        np.testing.assert_allclose(f1_table.margin("r"), race6(17, 23))

    def test_full_margin_is_table(self, f1_table):
        cube = f1_table.margin("sgr")
        for (s, g), vec in f1_table.items():
            si = f1_table.labels.surnames.index(s)
            gi = f1_table.labels.geolocations.index(g)
            np.testing.assert_array_equal(cube[si, gi], vec)

    def test_empty_axes_rejected(self, f1_table):
        with pytest.raises(ValueError):
            f1_table.margin("")
        with pytest.raises(ValueError):
            f1_table.margin("qz")

    def test_margin_sums_to_total(self, f1_table):
        for axes in ("s", "g", "r", "sg", "sr", "gr", "sgr"):
            assert f1_table.margin(axes).sum() == pytest.approx(40.0, rel=1e-12)

    def test_marginalization_idempotent(self, f1_table):
        # collapsing through an intermediate margin matches going direct
        gr = f1_table.margin("gr")
        np.testing.assert_allclose(gr.sum(axis=0), f1_table.margin("r"), rtol=1e-12)
        sg = f1_table.margin("sg")
        np.testing.assert_allclose(sg.sum(axis=0), f1_table.margin("g"), rtol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c"]),
            st.sampled_from(["x", "y"]),
            st.integers(0, 5),
            st.floats(0.0, 50.0),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_margin_consistency_property(entries):
    records = []
    for s, g, r, w in entries:
        vec = np.zeros(6)
        vec[r] = w
        records.append((s, g, vec))
    table = build_table(records)
    total = table.total()
    for axes in ("s", "g", "r", "sg", "sr", "gr"):
        assert table.margin(axes).sum() == pytest.approx(total, rel=1e-12, abs=1e-12)
    # the two-way race margins equal a loop adding cells in cell order
    for axes, (axis, n) in (("sr", (0, table.labels.n_s)), ("gr", (1, table.labels.n_g))):
        ref = np.zeros((n, 6))
        for key, vec in zip(table.cell_index, table.cell_values):
            ref[key[axis]] += vec
        assert np.array_equal(table.margin(axes), ref)


def written_conditionals(table):
    """The (counts, conditionals) of `table`'s cells as `write_predictions`
    writes them, read back by `parse_predictions`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "predictions.csv"
        write_predictions(path, table)
        _, _, counts, conds = parse_predictions(path)
    return counts, conds


def conditional_race(vec):
    """The race conditional written for a one-cell table holding `vec`, or
    None when the cell is empty."""
    counts, conds = written_conditionals(ContingencyTable(AxisLabels(["s"], ["g"]), [[0, 0]], [vec]))
    return conds[0] if counts[0] > 0 else None


class TestConditionalRace:
    def test_proportional(self):
        np.testing.assert_allclose(
            conditional_race(race6(6, 4)), race6(0.6, 0.4), rtol=1e-12
        )

    def test_uniform(self):
        np.testing.assert_allclose(conditional_race(np.ones(6)), np.full(6, 1 / 6))

    def test_f1_bisg_cell(self):
        # raw independence-model cell for (s1, g1): (110/17, 45/23)
        out = conditional_race(race6(110 / 17, 45 / 23))
        np.testing.assert_allclose(out[:2], [0.767830, 0.232170], atol=5e-7)

    def test_zero_sum_rejected(self):
        table = ContingencyTable(AxisLabels(["s", "t"], ["g"]), [[0, 0], [1, 0]], [race6(1), race6()])
        counts, conds = written_conditionals(table)
        assert (counts > 0).tolist() == [True, False]
        assert not conds[1].any()

    @given(st.lists(st.floats(0.0, 100.0), min_size=6, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_sums_to_one(self, values):
        vec = np.array(values)
        if vec.sum() <= 0:
            return
        assert conditional_race(vec).sum() == pytest.approx(1.0, abs=1e-12)


class TestMarginSet:
    def test_consistent_targets_accepted(self):
        ms = MarginSet.from_cells(race6(3, 1), {("a", "x"): 2.0, ("b", "x"): 2.0})
        assert ms.race.sum() == 4.0

    def test_inconsistent_targets_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            MarginSet.from_cells(race6(3, 2), {("a", "x"): 2.0})

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            MarginSet.from_cells(race6(-1, 1), {("a", "x"): 0.0})

    def test_from_table_matches_margins(self, f1_table):
        ms = MarginSet.from_table(f1_table)
        np.testing.assert_allclose(ms.race, f1_table.margin("r"))
        assert ms.cell[("s1", "g1")] == 10.0
        assert ms.cell == dict(zip(f1_table.support(), f1_table.cell_sums.tolist()))
        assert ms.labels is f1_table.labels
        assert np.shares_memory(ms.cell_index, f1_table.cell_index)  # a view, not a copy

    def test_from_cells_resolves_labels_once(self):
        ms = MarginSet.from_cells(race6(3, 1), {("b", "x"): 2.0, ("a", "y"): 2.0})
        assert ms.labels == AxisLabels(["a", "b"], ["x", "y"])
        assert ms.cell_index.tolist() == [[0, 1], [1, 0]]
        assert ms.cell == {("a", "y"): 2.0, ("b", "x"): 2.0}
        assert not ms.totals.flags.writeable and not ms.cell_index.flags.writeable

    def test_empty_cell_family(self):
        ms = MarginSet.from_cells(race6(1), {})
        assert ms.labels is None and ms.cell == {} and len(ms.totals) == 0


class TestImmutability:
    def test_arrays_read_only(self, f1_table):
        with pytest.raises(ValueError):
            f1_table.cell_values[0, 0] = 99.0
        with pytest.raises(ValueError):
            f1_table.cell_index[0, 0] = 1
        # the cell totals are computed once and shared, so they are read-only too
        assert f1_table.cell_sums is f1_table.cell_sums
        with pytest.raises(ValueError):
            f1_table.cell_sums[0] = 99.0

    def test_table_cannot_be_written_through_the_callers_arrays(self):
        labels = AxisLabels(["a", "b"], ["x", "y"])
        index, values = np.array([[0, 1], [1, 0]]), np.ones((2, 6))
        table = ContingencyTable(labels, index, values)
        assert table.cell_index.base is index and table.cell_values.base is values  # no copy
        for given in (index, values):
            with pytest.raises(ValueError, match="read-only"):
                given[0, 0] = -5
        assert table.cell_values.min() == 1.0 and table.cell_index.tolist() == [[0, 1], [1, 0]]
        # arrays a failed construction was handed stay writable
        bad_index, bad_values = np.array([[0, 1], [1, 0]]), -np.ones((2, 6))
        with pytest.raises(ValueError, match="negative"):
            ContingencyTable(labels, bad_index, bad_values)
        assert bad_index.flags.writeable and bad_values.flags.writeable

    def test_margins_cannot_be_written_through_the_callers_arrays(self):
        labels = AxisLabels(["a", "b"], ["x", "y"])
        race, index, totals = np.full(6, 0.5), np.array([[0, 1], [1, 0]]), np.array([1.0, 2.0])
        ms = MarginSet(race, labels, index, totals)
        assert ms.race is race and ms.totals.base is totals  # no copy
        for given in (race, index, totals):
            with pytest.raises(ValueError, match="read-only"):
                given[0] = 0
        assert ms.race.tolist() == [0.5] * 6 and ms.totals.tolist() == [1.0, 2.0]

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            AxisLabels(["a", "a"], ["x"])


labels_strategy = st.lists(
    st.tuples(st.sampled_from(["b", "a", "d", "c"]), st.sampled_from(["y", "x", "z"])),
    min_size=1,
    max_size=15,
)


@settings(max_examples=120, deadline=None)
@given(labels_strategy, labels_strategy)
def test_index_cells_and_locate_match_dict_reference(pairs, queries):
    """index_cells and locate agree with a plain dict over label pairs, for
    unsorted input, repeated pairs and absent surnames, geolocations or cells."""
    labels, index, rows = index_cells([s for s, _ in pairs], [g for _, g in pairs])
    assert labels.surnames == tuple(sorted({s for s, _ in pairs}))
    assert labels.geolocations == tuple(sorted({g for _, g in pairs}))
    reference = {key: i for i, key in enumerate(sorted(set(pairs)))}
    assert labels.pairs(index) == sorted(reference)
    assert rows.tolist() == [reference[key] for key in pairs]

    table = ContingencyTable(labels, index, np.ones((len(index), 6)))
    queries = queries + [("zz", "x"), ("a", "zz")]  # absent surname, absent geolocation
    assert table.locate(queries).tolist() == [reference.get(key, -1) for key in queries]
    other = ContingencyTable.from_label_cells({key: race6(1) for key in queries})
    assert table.locate(other).tolist() == [reference.get(key, -1) for key in other.support()]
    for key in queries:
        expected = race6(1, 1, 1, 1, 1, 1) if key in reference else race6()
        np.testing.assert_array_equal(table.cell(*key), expected)


class TestProbabilityVector:
    def test_accepts_shares_within_1e_6_of_one(self):
        for vec in (race6(1), race6(0.5, 0.5 + 5e-7), race6(0.5, 0.5 - 9.9e-7)):
            out = probability_vector(vec, "prior")
            assert out.dtype == np.float64
            np.testing.assert_array_equal(out, vec)
        np.testing.assert_array_equal(probability_vector([0.25, 0.75], "p", length=None), [0.25, 0.75])

    @pytest.mark.parametrize("vec, message", [
        (race6(0.5, 0.4), "prior sums to 0.9"),
        (race6(0.5, 0.5, 2e-6), "prior sums to 1.000002"),
        (race6(), "prior sums to 0.0"),
        (race6(1e308, 1e308), "prior sums to inf"),
        (race6(np.nan, 1), "non-finite prior"),
        (race6(-np.inf, 1), "non-finite prior"),
        (race6(-0.5, 1.5), "negative prior"),
        (np.ones(5) / 5, "prior must hold 6 shares, got shape (5,)"),
        (0.5, "prior must hold 6 shares, got shape ()"),
    ])
    def test_message_names_what_and_prints_plain_floats(self, vec, message):
        # an overflowing sum is rejected without a RuntimeWarning
        with pytest.raises(ValueError) as exc:
            probability_vector(vec, "prior")
        assert str(exc.value) == message

    @pytest.mark.parametrize("vec", [[1.0], [[0.5, 0.5]], 1.0])
    def test_any_length_still_needs_two_shares_in_one_dimension(self, vec):
        with pytest.raises(ValueError, match="p must hold two or more shares"):
            probability_vector(vec, "p", length=None)


class TestConstructor:
    LABELS = AxisLabels(["a", "b"], ["x", "y"])

    def test_repr_of_a_total_past_the_float_range(self):
        # under the suite's error::RuntimeWarning filter an overflow warning would raise
        table = ContingencyTable(self.LABELS, [[0, 1], [1, 0]], [race6(1e308), race6(1e308)])
        assert repr(table) == "ContingencyTable(n_s=2, n_g=2, cells=2, total=inf)"

    def test_arrays_aligned_to_index(self):
        table = ContingencyTable(self.LABELS, [[0, 1], [1, 0]], [race6(1), race6(0, 2)])
        assert table.support() == [("a", "y"), ("b", "x")]
        np.testing.assert_array_equal(table.cell("b", "x"), race6(0, 2))

    def test_unsorted_or_repeated_index_rejected(self):
        for index in ([[1, 0], [0, 1]], [[0, 1], [0, 1]]):
            with pytest.raises(ValueError, match="sorted and unique"):
                ContingencyTable(self.LABELS, index, [race6(1), race6(1)])

    def test_index_outside_labels_rejected(self):
        with pytest.raises(ValueError, match="outside label ranges"):
            ContingencyTable(self.LABELS, [[0, 2]], [race6(1)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_non_finite_or_negative_count_rejected(self, bad):
        with pytest.raises(ValueError, match=r"count in cell \('b', 'x'\)"):
            ContingencyTable(self.LABELS, [[0, 1], [1, 0]], [race6(1), race6(bad)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_margin_set_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite race-margin"):
            MarginSet.from_cells(race6(bad), {})
        with pytest.raises(ValueError, match="non-finite cell-margin"):
            MarginSet.from_cells(None, {("a", "x"): bad})

    def test_margin_set_checks_cells_like_a_table(self):
        for index in ([[1, 0], [0, 1]], [[0, 1], [0, 1]]):
            with pytest.raises(ValueError, match="sorted and unique"):
                MarginSet(None, self.LABELS, index, [1.0, 1.0])
        with pytest.raises(ValueError, match="outside label ranges"):
            MarginSet(None, self.LABELS, [[0, 2]], [1.0])
        with pytest.raises(ValueError, match=r"negative cell-margin target at \('b', 'x'\)"):
            MarginSet(None, self.LABELS, [[0, 1], [1, 0]], [1.0, -1.0])
        with pytest.raises(ValueError, match="need labels"):
            MarginSet(None, None, [[0, 1]], [1.0])

    def test_building_leaves_the_labels_unchanged(self):
        # tables and MarginSets, on their own index or on another table's,
        # keep no state in the labels object they are given
        labels = AxisLabels(["a", "b"], ["x", "y"])
        state = [getattr(labels, name) for name in AxisLabels.__slots__]
        table = ContingencyTable(labels, [[0, 1], [1, 0]], [race6(1), race6(0, 2)])
        ContingencyTable(labels, table.cell_index, [race6(2), race6(0, 1)])
        MarginSet(None, labels, table.cell_index, [1.0, 2.0])
        MarginSet.from_table(table)
        assert [getattr(labels, name) for name in AxisLabels.__slots__] == state

    def test_a_table_on_another_tables_index_shares_it_and_builds_codes_on_locate(self):
        truth = ContingencyTable(AxisLabels(["a", "b"], ["x", "y"]), [[0, 1], [1, 0]],
                                 [race6(1), race6(0, 2)])
        pred = ContingencyTable(truth.labels, truth.cell_index, [race6(2), race6(0, 1)])
        assert np.shares_memory(pred.cell_index, truth.cell_index)
        assert truth._codes is None and pred._codes is None
        assert pred.locate(truth).tolist() == [0, 1]  # the same cells: no search
        assert pred._codes is None
        assert pred.locate([("b", "x"), ("a", "x")]).tolist() == [1, -1]
        assert pred._codes.tolist() == [1, 2] and not pred._codes.flags.writeable

    def test_locate_finds_the_same_rows_before_and_after_its_codes_are_built(self):
        labels = AxisLabels(["a", "b", "c"], ["x", "y"])
        table = ContingencyTable(labels, [[0, 1], [1, 0], [2, 0], [2, 1]], np.ones((4, 6)))
        queries = [("c", "x"), ("a", "x"), ("zz", "y"), ("a", "y"), ("c", "y"), ("b", "x")]
        assert table._codes is None
        rows = table.locate(queries)
        codes = table._codes
        assert rows.tolist() == [2, -1, -1, 0, 3, 1]
        assert table.locate(queries).tolist() == rows.tolist() and table._codes is codes

    def test_values_on_a_shared_index_are_checked(self):
        table = ContingencyTable(self.LABELS, [[0, 1], [1, 0]], [race6(1), race6(0, 2)])
        with pytest.raises(ValueError, match=r"negative count in cell \('b', 'x'\)"):
            ContingencyTable(table.labels, table.cell_index, [race6(1), race6(-1)])
        with pytest.raises(ValueError, match=r"negative cell-margin target at \('b', 'x'\)"):
            MarginSet(None, table.labels, table.cell_index, [1.0, -1.0])
        with pytest.raises(ValueError, match="sorted and unique"):
            ContingencyTable(table.labels, table.cell_index[::-1], [race6(1), race6(1)])
        with pytest.raises(ValueError, match="outside label ranges"):
            MarginSet(None, AxisLabels(["a"], ["x", "y"]), table.cell_index, [1.0, 1.0])


# the label joins as they were written before they went columnar: one
# Python-level lookup or tuple per label or cell; the helpers must agree
# with them array for array


def reference_positions(labels, axis, items):
    axis_labels = labels.surnames if axis == "s" else labels.geolocations
    lookup = {label: i for i, label in enumerate(axis_labels)}
    return np.array([lookup.get(label, -1) for label in items], dtype=np.int64)


def reference_pairs(labels, index):
    surs, geos = labels.surnames, labels.geolocations
    return [(surs[si], geos[gi]) for si, gi in np.asarray(index).tolist()]


def reference_index_cells(surnames, geolocations):
    surnames, geolocations = list(surnames), list(geolocations)
    labels = AxisLabels(sorted(set(surnames)), sorted(set(geolocations)))
    codes = (
        reference_positions(labels, "s", surnames) * labels.n_g
        + reference_positions(labels, "g", geolocations)
    )
    unique, rows = np.unique(codes, return_inverse=True)
    return labels, np.column_stack(divmod(unique, labels.n_g)), rows


def reference_compact_labels(labels, index):
    used_s, si = np.unique(index[:, 0], return_inverse=True)
    used_g, gi = np.unique(index[:, 1], return_inverse=True)
    surs, geos = labels.surnames, labels.geolocations
    kept = AxisLabels([surs[i] for i in used_s.tolist()], [geos[i] for i in used_g.tolist()])
    return kept, np.column_stack([si, gi])


def reference_locate(table, cells):
    """The general join of `ContingencyTable.locate` for a cell family."""
    index = cells.cell_index
    si = reference_positions(table.labels, "s", cells.labels.surnames)[index[:, 0]]
    gi = reference_positions(table.labels, "g", cells.labels.geolocations)[index[:, 1]]
    codes = table.cell_index[:, 0] * table.labels.n_g + table.cell_index[:, 1]
    wanted = si * table.labels.n_g + gi
    rows = np.minimum(np.searchsorted(codes, wanted), table.n_cells - 1)
    found = (si >= 0) & (gi >= 0) & (codes[rows] == wanted)
    return np.where(found, rows, -1)


def assert_same_array(got, expected):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    np.testing.assert_array_equal(got, expected)


SURNAME_POOL = ["b", "a", "d", "c", "é", "O'NEIL, JR"]
GEO_POOL = ["y", "x", "z", "0", ""]
pair_lists = st.lists(
    st.tuples(st.sampled_from(SURNAME_POOL), st.sampled_from(GEO_POOL)), min_size=1, max_size=30
)


class TestJoinHelpersMatchReferences:
    LABELS = AxisLabels(["b", "a", "é"], ["y", "x"])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(SURNAME_POOL + GEO_POOL + ["zz"]), max_size=20))
    def test_positions(self, items):
        for axis in ("s", "g"):
            expected = reference_positions(self.LABELS, axis, items)
            for given_as in (list(items), tuple(items), iter(items), (x for x in items)):
                assert_same_array(self.LABELS.positions(axis, given_as), expected)

    def test_positions_of_nothing_and_absent_labels(self):
        assert_same_array(self.LABELS.positions("s", []), np.zeros(0, dtype=np.int64))
        assert_same_array(self.LABELS.positions("g", iter(())), np.zeros(0, dtype=np.int64))
        assert self.LABELS.positions("s", ["zz", "a", "y"]).tolist() == [-1, 1, -1]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1)), max_size=20))
    def test_pairs(self, rows):
        index = np.array(rows, dtype=np.int64).reshape(-1, 2)
        assert self.LABELS.pairs(index) == reference_pairs(self.LABELS, index)
        assert all(type(key) is tuple for key in self.LABELS.pairs(index))

    def test_pairs_of_empty_and_one_row_index(self):
        assert self.LABELS.pairs(np.zeros((0, 2), dtype=np.int64)) == []
        assert self.LABELS.pairs(np.array([[2, 0]])) == [("é", "y")]

    @settings(max_examples=80, deadline=None)
    @given(pair_lists, st.randoms(use_true_random=False))
    def test_index_cells(self, pairs, rnd):
        shuffled = list(pairs)
        rnd.shuffle(shuffled)
        # sorted and unique (no np.unique), sorted with repeats, shuffled,
        # and with repeats
        for case in (sorted(set(pairs)), sorted(pairs + pairs[:1]), shuffled, pairs + pairs[:3]):
            surnames, geos = [s for s, _ in case], [g for _, g in case]
            labels, index, rows = index_cells(surnames, geos)
            ref_labels, ref_index, ref_rows = reference_index_cells(surnames, geos)
            assert labels == ref_labels
            assert_same_array(index, ref_index)
            assert_same_array(rows, ref_rows)

    @settings(max_examples=80, deadline=None)
    @given(pair_lists, st.data())
    def test_compact_labels(self, pairs, data):
        labels, index, _ = index_cells([s for s, _ in pairs], [g for _, g in pairs])
        # every label used: the same labels and index come back
        kept, same = compact_labels(labels, index)
        assert kept is labels and same is index
        ref_labels, ref_index = reference_compact_labels(labels, index)
        assert kept == ref_labels
        assert_same_array(same, ref_index)
        keep = np.array(data.draw(st.lists(st.booleans(), min_size=len(index), max_size=len(index))))
        if keep.any():  # some labels may now be unused
            kept, sub = compact_labels(labels, index[keep])
            ref_labels, ref_index = reference_compact_labels(labels, index[keep])
            assert kept == ref_labels
            assert_same_array(sub, ref_index)

    @settings(max_examples=80, deadline=None)
    @given(pair_lists, pair_lists, st.data())
    def test_locate(self, pairs, others, data):
        labels, index, _ = index_cells([s for s, _ in pairs], [g for _, g in pairs])
        table = ContingencyTable(labels, index, np.ones((len(index), 6)))
        keep = np.array(data.draw(st.lists(st.booleans(), min_size=len(index), max_size=len(index))))
        copy_labels = AxisLabels(list(labels.surnames), list(labels.geolocations))
        other_labels, other_index, _ = index_cells([s for s, _ in others], [g for _, g in others])
        for cells in (
            # equal labels in another object and the same index: no search
            MarginSet(None, copy_labels, index.copy(), np.ones(len(index))),
            # equal labels, another index: the general join
            MarginSet(None, labels, index[keep], np.ones(int(keep.sum()))),
            # other labels: the general join
            ContingencyTable(other_labels, other_index, np.ones((len(other_index), 6))),
        ):
            assert_same_array(table.locate(cells), reference_locate(table, cells))
            # the same cells given as labels and an index
            assert_same_array(
                table.locate(cells.labels, cells.cell_index), reference_locate(table, cells)
            )


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(0, 3000),
    layout=st.sampled_from(["C", "F", "strided"]),
    exponents=st.tuples(st.integers(-300, 300), st.integers(-300, 300)),
    zeros=st.sampled_from([0.0, 0.3, 0.9, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_sums_match_numpy_bit_for_bit(n, layout, exponents, zeros, seed):
    # magnitudes from 1e-300 to 1e300 of either sign, and entries of 0.0
    # and -0.0, up to whole rows of them, in each memory layout
    rng = np.random.default_rng(seed)
    lo, hi = sorted(exponents)
    wide = rng.choice([-1.0, 1.0], (n, 12)) * 10.0 ** rng.uniform(lo, hi, (n, 12))
    wide[rng.random((n, 12)) < zeros] = rng.choice([0.0, -0.0])
    values = {
        "C": np.ascontiguousarray(wide[:, :6]),
        "F": np.asfortranarray(wide[:, :6]),
        "strided": wide[::-1, ::2],
    }[layout]
    got, want = row_sums(values), values.sum(axis=1)
    assert got.shape == want.shape == (n,)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
