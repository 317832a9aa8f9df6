import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from raketab import (
    AxisLabels,
    ContingencyTable,
    MarginSet,
    build_table,
    conditional_race,
)
from raketab.table import index_cells

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
        with pytest.raises(ValueError, match="empty cell conditional"):
            conditional_race(np.zeros(6))

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


class TestConstructor:
    LABELS = AxisLabels(["a", "b"], ["x", "y"])

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
