"""The binary twin of a table or predictions CSV (`ingest.twin_path`).

A twin is written wherever every cell total is finite, whatever the labels,
is trusted only when it records the CSV's digest, and read through it a file
gives what the text gives: the arrays byte for byte, or the same ParseError.
Malformed trusted twins are fuzzed in test_fuzz.py.
"""

import csv
import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from raketab import ContingencyTable, SynthConfig, cli, generate, ingest
from raketab.cli import main
from raketab.ingest import ParseError, open_twin, parse_predictions, parse_table, twinnable
from raketab.table import AxisLabels

WRITERS = {"table": (ingest.write_table, parse_table),
           "predictions": (ingest.write_predictions, parse_predictions)}


def blake2b(path):
    return hashlib.blake2b(path.read_bytes()).hexdigest()


def twin_of(path):
    return Path(ingest.twin_path(path))


def write_with_twin(path, table, kind):
    """Write `table` as a `kind` CSV at `path`, and its twin where one may stand in for it."""
    write, _ = WRITERS[kind]
    write(path, table)
    if twinnable(table):
        write(twin_of(path), table, blake2b(path))
    return twin_of(path).exists()


def read(parse, path, twin=None):
    """A reader's arrays as (shape, dtype, bytes), its labels as UTF-8, or its ParseError text."""
    try:
        got = parse(path, twin)
    except ParseError as exc:
        return str(exc)
    if isinstance(got, ContingencyTable):
        got = (got.labels, got.cell_index, got.cell_values)
    labels, *arrays = got
    return ([[x.encode() for x in axis] for axis in (labels.surnames, labels.geolocations)],
            [(x.shape, x.dtype, x.tobytes()) for x in arrays])


# labels with commas, quotes, spaces, line breaks, lowercase and non-ASCII letters
LABEL = st.text(alphabet=' aZ,"\r\n\x00éßİ', min_size=0, max_size=4)
# values with negative zero, subnormals and numbers near the top of the float range
VALUE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-310, 1.7976931348623157e308, 1e300]),
    st.floats(min_value=0, max_value=1e307, allow_subnormal=True),
)


@st.composite
def tables(draw):
    """A table on labels that are drawn raw, or sorted and cleaned as the
    reader cleans them, on a subset of the cells that may leave a label in
    no cell or hold one for each."""
    surnames = draw(st.lists(LABEL, min_size=1, max_size=5, unique=True))
    geoids = draw(st.lists(LABEL, min_size=1, max_size=4, unique=True))
    if draw(st.booleans()):
        surnames = sorted({s.strip().upper() for s in surnames})
        geoids = sorted({g.strip() for g in geoids})
    codes = draw(st.lists(st.integers(0, len(surnames) * len(geoids) - 1), min_size=1, unique=True))
    if draw(st.booleans()):  # a cell for every label
        n = max(len(surnames), len(geoids))
        codes = sorted({*codes, *(i % len(surnames) * len(geoids) + i % len(geoids) for i in range(n))})
    index = np.column_stack(np.divmod(np.sort(codes), len(geoids)))
    values = np.array(draw(st.lists(st.lists(VALUE, min_size=6, max_size=6),
                                    min_size=len(index), max_size=len(index))))
    return ContingencyTable(AxisLabels(surnames, geoids), index, values)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=tables(), kind=st.sampled_from(sorted(WRITERS)))
def test_a_twin_reads_as_its_csv(tmp_path, table, kind):
    """A twin is written whenever no value is past a sixth of the float
    range, whatever the labels, and reading through it gives labels, index,
    counts and conditionals byte-equal to reading the CSV, or the same
    ParseError."""
    path = tmp_path / f"{kind}.csv"
    twin_of(path).unlink(missing_ok=True)
    with np.errstate(over="ignore", invalid="ignore"):  # cell sums past the float range
        written = write_with_twin(path, table, kind)
    assert written == (table.cell_values.max() <= np.finfo(float).max / 6)
    parse = WRITERS[kind][1]
    text = read(parse, path)
    if written:
        with open_twin(path, blake2b(path)) as twin:
            assert read(parse, path, twin) == text
    s, g = table.labels.surnames, table.labels.geolocations
    clean = (list(s) == sorted(s) and list(g) == sorted(g)
             and all(x == x.strip().upper() for x in s) and all(x == x.strip() for x in g)
             and ingest.compact_labels(table.labels, table.cell_index)[0] is table.labels)
    if clean and not isinstance(text, str) and kind == "table":  # the writer's own arrays
        assert text[1][1][2] == table.cell_values.tobytes()


@pytest.mark.parametrize("surnames, geoids", [
    (["B", "A"], ["g"]), (["a", "B"], ["g"]), (["A", " B"], ["g"]), (["A", "B"], [" g"]),
    (["ß", "X"], ["g"]), (["A", "B"], ["g", "h"]),
    (["a", "A"], ["g"]),  # both readers refuse the cell these repeat once uppercased
], ids=["unsorted", "lowercase", "padded surname", "padded geoid", "sharp s", "unused geoid", "repeat once cleaned"])
@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_labels_the_reader_cleans_get_a_twin(tmp_path, surnames, geoids, kind):
    """Unsorted, lowercase, padded, `ß` and unused labels: the twin holds the
    labels its cells use, as written, and reads as the CSV reads."""
    table = ContingencyTable(AxisLabels(surnames, geoids), [[0, 0], [1, 0]], np.ones((2, 6)))
    assert twinnable(table)
    path = tmp_path / f"{kind}.csv"
    assert write_with_twin(path, table, kind)
    with np.load(twin_of(path)) as twin:
        assert twin["geoids"].tobytes() == geoids[0].encode()  # the only geoid in a cell
    parse = WRITERS[kind][1]
    with open_twin(path, blake2b(path)) as twin:
        assert read(parse, path, twin) == read(parse, path)


def test_only_empty_tables_and_values_near_the_float_range_get_no_twin():
    labels, index = AxisLabels(["A", "B"], ["g"]), [[0, 0], [1, 0]]
    assert not twinnable(ContingencyTable(labels, index, np.full((2, 6), 1e308)))
    assert not twinnable(ContingencyTable(labels, np.empty((0, 2), np.int64), np.empty((0, 6))))
    assert twinnable(ContingencyTable(labels, index, np.full((2, 6), np.finfo(float).max / 6)))


LIMIT = csv.field_size_limit()


@pytest.mark.parametrize("surnames, geoids", [
    (["A", "B"], ["g", "x" * (LIMIT + 1)]),
    (["A", " " + "X" * LIMIT], ["g", "h"]),  # within the limit once stripped
    (["A", "ß" * (LIMIT // 2 + 1)], ["g", "h"]),
], ids=["geoid as written", "surname as written", "surname once uppercased"])
@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_a_label_past_the_field_limit_reads_from_its_twin_as_from_its_csv(tmp_path, surnames, geoids, kind):
    """A label past csv's field-size limit in the second row: through the
    twin, the CSV's own ParseError, text and line."""
    table = ContingencyTable(AxisLabels(surnames, geoids), [[0, 0], [1, 1]], np.ones((2, 6)))
    path = tmp_path / f"{kind}.csv"
    assert write_with_twin(path, table, kind)
    parse = WRITERS[kind][1]
    expected = f"{path}:3: field larger than field limit ({LIMIT})"
    assert read(parse, path) == expected
    with open_twin(path, blake2b(path)) as twin:
        assert read(parse, path, twin) == expected


def synth(out, seed=4):
    assert main(["synth", "--surnames", "12", "--geos", "5", "--dependence", "0.3",
                 "--seed", str(seed), "--out-dir", str(out)]) == 0


def test_twins_are_listed_and_deterministic(tmp_path):
    """Two runs write byte-identical twins, each listed under the writer's
    outputs and the reader's inputs with its BLAKE2b digest."""
    for run in ("one", "two"):
        synth(tmp_path / run / "fix")
        assert main(["fit-factors", "--table", str(tmp_path / run / "fix" / "table.csv"),
                     "--out-dir", str(tmp_path / run / "fit")]) == 0
    one, two = (tmp_path / run / "fix" / "table.npz" for run in ("one", "two"))
    assert one.read_bytes() == two.read_bytes()
    for manifest, kind in (("fix", "outputs"), ("fit", "inputs")):
        entries = json.loads((tmp_path / "one" / manifest / "manifest.json").read_text())[kind]
        assert {"path": str(one), "blake2b": blake2b(one)} in entries


@pytest.fixture(scope="module")
def big_files(tmp_path_factory):
    """A 160 x 160 table (25,600 cells) as table.csv and predictions.csv, each with its twin."""
    root = tmp_path_factory.mktemp("twins")
    table = generate(SynthConfig(160, 160, np.full(6, 1 / 6), 0.5, 1e6, seed=5))
    for kind in WRITERS:
        assert write_with_twin(root / f"{kind}.csv", table, kind)
    return root


def _traced_peak(call):
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_reading_a_twin_peaks_below_reading_its_csv(big_files, kind):
    """Through its twin a cell file is read below what reading the CSV
    peaks at: at the arrays returned plus the (n,) temporaries of the
    checks that follow a parse, under 40 bytes a cell, and numpy's read
    buffer of 256 KiB. The predictions' (n, 7) rows stay C-ordered and
    writable, so that evaluate moves them to the front without a gather."""
    parse, path = WRITERS[kind][1], big_files / f"{kind}.csv"
    _, text_peak = _traced_peak(lambda: parse(path))
    with open_twin(path, blake2b(path)) as twin:
        got, peak = _traced_peak(lambda: parse(path, twin))
    arrays = (got.cell_index.nbytes + got.cell_values.nbytes if kind == "table"
              else got[1].nbytes + got[3].base.nbytes)
    assert peak < text_peak
    assert peak <= arrays + 40 * 25_600 + 2**18
    if kind == "predictions":
        _, _, counts, conds = got
        rows = conds.base
        assert counts.base is rows and rows.nbytes == 25_600 * 7 * 8
        assert rows.flags.c_contiguous and rows.flags.writeable
        assert np.shares_memory(cli._to_front(conds), rows)
