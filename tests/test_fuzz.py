"""Parser fuzzing across the whole file edge.

Each example mutates one row of one input of the golden pipeline (a
non-finite or overflowing number, a negative zero, a BOM, a toggled line
ending, a quoted comma, a duplicated row, a short or long row, a blank
line, or a number respelled: quoted, padded with spaces or signed with +)
and runs every subcommand that reads that file. The only allowed outcomes
are exit 0 with finite numbers in every CSV, strict JSON and each binary
twin recording its CSV's digest, or exit 2 with a single JSON error object
on stderr; a ParseError names the mutated file, and the mutated line where
a cell file, voter file or region map has a short, long or blank row. A
CSV input that only respells (a BOM, a line ending, a number), and a JSON
input with a BOM, gives the unmutated input's outputs, byte for byte.

The binary twin beside a table or predictions file is fuzzed the same
way: a trusted twin that is malformed is an input error naming the twin,
and an untrusted or damaged one gives the outputs of the CSV alone.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import re
import shutil
import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from raketab.cli import main

from test_golden import golden_outputs

MUTATIONS = (
    "nan", "inf", "1e309", "-0", "bom", "crlf", "quoted_comma", "duplicate", "short", "long",
    "blank", "quoted", "padded", "plus",
)
# mutations that leave a CSV input's values as they were; a JSON input's
# too for a BOM
RESPELLINGS = {"bom", "crlf", "quoted", "padded", "plus"}
# how each respelling writes a number, in a CSV field or in JSON
NUMBER_SPELLINGS = {"quoted": '"{}"', "padded": " {} ", "plus": "+{}"}
# the inputs whose short, long or blank row is an error naming its line
ROW_ERROR_INPUTS = {"table", "predictions", "voters", "regions"}
# columns that hold labels rather than numbers, by output header name
LABEL_COLUMNS = {
    "surname", "geoid", "voter_id", "race", "active", "level", "name",
    "geolocation", "line", "reason",
}


INPUTS = (
    "fixture/table.csv", "fixture/surname_factors.csv", "fixture/geo_factors.csv",
    "fixture/prior.json", "fixture/race_margin.json", "preds/predictions.csv",
    "cmap/calibration_map.csv", "regions.csv", "voters.csv",
)


def _commands(root, path, out):
    """Every subcommand that reads the golden input named like `path`,
    with `path` in its place."""
    f = {Path(rel).stem: root / rel for rel in INPUTS}
    f[path.stem] = path
    voter_fit = root / "voters_fit"
    predict = [
        "predict", "--surname-factors", f["surname_factors"],
        "--geo-factors", f["geo_factors"], "--prior", f["prior"], "--table", f["table"],
    ]
    evaluate = ["evaluate", "--truth-table", f["table"], "--preds", f["predictions"]]
    cmds = {
        "table": [["fit-factors", "--table", f["table"]], predict, evaluate],
        "surname_factors": [predict],
        "geo_factors": [predict],
        "prior": [predict],
        "race_margin": [
            ["rake", "--base", f["predictions"], "--race-margin", f["race_margin"]],
            ["calib-map", "--source", f["race_margin"], "--target", root / "target.json"],
        ],
        "predictions": [
            ["rake", "--base", f["predictions"], "--race-margin", f["race_margin"]],
            evaluate,
        ],
        "calibration_map": [evaluate + ["--calib-map", f["calibration_map"]]],
        "regions": [evaluate + ["--region-map", f["regions"]]],
        "voters": [
            ["fit-factors", "--voters", f["voters"]],
            ["predict", "--surname-factors", voter_fit / "surname_factors.csv",
             "--geo-factors", voter_fit / "geo_factors.csv",
             "--prior", voter_fit / "prior.json", "--voters", f["voters"]],
            ["subsample", "--voters", f["voters"], "--target", root / "voter_target.json",
             "--seed", 5],
        ],
    }[path.stem]
    return [[str(a) for a in cmd] + ["--out-dir", str(out / str(i))] for i, cmd in enumerate(cmds)]


# how each mutation spells its value in a CSV field and in a JSON number
CSV_TOKENS = {"nan": "nan", "inf": "inf", "1e309": "1e309", "-0": "-0"}
JSON_TOKENS = {"nan": "NaN", "inf": "Infinity", "1e309": "1e309", "-0": "-0",
               "quoted_comma": '"1,0"', **{k: v.format(r"\g<0>") for k, v in NUMBER_SPELLINGS.items()}}


def mutate(text, mutation, row, col, is_json=False):
    """`text` with one data line changed by `mutation`; row and col pick
    the line and the field, a number column's for a respelled CSV number.
    In JSON, the field is the line's first number."""
    if mutation == "bom":
        return "\ufeff" + text
    lines = text.splitlines(keepends=True)
    i = 1 + row % (len(lines) - 1)
    body = lines[i].rstrip("\r\n")
    end = lines[i][len(body):]
    if mutation == "crlf":
        lines[i] = body + ("\n" if end == "\r\n" else "\r\n")
    elif mutation == "duplicate":
        lines.insert(i, lines[i])
    elif mutation == "blank":
        lines.insert(i, end or "\n")
    elif is_json and mutation == "short":
        lines[i] = ""
    elif is_json and mutation == "long":
        lines[i] = body + " 0" + end
    elif is_json:
        lines[i] = re.sub(r"-?\d[\d.eE+-]*", JSON_TOKENS[mutation], body, count=1) + end
    else:
        fields = next(csv.reader([body]))
        j = col % len(fields)
        if mutation in NUMBER_SPELLINGS:
            header = next(csv.reader([lines[0].lstrip("\ufeff")]))
            numbers = [k for k, name in enumerate(header) if name not in LABEL_COLUMNS | {"region"}]
            if not numbers:  # a voter file or region map: nothing to respell
                return text
            j = numbers[col % len(numbers)]
            spelled, fields[j] = NUMBER_SPELLINGS[mutation].format(fields[j]), "\0"
        elif mutation == "short":
            fields = fields[:-1]
        elif mutation == "long":
            fields.append(fields[j])
        elif mutation == "quoted_comma":
            fields[j] += ",x"
        else:
            fields[j] = CSV_TOKENS[mutation]
        buf = io.StringIO()
        csv.writer(buf, lineterminator=end).writerow(fields)
        lines[i] = buf.getvalue()
        if mutation in NUMBER_SPELLINGS:  # spelled as is, not quoted by csv
            lines[i] = lines[i].replace("\0", spelled)
    return "".join(lines)


def _check_outputs(out):
    """Every CSV number finite (or an empty field) and every JSON strict."""

    def no_constant(name):
        raise AssertionError(f"non-standard JSON constant {name}")

    for path in sorted(out.iterdir()):
        if path.suffix == ".npz":  # a cell file's twin records that file's digest
            digest = hashlib.blake2b(path.with_suffix(".csv").read_bytes()).digest()
            with np.load(path, allow_pickle=False) as twin:
                assert twin["blake2b"].tobytes() == digest, path.name
            continue
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json":
            json.loads(text, parse_constant=no_constant)
            continue
        rows = list(csv.reader(io.StringIO(text, newline="")))
        numeric = [j for j, h in enumerate(rows[0]) if h not in LABEL_COLUMNS]
        for row in rows[1:]:
            assert len(row) == len(rows[0]), (path.name, row)
            for j in numeric:
                assert row[j] == "" or math.isfinite(float(row[j])), (path.name, row)


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    golden_outputs(root)
    return root


def _outputs(out):
    """{name: bytes} of every output in `out` but the manifest."""
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "manifest.json"}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    source=st.sampled_from(INPUTS),
    mutation=st.sampled_from(MUTATIONS),
    row=st.integers(0, 400),
    col=st.integers(0, 10),
)
def test_mutated_input_exits_cleanly(golden_dir, source, mutation, row, col):
    check_mutation(golden_dir, source, mutation, row, col)


CSV_INPUTS = [source for source in INPUTS if source.endswith(".csv")]


@pytest.mark.parametrize("source, mutation", [
    *((source, m) for source in CSV_INPUTS for m in sorted(RESPELLINGS)),
    *((source, m) for source in CSV_INPUTS if Path(source).stem in ROW_ERROR_INPUTS
      for m in ("short", "long", "blank")),
    *((source, "bom") for source in INPUTS if source.endswith(".json")),
])
def test_each_respelling_and_row_error(golden_dir, source, mutation):
    """Every CSV input under each respelling, each input whose bad row is an
    error under each row defect, at a row and field inside the file, and
    each JSON input with a BOM."""
    check_mutation(golden_dir, source, mutation, 3, 2)


def check_mutation(golden_dir, source, mutation, row, col):
    """Run every subcommand that reads `source` mutated, and check the outcome."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        original = golden_dir / source
        is_json = original.suffix == ".json"
        path = tmp / original.name
        text = original.read_text(encoding="utf-8")
        mutated = mutate(text, mutation, row, col, is_json=is_json)
        path.write_text(mutated, encoding="utf-8", newline="")
        respelled = mutation in RESPELLINGS and (mutation == "bom" or not is_json)
        if respelled:  # the same commands on the input as it was
            (tmp / "plain").mkdir()
            (tmp / "plain" / original.name).write_text(text, encoding="utf-8", newline="")
            plain = _commands(golden_dir, tmp / "plain" / original.name, tmp / "plain_out")
        # the 1-based line that `mutate` changed or inserted
        line = 2 + row % (len(text.splitlines()) - 1)
        for k, argv in enumerate(_commands(golden_dir, path, tmp / "out")):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(argv)
            out = Path(argv[-1])
            if respelled:
                assert code == 0, (argv[0], mutation, err.getvalue())
                with contextlib.redirect_stderr(io.StringIO()):
                    assert main(plain[k]) == 0
                assert _outputs(out) == _outputs(Path(plain[k][-1])), (argv[0], mutation)
            if code == 0:
                _check_outputs(out)
            else:
                assert code == 2, (argv[0], err.getvalue())
                lines = err.getvalue().splitlines()
                assert len(lines) == 1, err.getvalue()
                payload = json.loads(lines[0])
                assert payload["exit_code"] == 2 and payload["error"] and payload["message"]
                if payload["error"] == "ParseError":
                    assert payload["message"].startswith(f"{path}:"), payload["message"]
                    if mutation in ("short", "long", "blank") and path.stem in ROW_ERROR_INPUTS:
                        assert payload["message"].startswith(f"{path}:{line}: "), payload["message"]
            shutil.rmtree(out, ignore_errors=True)


def test_mutations_change_the_file():
    text = "surname,geoid,a\r\nS1,g1,1.5\r\nS2,g2,2.5\r\n"
    for mutation in MUTATIONS:
        assert mutate(text, mutation, 0, 2) != text, mutation
    assert mutate(text, "nan", 0, 2) == "surname,geoid,a\r\nS1,g1,nan\r\nS2,g2,2.5\r\n"
    assert mutate(text, "quoted_comma", 1, 0) == 'surname,geoid,a\r\nS1,g1,1.5\r\n"S2,x",g2,2.5\r\n'
    assert mutate(text, "short", 0, 0) == "surname,geoid,a\r\nS1,g1\r\nS2,g2,2.5\r\n"
    assert mutate(text, "long", 1, 2) == "surname,geoid,a\r\nS1,g1,1.5\r\nS2,g2,2.5,2.5\r\n"
    assert mutate(text, "blank", 1, 0) == "surname,geoid,a\r\nS1,g1,1.5\r\n\r\nS2,g2,2.5\r\n"
    assert mutate(text, "quoted", 1, 0) == 'surname,geoid,a\r\nS1,g1,1.5\r\nS2,g2,"2.5"\r\n'
    assert mutate(text, "padded", 0, 1) == "surname,geoid,a\r\nS1,g1, 1.5 \r\nS2,g2,2.5\r\n"
    assert mutate(text, "plus", 0, 0) == "surname,geoid,a\r\nS1,g1,+1.5\r\nS2,g2,2.5\r\n"
    assert mutate('{\n  "a": 0.5\n}\n', "quoted", 0, 0, is_json=True) == '{\n  "a": "0.5"\n}\n'


# A binary twin beside a cell file (see test_twin.py) -------------------------


def npy(array, allow_pickle=False):
    buf = io.BytesIO()
    np.lib.format.write_array(buf, array, allow_pickle=allow_pickle)
    return buf.getvalue()


def _array(data):
    return np.lib.format.read_array(io.BytesIO(data))


def _huge_header(data):
    """The .npy `data` with a header claiming 2**40 rows the member cannot hold."""
    array = _array(data)
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(buf, {
        "descr": "<f8", "fortran_order": False, "shape": (2**40, array.shape[1])})
    return buf.getvalue() + array.tobytes()


def _with(name, change):
    return lambda members: {**members, name: change(members[name])}


def _reindexed(change):
    def reindex(data):
        index = _array(data).copy()
        change(index)
        return npy(index)
    return _with("index.npy", reindex)


# defects of a trusted twin: each is an input error naming the twin
TWIN_DEFECTS = {
    "truncated member": _with("values.npy", lambda data: data[:-8]),
    "missing member": lambda m: {k: v for k, v in m.items() if k != "index.npy"},
    "extra member": lambda m: {**m, "extra.npy": npy(np.zeros(3))},
    "wrong dtype": _with("index.npy", lambda data: npy(_array(data).astype(np.int32))),
    "wrong width": _with("values.npy", lambda data: npy(_array(data)[:, 1:])),
    "wrong rank": _with("index.npy", lambda data: npy(_array(data).ravel())),
    "fortran order": _with("values.npy", lambda data: npy(np.asfortranarray(_array(data)))),
    "object array": _with("surnames.npy", lambda data: npy(np.array(["A"], dtype=object), True)),
    "offsets out of order": _with("surnames_offsets.npy", lambda data: npy(_array(data)[::-1].copy())),
    "offsets past the bytes": _with("geoids_offsets.npy", lambda data: npy(_array(data) + 1)),
    "invalid UTF-8": _with("surnames.npy", lambda data: npy(np.frombuffer(
        b"\xff" + _array(data).tobytes()[1:], np.uint8))),
    "header the member cannot hold": _with("values.npy", _huge_header),
    "not an npy member": _with("index.npy", lambda data: b"PK" + data[2:]),
    "index outside the labels": _reindexed(lambda index: index.__setitem__((0, 1), 10**6)),
    "negative index": _reindexed(lambda index: index.__setitem__((0, 0), -1)),
    "fewer cells than rows": _with("index.npy", lambda data: npy(_array(data)[:-1])),
}
# twins that are not trusted: the CSV is read as if there were none
UNTRUSTED_TWINS = {
    "no digest": lambda m: {k: v for k, v in m.items() if k != "blake2b.npy"},
    "another digest": _with("blake2b.npy", lambda data: npy(np.zeros(64, np.uint8))),
    "digest of another dtype": _with("blake2b.npy", lambda data: npy(_array(data).astype(np.int64))),
}


def _rewrite_twin(path, change):
    with zipfile.ZipFile(path) as zf:
        members = {name: zf.read(name) for name in zf.namelist()}
    with zipfile.ZipFile(path, "w") as zf:
        for name, data in change(members).items():
            zf.writestr(name, data)


def _twin_commands(golden_dir, source, tmp):
    """Copies of the golden `source` and its twin in `tmp`, and the
    commands that read `source` with the copy in its place; the twin is
    tmp/<stem>.npz."""
    csv_path = tmp / Path(source).name
    shutil.copy(golden_dir / source, csv_path)
    shutil.copy((golden_dir / source).with_suffix(".npz"), csv_path.with_suffix(".npz"))
    return csv_path, _commands(golden_dir, csv_path, tmp / "out")


def _run_quietly(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def check_twin(golden_dir, source, change, trusted):
    """Every command reading `source` with its twin changed by `change`:
    exit 2 with one JSON error naming the twin (unless `trusted` is False),
    or exit 0 with the outputs of the CSV alone (unless `trusted` is True:
    a change that leaves the twin readable, such as a byte of a member's
    date, may give either)."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        csv_path, cmds = _twin_commands(golden_dir, source, tmp)
        twin = csv_path.with_suffix(".npz")
        change(twin)
        plain = [argv[:-1] + [argv[-1] + "_plain"] for argv in cmds]
        for argv, plain_argv in zip(cmds, plain):
            code, err = _run_quietly(argv)
            if code == 2 and trusted is not False:
                payload = json.loads(err)
                assert payload["error"] == "ParseError", payload
                assert payload["message"].startswith(f"{twin}: bad twin: "), payload["message"]
                continue
            assert code == 0 and trusted is not True, (argv[0], err)
            if trusted is False:  # an untrusted twin is not read
                manifest = json.loads((Path(argv[-1]) / "manifest.json").read_text())
                assert str(twin) not in {entry["path"] for entry in manifest["inputs"]}
            twin.rename(twin.with_suffix(".off"))
            assert _run_quietly(plain_argv)[0] == 0
            twin.with_suffix(".off").rename(twin)
            assert _outputs(Path(argv[-1])) == _outputs(Path(plain_argv[-1])), argv[0]


TWIN_SOURCES = ["fixture/table.csv", "preds/predictions.csv"]


@pytest.mark.parametrize("defect", sorted(TWIN_DEFECTS))
@pytest.mark.parametrize("source", TWIN_SOURCES)
def test_a_malformed_trusted_twin_is_an_input_error(golden_dir, source, defect):
    """Truncated, missing or extra members, a wrong dtype or shape, an
    object array, offsets out of order, invalid UTF-8, a header the file
    cannot hold: exit 2 with a JSON error naming the twin, never a
    traceback or a MemoryError."""
    check_twin(golden_dir, source, lambda twin: _rewrite_twin(twin, TWIN_DEFECTS[defect]), True)


@pytest.mark.parametrize("case", [*sorted(UNTRUSTED_TWINS), "cut short", "not a zip"])
@pytest.mark.parametrize("source", TWIN_SOURCES)
def test_an_untrusted_twin_is_ignored(golden_dir, source, case):
    """A twin whose digest is missing, cannot be read or does not match
    the CSV's: the CSV is read, and the outputs are those of the CSV alone."""
    def change(twin):
        if case == "cut short":  # its directory, and the digest with it, are gone
            twin.write_bytes(twin.read_bytes()[: twin.stat().st_size // 2])
        elif case == "not a zip":
            twin.write_bytes(b"surname,geoid\r\n")
        else:
            _rewrite_twin(twin, UNTRUSTED_TWINS[case])
    check_twin(golden_dir, source, change, False)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(source=st.sampled_from(TWIN_SOURCES), at=st.floats(0, 1, exclude_max=True),
       flip=st.integers(1, 255), cut=st.booleans())
def test_a_damaged_twin_is_read_or_refused_cleanly(golden_dir, source, at, flip, cut):
    """A twin cut short or with one byte changed anywhere: the outputs of
    the CSV alone, or exit 2 naming the twin."""
    def change(twin):
        data = bytearray(twin.read_bytes())
        i = int(at * len(data))
        if cut:
            del data[i:]
        else:
            data[i] ^= flip
        twin.write_bytes(bytes(data))
    check_twin(golden_dir, source, change, None)
