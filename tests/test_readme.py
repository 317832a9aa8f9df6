"""The README's round trip and the Python blocks of its "Library use"
section run as written.

The round trip's `raketab` lines run as `python -m raketab.cli`, each in a
fresh process, as the installed script runs them. The Python blocks run
in order in one namespace, so a later block may use what an earlier one
defines. The names the prose leaves to the reader (records,
surnames, geoids, weights, race, labels, index, totals) are defined first
from a small synthetic table of 120 people, whose race and cell totals
both sum to the 120 of the README's one-cell margin example.
"""

import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np

import raketab as rt
from test_package import fresh_env

README = Path(__file__).resolve().parents[1] / "README.md"


def round_trip_commands():
    """The commands of the README's round-trip `sh` block, split as sh splits them."""
    text = README.read_text(encoding="utf-8").split("\nA complete synthetic round trip:\n", 1)[1]
    block = re.match(r"\s*```sh\n(.*?)```", text, flags=re.S).group(1)
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]


def test_round_trip_runs_as_written(tmp_path):
    commands = round_trip_commands()
    assert [argv[:2] for argv in commands] == [
        ["raketab", stage] for stage in ("synth", "predict", "rake", "evaluate")
    ]
    for argv in commands:
        subprocess.run(
            [sys.executable, "-m", "raketab.cli", *argv[1:]], cwd=tmp_path, env=fresh_env(),
            check=True,
        )
    # the prose's claim: every race's statewide error is within rake's
    # tolerance, a gap relative to a target no larger than the total
    total = float(json.loads((tmp_path / "fixture" / "manifest.json").read_text())["flags"]["total"])
    tol = float(json.loads((tmp_path / "raked" / "manifest.json").read_text())["flags"]["tol"])
    summary = json.loads((tmp_path / "report" / "summary.json").read_text())
    errors = summary["subpopulation"]["avg_error"].values()
    assert max(abs(e) for e in errors) <= tol * total
    assert set(summary["kuiper"]) == set(rt.RACE_NAMES)


def library_blocks():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def placeholders():
    table = rt.generate(rt.SynthConfig(
        n_s=5, n_g=3, race_mix=np.full(6, 1 / 6), dependence=0.3,
        total_population=120, seed=4, multinomial=True,
    ))
    records = [(s, g, vec) for (s, g), vec in table.items()]
    return {
        "records": records,
        "surnames": [s for s, _, _ in records],
        "geoids": [g for _, g, _ in records],
        "weights": np.array([vec for _, _, vec in records]),
        "race": table.margin("r"),
        "labels": table.labels,
        "index": table.cell_index,
        "totals": table.cell_sums,
    }


def test_library_use_blocks_run():
    blocks = library_blocks()
    assert len(blocks) >= 4
    namespace = placeholders()
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # the last block found a factor row for every geoid of the table
    factors, rows = namespace["factors"], namespace["rows"]
    assert np.all(rows >= 0)
    np.testing.assert_array_equal(namespace["p_r_g"], factors.race_given_geo[rows[0]])
