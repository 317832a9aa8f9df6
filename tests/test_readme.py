"""The Python blocks of README's "Library use" section run as written.

They run in order in one namespace, so a later block may use what an
earlier one defines. The names the prose leaves to the reader (records,
surnames, geoids, weights, race, labels, index, totals) are defined first
from a small synthetic table of 120 people, whose race and cell totals
both sum to the 120 of the README's one-cell margin example.
"""

import re
from pathlib import Path

import numpy as np

import raketab as rt

README = Path(__file__).resolve().parents[1] / "README.md"


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
