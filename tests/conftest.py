import numpy as np
import pytest

from raketab import AxisLabels, BisgFactors, ContingencyTable

# hand-checkable 2x2x2 dependence fixture used across modules: two active
# race categories (indices 0 and 1), cells chosen so the two-way margins
# are easy to verify by hand
F1_CELLS = {
    ("s1", "g1"): [9, 1, 0, 0, 0, 0],
    ("s1", "g2"): [1, 4, 0, 0, 0, 0],
    ("s2", "g1"): [2, 8, 0, 0, 0, 0],
    ("s2", "g2"): [5, 10, 0, 0, 0, 0],
}


def race6(a=0.0, b=0.0, c=0.0, d=0.0, e=0.0, f=0.0):
    return np.array([a, b, c, d, e, f], dtype=np.float64)


def one_cell_factors(race_given_surname, race_given_geo, race_prior, geo_count=1.0):
    """Factors for one surname "s" and one geolocation "g", each of
    population 1 unless `geo_count` says otherwise."""
    return BisgFactors(
        AxisLabels(["s"], ["g"]), [race_given_surname], [race_given_geo], race_prior,
        [1.0], [geo_count],
    )


@pytest.fixture
def f1_table():
    return ContingencyTable.from_label_cells(F1_CELLS)


@pytest.fixture
def f1_records():
    records = []
    for (s, g), vec in F1_CELLS.items():
        for r, w in enumerate(vec):
            if w > 0:
                weights = np.zeros(6)
                weights[r] = w
                records.append((s, g, weights))
    return records
