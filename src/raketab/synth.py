"""
synthetic populations with a tunable violation of the conditional
independence of surname and geolocation given race.

Each race draws a surname distribution and a geolocation distribution; a
dependence knob mixes the independent product of the two with a
race-specific diagonal pairing of surnames onto geolocations. At zero the
table factorizes exactly, so independence-based prediction reproduces it;
at one, each race's mass sits entirely on its own diagonal. All random
draws happen in a fixed order independent of the knob, so tables generated
from the same seed share their underlying factors across dependence
levels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .table import AxisLabels, N_RACES, ContingencyTable, probability_vector, unit_sum


@dataclass(frozen=True)
class SynthConfig:
    n_s: int
    n_g: int
    race_mix: np.ndarray
    dependence: float
    total_population: float
    seed: int
    multinomial: bool = False

    def __post_init__(self):
        # divided by their sum, so that the counts total total_population
        object.__setattr__(self, "race_mix", unit_sum(probability_vector(self.race_mix, "race_mix")))
        if self.n_s < 2 or self.n_g < 2:
            raise ValueError("need at least 2 surnames and 2 geolocations")
        if not 0.0 <= self.dependence <= 1.0:
            raise ValueError("dependence must lie in [0, 1]")
        if not np.isfinite(self.total_population):
            raise ValueError("total_population must be finite")
        if self.total_population < 1:
            raise ValueError("total_population must be at least 1")
        total = float(self.total_population)
        if self.multinomial and (not total.is_integer() or total > 2**63 - 1):
            raise ValueError("a multinomial total_population must be a whole number <= 2**63 - 1")


def _labels(prefix, n):
    # surnames are uppercase to match the canonical on-disk convention
    width = max(3, len(str(n - 1)))
    return [f"{prefix}{i:0{width}d}" for i in range(n)]


def generate(config: SynthConfig) -> ContingencyTable:
    """Generate a synthetic three-way table.

    Per race r the cell mass is proportional to

        race_mix[r] * P(s|r) * ((1 - d) * P(g|r) + d * [g == pair_r(s)])

    where d is the dependence knob and pair_r maps surname i to geolocation
    (i + r) mod n_g. At d = 0 the table has exact product form within each
    race. Counts are expected values (real numbers) unless `multinomial`
    is set, in which case they are a seeded multinomial draw of the total
    population. Deterministic per seed.
    """
    n_s, n_g = config.n_s, config.n_g
    rng = np.random.default_rng(config.seed)
    # one surname and one geolocation distribution per race, always drawn
    # in the same order so the factors are stable across dependence levels
    p_s = rng.dirichlet(np.ones(n_s), size=N_RACES)
    p_g = rng.dirichlet(np.ones(n_g), size=N_RACES)

    d = config.dependence
    # the table's one buffer, filled a race at a time through one (s, g)
    # scratch; multinomial mode fills it with the probabilities (a scale of
    # 1.0 is exact) and then overwrites them with the draws
    cube = np.zeros((n_s, n_g, N_RACES))
    scratch = np.empty((n_s, n_g))
    scale = 1.0 if config.multinomial else config.total_population
    s_idx = np.arange(n_s)
    for r in range(N_RACES):
        share = config.race_mix[r]
        if share == 0:
            continue
        np.multiply.outer(p_s[r], p_g[r], out=scratch)
        scratch *= (1.0 - d) * share
        if d > 0:
            scratch[s_idx, (s_idx + r) % n_g] += d * share * p_s[r]
        np.multiply(scratch, scale, out=cube[:, :, r])
    del scratch

    if config.multinomial:
        flat = cube.ravel()
        flat /= flat.sum()
        flat[:] = rng.multinomial(int(config.total_population), flat)
    values = cube.reshape(-1, N_RACES)
    grid = np.meshgrid(s_idx, np.arange(n_g), indexing="ij", copy=False)
    index = np.stack(grid, axis=-1).reshape(-1, 2)
    occupied = (values > 0).any(axis=1)
    if not occupied.all():
        index, values = index[occupied], values[occupied]
    labels = AxisLabels(_labels("S", n_s), _labels("g", n_g))
    return ContingencyTable(labels, index, values)
