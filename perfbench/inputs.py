"""
Seeded inputs for the three workloads.

Everything here is a pure function of the seed and the scale, so the same
seed gives byte-identical input files. The program under test only ever
sees what these functions write or return.
"""

from __future__ import annotations

import os

import numpy as np

# a state-like race mix (aian, api, black, hispanic, white, other) for the
# census-like population, and registration rates by race that give the voter
# file a different race margin than the census prior
CENSUS_MIX = np.array([0.004, 0.03, 0.14, 0.26, 0.54, 0.026])
REGISTRATION = np.array([0.45, 0.55, 0.80, 0.65, 1.00, 0.60])

INACTIVE_SHARE = 0.10
UNKNOWN_SHARE = 0.03
# share of voters placed in their surname's home tract rather than drawn
# from P(g | r): breaks conditional independence like synth's dependence
SURNAME_TRACT_COUPLING = 0.3
# every this-many-th surname is left out of the census surname list, so
# some voters get BISG's geolocation-only fallback
MISSING_SURNAME_EVERY = 97


def _rng(seed, stream):
    return np.random.default_rng([seed, stream])


def synth_args(scale, seed, out_dir):
    """`raketab synth` arguments for the table-cli fixture."""
    return [
        "synth",
        "--surnames", str(scale["surnames"]),
        "--geos", str(scale["geos"]),
        "--dependence", "0.5",
        "--total", str(scale["total"]),
        "--seed", str(seed),
        "--out-dir", str(out_dir),
    ]


def synth_config(scale, seed):
    import raketab

    return raketab.SynthConfig(
        n_s=scale["surnames"],
        n_g=scale["geos"],
        race_mix=np.full(6, 1 / 6),
        dependence=0.5,
        total_population=float(scale["total"]),
        seed=seed,
    )


def calib_problems(scale, seed):
    """(u, v) pairs; Dirichlet alpha cycles through 0.3, 1 and 5."""
    rng = _rng(seed, 3)
    alphas = (0.3, 1.0, 5.0)
    out = []
    for i in range(scale["solves"]):
        a = np.full(6, alphas[i % 3])
        out.append((rng.dirichlet(a), rng.dirichlet(a)))
    return out


def _population(scale, seed):
    """Census-like conditionals for a Zipf surname list and a tract set.

    Every race gets its census share of home surnames, ranked on the same
    Zipf tail, so a seed changes which labels are common but not the shape
    of the distributions, and with it hardly the number of occupied cells.
    """
    n_s, n_g = scale["surnames"], scale["geos"]
    rng = _rng(seed, 1)
    counts = np.maximum(1, np.round(CENSUS_MIX * n_s)).astype(np.int64)
    counts[np.argmax(counts)] += n_s - counts.sum()
    home = rng.permutation(np.repeat(np.arange(6), counts))
    s_given_r = np.zeros((n_s, 6))
    for r in range(6):
        mine = rng.permutation(np.nonzero(home == r)[0])
        s_given_r[mine, r] = 1.0 / np.arange(1, len(mine) + 1) ** 1.1
    # a share of every race's mass follows one Zipf ranking over all
    # surnames, so every surname has every race with positive probability
    common = 1.0 / (rng.permutation(n_s) + 1.0) ** 1.1
    s_given_r = 0.9 * s_given_r / s_given_r.sum(axis=0) + 0.1 * (common / common.sum())[:, None]
    # tracts are segregated: compositions drawn around the statewide mix
    tract_pop = rng.gamma(4.0, 1.0, size=n_g)
    comp = 0.98 * rng.dirichlet(0.8 * np.ones(6), size=n_g) + 0.02 * CENSUS_MIX
    g_given_r = tract_pop[:, None] * comp * CENSUS_MIX
    g_given_r /= g_given_r.sum(axis=0)
    home_tract = rng.integers(n_g, size=n_s)
    return s_given_r, g_given_r, home_tract


def surname_labels(n):
    return [f"SN{i:06d}" for i in range(n)]


def tract_labels(n):
    return [f"12{i:09d}" for i in range(n)]


def voter_records(scale, seed):
    """Voter records drawn person by person from the population model."""
    from raketab import RaceCategory
    from raketab.ingest import VoterRecord

    s_given_r, g_given_r, home_tract = _population(scale, seed)
    n = scale["records"]
    rng = _rng(seed, 2)
    voter_mix = CENSUS_MIX * REGISTRATION
    race = rng.choice(6, size=n, p=voter_mix / voter_mix.sum())
    surname = np.empty(n, dtype=np.int64)
    tract = np.empty(n, dtype=np.int64)
    for r in range(6):
        idx = np.nonzero(race == r)[0]
        surname[idx] = rng.choice(len(s_given_r), size=len(idx), p=s_given_r[:, r])
        tract[idx] = rng.choice(len(g_given_r), size=len(idx), p=g_given_r[:, r])
    coupled = rng.random(n) < SURNAME_TRACT_COUPLING
    tract[coupled] = home_tract[surname[coupled]]
    active = rng.random(n) >= INACTIVE_SHARE
    unknown = rng.random(n) < UNKNOWN_SHARE
    # one labeled, active voter of every race, so subsampling to the census
    # prior has records for each positive share even at smoke scale
    race[:6] = np.arange(6)
    active[:6], unknown[:6] = True, False

    surnames = surname_labels(len(s_given_r))
    tracts = tract_labels(len(g_given_r))
    return [
        VoterRecord(
            voter_id=f"V{i:08d}",
            surname=surnames[surname[i]],
            geolocation=tracts[tract[i]],
            race=None if unknown[i] else RaceCategory(int(race[i])),
            active=bool(active[i]),
        )
        for i in range(n)
    ]


def write_voter_inputs(scale, seed, out_dir):
    """Write the voter-cli input files through raketab.ingest.

    Files: voters.csv, census surname and tract factors, the census race
    prior, and the voter file's labeled race margin (the raking target).
    Returns {file name: path}.
    """
    from raketab import ingest

    os.makedirs(out_dir, exist_ok=True)
    records = voter_records(scale, seed)
    s_given_r, g_given_r, _ = _population(scale, seed)
    census_total = 20.0 * scale["records"]
    joint_s = s_given_r * CENSUS_MIX * census_total  # (n_s, 6) census counts
    joint_g = g_given_r * CENSUS_MIX * census_total
    surnames = surname_labels(len(s_given_r))
    tracts = tract_labels(len(g_given_r))
    s_tot, g_tot = joint_s.sum(axis=1), joint_g.sum(axis=1)
    keep = [i for i in range(len(surnames)) if i % MISSING_SURNAME_EVERY]
    s_probs = {surnames[i]: joint_s[i] / s_tot[i] for i in keep}
    s_counts = {surnames[i]: float(s_tot[i]) for i in keep}
    g_probs = {tracts[i]: joint_g[i] / g_tot[i] for i in range(len(tracts))}
    g_counts = {tracts[i]: float(g_tot[i]) for i in range(len(tracts))}

    labeled = np.zeros(6)
    for rec in records:
        if rec.active and rec.race is not None:
            labeled[rec.race] += 1.0

    paths = {
        name: os.path.join(out_dir, name)
        for name in (
            "voters.csv",
            "surname_factors.csv",
            "geo_factors.csv",
            "prior.json",
            "labeled_margin.json",
        )
    }
    ingest.write_voter_file(paths["voters.csv"], records)
    ingest.write_surname_factors(paths["surname_factors.csv"], s_probs, s_counts)
    ingest.write_geo_factors(paths["geo_factors.csv"], g_probs, g_counts)
    ingest.write_race_margin(paths["prior.json"], CENSUS_MIX / CENSUS_MIX.sum())
    ingest.write_race_margin(paths["labeled_margin.json"], labeled / labeled.sum())
    return paths
