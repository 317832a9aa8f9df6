import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from raketab import apply_calibration_map, calibmap, solve_calibration_map


def dirichlet_pairs(count, seed):
    """(source, target) pairs of 6 shares; the Dirichlet alpha cycles 0.3, 1, 5."""
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(count):
        alpha = np.full(6, (0.3, 1.0, 5.0)[i % 3])
        pairs.append((rng.dirichlet(alpha), rng.dirichlet(alpha)))
    return pairs


def grid_objective_2cat(u, v, step=1e-3):
    """Exhaustive 1-d grid over the single free parameter of a 2x2 map."""
    a11 = np.arange(0.0, 1.0 + step / 2, step)
    a21 = 1.0 - a11
    a12 = (v[0] - a11 * u[0]) / u[1]
    a22 = 1.0 - a12
    feas = (a12 >= -1e-9) & (a22 >= -1e-9)
    f = (a11 - 1) ** 2 + a21**2 + a12**2 + (a22 - 1) ** 2
    return float(np.sqrt(np.where(feas, f, np.inf).min()))


def grid_objective_3cat(u, v, stages=((0.02, None), (0.004, 0.1), (0.001, 0.02))):
    """Zooming grid search over the four free parameters of a 3x3 map.

    The column multiplied by the largest source share is eliminated through
    the transport constraint (a simultaneous row/column permutation leaves
    the distance from the identity unchanged), which keeps the dependent
    entries well conditioned; the final stage has step 1e-3.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    perm = np.argsort(u)
    u, v = u[perm], v[perm]
    best = None
    best_pt = None
    lo, hi = np.zeros(4), np.ones(4)
    for step, window in stages:
        if window is not None:
            lo = np.maximum(best_pt - window, 0.0)
            hi = np.minimum(best_pt + window, 1.0)
        axes = [np.arange(lo[i], hi[i] + step / 2, step) for i in range(4)]
        p1 = axes[0][:, None, None, None]
        p2 = axes[1][None, :, None, None]
        q1 = axes[2][None, None, :, None]
        q2 = axes[3][None, None, None, :]
        p3 = 1.0 - p1 - p2
        q3 = 1.0 - q1 - q2
        a31 = (v[0] - u[0] * p1 - u[1] * q1) / u[2]
        a32 = (v[1] - u[0] * p2 - u[1] * q2) / u[2]
        a33 = (v[2] - u[0] * p3 - u[1] * q3) / u[2]
        f = (
            (p1 - 1) ** 2 + p2**2 + p3**2
            + q1**2 + (q2 - 1) ** 2 + q3**2
            + a31**2 + a32**2 + (a33 - 1) ** 2
        )
        feas = (
            (p3 >= -1e-9) & (q3 >= -1e-9)
            & (a31 >= -1e-9) & (a32 >= -1e-9) & (a33 >= -1e-9)
        )
        f = np.where(feas, f, np.inf)
        idx = np.unravel_index(np.argmin(f), f.shape)
        best = f[idx]
        best_pt = np.array([axes[i][idx[i]] for i in range(4)])
    return float(np.sqrt(best))


class TestSolve:
    def test_identical_distributions_give_identity(self):
        u = np.array([0.1, 0.2, 0.3, 0.15, 0.15, 0.1])
        cmap = solve_calibration_map(u, u)
        np.testing.assert_allclose(cmap.matrix, np.eye(6), atol=1e-9)
        assert cmap.objective == pytest.approx(0.0, abs=1e-9)

    def test_hand_derived_two_category(self):
        cmap = solve_calibration_map([0.5, 0.5], [0.6, 0.4])
        np.testing.assert_allclose(cmap.matrix, [[1.0, 0.2], [0.0, 0.8]], atol=1e-6)
        assert cmap.objective == pytest.approx(np.sqrt(0.08), abs=1e-6)

    def test_one_hot_source(self):
        v = np.array([0.3, 0.2, 0.1, 0.15, 0.2, 0.05])
        u = np.zeros(6)
        u[0] = 1.0
        cmap = solve_calibration_map(u, v)
        np.testing.assert_allclose(cmap.matrix[:, 0], v, atol=1e-8)
        np.testing.assert_allclose(cmap.matrix[:, 1:], np.eye(6)[:, 1:], atol=1e-8)

    def test_constraints_satisfied(self):
        rng = np.random.default_rng(4)
        u = rng.dirichlet(np.ones(6))
        v = rng.dirichlet(np.ones(6))
        cmap = solve_calibration_map(u, v)
        np.testing.assert_allclose(cmap.matrix.sum(axis=0), np.ones(6), atol=1e-8)
        np.testing.assert_allclose(cmap.matrix @ u, v, atol=1e-8)
        assert cmap.matrix.min() >= 0.0

    def test_never_worse_than_rank_one_benchmark(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            u = rng.dirichlet(np.ones(6))
            v = rng.dirichlet(np.ones(6))
            cmap = solve_calibration_map(u, v)
            benchmark = np.linalg.norm(np.outer(v, np.ones(6)) - np.eye(6))
            assert cmap.objective <= benchmark + 1e-6
            # the benchmark itself is feasible
            rank_one = np.outer(v, np.ones(6))
            np.testing.assert_allclose(rank_one.sum(axis=0), np.ones(6), atol=1e-12)
            np.testing.assert_allclose(rank_one @ u, v, atol=1e-12)

    def test_two_category_matches_grid(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            u = rng.dirichlet(np.ones(2))
            v = rng.dirichlet(np.ones(2))
            u = 0.05 + 0.9 * u
            u /= u.sum()
            v = 0.05 + 0.9 * v
            v /= v.sum()
            cmap = solve_calibration_map(u, v)
            assert abs(cmap.objective - grid_objective_2cat(u, v)) <= 2e-3

    def test_three_category_matches_grid(self):
        rng = np.random.default_rng(31)
        for _ in range(8):
            u = rng.dirichlet(np.ones(3))
            v = rng.dirichlet(np.ones(3))
            u = 0.05 + 0.85 * u
            u /= u.sum()
            v = 0.05 + 0.85 * v
            v /= v.sum()
            cmap = solve_calibration_map(u, v)
            assert abs(cmap.objective - grid_objective_3cat(u, v)) <= 2e-3

    def test_survey_scale_shares_solve(self):
        # distributions with sub-percent minority shares sit on badly
        # conditioned faces; the exact fallback must handle them
        pairs = [
            ([0.004, 0.028, 0.141, 0.190, 0.636, 0.001],
             [0.003, 0.021, 0.139, 0.180, 0.631, 0.026]),
            ([0.019, 0.031, 0.227, 0.052, 0.662, 0.009],
             [0.008, 0.013, 0.204, 0.029, 0.728, 0.018]),
            ([0.022, 0.018, 0.201, 0.024, 0.730, 0.005],
             [0.008, 0.005, 0.195, 0.012, 0.767, 0.013]),
            # a share just above the snapping threshold gives bound
            # multipliers near 1/share, which magnify entry roundoff in the
            # complementarity term unless active entries are exactly zero
            ([0.37367083276035284, 0.0680133829186332, 0.2892324552399705,
              6.372264235646214e-06, 0.26893828299445793, 0.00013867382234979752],
             [1.9280127908174952e-06, 0.0012087802052332625, 0.9636137137099644,
              1.4661193944101516e-10, 0.034141720407900845, 0.0010338575174985772]),
        ]
        for u, v in pairs:
            u = np.array(u) / np.sum(u)
            v = np.array(v) / np.sum(v)
            cmap = solve_calibration_map(u, v)
            np.testing.assert_allclose(cmap.matrix.sum(axis=0), np.ones(6), atol=1e-8)
            np.testing.assert_allclose(cmap.matrix @ cmap.source, v, atol=1e-8)
            assert cmap.matrix.min() >= 0.0
            assert cmap.feasibility <= 1e-9 and cmap.kkt_residual <= 1e-6
            assert cmap.objective <= cmap.rank_one_benchmark + 1e-6

    def test_tiny_share_snapped_to_zero(self):
        # a one-in-ten-million share is treated as zero; its column is then
        # unconstrained by the transport equation and stays on the identity
        u = np.array([1e-8, 0.3, 0.2, 0.2, 0.2, 0.1 - 1e-8])
        v = np.array([0.05, 0.25, 0.2, 0.2, 0.2, 0.1])
        cmap = solve_calibration_map(u, v)
        assert cmap.source[0] == 0.0
        np.testing.assert_allclose(cmap.matrix @ cmap.source, v, atol=1e-8)

    def test_exact_zero_shares_are_presolved(self):
        # a zero source share and a zero target share: the nonnegative least
        # squares on the full problem cycled here and refused a feasible map
        u = np.array([0.30532678572049887, 0.0, 0.6389372806542781, 0.052262032516343766,
                      7.432504675043434e-06, 0.0034664686042042846])
        v = np.array([0.0, 0.2834958919261586, 0.37327734148031516, 0.23673789071351714,
                      8.9182694493822e-07, 0.10648798405306421])
        cmap = solve_calibration_map(u, v)
        a = cmap.matrix
        np.testing.assert_array_equal(a[:, 1], np.eye(6)[:, 1])  # u_1 = 0: identity column
        assert np.all(a[0, cmap.source > 0] == 0.0)  # v_0 = 0: zero on the used columns
        np.testing.assert_allclose(a.sum(axis=0), np.ones(6), atol=1e-12)
        np.testing.assert_allclose(a @ cmap.source, v, atol=1e-9)
        assert a.min() >= 0.0
        assert cmap.feasibility <= 1e-9 and cmap.kkt_residual <= 1e-6
        assert cmap.objective <= cmap.rank_one_benchmark + 1e-6

    def test_rejects_non_probability_input(self):
        with pytest.raises(ValueError):
            solve_calibration_map([0.5, 0.4], [0.5, 0.5])
        with pytest.raises(ValueError):
            solve_calibration_map([0.5, 0.5], [-0.1, 1.1])
        with pytest.raises(ValueError):
            solve_calibration_map([0.5, 0.5], [0.3, 0.3, 0.4])
        with pytest.raises(ValueError, match="u_source"):
            solve_calibration_map([np.nan, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="u_target"):
            solve_calibration_map([0.5, 0.5], [np.inf, 0.5])


class TestSolverPath:
    # SHA-256 of the concatenated matrices of the problems below with no
    # zero or snapped share, as the cold-started nonnegative least squares
    # solved them. The map depends only on the active set found, so a
    # faster route to the same active set must keep every bit. Like the
    # golden digests, the bytes are those of the BLAS kernels they were
    # recorded with.
    PINNED = "35098bd59a88a1f8ecf3ec964dc2a54c33a990ce1702b7b1d2be9500945c9a9c"

    def test_maps_bit_identical_to_cold_start(self):
        pairs = [(u, v) for u, v in dirichlet_pairs(90, 20261018)
                 if u.min() >= 1e-5 * u.max() and v.min() > 0]
        assert len(pairs) == 85
        digest = hashlib.sha256()
        for u, v in pairs:
            digest.update(solve_calibration_map(u, v).matrix.tobytes())
        assert digest.hexdigest() == self.PINNED

    @pytest.mark.parametrize("wrong", ["every entry", "no entry", "the complement"])
    def test_a_wrong_guess_costs_iterations_not_the_answer(self, monkeypatch, wrong):
        pairs = dirichlet_pairs(30, 5)
        expected = [solve_calibration_map(u, v).matrix for u, v in pairs]
        guess = calibmap._dual_newton_guess
        monkeypatch.setattr(calibmap, "_dual_newton_guess", {
            "every entry": lambda z, *_: np.ones(len(z), dtype=bool),
            "no entry": lambda z, *_: np.zeros(len(z), dtype=bool),
            "the complement": lambda *args: ~guess(*args),
        }[wrong])
        for (u, v), a in zip(pairs, expected):
            np.testing.assert_array_equal(solve_calibration_map(u, v).matrix, a)

    def test_linear_algebra_calls_per_solve(self, monkeypatch):
        # deterministic counts, no timing: the cold start made about 23
        # lstsq calls per solve, the dual Newton warm start makes 4
        calls = Counter()
        for name in np.linalg.__all__:
            original = getattr(np.linalg, name)
            if isinstance(original, type):  # LinAlgError
                continue

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        pairs = dirichlet_pairs(90, 20261018)
        for u, v in pairs:
            solve_calibration_map(u, v)
        per_solve = {name: count / len(pairs) for name, count in calls.items()}
        assert per_solve["svd"] == 1
        assert per_solve["lstsq"] <= 6
        assert sum(per_solve.values()) <= 14, per_solve


class TestApply:
    def test_maps_source_to_target(self):
        rng = np.random.default_rng(7)
        u = rng.dirichlet(np.ones(6))
        v = rng.dirichlet(np.ones(6))
        cmap = solve_calibration_map(u, v)
        np.testing.assert_allclose(apply_calibration_map(cmap, u), v, atol=1e-8)

    def test_identity_map_fixes_everything(self):
        u = np.full(6, 1 / 6)
        cmap = solve_calibration_map(u, u)
        p = np.array([0.3, 0.1, 0.2, 0.15, 0.2, 0.05])
        np.testing.assert_allclose(apply_calibration_map(cmap, p), p, atol=1e-9)

    def test_hand_matrix_product(self):
        cmap = solve_calibration_map([0.5, 0.5], [0.6, 0.4])
        out = apply_calibration_map(cmap, [0.0, 1.0])
        np.testing.assert_allclose(out, [0.2, 0.8], atol=1e-6)

    @given(st.lists(st.floats(0.01, 1.0), min_size=6, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_stochasticity_preserved(self, raw):
        p = np.array(raw)
        p /= p.sum()
        u = np.array([0.25, 0.2, 0.15, 0.15, 0.15, 0.1])
        v = np.array([0.1, 0.25, 0.2, 0.15, 0.1, 0.2])
        cmap = solve_calibration_map(u, v)
        out = apply_calibration_map(cmap, p)
        assert out.min() >= -1e-12
        assert out.sum() == pytest.approx(1.0, abs=1e-9)

    def test_rejects_bad_vector(self):
        cmap = solve_calibration_map([0.5, 0.5], [0.6, 0.4])
        with pytest.raises(ValueError):
            apply_calibration_map(cmap, [0.7, 0.2])
        with pytest.raises(ValueError):
            apply_calibration_map(cmap, [0.2, 0.2, 0.6])
        with pytest.raises(ValueError, match="non-finite"):
            apply_calibration_map(cmap, [np.nan, 1.0])
        with pytest.raises(ValueError, match="non-finite"):
            apply_calibration_map(cmap, [-np.inf, np.inf])
