"""
calibration maps between race distributions measured on different
populations.

The map is the column-stochastic matrix nearest the identity in Frobenius
norm that carries a source distribution onto a target distribution. Since
the objective is squared distance from the identity, the solution is the
Euclidean projection of the identity onto the feasible polytope, solved
exactly in finitely many steps. Zero shares are presolved: a zero source
share keeps its identity column and a zero target share zeroes its row,
so only the remaining block is projected. There the equalities (column
sums and the transport equation) are eliminated, the remaining
least-distance problem reduces to one nonnegative least squares solve
(Lawson-Hanson), and the active set it identifies is re-solved as an
equality-constrained projection. The nonnegative least squares solve is
warm-started from a guess of that active set, found by a few damped
semismooth Newton steps on the projection's dual; it confirms or corrects
the guess, and since the map depends only on the active set, the guess
changes the cost of a solve and never its answer. The result carries its
own optimality certificate over all n*n entries. The problem is tiny (n*n
variables with n = 6), so no external solver is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .table import probability_vector

# the optimality certificate a solution must pass
KKT_TOL = 1e-6
FEAS_TOL = 1e-9


class CalibrationSolveError(RuntimeError):
    """The projection failed; carries the failing stage and, once the
    certificate was computed, its feasibility and KKT residual."""

    def __init__(self, message, stage, feasibility=None, kkt_residual=None):
        super().__init__(message)
        self.stage = stage
        self.feasibility = feasibility
        self.kkt_residual = kkt_residual


@dataclass(frozen=True)
class CalibrationMap:
    """Column-stochastic matrix mapping `source` onto `target`.

    Every column sums to 1, all entries are nonnegative, and
    matrix @ source == target to solver tolerance. `objective` is the
    Frobenius distance of the matrix from the identity; it never exceeds
    `rank_one_benchmark`, that of the matrix whose columns all equal the
    target. `feasibility` and `kkt_residual` certify the projection.
    """

    matrix: np.ndarray
    source: np.ndarray
    target: np.ndarray
    objective: float
    feasibility: float
    kkt_residual: float
    rank_one_benchmark: float

    def __post_init__(self):
        self.matrix.flags.writeable = False


def _affine_system(u, v):
    """Stack the column-sum and transport constraints as M @ vec(A) = b."""
    n = len(u)
    eye = np.eye(n)
    sums = np.broadcast_to(eye[:, None, :], (n, n, n))  # row j: A[i, j] for every i
    transport = eye[:, :, None] * u  # row n + i: A[i, j] weighted by u_j
    m = np.concatenate([sums, transport]).reshape(2 * n, n * n)
    return m, np.concatenate([np.ones(n), v])


def _solve_on(a, f, passive):
    """Least squares of a @ u = f over the passive columns, zero elsewhere."""
    sub = np.zeros(a.shape[1])
    sub[passive], *_ = np.linalg.lstsq(a[:, passive], f, rcond=None)
    return sub


def _nnls(a, f, passive, max_iterations=500):
    """Nonnegative least squares min ||a @ u - f|| with u >= 0.

    `passive` guesses the optimal passive set. It is first pruned, dropping
    the variables its subproblem turns nonpositive, until that subproblem's
    solution is nonnegative; an empty guess is the cold start. Then the
    classic active-set iteration: admit the variable with the most positive
    gradient, solve the unconstrained subproblem on the admitted set, and
    when the subproblem turns a variable negative, step back to the last
    feasible point on the segment and drop the variables that hit zero. A
    right guess passes the first gradient test, so a wrong one costs only
    iterations. Terminates finitely; the caps are safety nets.
    """
    n = a.shape[1]
    passive = passive.copy()
    u = np.zeros(n)
    while np.any(passive):
        sub = _solve_on(a, f, passive)
        if sub[passive].min() >= -1e-12:
            u = np.maximum(sub, 0.0)
            break
        passive &= sub > 0
    for _ in range(max_iterations):
        grad = a.T @ (f - a @ u)
        grad[passive] = -np.inf
        best = int(np.argmax(grad))
        if grad[best] <= 1e-12:
            return u
        passive[best] = True
        for _ in range(max_iterations):
            sub = _solve_on(a, f, passive)
            # tolerate roundoff-scale negatives, or ill-conditioned faces cycle
            if sub[passive].min() >= -1e-12:
                u = np.maximum(sub, 0.0)
                break
            bad = passive & (sub <= 0)
            denom = u[bad] - sub[bad]
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(denom > 0, u[bad] / denom, 0.0)
            alpha = float(ratios.min())
            u = u + alpha * (sub - u)
            u[~passive] = 0.0
            passive &= u > 1e-14
            if not np.any(passive):
                u = np.zeros(n)
                break
        else:
            raise CalibrationSolveError("nonnegative least squares failed to settle", "nnls")
    raise CalibrationSolveError("nonnegative least squares failed to settle", "nnls")


def _dual_newton_guess(z, m, b, lam):
    """Guess the active set of the projection of z onto {x : M x = b, x >= 0}.

    The projection's dual maximises the concave
    phi(lam) = -||x(lam)||^2 / 2 - b @ lam over the equality multipliers,
    where x(lam) = max(0, z - M^T lam); its gradient is the affine residual
    M x(lam) - b. Each damped semismooth Newton step solves with the
    generalised Hessian M_F M_F^T of the free entries F = {x(lam) > 0},
    lightly regularised since M has a null row combination, and halves until
    phi rises enough (Armijo). Once a full step keeps F, lam is optimal on F.
    Returns the entries where z - M^T lam < 0, those whose bound multiplier
    would be positive; the nonnegative least squares solve that follows
    confirms or corrects them.
    """
    reg = 1e-12 * np.eye(len(lam))
    y = z - m.T @ lam
    x = np.maximum(y, 0.0)
    phi = -0.5 * (x @ x) - b @ lam
    for _ in range(20):  # a few steps settle F; the cap bounds a bad start
        grad = m @ x - b
        free = y > 0
        mf = m[:, free]
        step = np.linalg.solve(mf @ mf.T + reg, grad)
        slope = 1e-4 * (grad @ step)
        t = 1.0
        while True:
            lam_t = lam + t * step
            y_t = z - m.T @ lam_t
            x_t = np.maximum(y_t, 0.0)
            phi_t = -0.5 * (x_t @ x_t) - b @ lam_t
            if phi_t >= phi + t * slope:
                break
            t *= 0.5
            if t < 1e-9:  # no ascent left at roundoff scale
                return y < 0
        lam, y, x, phi = lam_t, y_t, x_t, phi_t
        if t == 1.0 and np.array_equal(y > 0, free):
            break
    return y < 0


def _active_set(z, m, b):
    """Active set of the exact projection of z onto {x : M x = b, x >= 0}.

    The equalities are eliminated with an orthonormal basis of ker(M),
    which turns the projection into a least-distance problem over the
    basis coordinates; that in turn reduces to a single nonnegative least
    squares solve (Lawson-Hanson reduction), whose solution scales to the
    bound multipliers. One SVD of M gives the basis, a particular solution
    and the multipliers of the affine projection, which start the dual
    Newton guess that warm-starts the solve.
    """
    left, svals, vt = np.linalg.svd(m, full_matrices=True)
    rank = int(np.sum(svals > svals.max() * 1e-12))
    basis = vt[rank:].T  # (n_vars, k) orthonormal columns spanning ker(M)
    coef = left[:, :rank].T / svals[:rank, None]
    x0 = vt[:rank].T @ (coef @ b)
    lam0 = coef.T @ (coef @ (m @ z - b))
    w = basis.T @ (z - x0)
    # shift to s = t - w: min ||s|| subject to basis @ s >= -(x0 + basis @ w)
    h = -(x0 + basis @ w)
    e = np.vstack([basis.T, h])  # (k + 1, n_vars)
    f = np.zeros(e.shape[0])
    f[-1] = 1.0
    u = _nnls(e, f, _dual_newton_guess(z, m, b, lam0))
    r = e @ u - f
    if abs(r[-1]) < 1e-12:
        raise CalibrationSolveError("least-distance reduction is degenerate", "reduction")
    # the scaled nonnegative solve solution is exactly the multiplier
    # vector of the bound constraints
    return u / -r[-1] > 0


def _kkt_residual_with_multipliers(x, z, m, b, mu):
    """Optimality residual when the bound multipliers are known exactly.

    Fits the equality multipliers by unrestricted least squares (no
    complementarity guessing needed) and reports the worst of stationarity,
    complementarity slack, and feasibility.
    """
    g = x - z
    lam, *_ = np.linalg.lstsq(m.T, mu - g, rcond=None)
    stationarity = float(np.abs(g + m.T @ lam - mu).max())
    complementarity = float(np.abs(mu * x).max())
    feasibility = float(np.abs(m @ x - b).max())
    return max(stationarity, complementarity, feasibility)


def _resolve_on_face(z, m, b, act):
    """Project z onto {x : M x = b, x[act] = 0} and recover the multipliers.

    Active entries become exact zeros, since bound multipliers as large as
    1/share would magnify any roundoff left there. The step onto the face
    is solved on the free columns, not on their Gram matrix, so columns of
    tiny shares keep their conditioning unsquared. Returns the point, the
    bound multipliers and the equality multipliers.
    """
    mf = m[:, ~act]
    step, *_ = np.linalg.lstsq(mf, mf @ z[~act] - b, rcond=None)
    lam, *_ = np.linalg.lstsq(mf.T, step, rcond=None)
    x = np.zeros_like(z)
    x[~act] = z[~act] - step
    mu = np.where(act, x - z + m.T @ lam, 0.0)
    # clamp roundoff negatives; a wrong active set still fails the certificate
    return np.maximum(x, 0.0), np.maximum(mu, 0.0), lam


def _presolved_projection(z, m, b, u, v):
    """Project the identity onto the maps carrying u to v, zero shares presolved.

    A column with u_j = 0 is free of the transport equation, so it stays
    the identity's column e_j. A row with v_i = 0 is zero on every column
    with u_j > 0. Only the remaining block is projected. The entries fixed
    this way get multipliers in closed form, so that the certificate covers
    all n * n entries: alpha_j = 0 for a column with u_j = 0, and
    beta_i = max_j (delta_ij - alpha_j) / u_j over u_j > 0 for a row with
    v_i = 0, the smallest that keeps its bound multipliers nonnegative.
    z, m and b are the identity and the constraints M @ vec(A) = b of the
    whole problem. Returns the point and its bound multipliers.
    """
    n = len(u)
    cols, rows = u > 0, v > 0
    keep = np.outer(rows, cols).ravel()
    eqs = np.concatenate([cols, rows])
    ms, bs, zs = m[np.ix_(eqs, keep)], b[eqs], z[keep]
    xs, mus, lam = _resolve_on_face(zs, ms, bs, _active_set(zs, ms, bs))
    x = np.where(np.tile(cols, n), 0.0, z)
    x[keep] = xs
    mu = np.zeros(n * n)
    mu[keep] = mus
    if not rows.all():
        alpha = lam[: cols.sum()]
        gap = (np.eye(n)[np.ix_(~rows, cols)] - alpha) / u[cols]
        beta = gap.max(axis=1, keepdims=True)
        mu.reshape(n, n)[np.ix_(~rows, cols)] = (beta - gap) * u[cols]
    return x, mu


def solve_calibration_map(u_source, u_target) -> CalibrationMap:
    """Find the column-stochastic matrix nearest the identity mapping
    `u_source` to `u_target`.

    Both inputs must pass `probability_vector`, at one length; a target
    whose sum is further from 1 than `FEAS_TOL` is divided by it. The
    rank-one matrix with every column equal to the target is feasible, so a
    solution exists; the returned objective never exceeds that benchmark.

    Source shares below 1e-5 of the largest share are snapped to exact
    zero (and the source renormalized): such columns constrain the map
    only at measurement-noise scale, and keeping them makes the problem
    numerically ill posed. Zero shares are then presolved: a zero source
    share keeps its identity column and a zero target share zeroes its row.

    The rest is projected exactly: semismooth Newton steps on the dual
    guess the active set of zero entries, and the nonnegative least squares
    of the least-distance reduction, warm-started from that guess, confirms
    or corrects it. The map depends only on that active set, so the guess
    changes the cost of a solve, never its answer. The map is returned only
    when affine feasibility is within `FEAS_TOL` and the KKT residual, over
    all n * n entries, within `KKT_TOL`; otherwise `CalibrationSolveError`
    names the failing stage.
    """
    u = probability_vector(u_source, "u_source", length=None)
    v = probability_vector(u_target, "u_target", length=None)
    if len(u) != len(v):
        raise ValueError("source and target lengths differ")
    u = np.where(u < 1e-5 * u.max(), 0.0, u)
    u = u / u.sum()
    # A @ u sums to 1 for every column-stochastic A, so a target off by more
    # than FEAS_TOL may fail every map's certificate; a nearer one is kept
    if abs(v.sum() - 1.0) > FEAS_TOL:
        v = v / v.sum()
    n = len(u)

    m, b = _affine_system(u, v)
    z = np.eye(n).ravel()
    x, mu = _presolved_projection(z, m, b, u, v)
    feas = float(np.abs(m @ x - b).max())
    kkt = _kkt_residual_with_multipliers(x, z, m, b, mu)
    if feas > FEAS_TOL or kkt > KKT_TOL:
        raise CalibrationSolveError(
            f"projection fails its certificate: feasibility {feas:.3e}, KKT residual {kkt:.3e}",
            "certificate", feas, kkt,
        )

    a = x.reshape(n, n)
    a = a / a.sum(axis=0, keepdims=True)  # make column sums exactly one
    objective = float(np.linalg.norm(a - np.eye(n)))

    benchmark = float(np.linalg.norm(np.outer(v, np.ones(n)) - np.eye(n)))
    if objective > benchmark + 1e-6:
        raise CalibrationSolveError(
            f"objective {objective:.6g} exceeds the rank-one benchmark {benchmark:.6g}",
            "benchmark", feas, kkt,
        )
    return CalibrationMap(
        matrix=a, source=u, target=v, objective=objective,
        feasibility=feas, kkt_residual=kkt, rank_one_benchmark=benchmark,
    )


def apply_calibration_map(cmap: CalibrationMap, p) -> np.ndarray:
    """Transform a probability vector through the calibration map.

    The output is again a probability vector: column sums of 1 preserve
    total mass and nonnegativity preserves signs.
    """
    vec = probability_vector(p, "p", length=None)
    if len(vec) != len(cmap.source):
        raise ValueError("vector length does not match the map")
    return cmap.matrix @ vec
