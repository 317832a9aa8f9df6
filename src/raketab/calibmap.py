"""
calibration maps between race distributions measured on different
populations.

The map is the column-stochastic matrix nearest the identity in Frobenius
norm that carries a source distribution onto a target distribution. Since
the objective is squared distance from the identity, the solution is the
Euclidean projection of the identity onto the feasible polytope, solved
exactly in finitely many steps: the equalities (column sums and the
transport equation) are eliminated, the remaining least-distance problem
reduces to one nonnegative least squares solve (Lawson-Hanson), and the
active set it identifies is re-solved as an equality-constrained
projection. The result carries its own optimality certificate. The problem
is tiny (n*n variables with n = 6), so no external solver is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# the optimality certificate a solution must pass
KKT_TOL = 1e-6
FEAS_TOL = 1e-9


class CalibrationSolveError(RuntimeError):
    """The projection failed its optimality certificate."""


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


def _check_probability(name, vec, tol=1e-6):
    v = np.asarray(vec, dtype=np.float64)
    if v.ndim != 1 or len(v) < 2:
        raise ValueError(f"{name} must be a vector of length >= 2")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} has non-finite entries")
    if np.any(v < 0):
        raise ValueError(f"{name} has negative entries")
    if abs(v.sum() - 1.0) > tol:
        raise ValueError(f"{name} sums to {v.sum()!r}, expected 1")
    return v


def _affine_system(u, v):
    """Stack the column-sum and transport constraints as M @ vec(A) = b."""
    n = len(u)
    m = np.zeros((2 * n, n * n))
    for j in range(n):  # column j sums to 1
        m[j, j::n] = 1.0
    for i in range(n):  # row i of A @ u = v
        m[n + i, i * n : (i + 1) * n] = u
    b = np.concatenate([np.ones(n), v])
    return m, b


def _nnls(a, f, max_iterations=500):
    """Nonnegative least squares min ||a @ u - f|| with u >= 0.

    The classic active-set iteration: admit the variable with the most
    positive gradient, solve the unconstrained subproblem on the admitted
    set, and when the subproblem turns a variable negative, step back to
    the last feasible point on the segment and drop the variables that hit
    zero. Terminates finitely; the caps are safety nets.
    """
    n = a.shape[1]
    passive = np.zeros(n, dtype=bool)
    u = np.zeros(n)
    for _ in range(max_iterations):
        grad = a.T @ (f - a @ u)
        grad[passive] = -np.inf
        best = int(np.argmax(grad))
        if grad[best] <= 1e-12:
            return u
        passive[best] = True
        for _ in range(max_iterations):
            sub = np.zeros(n)
            sub[passive], *_ = np.linalg.lstsq(a[:, passive], f, rcond=None)
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
            raise CalibrationSolveError("nonnegative least squares failed to settle")
    raise CalibrationSolveError("nonnegative least squares failed to settle")


def _project_exact(z, m, b):
    """Exact projection of z onto {x : M x = b, x >= 0}.

    The equalities are eliminated with an orthonormal basis of ker(M),
    which turns the projection into a least-distance problem over the
    basis coordinates; that in turn reduces to a single nonnegative least
    squares solve (Lawson-Hanson reduction). Returns the point and the
    bound multipliers, which certify optimality.
    """
    x0, *_ = np.linalg.lstsq(m, b, rcond=None)
    _, svals, vt = np.linalg.svd(m, full_matrices=True)
    rank = int(np.sum(svals > svals.max() * 1e-12))
    basis = vt[rank:].T  # (n_vars, k) orthonormal columns spanning ker(M)
    w = basis.T @ (z - x0)
    # shift to s = t - w: min ||s|| subject to basis @ s >= -(x0 + basis @ w)
    h = -(x0 + basis @ w)
    e = np.vstack([basis.T, h])  # (k + 1, n_vars)
    f = np.zeros(e.shape[0])
    f[-1] = 1.0
    u = _nnls(e, f)
    r = e @ u - f
    if abs(r[-1]) < 1e-12:
        raise CalibrationSolveError("least-distance reduction is degenerate")
    s = -r[:-1] / r[-1]
    x = x0 + basis @ (w + s)
    # the scaled nonnegative solve solution is exactly the multiplier
    # vector of the bound constraints
    mu = u / -r[-1]
    return np.maximum(x, 0.0), mu


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
    tiny shares keep their conditioning unsquared.
    """
    mf = m[:, ~act]
    step, *_ = np.linalg.lstsq(mf, mf @ z[~act] - b, rcond=None)
    lam, *_ = np.linalg.lstsq(mf.T, step, rcond=None)
    x = np.zeros_like(z)
    x[~act] = z[~act] - step
    mu = np.where(act, x - z + m.T @ lam, 0.0)
    # clamp roundoff negatives; a wrong active set still fails the certificate
    return np.maximum(x, 0.0), np.maximum(mu, 0.0)


def solve_calibration_map(u_source, u_target) -> CalibrationMap:
    """Find the column-stochastic matrix nearest the identity mapping
    `u_source` to `u_target`.

    Both inputs must be probability vectors of equal length (finite,
    nonnegative, summing to 1 within 1e-6). The rank-one matrix with every
    column equal to `u_target` is always feasible, so a solution exists; the
    returned objective never exceeds that benchmark.

    The identity is projected exactly onto the feasible polytope: the
    least-distance reduction to nonnegative least squares finds the active
    set of zero entries, the equality-constrained projection on the
    remaining entries fixes the point, and the bound multipliers of the
    active entries certify optimality. The map is returned only when affine
    feasibility is within `FEAS_TOL` and the KKT residual within `KKT_TOL`.

    Source shares below 1e-5 of the largest share are snapped to exact
    zero (and the source renormalized): such columns constrain the map
    only at measurement-noise scale, and keeping them makes the problem
    numerically ill posed. Exactly-zero shares are handled exactly.
    """
    u = _check_probability("u_source", u_source)
    v = _check_probability("u_target", u_target)
    if len(u) != len(v):
        raise ValueError("source and target lengths differ")
    u = np.where(u < 1e-5 * u.max(), 0.0, u)
    u = u / u.sum()
    n = len(u)

    m, b = _affine_system(u, v)
    z = np.eye(n).ravel()
    _, mu = _project_exact(z, m, b)
    x, mu = _resolve_on_face(z, m, b, mu > 0)
    feas = float(np.abs(m @ x - b).max())
    kkt = _kkt_residual_with_multipliers(x, z, m, b, mu)
    if feas > FEAS_TOL or kkt > KKT_TOL:
        raise CalibrationSolveError(
            f"projection fails its certificate: feasibility {feas:.3e}, KKT residual {kkt:.3e}"
        )

    a = x.reshape(n, n)
    a = a / a.sum(axis=0, keepdims=True)  # make column sums exactly one
    objective = float(np.linalg.norm(a - np.eye(n)))

    benchmark = float(np.linalg.norm(np.outer(v, np.ones(n)) - np.eye(n)))
    if objective > benchmark + 1e-6:
        raise CalibrationSolveError(
            f"objective {objective:.6g} exceeds the rank-one benchmark {benchmark:.6g}"
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
    vec = _check_probability("p", p)
    if len(vec) != len(cmap.source):
        raise ValueError("vector length does not match the map")
    return cmap.matrix @ vec
