"""Brute-force oracles used to cross-check solver output.

Everything here is deliberately dumb: dense axis-aligned grids, exhaustive
scans, plain fixed-point iterations.  The oracles share no code path with
the solvers, so agreement between the two is meaningful evidence.

Grids are limited to low dimensions (the point count grows as ppa ** dim
for ``ppa`` points per axis, and is capped).  Ball grids are enriched with the
grid points lying within one spacing of the sphere, pushed out radially
onto it; without those the boundary error of a plain grid would dominate.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput, NonConvergence
from .geometry import Ball, Box, ConvexSet, norm, project_ball, sample_ball

MAX_GRID_POINTS = 10**7


def _full_grid(lower: np.ndarray, upper: np.ndarray, ppa: int) -> np.ndarray:
    """Every grid of the oracles comes from here, so ``ppa`` is checked once."""
    if ppa < 2:
        raise InvalidInput(f"ppa (points per axis) must be >= 2, got {ppa}")
    dim = lower.size
    if float(ppa) ** dim > MAX_GRID_POINTS:
        raise InvalidInput(
            f"grid of {ppa}^{dim} points exceeds the {MAX_GRID_POINTS:.0e} cap")
    axes = [np.linspace(lower[i], upper[i], ppa) for i in range(dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def ball_grid(dim: int, r: float, ppa: int) -> tuple[np.ndarray, np.ndarray]:
    """(interior grid points of ball(r), near-boundary points normalized
    onto sphere(r))."""
    pts = _full_grid(np.full(dim, -r), np.full(dim, r), ppa)
    norms = np.linalg.norm(pts, axis=1)
    inside = pts[norms <= r + 1e-12]
    spacing = 2.0 * r / (ppa - 1)
    near = (np.abs(norms - r) <= spacing) & (norms > 0)
    boundary = pts[near] * (r / norms[near])[:, None]
    return inside, boundary


def set_grid(C: ConvexSet, ppa: int) -> np.ndarray:
    """All grid points of a ball or box set, boundary candidates included."""
    if isinstance(C, Ball):
        inside, boundary = ball_grid(C.dim, C.radius, ppa)
        return np.vstack([inside, boundary])
    if isinstance(C, Box):
        return _full_grid(C.lower, C.upper, ppa)
    raise InvalidInput("grid oracles need a ball or box set")


def grid_saddle_oracle(payoff, r: float, T: ConvexSet, ppa: int = 201,
                       reg_weight: float = 0.0):
    """Brute-force minimax of phi(x, y) = (reg_weight/2)||x||^2 + J(x, y)
    over grids of ball(r) x T.

    Returns (x_hat, y_hat, value) where x_hat minimizes the grid inner max
    and y_hat attains that max; ties fall to the smallest row index.
    """
    inside, boundary = ball_grid(payoff.dimension, r, ppa)
    xs = np.vstack([inside, boundary])
    ys = set_grid(T, ppa)
    best_val = np.inf
    best_i = best_j = -1
    chunk = max(1, 10**6 // max(ys.shape[0], 1))
    for start in range(0, xs.shape[0], chunk):
        X = xs[start:start + chunk]
        vals = _cross_values(payoff, X, ys)
        if reg_weight != 0.0:
            vals = vals + 0.5 * reg_weight * np.einsum("mi,mi->m", X, X)[:, None]
        j_arg = np.argmax(vals, axis=1)
        row_max = vals[np.arange(X.shape[0]), j_arg]
        i_arg = int(np.argmin(row_max))
        if row_max[i_arg] < best_val:
            best_val = float(row_max[i_arg])
            best_i = start + i_arg
            best_j = int(j_arg[i_arg])
    return xs[best_i], ys[best_j], best_val


def _cross_values(payoff, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """J(x_i, y_j) as a matrix; vectorized per x row."""
    out = np.empty((X.shape[0], Y.shape[0]))
    for i, x in enumerate(X):
        out[i] = payoff.values_y(x, Y)
    return out


def vi_violation_score(m, candidate: np.ndarray, xs: np.ndarray,
                       F_xs: np.ndarray | None = None) -> float:
    """max over grid points x != candidate of
    max{ <F(candidate), candidate - x>, <F(x), candidate - x> }.

    A true solution scores strictly negative; the oracle picks the
    candidate with the smallest score.
    """
    c = np.asarray(candidate, dtype=float)
    if F_xs is None:
        F_xs = m.vals(xs)
    d = c - xs
    first = d @ m.val(c)
    second = np.einsum("mi,mi->m", F_xs, d)
    score = np.maximum(first, second)
    score[np.linalg.norm(d, axis=1) <= 1e-12] = -np.inf
    return float(np.max(score))


def grid_vi_oracle(m, r: float, ppa: int = 201) -> np.ndarray:
    """Brute-force search for the inequality point on sphere(r).

    Candidates are the boundary-normalized grid points; each is scored by
    its worst inequality value against every grid point of the ball, and
    the best-scoring candidate wins (ties to the smallest index).
    """
    inside, boundary = ball_grid(m.dimension, r, ppa)
    if boundary.shape[0] == 0:
        raise InvalidInput("no boundary candidates at this resolution")
    xs = np.vstack([inside, boundary])
    F_xs = m.vals(xs)
    F_cand = m.vals(boundary)
    sum_xx = np.einsum("mi,mi->m", F_xs, xs)
    best_score = np.inf
    best_idx = -1
    chunk = max(1, 10**6 // max(xs.shape[0], 1))
    for start in range(0, boundary.shape[0], chunk):
        C = boundary[start:start + chunk]
        FC = F_cand[start:start + chunk]
        cx = C @ xs.T
        # first form: <F(c), c - x>; second form: <F(x), c - x>
        first = np.einsum("ki,ki->k", FC, C)[:, None] - FC @ xs.T
        second = C @ F_xs.T - sum_xx[None, :]
        score = np.maximum(first, second)
        d2 = (np.einsum("ki,ki->k", C, C)[:, None] - 2.0 * cx
              + np.einsum("mi,mi->m", xs, xs)[None, :])
        score[d2 <= 1e-24] = -np.inf
        row = np.max(score, axis=1)
        k = int(np.argmin(row))
        if row[k] < best_score:
            best_score = float(row[k])
            best_idx = start + k
    return boundary[best_idx]


def fixedpoint_vi_oracle(m, r: float, step: float, tol: float = 1e-10,
                         max_iters: int = 10**6) -> np.ndarray:
    """Projected fixed-point iteration x <- P_ball(r)(x - step * F(x)).

    An entirely different route to the same point the saddle solver finds;
    raises NonConvergence when the update norm will not drop below tol.
    """
    if step <= 0:
        raise InvalidInput("step must be positive")
    x = np.zeros(m.dimension)
    for it in range(1, max_iters + 1):
        x_next = project_ball(x - step * m.val(x), r)
        if norm(x_next - x) <= tol:
            return x_next
        x = x_next
    raise NonConvergence(
        f"fixed-point oracle did not settle in {max_iters} iterations",
        residual=float(norm(x_next - x)), iterations=max_iters)


def uniqueness_probe(solve_from, starts: int, seed: int = 0, *, dim: int,
                     radius: float) -> float:
    """Max pairwise distance between solutions from scattered starts.

    Start i draws its point of ball(radius) from seed + i and hands it to
    ``solve_from``.
    """
    if starts < 2:
        raise InvalidInput("starts must be >= 2")
    sols = []
    for s in range(seed, seed + starts):
        rng = np.random.default_rng(s)
        x0 = sample_ball(rng, 1, dim, radius)[0]
        sols.append(np.asarray(solve_from(x0), dtype=float))
    spread = 0.0
    for i in range(len(sols)):
        for j in range(i + 1, len(sols)):
            spread = max(spread, float(norm(sols[i] - sols[j])))
    return spread


def grid_sigma_oracle(b, A, C: ConvexSet, ppa: int = 201) -> float:
    """Dense-grid minimum of ||b - A^T y|| over y in C, refined once on a
    window of the same resolution around the coarse argmin.

    Independent of the SVD and projected-gradient routes: pure enumeration.
    """
    b = np.asarray(b, dtype=float)
    A = np.asarray(A, dtype=float)

    def residuals(Y):
        return np.linalg.norm(Y @ A - b, axis=1)

    ys = set_grid(C, ppa)
    vals = residuals(ys)
    k = int(np.argmin(vals))
    best, center = float(vals[k]), ys[k]
    if isinstance(C, Ball):
        spacing = 2.0 * C.radius / (ppa - 1)
    else:
        spacing = float(np.max(C.upper - C.lower)) / (ppa - 1)
    w = 3.0 * spacing
    lo, hi = center - w, center + w
    if isinstance(C, Box):
        lo, hi = np.maximum(lo, C.lower), np.minimum(hi, C.upper)
    win = _full_grid(lo, hi, ppa)
    if isinstance(C, Ball):
        norms = np.linalg.norm(win, axis=1)
        keep = win[norms <= C.radius + 1e-12]
        near = (np.abs(norms - C.radius) <= 2.0 * w / (ppa - 1)) & (norms > 0)
        onto = win[near] * (C.radius / norms[near])[:, None]
        win = np.vstack([keep, onto]) if onto.size else keep
    return min(best, float(np.min(residuals(win)))) if win.size else best
