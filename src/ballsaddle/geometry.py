"""Finite-dimensional Hilbert space primitives.

Points are 1-D float64 arrays in R^n with the Euclidean inner product.
Closed convex sets come in three flavours: origin-centred balls, boxes, and
user-supplied projection oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificationError, DimensionMismatch, InvalidInput

IDEMPOTENCE_TOL = 1e-10


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Validate and return ``x`` as a finite 1-D float64 vector.

    Raises InvalidInput on NaN/inf or wrong shape, DimensionMismatch if
    ``dim`` is given and disagrees.
    """
    p = np.asarray(x, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise InvalidInput(f"point must be a 1-D vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise InvalidInput("point has non-finite coordinates")
    if dim is not None and p.size != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {p.size}")
    return p


def norm(x) -> float:
    """Euclidean norm ||x||."""
    return float(np.linalg.norm(as_point(x)))


def project_ball(z, r: float) -> np.ndarray:
    """Nearest point of the ball {||x|| <= r} to ``z``.

    Returns ``z`` unchanged inside the ball, else the radial rescaling
    ``r * z / ||z||``.
    """
    if r <= 0:
        raise InvalidInput("ball radius must be positive")
    return ball_projection(as_point(z), r)


def ball_projection(z: np.ndarray, r: float) -> np.ndarray:
    """``project_ball`` without validation, for inner loops whose inputs
    are already checked: ``z`` a finite 1-D float vector and r > 0.
    ||z|| = sqrt(z . z) is what ``np.linalg.norm`` computes for a vector,
    so both give the same bits; ``z.dot(z)`` is the BLAS call of ``z @ z``
    at half the dispatch cost.  An infinite ||z|| returns z, not 0 * inf."""
    nz = math.sqrt(z.dot(z))
    if nz <= r:
        return z.copy()
    if nz == np.inf:
        return z
    return (r / nz) * z


def dist_ball(p, r: float) -> float:
    """Distance from ``p`` to the ball of radius ``r``: max(0, ||p|| - r)."""
    if r <= 0:
        raise InvalidInput("ball radius must be positive")
    return max(0.0, norm(p) - r)


class ConvexSet:
    """A non-empty closed convex set known through its metric projection."""

    def project(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def project_unchecked(self, z: np.ndarray) -> np.ndarray:
        """``project`` for a point already known to be a finite float vector
        of the set's dimension: balls and boxes skip the validation, a
        projection oracle keeps it."""
        return self.project(z)

    def sup_norm(self) -> float:
        """Upper bound on sup {||y|| : y in the set}."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n points of the set, shape (n, dim). Uniform for balls and boxes;
        projections of uniform ball samples for oracle sets."""
        raise NotImplementedError


@dataclass(frozen=True)
class Ball(ConvexSet):
    """Origin-centred closed ball {x : ||x|| <= radius} in R^dim."""

    radius: float
    dim: int

    def __post_init__(self):
        if self.radius <= 0:
            raise InvalidInput("ball radius must be positive")
        if self.dim < 1:
            raise InvalidInput("ball dimension must be >= 1")

    def project(self, z):
        return ball_projection(as_point(z, dim=self.dim), self.radius)

    def project_unchecked(self, z):
        return ball_projection(z, self.radius)

    def sup_norm(self) -> float:
        return self.radius

    def sample(self, rng, n):
        return sample_ball(rng, n, self.dim, self.radius)


@dataclass(frozen=True)
class Box(ConvexSet):
    """Axis-aligned box {x : lower <= x <= upper} (componentwise)."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = as_point(self.lower)
        hi = as_point(self.upper, dim=lo.size)
        if np.any(lo > hi):
            raise InvalidInput("box lower bound exceeds upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    def project(self, z):
        return self.project_unchecked(as_point(z, dim=self.dim))

    def project_unchecked(self, z):
        return np.minimum(np.maximum(z, self.lower), self.upper)

    def sup_norm(self) -> float:
        # sup ||y|| over the box is attained at the componentwise max-|.| corner
        return float(np.linalg.norm(np.maximum(np.abs(self.lower), np.abs(self.upper))))

    def sample(self, rng, n):
        u = rng.uniform(size=(n, self.dim))
        return self.lower + u * (self.upper - self.lower)


@dataclass
class ProjectionOracle(ConvexSet):
    """Convex set given by a user projection function.

    ``norm_bound`` must be a declared upper bound on sup ||y|| over the set;
    it is required by every consumer that needs the set bounded.  Each call
    re-projects the result and raises CertificationError if the oracle is
    not idempotent within IDEMPOTENCE_TOL.
    """

    projection: "callable"
    norm_bound: float | None = None
    dim: int | None = None

    def project(self, z):
        z = as_point(z, dim=self.dim)
        p = as_point(self.projection(z), dim=z.size)
        p2 = as_point(self.projection(p), dim=z.size)
        if float(np.linalg.norm(p2 - p)) > IDEMPOTENCE_TOL:
            raise CertificationError(
                "projection oracle is not idempotent: ||P(P(z)) - P(z)|| = "
                f"{float(np.linalg.norm(p2 - p)):.3e} > {IDEMPOTENCE_TOL:g}"
            )
        return p

    def sup_norm(self) -> float:
        if self.norm_bound is None:
            raise InvalidInput(
                "projection-oracle set needs a declared norm_bound for this operation"
            )
        return float(self.norm_bound)

    def sample(self, rng, n):
        if self.dim is None:
            raise InvalidInput("projection-oracle set needs dim to be sampled")
        raw = sample_ball(rng, n, self.dim, self.sup_norm())
        return np.stack([self.project(z) for z in raw])


def sample_ball(rng: np.random.Generator, n: int, dim: int, radius: float) -> np.ndarray:
    """n points uniform in the ball of the given radius, shape (n, dim)."""
    if radius <= 0:
        raise InvalidInput("ball radius must be positive")
    g = rng.standard_normal(size=(n, dim))
    lengths = np.linalg.norm(g, axis=1, keepdims=True)
    lengths[lengths == 0] = 1.0
    g /= lengths  # in place: a check batch is some MB at dim 128
    g *= radius * rng.uniform(size=(n, 1)) ** (1.0 / dim)
    return g


def axis_points(dim: int, radius: float) -> np.ndarray:
    """The points +-radius e_i of the sphere, shape (2 dim, dim), ordered
    radius e_1, -radius e_1, radius e_2, ..."""
    pts = np.zeros((2 * dim, dim))
    for i in range(dim):
        pts[2 * i, i], pts[2 * i + 1, i] = radius, -radius
    return pts


def sample_sphere(rng: np.random.Generator, n: int, dim: int, radius: float) -> np.ndarray:
    """n points uniform on the sphere {||x|| = radius}, shape (n, dim)."""
    g = rng.standard_normal(size=(n, dim))
    lengths = np.linalg.norm(g, axis=1, keepdims=True)
    lengths[lengths == 0] = 1.0
    g *= radius
    g /= lengths
    return g
