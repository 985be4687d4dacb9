"""Constants behind the certified statements and the admissible radius.

Every certified run needs a handful of scalar constants of the problem map:

* ``theta`` -- sup of the Jacobian operator norm over the domain ball,
* ``gamma`` -- Lipschitz constant of the Jacobian,
* ``eta``   -- Lipschitz constant of ``x -> x - f(x)`` (approximation runs),
* ``M = 2*(theta + rho*gamma)`` -- Lipschitz constant of the payoff
  x-gradient for variational-inequality payoffs,
* ``L = 2*(eta + theta + gamma*(rho + sup_Y ||y||))`` -- same for
  best-approximation payoffs,
* ``sigma`` -- min over the dual ball/set of ``||b - A^T y||`` built from the
  map value and Jacobian at the origin,
* ``delta`` -- min over the dual set of the payoff x-gradient norm at 0.

Each constant carries a certification flag: exact analytic value, a proved
conservative bound (an upper bound of theta, gamma, eta, M and L, the
denominators of the admissible radius; a lower bound of sigma and delta, its
numerators), or a sampled lower bound (not certification grade).
The admissible radius ``r_max`` caps the ball radius ``r`` at which the
sphere-located solution is guaranteed.  ``RADIUS_RULES`` names each radius
rule's numerator, its denominator (also the regularization weight of the
solved problem) and the scale of the denominator; ``ConstantsReport``
computes ``r_max`` from it when the report is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import InvalidInput
from .geometry import Ball, Box, ConvexSet, as_point, axis_points

SIGMA_TOL = 1e-10
SIGMA_MAX_ITERS = 10**5


def require_count(name: str, value, least: int):
    """A count setting must be an integer >= ``least`` (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise InvalidInput(f"{name} must be an integer >= {least}, got {value!r}")


class CertFlag(str, Enum):
    """How a reported constant was obtained."""

    ANALYTIC = "analytic"
    CONSERVATIVE = "conservative-bound"
    SAMPLED = "sampled-lower-bound"


_SEVERITY = {CertFlag.ANALYTIC: 0, CertFlag.CONSERVATIVE: 1, CertFlag.SAMPLED: 2}


def combine_flags(*flags: CertFlag) -> CertFlag:
    """Worst flag wins: analytic < conservative-bound < sampled-lower-bound."""
    return max(flags, key=lambda f: _SEVERITY[f])


@dataclass(frozen=True, slots=True)
class CertValue:
    """A nonnegative constant together with its certification flag."""

    value: float
    flag: CertFlag

    def __post_init__(self):
        if not np.isfinite(self.value) or self.value < 0:
            raise InvalidInput(f"constant must be finite and >= 0, got {self.value}")

    def to_dict(self):
        return {"value": self.value, "flag": self.flag.value}


# radius rule -> (numerator, denominator, scale): r_max = min(rho, num / (scale den)),
# 0 for a zero numerator and rho for a zero denominator (a vacuous bound)
RADIUS_RULES = {"vi": ("sigma", "M", 2.0), "ba": ("sigma", "L", 1.0),
                "saddle": ("delta", "L", 2.0)}


@dataclass(frozen=True, slots=True)
class ConstantsReport:
    """All constants used by a run, the radius rule, and the admissible
    radius ``r_max``, computed from ``RADIUS_RULES`` when the report is built
    (``dataclasses.replace`` recomputes it; it cannot be set)."""

    rho: float
    theta: CertValue
    gamma: CertValue
    eta: CertValue | None = None
    delta: CertValue | None = None
    M: CertValue | None = None
    L: CertValue | None = None
    sigma: CertValue | None = None
    radius_rule: str = "vi"
    r_max: float = field(init=False)

    def __post_init__(self):
        if self.radius_rule not in RADIUS_RULES:
            raise InvalidInput(f"unknown radius rule {self.radius_rule!r}")
        if not self.rho > 0:
            raise InvalidInput("rho must be positive")
        num_name, den_name, scale = RADIUS_RULES[self.radius_rule]
        num, den = getattr(self, num_name), getattr(self, den_name)
        if num is None or den is None:
            raise InvalidInput(
                f"radius rule {self.radius_rule!r} needs {num_name} and {den_name} in the report")
        object.__setattr__(self, "r_max", 0.0 if num.value <= 0.0 else self.rho
                           if den.value <= 0.0 else min(self.rho, num.value / (scale * den.value)))

    @property
    def weight(self) -> CertValue:
        """The denominator of the radius rule: the regularization weight of
        the solved problem."""
        return getattr(self, RADIUS_RULES[self.radius_rule][1])

    @property
    def certified(self) -> bool:
        """True when no constant is a mere sampled lower bound."""
        vals = [self.theta, self.gamma, self.eta, self.delta, self.M, self.L, self.sigma]
        return all(v.flag is not CertFlag.SAMPLED for v in vals if v is not None)

    def to_dict(self):
        d = {"rho": self.rho, "r_max": self.r_max,
             "radius_rule": self.radius_rule, "certified": self.certified}
        for name in ("theta", "gamma", "eta", "delta", "M", "L", "sigma"):
            v = getattr(self, name)
            d[name] = None if v is None else v.to_dict()
        return d


def op_norm(A):
    """Spectral norm of a square matrix, or of each matrix of a stack of
    shape (k, n, n), as the largest singular value from LAPACK's SVD.

    The value is accurate to a few ulps and carries no rounding pad: a pad
    would push a constant that sits exactly on a threshold (the shift gate
    of statement 4 at ``||w - F(0)|| = 2 M1 rho``) over it.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim not in (2, 3) or A.shape[-1] != A.shape[-2]:
        raise InvalidInput(f"op_norm needs square matrices, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise InvalidInput("matrix has non-finite entries")
    norms = np.linalg.norm(A, 2, axis=(-2, -1))
    return float(norms) if A.ndim == 2 else norms


def ball_points(dim: int, rho: float, n: int, seed: int) -> np.ndarray:
    """n points uniform in the ball of radius ``rho``: rho times the first
    dim coordinates of the unit vector along each row of an (n, dim + 2)
    normal draw, a uniform point of the sphere in dimension dim + 2
    (Voelker, Gosmann and Stewart, 2017).  A longer draw with the same seed
    extends a shorter one."""
    g = np.random.default_rng(seed).standard_normal((n, dim + 2))
    lens = np.linalg.norm(g, axis=1, keepdims=True)
    lens[lens == 0.0] = 1.0
    return (rho / lens) * g[:, :dim]


def estimate_theta(smooth_map, samples: int = 1000, seed: int = 0) -> CertValue:
    """Sup of ||jacobian(x)|| over the domain ball.

    Declared analytic constants pass through with their own flag; otherwise
    the max over ``samples`` points, 0 and the 2n axis boundary points
    first and then ``ball_points``, is returned as a sampled lower bound.
    """
    if smooth_map.analytic is not None:
        a = smooth_map.analytic
        return CertValue(a.theta, a.theta_flag)
    require_count("samples", samples, 1)
    dim, rho = smooth_map.dimension, smooth_map.domain_radius
    structured = np.vstack([np.zeros((1, dim)), axis_points(dim, rho)])
    pts = np.vstack([structured, ball_points(dim, rho, max(0, samples - len(structured)), seed)])
    return CertValue(max(op_norm(smooth_map.jac(x)) for x in pts[:samples]), CertFlag.SAMPLED)


def estimate_lipschitz(oracle, rho: float, pairs: int = 1000, seed: int = 0, *,
                       dim: int) -> CertValue:
    """Best sampled lower bound on the Lipschitz constant of ``oracle`` on the
    ball of radius ``rho`` in dimension ``dim``.

    ``oracle`` maps points to vectors or matrices; matrix differences are
    measured in operator norm.
    """
    require_count("pairs", pairs, 1)
    pts = ball_points(dim, rho, 2 * pairs, seed)
    best = 0.0
    for a, b in zip(pts[0::2], pts[1::2]):
        gap = float(np.linalg.norm(a - b))
        if gap >= 1e-14:
            diff = np.asarray(oracle(a), dtype=float) - np.asarray(oracle(b), dtype=float)
            dn = op_norm(diff) if diff.ndim == 2 else float(np.linalg.norm(diff))
            best = max(best, dn / gap)
    return CertValue(best, CertFlag.SAMPLED)


def _min_residual_over_ball(b: np.ndarray, A: np.ndarray, rho: float) -> float:
    """min over ||y|| <= rho of ||b - A^T y|| as a trust-region subproblem
    (More & Sorensen, 1983): with A^T = U diag(s) V^T and c = U^T b, every
    multiplier lam >= 0 bounds the squared minimum from below by
    g(lam) = sum c_i^2 lam / (s_i^2 + lam) - lam rho^2, tight at the root of
    ||y(lam)|| = rho, or at lam = 0 when the unconstrained minimizer lies in
    the ball.  1/||y(lam)|| - 1/rho is concave and increasing, so Newton's
    method from lam = 0 stays left of the root and climbs to it; no failure
    exit.
    """
    U, s, _ = np.linalg.svd(A.T)
    c2 = (U.T @ b) ** 2
    s2 = s * s
    reach = s > 0.0
    w = s2[reach] * c2[reach]  # ||y(lam)||^2 = sum w_i / (s_i^2 + lam)^2
    lam = 0.0
    for _ in range(100):  # a cap only: the iteration settles in about a dozen steps
        d = s2[reach] + lam
        y2 = float(np.sum(w / (d * d)))
        if y2 <= rho * rho:
            break
        y = np.sqrt(y2)
        step = (y - rho) / rho * y2 / float(np.sum(w / (d * d * d)))
        if not lam + step > lam:
            break
        lam += step
    weights = lam / (s2 + lam) if lam > 0.0 else (~reach).astype(float)
    return float(np.sqrt(max(0.0, float(np.sum(c2 * weights)) - lam * rho * rho)))


def _support(C: ConvexSet):
    """An upper bound on the support function h_C(v) = sup over y in C of
    <v, y>: exact on a box, sup_norm * ||v|| on any other set."""
    if isinstance(C, Box):
        return lambda v: float(np.sum(np.maximum(C.lower * v, C.upper * v)))
    radius = C.sup_norm()
    return lambda v: radius * float(np.linalg.norm(v))


def min_residual(b: np.ndarray, A: np.ndarray, C: ConvexSet) -> CertValue:
    """A proved lower bound on min over y in C of ||b - A^T y||, the one
    routine of sigma (b, A the map value and Jacobian at the origin) and
    delta (``Payoff.grad0_affine``): in closed form on balls (analytic), by
    weak duality on boxes and projection-oracle sets.

    For a unit u, ||b - A^T y|| >= <u, b> - <A u, y> >= <u, b> - h_C(A u)
    (``_support``).  Projected gradient descent on the convex quadratic
    ||b - A^T y||^2, with the fixed step 1/(2 ||A||^2), supplies
    u = (b - A^T y)/||b - A^T y|| at each iterate y; the best of these
    bounds is returned.  It is flagged analytic once the gap to the
    objective at an iterate is at most SIGMA_TOL, else conservative-bound:
    when the iterates stall (the gradient mapping norm falls below
    SIGMA_TOL), when ||A|| <= 1e-9, or at SIGMA_MAX_ITERS.
    """
    b = as_point(b)
    A = np.asarray(A, dtype=float)
    if A.shape != (b.size, b.size):
        raise InvalidInput(f"matrix shape {A.shape} does not match dimension {b.size}")
    if isinstance(C, Ball):
        return CertValue(_min_residual_over_ball(as_point(b, dim=C.dim), A, C.radius),
                         CertFlag.ANALYTIC)
    support = _support(C)
    na = op_norm(A)
    y, bound = C.project(np.zeros_like(b)), 0.0
    for _ in range(SIGMA_MAX_ITERS):
        res = b - A.T @ y
        value = float(np.linalg.norm(res))
        g = A @ res  # h_C is positively homogeneous: h_C(A u) = h_C(g) / value
        if value > 0.0:
            bound = max(bound, (float(res @ b) - support(g)) / value)
        if value - bound <= SIGMA_TOL:
            return CertValue(bound, CertFlag.ANALYTIC)
        if na <= 1e-9:  # the y-term moves the residual by at most na sup_norm
            break
        y_next = C.project_unchecked(y + g / (na * na))  # step 1/(2 ||A||^2) on the gradient -2 g
        if float(np.linalg.norm(y - y_next)) * 2.0 * na * na <= SIGMA_TOL:
            break
        y = y_next
    return CertValue(bound, CertFlag.CONSERVATIVE)


def delta_const(payoff, Y: ConvexSet, n_samples: int = 2000, seed: int = 0) -> CertValue:
    """min over y in Y of ||grad_x J(0, y)||.

    Catalog payoffs expose the affine structure of the gradient at the
    origin, so the minimum is bounded from below by ``min_residual``
    (analytic when its duality gap closed); black-box payoffs fall back to
    a sampled minimum flagged as not certification grade.
    """
    if payoff.grad0_affine is not None:
        return min_residual(*payoff.grad0_affine, Y)
    require_count("n_samples", n_samples, 1)
    rng = np.random.default_rng(seed)
    ys = Y.sample(rng, n_samples)
    x0 = np.zeros(payoff.dimension)
    best = min(float(np.linalg.norm(payoff.grads(x0, y)[0])) for y in ys)
    return CertValue(best, CertFlag.SAMPLED)


def _gamma(m, samples: int, seed: int) -> CertValue:
    """The declared Jacobian Lipschitz constant, else a sampled lower bound."""
    if m.analytic is not None:
        return CertValue(m.analytic.gamma, m.analytic.gamma_flag)
    return estimate_lipschitz(m.jac, m.domain_radius, pairs=samples, seed=seed + 1,
                              dim=m.dimension)


def vi_report(m, samples: int = 1000, seed: int = 0) -> ConstantsReport:
    """Constants report for a variational-inequality run on the map ``m``.

    theta and gamma come from declared analytic constants when present and
    from sampling otherwise (which downgrades the report to heuristic);
    sigma is solved exactly from the map data at the origin.
    """
    theta = estimate_theta(m, samples=samples, seed=seed)
    gamma = _gamma(m, samples, seed)
    rho = m.domain_radius
    M = CertValue(2.0 * (theta.value + rho * gamma.value),
                  combine_flags(theta.flag, gamma.flag))
    zero = np.zeros(m.dimension)
    sig = min_residual(m.val(zero), m.jac(zero), Ball(rho, m.dimension))
    return ConstantsReport(rho=rho, theta=theta, gamma=gamma, M=M, sigma=sig, radius_rule="vi")


def ba_report(m, Y: ConvexSet, samples: int = 1000, seed: int = 0) -> ConstantsReport:
    """Constants report for a best-approximation run of the map ``m`` with
    dual set ``Y`` (which must be bounded).

    L = 2 (eta + theta + gamma (rho + sup_Y ||y||)), delta = 2 sigma, and the
    admissible radius is sigma / L capped at rho.
    """
    theta = estimate_theta(m, samples=samples, seed=seed)
    gamma = _gamma(m, samples, seed)
    if m.analytic is not None and m.analytic.eta is not None:
        eta = CertValue(m.analytic.eta, m.analytic.eta_flag)
    else:
        eta = estimate_lipschitz(lambda x, m=m: x - m.val(x), m.domain_radius,
                                 pairs=samples, seed=seed + 2, dim=m.dimension)
    rho = m.domain_radius
    L = CertValue(2.0 * (eta.value + theta.value + gamma.value * (rho + Y.sup_norm())),
                  combine_flags(theta.flag, gamma.flag, eta.flag))
    zero = np.zeros(m.dimension)
    sig = min_residual(m.val(zero), m.jac(zero), Y)
    delta = CertValue(2.0 * sig.value, sig.flag)
    return ConstantsReport(rho=rho, theta=theta, gamma=gamma, eta=eta, delta=delta,
                           L=L, sigma=sig, radius_rule="ba")
