"""Problem catalog: smooth maps on a ball and the payoffs built from them.

A ``SmoothMap`` bundles value and Jacobian oracles on the ball of radius
``rho`` with (optional) analytic constants.  The catalog constructors cover
constant, affine and quadratic maps and compute their constants with honest
flags: exact where the formula is exact, conservative where only an upper
bound is proved.

Payoffs are scalar functions J(x, y) with an x-gradient oracle.  Two
families matter here:

* ``vi_payoff``:   J(x, y) = <F(x), x - y>,
* ``ba_payoff``:   J(x, y) = ||f(x) - x||^2 - ||f(x) - y||^2,

both concave (indeed affine or quadratic-concave) in y, with analytic
y-gradients and with the affine structure of grad_x(0, .) exposed so the
delta constant can be solved exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .constants import CertFlag, op_norm
from .errors import ConfigError, DimensionMismatch, InvalidInput
from .geometry import Ball, ConvexSet, as_point, axis_points, sample_ball

# value_batch may differ from the row-wise value by this share of the values
BATCH_REL_TOL = 1e-10
# a declared constant below its axis-point lower bound by more than this
# share of the bound is refuted; the share absorbs last-bit rounding
REFUTE_REL_TOL = 1e-9


@dataclass(frozen=True)
class AnalyticConstants:
    """Declared constants of a map, each with its certification flag."""

    theta: float
    gamma: float
    eta: float | None = None
    theta_flag: CertFlag = CertFlag.ANALYTIC
    gamma_flag: CertFlag = CertFlag.ANALYTIC
    eta_flag: CertFlag = CertFlag.ANALYTIC

    def __post_init__(self):
        for name in ("theta", "gamma", "eta"):
            v = getattr(self, name)
            if v is not None and (not np.isfinite(v) or v < 0):
                raise InvalidInput(f"{name} must be finite and >= 0, got {v}")


@dataclass
class SmoothMap:
    """A C^1 map R^n -> R^n queried on the ball of radius ``rho``.

    ``value`` and ``jacobian`` are single-point oracles; ``value_batch``
    (rows-in, rows-out) is optional and only used to speed up sampled checks.
    ``restricted`` rebuilds the map on a smaller ball so conservative
    constants tighten with the radius.
    """

    dimension: int
    domain_radius: float
    value: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    analytic: AnalyticConstants | None = None
    value_batch: Callable[[np.ndarray], np.ndarray] | None = None
    restricted: Callable[[float], "SmoothMap"] | None = None

    def __post_init__(self):
        if self.dimension < 1:
            raise InvalidInput("dimension must be >= 1")
        if not (np.isfinite(self.domain_radius) and self.domain_radius > 0):
            raise InvalidInput("domain radius must be positive")

    def val(self, x) -> np.ndarray:
        out = np.asarray(self.value(np.asarray(x, dtype=float)), dtype=float)
        if out.shape != (self.dimension,):
            raise DimensionMismatch(
                f"map value has shape {out.shape}, expected ({self.dimension},)")
        return out

    def jac(self, x) -> np.ndarray:
        out = np.asarray(self.jacobian(np.asarray(x, dtype=float)), dtype=float)
        if out.shape != (self.dimension, self.dimension):
            raise DimensionMismatch(
                f"jacobian has shape {out.shape}, expected square of size {self.dimension}")
        return out

    def vals(self, X: np.ndarray) -> np.ndarray:
        """Value at each row of X, vectorized when the map supports it."""
        X = np.asarray(X, dtype=float)
        if self.value_batch is None:
            return np.stack([self.val(x) for x in X])
        out = np.asarray(self.value_batch(X), dtype=float)
        if out.shape != (X.shape[0], self.dimension):
            raise DimensionMismatch(
                f"batch value has shape {out.shape}, expected ({X.shape[0]}, {self.dimension})")
        return out

    def restrict(self, new_rho: float) -> "SmoothMap":
        """The same map viewed on a smaller ball, constants recomputed."""
        if not (0 < new_rho <= self.domain_radius):
            raise InvalidInput(
                f"restriction radius must lie in (0, {self.domain_radius}], got {new_rho}")
        if self.restricted is not None:
            return self.restricted(new_rho)
        return SmoothMap(self.dimension, new_rho, self.value, self.jacobian,
                         analytic=self.analytic, value_batch=self.value_batch)


def make_constant(c, rho: float) -> SmoothMap:
    """The map x -> c.  theta = gamma = 0 and eta = 1, all exact."""
    c = as_point(c)
    n = c.size
    zero_jac = np.zeros((n, n))
    m = SmoothMap(
        n, float(rho),
        value=lambda x, c=c: c.copy(),
        jacobian=lambda x, zj=zero_jac: zj.copy(),
        analytic=AnalyticConstants(theta=0.0, gamma=0.0, eta=1.0),
        value_batch=lambda X, c=c: np.broadcast_to(c, (np.asarray(X).shape[0], c.size)).copy(),
    )
    m.restricted = lambda r, c=c: make_constant(c, r)
    return m


def make_affine(A, b, rho: float) -> SmoothMap:
    """The map x -> A x + b.

    theta = ||A||, gamma = 0, eta = ||I - A||, all exact (spectral norms).
    """
    b = as_point(b)
    A = np.asarray(A, dtype=float)
    n = b.size
    if A.shape != (n, n):
        raise DimensionMismatch(f"A has shape {A.shape}, b has size {n}")
    if not np.all(np.isfinite(A)):
        raise InvalidInput("A has non-finite entries")
    theta, eta = (float(v) for v in op_norm(np.stack([A, np.eye(n) - A])))
    m = SmoothMap(
        n, float(rho),
        # single points use ndarray.dot: the BLAS call of @, dispatched in
        # half the time on a small vector
        value=lambda x, A=A, b=b: A.dot(x) + b,
        jacobian=lambda x, A=A: A.copy(),
        analytic=AnalyticConstants(theta=theta, gamma=0.0, eta=eta),
        value_batch=lambda X, A=A, b=b: np.asarray(X) @ A.T + b,
    )
    m.restricted = lambda r, A=A, b=b: make_affine(A, b, r)
    return m


def make_quadratic(A, b, Q, rho: float) -> SmoothMap:
    """Component i of the map is (A x + b)_i + x^T Q_i x with symmetric Q_i.

    Row i of the Jacobian is A_i + 2 (Q_i x)^T.  With
    s = sqrt(sum_i ||Q_i||^2) the constants used are the proved bounds
    gamma = 2 s, theta = ||A|| + 2 rho s and eta = ||I - A|| + 2 rho s;
    gamma is tight, theta and eta are conservative.  All-zero Q collapses to
    the affine constructor.  Q is symmetrized once, (Q_i + Q_i^T)/2, which
    leaves a symmetric Q_i bit for bit, so ||Q_i|| is the largest |eigenvalue|.
    """
    b = as_point(b)
    A = np.asarray(A, dtype=float)
    n = b.size
    if A.shape != (n, n):
        raise DimensionMismatch(f"A has shape {A.shape}, b has size {n}")
    Q = np.asarray(Q, dtype=float)
    if Q.shape != (n, n, n):
        raise DimensionMismatch(
            f"Q must stack {n} square matrices of size {n}, got shape {Q.shape}")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(Q))):
        raise InvalidInput("coefficients have non-finite entries")
    asym = float(np.max(np.abs(Q - Q.transpose(0, 2, 1))))
    if asym > 1e-12:
        raise InvalidInput(f"each Q_i must be symmetric (max asymmetry {asym:.2e})")
    Q = 0.5 * (Q + Q.transpose(0, 2, 1))
    if not Q.any():
        return make_affine(A, b, rho)
    norms = op_norm(np.stack([A, np.eye(n) - A]))
    s = float(np.sqrt(np.sum(np.max(np.abs(np.linalg.eigvalsh(Q)), axis=1) ** 2)))
    theta = float(norms[0]) + 2.0 * float(rho) * s
    eta = float(norms[1]) + 2.0 * float(rho) * s
    m = SmoothMap(
        n, float(rho),
        value=lambda x, A=A, b=b, Q=Q: A.dot(x) + b + (Q @ x).dot(x),
        jacobian=lambda x, A=A, Q=Q: A + 2.0 * (Q @ x),
        analytic=AnalyticConstants(
            theta=theta, gamma=2.0 * s, eta=eta,
            theta_flag=CertFlag.CONSERVATIVE,
            gamma_flag=CertFlag.CONSERVATIVE,
            eta_flag=CertFlag.CONSERVATIVE),
        value_batch=lambda X, A=A, b=b, Q=Q: X @ A.T + b + _quadratic_forms(X, Q),
    )
    m.restricted = lambda r, A=A, b=b, Q=Q: make_quadratic(A, b, Q, r)
    return m


def _quadratic_forms(X: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Entry (m, k) is x_m^T Q_k x_m: one (rows, n) x (n, n) BLAS product per
    component, so the extra memory stays O(rows n), never O(rows n^2)."""
    out = np.empty((X.shape[0], Q.shape[0]))
    for k, q in enumerate(Q):
        out[:, k] = np.einsum("mi,mi->m", X @ q, X)
    return out


def shift_map(m: SmoothMap, w) -> SmoothMap:
    """The map x -> m(x) - w.  Jacobian and all Lipschitz data unchanged."""
    w = as_point(w, dim=m.dimension)
    out = SmoothMap(
        m.dimension, m.domain_radius,
        value=lambda x, m=m, w=w: m.val(x) - w,
        jacobian=m.jacobian,
        analytic=m.analytic,
        value_batch=(None if m.value_batch is None
                     else (lambda X, m=m, w=w: m.vals(X) - w)),
    )
    out.restricted = lambda r, m=m, w=w: shift_map(m.restrict(r), w)
    return out


@dataclass
class Payoff:
    """Scalar payoff J(x, y) on ball(rho) x Y with gradient oracles.

    ``grad_y`` is analytic for catalog payoffs.  ``grads`` is an optional
    fused oracle returning (grad_x, grad_y) from one evaluation of the map;
    the solver uses it when present.  ``grad0_affine = (b, A)`` encodes
    ||grad_x(0, y)|| = ||b - A^T y|| for the exact delta computation.
    """

    dimension: int
    x_radius: float
    y_set: ConvexSet
    value: Callable[[np.ndarray, np.ndarray], float]
    grad_x: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad_y: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    grad0_affine: tuple[np.ndarray, np.ndarray] | None = None
    value_xbatch: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    value_ybatch: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    grads: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None

    def values_x(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """J(x, y) for each row x of X."""
        if self.value_xbatch is not None:
            return np.asarray(self.value_xbatch(X, y), dtype=float)
        return np.array([self.value(x, y) for x in X], dtype=float)

    def values_y(self, x: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """J(x, y) for each row y of Y."""
        if self.value_ybatch is not None:
            return np.asarray(self.value_ybatch(x, Y), dtype=float)
        return np.array([self.value(x, y) for y in Y], dtype=float)


def vi_payoff(m: SmoothMap) -> Payoff:
    """J(x, y) = <m(x), x - y> on ball(rho) x ball(rho).

    grad_x = jac(x)^T (x - y) + m(x), grad_y = -m(x).
    """

    def value(x, y, m=m):
        return float(np.dot(m.val(x), x - y))

    def grad_x(x, y, m=m):
        return m.jac(x).T @ (x - y) + m.val(x)

    def grad_y(x, y, m=m):
        return -m.val(x)

    def grads(x, y, f=m.value, jac=m.jacobian):
        v = np.asarray(f(x), dtype=float)
        return np.asarray(jac(x), dtype=float).T.dot(x - y) + v, -v

    def value_xbatch(X, y, m=m):
        V = m.vals(X)
        return np.einsum("mi,mi->m", V, np.asarray(X) - y)

    def value_ybatch(x, Y, m=m):
        v = m.val(x)
        return (x - np.asarray(Y)) @ v

    return Payoff(
        m.dimension, m.domain_radius, Ball(m.domain_radius, m.dimension), value, grad_x, grad_y,
        grad0_affine=(m.val(np.zeros(m.dimension)), m.jac(np.zeros(m.dimension))),
        value_xbatch=value_xbatch, value_ybatch=value_ybatch, grads=grads,
    )


def ba_payoff(m: SmoothMap, y_set: ConvexSet) -> Payoff:
    """J(x, y) = ||m(x) - x||^2 - ||m(x) - y||^2 on ball(rho) x Y.

    grad_x = 2 (x - m(x) - jac(x)^T (x - y)), grad_y = 2 (m(x) - y).
    """

    def value(x, y, m=m):
        fx = m.val(x)
        return float(np.dot(fx - x, fx - x) - np.dot(fx - y, fx - y))

    def grad_x(x, y, m=m):
        return 2.0 * (x - m.val(x) - m.jac(x).T @ (x - y))

    def grad_y(x, y, m=m):
        return 2.0 * (m.val(x) - y)

    def grads(x, y, f=m.value, jac=m.jacobian):
        fx = np.asarray(f(x), dtype=float)
        return 2.0 * (x - fx - np.asarray(jac(x), dtype=float).T.dot(x - y)), 2.0 * (fx - y)

    def value_xbatch(X, y, m=m):
        X = np.asarray(X)
        F = m.vals(X)
        return (np.einsum("mi,mi->m", F - X, F - X)
                - np.einsum("mi,mi->m", F - y, F - y))

    def value_ybatch(x, Y, m=m):
        fx = m.val(x)
        d = fx - np.asarray(Y)
        return float(np.dot(fx - x, fx - x)) - np.einsum("mi,mi->m", d, d)

    zero = np.zeros(m.dimension)
    return Payoff(
        m.dimension, m.domain_radius, y_set, value, grad_x, grad_y,
        grad0_affine=(2.0 * m.val(zero), 2.0 * m.jac(zero)),
        value_xbatch=value_xbatch, value_ybatch=value_ybatch, grads=grads,
    )


def _fd_error(f, x, h: float, exact) -> float:
    """Relative error of ``exact`` against central differences of ``f`` at
    ``x`` with step ``h``: the gradient of a scalar f, the Jacobian of a
    vector f."""
    fd = np.stack([(np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2.0 * h)
                   for e in h * np.eye(x.size)], axis=-1)
    return float(np.linalg.norm(fd - exact) / max(1.0, float(np.linalg.norm(exact))))


def validate_map(m: SmoothMap, n_points: int = 100, seed: int = 0,
                 rel_tol: float = 1e-5) -> float:
    """Check the Jacobian against central finite differences of the value,
    and the batch value against the row-wise one.

    Returns the worst relative Jacobian error over random interior points;
    raises InvalidInput when it exceeds ``rel_tol``, when the batch value
    differs by more than BATCH_REL_TOL relative, or when an oracle output is
    not finite.
    """
    rng = np.random.default_rng(seed)
    h = 1e-5 * m.domain_radius
    pts = sample_ball(rng, n_points, m.dimension, max(m.domain_radius - 2 * h, 1e-12))
    worst, rows = 0.0, []
    for x in pts:
        J = m.jac(x)
        v = m.val(x)
        if not (np.all(np.isfinite(J)) and np.all(np.isfinite(v))):
            raise InvalidInput("map oracle returned non-finite values")
        worst = max(worst, _fd_error(m.val, x, h, J))
        rows.append(v)
    if worst > rel_tol:
        raise InvalidInput(
            f"jacobian disagrees with finite differences (relative error {worst:.2e})")
    _require_agreement(m.vals(pts), np.stack(rows), "batch value", "the row-wise value")
    return worst


def _require_agreement(got: np.ndarray, want: np.ndarray, what: str, reference: str):
    """A fast oracle path must agree with its reference within BATCH_REL_TOL
    of the reference's norm."""
    err = float(np.linalg.norm(got - want) / max(1.0, float(np.linalg.norm(want))))
    if not err <= BATCH_REL_TOL:
        raise InvalidInput(f"{what} disagrees with {reference} (relative error {err:.2e})")


def validate_payoff(p: Payoff, n_points: int = 100, seed: int = 0,
                    rel_tol: float = 1e-5) -> float:
    """Check grad_x (and grad_y when present) against central differences,
    the fused ``grads`` (when present) against them within BATCH_REL_TOL,
    and concavity of J(x, .) at sampled midpoints.  Returns the worst
    relative gradient error."""
    rng = np.random.default_rng(seed)
    h = 1e-6 * max(p.x_radius, 1.0)
    xs = sample_ball(rng, n_points, p.dimension, p.x_radius * 0.98)
    ys = p.y_set.sample(rng, n_points)
    worst, fused, separate = 0.0, [], []
    for x, y in zip(xs, ys):
        gx = np.asarray(p.grad_x(x, y), dtype=float)
        worst = max(worst, _fd_error(lambda v: p.value(v, y), x, h, gx))
        gy = None if p.grad_y is None else np.asarray(p.grad_y(x, y), dtype=float)
        if p.grads is not None:
            fx, fy = (np.asarray(g, dtype=float) for g in p.grads(x, y))
            if fx.shape != gx.shape or fy.shape != y.shape:
                raise InvalidInput(f"fused gradients have shapes {fx.shape} and {fy.shape}, "
                                   f"expected {gx.shape} and {y.shape}")
            gy = fy if gy is None else gy  # a fused grad_y alone meets the finite differences
            fused.append(np.concatenate([fx, fy]))
            separate.append(np.concatenate([gx, gy]))
        if gy is not None:
            worst = max(worst, _fd_error(lambda v: p.value(x, v), y, h, gy))
    if fused:
        _require_agreement(np.stack(fused), np.stack(separate), "fused gradients",
                           "grad_x and grad_y")
    # midpoint concavity in y on fresh triples
    for _ in range(n_points):
        x = sample_ball(rng, 1, p.dimension, p.x_radius)[0]
        ya, yb = p.y_set.sample(rng, 2)
        mid = p.value(x, 0.5 * (ya + yb))
        if mid < 0.5 * (p.value(x, ya) + p.value(x, yb)) - 1e-9:
            raise InvalidInput("payoff is not concave in y at a sampled midpoint")
    if worst > rel_tol:
        raise InvalidInput(
            f"payoff gradients disagree with finite differences (relative error {worst:.2e})")
    return worst


def require_fields(doc: dict, path: str, required: tuple, optional: tuple = ()):
    """Reject unknown and missing fields of a config object at ``path``."""
    for key in doc:
        if key not in required and key not in optional:
            raise ConfigError(f"unknown field {key!r}", path=path)
    for key in required:
        if key not in doc:
            raise ConfigError(f"missing required field {key!r}", path=path)


# map kind -> (coefficient fields, constructor taking them and rho)
_BUILDERS = {"constant": (("c",), make_constant), "affine": (("A", "b"), make_affine),
             "quadratic": (("A", "b", "Q"), make_quadratic)}


def map_from_dict(doc: dict, path: str = "problem") -> SmoothMap:
    """Build a catalog map from its JSON document.

    Two equivalent layouts are accepted: nested
    ``{"dimension": n, "rho": r, "map": {"kind": ..., ...},
    "analytic_constants": {...}?}`` and flat
    ``{"kind": ..., "rho": r, ...coefficients...}``.  Unknown fields are
    rejected with the offending path.
    """
    if not isinstance(doc, dict):
        raise ConfigError("problem must be an object", path=path)
    coefficients = ("kind", "c", "A", "b", "Q", "shift")
    if "map" in doc:
        require_fields(doc, path, required=("map", "rho"),
                        optional=("dimension", "analytic_constants"))
        inner, inner_path = doc["map"], path + ".map"
    else:
        require_fields(doc, path, required=("kind", "rho"),
                        optional=coefficients[1:] + ("analytic_constants", "dimension"))
        inner, inner_path = {k: v for k, v in doc.items() if k in coefficients}, path
    rho, declared, want_dim = doc["rho"], doc.get("analytic_constants"), doc.get("dimension")
    if not isinstance(inner, dict) or "kind" not in inner:
        raise ConfigError("map needs a 'kind'", path=inner_path)
    try:
        rho = float(rho)
    except (TypeError, ValueError):
        raise ConfigError("rho must be a number", path=path + ".rho")
    if not (np.isfinite(rho) and rho > 0):
        raise ConfigError("rho must be positive", path=path + ".rho")
    kind = inner["kind"]
    if kind not in _BUILDERS:
        raise ConfigError(f"unknown map kind {kind!r}", path=inner_path + ".kind")
    fields, build = _BUILDERS[kind]
    require_fields(inner, inner_path, required=("kind",) + fields, optional=("shift",))
    try:
        m = build(*(np.asarray(inner[key], dtype=float) for key in fields), rho)
    except (InvalidInput, DimensionMismatch) as exc:
        raise ConfigError(str(exc), path=inner_path)
    if "shift" in inner:
        try:
            m = shift_map(m, np.asarray(inner["shift"], dtype=float))
        except (InvalidInput, DimensionMismatch) as exc:
            raise ConfigError(str(exc), path=inner_path + ".shift")
    if want_dim is not None and int(want_dim) != m.dimension:
        raise ConfigError(
            f"declared dimension {want_dim} does not match coefficients ({m.dimension})",
            path=path + ".dimension")
    if declared is not None:  # declared values are tagged analytic, the rest keep their flags
        declared_path = path + ".analytic_constants"
        require_fields(declared, declared_path, required=(), optional=("theta", "gamma", "eta"))
        values = {}
        for name, v in declared.items():
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0 <= v < np.inf:
                raise ConfigError(f"{name} must be a finite number >= 0",
                                  path=f"{declared_path}.{name}")
            values.update({name: float(v), name + "_flag": CertFlag.ANALYTIC})
        for name, (bound, witness) in axis_lower_bounds(m, declared).items():
            if bound - declared[name] > REFUTE_REL_TOL * bound:
                raise ConfigError(
                    f"declared {name} = {declared[name]} is refuted: the Jacobian at "
                    f"x = {witness} gives {name} >= {bound:.12g} "
                    f"(deficit {bound - declared[name]:.6g})",
                    path=f"{declared_path}.{name}")
        declare(m, values)
    return m


def axis_lower_bounds(m: SmoothMap, names) -> dict:
    """{name: (lower bound, witness point)} for each of ``names`` among
    theta, gamma and eta, from the Jacobians at the origin and at the 2n
    axis points +-rho e_i: theta >= ||J(x)||, eta >= ||I - J(x)|| and
    gamma >= ||J(x) - J(0)|| / rho."""
    n, rho = m.dimension, m.domain_radius
    jac0 = m.jac(np.zeros(n))
    labels = ["0"] + [f"{'+-'[k % 2]}{rho:g} e_{k // 2 + 1}" for k in range(2 * n)]
    best = {}
    for label, x in zip(labels, np.vstack([np.zeros((1, n)), axis_points(n, rho)])):
        J = jac0 if label == "0" else m.jac(x)
        bounded = {"theta": J, "eta": np.eye(n) - J, "gamma": (J - jac0) / rho}
        for name in names:
            v = op_norm(bounded[name])
            if name not in best or v > best[name][0]:
                best[name] = (v, label)
    return best


def declare(m: SmoothMap, values: dict) -> SmoothMap:
    """Put the declared constants ``values`` (with their flags) on ``m`` and
    on every restriction of it: a bound declared on ball(rho) still holds
    on each smaller ball, where the catalog rebuilds the map."""
    m.analytic = replace(m.analytic, **values)
    rebuild = m.restricted
    m.restricted = lambda r: declare(rebuild(r), values)
    return m
