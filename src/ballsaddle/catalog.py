"""Problem catalog: smooth maps on a ball and the payoffs built from them.

A ``SmoothMap`` bundles value and Jacobian oracles on the ball of radius
``rho`` with (optional) analytic constants.  A catalog map, constant,
affine or quadratic, is a ``CoefficientMap``: its coefficients, from which
it derives its oracles and its constants with honest flags, exact where
the formula is exact, conservative where only an upper bound is proved.

Payoffs are scalar functions J(x, y) with one gradient oracle, ``grads``,
that returns both partial gradients.  Two families matter here:

* ``vi_payoff``:   J(x, y) = <F(x), x - y>,
* ``ba_payoff``:   J(x, y) = ||f(x) - x||^2 - ||f(x) - y||^2,

both concave (indeed affine or quadratic-concave) in y, with analytic
gradients and with the affine structure of grad_x J(0, .) exposed so the
delta constant can be solved exactly.  Both are a ``MapPayoff``, which,
like a ``CoefficientMap``, derives these from its map when it is built.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .constants import CertFlag, op_norm
from .errors import ConfigError, DimensionMismatch, InvalidInput
from .geometry import Ball, ConvexSet, as_point, axis_points, sample_ball

# value_batch may differ from the row-wise value by this share of the values
BATCH_REL_TOL = 1e-10
# validate_*: oracle derivatives may differ from central differences by this share
FD_REL_TOL = 1e-5
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


@dataclass(frozen=True)
class SmoothMap:
    """A C^1 map R^n -> R^n on the ball of radius ``domain_radius``, built
    complete and never changed: single-point ``value`` and ``jacobian``
    oracles and optional declared constants ``analytic``, which ``restrict``
    keeps.  Only a ``CoefficientMap`` sets ``value_batch`` (rows in, rows
    out) for the sampled checks; a bare map evaluates row by row."""

    dimension: int
    domain_radius: float
    value: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    analytic: AnalyticConstants | None = None
    value_batch: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, init=False, repr=False)

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
        """The same map on a smaller ball; a catalog map derives its
        constants there."""
        if not (0 < new_rho <= self.domain_radius):
            raise InvalidInput(
                f"restriction radius must lie in (0, {self.domain_radius}], got {new_rho}")
        return replace(self, domain_radius=float(new_rho))


@dataclass(frozen=True, eq=False)
class CoefficientMap(SmoothMap):
    """The catalog map x -> A x + b + (x^T Q_i x)_i - w_1 - ... - w_k (no A
    when constant, no Q when affine; the ``shifts`` w_j subtracted last, in
    order).  Its oracles, batch value and constants at ``domain_radius``
    (``make_quadratic`` gives the bounds), under the ``declared`` (name,
    value) pairs, derive from these fields when it is built, so ``restrict``
    or ``dataclasses.replace`` of a field rebuilds them, and a replaced
    oracle is refused.  The oracles hold the arrays, not the map."""

    dimension: int = field(init=False)
    value: Callable[[np.ndarray], np.ndarray] = field(init=False, repr=False)
    jacobian: Callable[[np.ndarray], np.ndarray] = field(init=False, repr=False)
    analytic: AnalyticConstants = field(init=False)
    value_batch: Callable[[np.ndarray], np.ndarray] = field(init=False, repr=False)
    b: np.ndarray
    A: np.ndarray | None = None
    Q: np.ndarray | None = None
    shifts: tuple = ()
    declared: tuple = ()

    def __post_init__(self):
        A, b, Q, n, rho = self.A, self.b, self.Q, self.b.size, self.domain_radius
        object.__setattr__(self, "dimension", n)
        super().__post_init__()
        if A is None:
            value, jacobian = (lambda x, c=b: c.copy()), (lambda x, zj=np.zeros((n, n)): zj.copy())
            batch = lambda X, c=b: np.broadcast_to(c, (np.asarray(X).shape[0], c.size)).copy()
            analytic = AnalyticConstants(theta=0.0, gamma=0.0, eta=1.0)
        elif Q is None:
            # single points use ndarray.dot: the BLAS call of @, dispatched in
            # half the time on a small vector
            value, jacobian = (lambda x, A=A, b=b: A.dot(x) + b), (lambda x, A=A: A.copy())
            batch = lambda X, A=A, b=b: np.asarray(X) @ A.T + b
            theta, eta = (float(v) for v in op_norm(np.stack([A, np.eye(n) - A])))
            analytic = AnalyticConstants(theta=theta, gamma=0.0, eta=eta)
        else:
            value = lambda x, A=A, b=b, Q=Q: A.dot(x) + b + (Q @ x).dot(x)
            jacobian = lambda x, A=A, Q=Q: A + 2.0 * (Q @ x)
            batch = lambda X, A=A, b=b, Q=Q: X @ A.T + b + _quadratic_forms(X, Q)
            norms, R = op_norm(np.stack([A, np.eye(n) - A])), Q.reshape(n * n, n)
            s = math.sqrt(max(0.0, float(np.linalg.eigvalsh(R.T @ R)[-1])))
            analytic = AnalyticConstants(
                float(norms[0]) + 2.0 * rho * s, 2.0 * s, float(norms[1]) + 2.0 * rho * s,
                *(CertFlag.CONSERVATIVE,) * 3)
        for w in self.shifts:
            value = lambda x, f=value, w=w: f(x) - w
            batch = lambda X, f=batch, w=w: f(X) - w
        for name, v in (("value", value), ("jacobian", jacobian), ("value_batch", batch),
                        ("analytic", replace(analytic, **dict(self.declared)))):
            object.__setattr__(self, name, v)


def _linear_part(A, b) -> tuple[np.ndarray, np.ndarray]:
    """(A, b) as float arrays: b a point, A a finite square matrix of its size."""
    b, A = as_point(b), np.asarray(A, dtype=float)
    if A.shape != (b.size, b.size):
        raise DimensionMismatch(f"A has shape {A.shape}, b has size {b.size}")
    if not np.all(np.isfinite(A)):
        raise InvalidInput("A has non-finite entries")
    return A, b


def make_constant(c, rho: float) -> CoefficientMap:
    """The map x -> c.  theta = gamma = 0 and eta = 1, all exact."""
    return CoefficientMap(float(rho), as_point(c))


def make_affine(A, b, rho: float) -> CoefficientMap:
    """The map x -> A x + b.

    theta = ||A||, gamma = 0, eta = ||I - A||, all exact (spectral norms).
    """
    A, b = _linear_part(A, b)
    return CoefficientMap(float(rho), b, A)


def make_quadratic(A, b, Q, rho: float) -> CoefficientMap:
    """Component i of the map is (A x + b)_i + x^T Q_i x with symmetric Q_i.

    Row i of the Jacobian is A_i + 2 (Q_i x)^T, so row i of J(x) - J(x') is
    2 (Q_i d)^T with d = x - x', and ||J(x) - J(x')|| <= 2 (d^T sum_i Q_i^2 d)^(1/2).
    With s = ||sum_i Q_i^2||^(1/2) the constants used are the proved bounds
    gamma = 2 s, theta = ||A|| + 2 rho s and eta = ||I - A|| + 2 rho s, all
    conservative.  s is never above sqrt(sum_i ||Q_i||^2), and equals it when
    every Q_i is a multiple of one matrix.  All-zero Q gives the affine map.
    Q is symmetrized once, (Q_i + Q_i^T)/2, which leaves a symmetric Q_i bit
    for bit, so sum_i Q_i^2 = R^T R for the (n^2, n) stack R of the Q_i, and
    s^2 is the largest eigenvalue of that n x n matrix.
    """
    A, b = _linear_part(A, b)
    n, Q = b.size, np.asarray(Q, dtype=float)
    if Q.shape != (n, n, n):
        raise DimensionMismatch(
            f"Q must stack {n} square matrices of size {n}, got shape {Q.shape}")
    if not np.all(np.isfinite(Q)):
        raise InvalidInput("Q has non-finite entries")
    asym = float(np.max(np.abs(Q - Q.transpose(0, 2, 1))))
    if asym > 1e-12:
        raise InvalidInput(f"each Q_i must be symmetric (max asymmetry {asym:.2e})")
    Q = 0.5 * (Q + Q.transpose(0, 2, 1))
    return CoefficientMap(float(rho), b, A, Q if Q.any() else None)


def _quadratic_forms(X: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Entry (m, k) is x_m^T Q_k x_m: one (rows, n) x (n, n) BLAS product per
    component, so the extra memory stays O(rows n), never O(rows n^2)."""
    out = np.empty((X.shape[0], Q.shape[0]))
    for k, q in enumerate(Q):
        out[:, k] = np.einsum("mi,mi->m", X @ q, X)
    return out


def shift_map(m: SmoothMap, w) -> SmoothMap:
    """The map x -> m(x) - w.  Jacobian and all Lipschitz data unchanged: a
    catalog map takes w as its last shift, a bare map a value oracle that
    subtracts it."""
    w = as_point(w, dim=m.dimension)
    if isinstance(m, CoefficientMap):
        return replace(m, shifts=m.shifts + (w,))
    return SmoothMap(m.dimension, m.domain_radius, value=lambda x, m=m, w=w: m.val(x) - w,
                     jacobian=m.jacobian, analytic=m.analytic)


@dataclass
class Payoff:
    """Scalar payoff J(x, y) on ball(rho) x Y with its gradient oracle.

    ``grads(x, y)`` returns the pair (grad_x J, grad_y J); the catalog
    payoffs compute it from one evaluation of the map.  A payoff with
    separate oracles ``gx`` and ``gy`` passes
    ``grads=lambda x, y: (gx(x, y), gy(x, y))``.  ``grad0_affine = (b, A)``
    encodes ||grad_x J(0, y)|| = ||b - A^T y|| for the exact delta
    computation.
    """

    dimension: int
    x_radius: float
    y_set: ConvexSet
    value: Callable[[np.ndarray, np.ndarray], float]
    grads: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    grad0_affine: tuple[np.ndarray, np.ndarray] | None = None
    value_xbatch: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    value_ybatch: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

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


@dataclass
class MapPayoff(Payoff):
    """The catalog payoff of the map ``smooth_map`` on ball(rho) x ``y_set``:
    ``kind`` "vi" (``vi_payoff``) or "ba" (``ba_payoff``).  Its dimension,
    radius, oracles, batch values and ``grad0_affine``, and for "vi" its
    ``y_set`` ball(rho), derive from the map when it is built, so
    ``dataclasses.replace`` of the map or the set rebuilds them, and a
    replaced oracle is refused.  Attribute assignment is not guarded: a
    payoff assigned a new map or oracle keeps the old derived fields.  The
    oracles hold the map, not the payoff."""

    dimension: int = field(init=False)
    x_radius: float = field(init=False)
    value: Callable[[np.ndarray, np.ndarray], float] = field(init=False, repr=False)
    grads: Callable = field(init=False, repr=False)
    grad0_affine: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)
    value_xbatch: Callable = field(init=False, repr=False)
    value_ybatch: Callable = field(init=False, repr=False)
    smooth_map: SmoothMap
    kind: str

    def __post_init__(self):
        m = self.smooth_map
        self.dimension, self.x_radius = m.dimension, m.domain_radius
        if self.kind == "vi":
            self.y_set = Ball(m.domain_radius, m.dimension)
        (self.value, self.grads, self.grad0_affine, self.value_xbatch,
         self.value_ybatch) = _PAYOFF_ORACLES[self.kind](m)


def _vi_oracles(m: SmoothMap):
    """The derived fields of ``vi_payoff(m)``, in ``MapPayoff`` order."""

    def value(x, y, m=m):
        return float(np.dot(m.val(x), x - y))

    def grads(x, y, f=m.value, jac=m.jacobian):
        v = np.asarray(f(x), dtype=float)
        return np.asarray(jac(x), dtype=float).T.dot(x - y) + v, -v

    def value_xbatch(X, y, m=m):
        V = m.vals(X)
        return np.einsum("mi,mi->m", V, np.asarray(X) - y)

    def value_ybatch(x, Y, m=m):
        v = m.val(x)
        return (x - np.asarray(Y)) @ v

    zero = np.zeros(m.dimension)
    return value, grads, (m.val(zero), m.jac(zero)), value_xbatch, value_ybatch


def _ba_oracles(m: SmoothMap):
    """The derived fields of ``ba_payoff(m, Y)``, in ``MapPayoff`` order."""

    def value(x, y, m=m):
        fx = m.val(x)
        return float(np.dot(fx - x, fx - x) - np.dot(fx - y, fx - y))

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
    return value, grads, (2.0 * m.val(zero), 2.0 * m.jac(zero)), value_xbatch, value_ybatch


_PAYOFF_ORACLES = {"vi": _vi_oracles, "ba": _ba_oracles}


def vi_payoff(m: SmoothMap) -> MapPayoff:
    """J(x, y) = <m(x), x - y> on ball(rho) x ball(rho).

    grad_x = jac(x)^T (x - y) + m(x), grad_y = -m(x).
    """
    return MapPayoff(None, m, "vi")


def ba_payoff(m: SmoothMap, y_set: ConvexSet) -> MapPayoff:
    """J(x, y) = ||m(x) - x||^2 - ||m(x) - y||^2 on ball(rho) x Y.

    grad_x = 2 (x - m(x) - jac(x)^T (x - y)), grad_y = 2 (m(x) - y).
    """
    return MapPayoff(y_set, m, "ba")


def _fd_error(f, x, h: float, exact) -> float:
    """Relative error of ``exact`` against central differences of ``f`` at
    ``x`` with step ``h``: the gradient of a scalar f, the Jacobian of a
    vector f."""
    fd = np.stack([(np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2.0 * h)
                   for e in h * np.eye(x.size)], axis=-1)
    return float(np.linalg.norm(fd - exact) / max(1.0, float(np.linalg.norm(exact))))


def validate_map(m: SmoothMap, n_points: int = 100, seed: int = 0) -> float:
    """Check the Jacobian against central finite differences of the value,
    and the batch value against the row-wise one.

    Returns the worst relative Jacobian error over random interior points;
    raises InvalidInput when it exceeds FD_REL_TOL, when the batch value
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
    if worst > FD_REL_TOL:
        raise InvalidInput(
            f"jacobian disagrees with finite differences (relative error {worst:.2e})")
    want = np.stack(rows)
    err = float(np.linalg.norm(m.vals(pts) - want) / max(1.0, float(np.linalg.norm(want))))
    if not err <= BATCH_REL_TOL:
        raise InvalidInput(
            f"batch value disagrees with the row-wise value (relative error {err:.2e})")
    return worst


def validate_payoff(p: Payoff, n_points: int = 100, seed: int = 0) -> float:
    """Check the shapes of both outputs of ``grads``, their values against
    central differences of J (within FD_REL_TOL), and concavity of J(x, .)
    at sampled midpoints.  Returns the worst relative gradient error."""
    rng = np.random.default_rng(seed)
    h = 1e-6 * max(p.x_radius, 1.0)
    xs = sample_ball(rng, n_points, p.dimension, p.x_radius * 0.98)
    ys = p.y_set.sample(rng, n_points)
    worst = 0.0
    for x, y in zip(xs, ys):
        gx, gy = (np.asarray(g, dtype=float) for g in p.grads(x, y))
        if gx.shape != x.shape or gy.shape != y.shape:
            raise InvalidInput(f"grads returned shapes {gx.shape} and {gy.shape}, "
                               f"expected {x.shape} and {y.shape}")
        worst = max(worst, _fd_error(lambda v: p.value(v, y), x, h, gx),
                    _fd_error(lambda v: p.value(x, v), y, h, gy))
    # midpoint concavity in y on fresh triples
    for _ in range(n_points):
        x = sample_ball(rng, 1, p.dimension, p.x_radius)[0]
        ya, yb = p.y_set.sample(rng, 2)
        mid = p.value(x, 0.5 * (ya + yb))
        if mid < 0.5 * (p.value(x, ya) + p.value(x, yb)) - 1e-9:
            raise InvalidInput("payoff is not concave in y at a sampled midpoint")
    if worst > FD_REL_TOL:
        raise InvalidInput(
            f"payoff gradients disagree with finite differences (relative error {worst:.2e})")
    return worst


def require_fields(doc: dict, path: str, required: tuple, optional: tuple = ()):
    """Reject a non-object, and unknown and missing fields of a config object
    at ``path`` ("" at the top level); a field's error carries its own path."""
    if not isinstance(doc, dict):
        raise ConfigError("must be an object", path=path)
    for key in doc:
        if key not in required and key not in optional:
            raise ConfigError(f"unknown field {key!r}", path=_field_path(path, key))
    for key in required:
        if key not in doc:
            raise ConfigError(f"missing required field {key!r}", path=_field_path(path, key))


def _field_path(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _is_number(v) -> bool:
    # a bool is none; NaN, the infinities and integers beyond the float range fail the bound
    return not isinstance(v, bool) and isinstance(v, (int, float)) and abs(v) <= sys.float_info.max


def read_number(doc: dict, key: str, path: str = "", least: int | None = None,
                nonnegative: bool = False):
    """``doc[key]``, a finite JSON number: a float > 0, a float >= 0 with
    ``nonnegative``, or with ``least`` an integer >= least.  Anything else
    (a bool or a numeric string too) is a ConfigError at the field's path."""
    v, where = doc[key], _field_path(path, key)
    if not _is_number(v):
        raise ConfigError(f"{key} must be a finite number", path=where)
    if least is not None:
        if v != int(v) or v < least:
            raise ConfigError(f"{key} must be an integer >= {least}", path=where)
        return int(v)
    if v < 0 or not (nonnegative or v > 0):
        raise ConfigError(f"{key} must be {'>= 0' if nonnegative else 'positive'}", path=where)
    return float(v)


def read_array(doc: dict, key: str, path: str = "") -> np.ndarray:
    """``doc[key]`` as a float array: a non-empty rectangular nested list of
    finite JSON numbers.  Anything else (a ragged row, a bool, a numeric
    string, an integer beyond the float range) is a ConfigError at the
    field's path."""
    # a ragged row leaves a list as a cell of the object array
    cells = np.array(doc[key], dtype=object) if isinstance(doc[key], list) else np.array(None)
    try:
        if cells.size and set(map(type, cells.flat)) <= {int, float}:
            out = cells.astype(float)  # OverflowError beyond the float range
            if np.isfinite(out).all():
                return out
    except OverflowError:
        pass
    raise ConfigError(f"{key} must be a non-empty array of finite numbers",
                      path=_field_path(path, key))


# map kind -> (coefficient fields, constructor taking them and rho)
_BUILDERS = {"constant": (("c",), make_constant), "affine": (("A", "b"), make_affine),
             "quadratic": (("A", "b", "Q"), make_quadratic)}


def map_from_dict(doc: dict, path: str = "problem") -> SmoothMap:
    """Build a catalog map from its JSON document
    ``{"kind": ..., "rho": r, ...coefficients..., "shift"?, "dimension"?,
    "analytic_constants"?}``.  Every field is read strictly (``read_number``,
    ``read_array``), and an error carries the offending path.
    """
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ConfigError("problem must be an object with a 'kind'", path=path)
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in _BUILDERS:
        raise ConfigError(f"unknown map kind {kind!r}", path=path + ".kind")
    fields, build = _BUILDERS[kind]
    require_fields(doc, path, required=("kind", "rho") + fields,
                   optional=("shift", "analytic_constants", "dimension"))
    rho = read_number(doc, "rho", path)
    try:
        m = build(*(read_array(doc, key, path) for key in fields), rho)
    except (InvalidInput, DimensionMismatch) as exc:
        raise ConfigError(str(exc), path=path)
    if "shift" in doc:
        try:
            m = shift_map(m, read_array(doc, "shift", path))
        except (InvalidInput, DimensionMismatch) as exc:
            raise ConfigError(str(exc), path=path + ".shift")
    if "dimension" in doc and read_number(doc, "dimension", path, least=1) != m.dimension:
        raise ConfigError(
            f"declared dimension {doc['dimension']} does not match coefficients ({m.dimension})",
            path=path + ".dimension")
    if "analytic_constants" in doc:  # declared values are tagged analytic, the rest keep theirs
        declared, declared_path = doc["analytic_constants"], path + ".analytic_constants"
        require_fields(declared, declared_path, required=(), optional=("theta", "gamma", "eta"))
        values = {name: read_number(declared, name, declared_path, nonnegative=True)
                  for name in declared}
        for name, (bound, witness) in axis_lower_bounds(m, values).items():
            if bound - values[name] > REFUTE_REL_TOL * bound:
                raise ConfigError(
                    f"declared {name} = {declared[name]} is refuted: the Jacobian at "
                    f"x = {witness} gives {name} >= {bound:.12g} "
                    f"(deficit {bound - values[name]:.6g})",
                    path=f"{declared_path}.{name}")
        m = declare(m, {**values, **{name + "_flag": CertFlag.ANALYTIC for name in values}})
    return m


def axis_lower_bounds(m: SmoothMap, names) -> dict:
    """{name: (lower bound, witness point)} for each of ``names`` among
    theta, gamma and eta, from the Jacobians at the origin and at the 2n
    axis points +-rho e_i: theta >= ||J(x)||, eta >= ||I - J(x)|| and
    gamma >= ||J(x) - J(0)|| / rho.  A catalog map without Q has one
    Jacobian everywhere: every point ties with the origin, whose label the
    strict > keeps, so only the origin is visited."""
    n, rho = m.dimension, m.domain_radius
    jac0 = m.jac(np.zeros(n))
    labels = ["0"] + [f"{'+-'[k % 2]}{rho:g} e_{k // 2 + 1}" for k in range(2 * n)]
    points = np.vstack([np.zeros((1, n)), axis_points(n, rho)])
    if isinstance(m, CoefficientMap) and m.Q is None:
        points = points[:1]
    best = {}
    for label, x in zip(labels, points):
        J = jac0 if label == "0" else m.jac(x)
        bounded = {"theta": J, "eta": np.eye(n) - J, "gamma": (J - jac0) / rho}
        for name in names:
            v = op_norm(bounded[name])
            if name not in best or v > best[name][0]:
                best[name] = (v, label)
    return best


def declare(m: CoefficientMap, values: dict) -> CoefficientMap:
    """``m`` with the declared constants ``values`` (and flags) over its own
    at every radius: a bound declared on ball(rho) holds on each smaller ball."""
    return replace(m, declared=m.declared + tuple(values.items()))
