"""Regularized saddle problems on ball(r) x T and their sampled checks.

The working objective is phi(x, y) = (L/2) ||x||^2 + J(x, y), minimized in x
over the closed ball of radius r and maximized in y over a closed convex
T.  The solver is the extragradient iteration with the fixed step
``SaddleConfig.step`` = 1/(2 * smoothness); each iteration takes one
probing half-step and one full step, both through the projections.  Where
statements 2, 4 and 6 prove that their collapsed pair is the fixed point of
a contraction (``contraction``), ``sphere_fixed_point`` iterates it instead.

``check_saddle`` certifies a candidate pair by sampling: the maximizing
property of y* within tolerance, the strictly-minimizing property of x*
with a margin outside a small exclusion ball, sphere membership of x* when
the radius is admissible, and the minimax gap of phi; statements 1 and 5
run it.  The collapsed pairs of 2, 4 and 6 prove their inequality instead
(``sphere_records``) and audit it on AUDIT_SAMPLES samples.

Each statement family has one path, which a solve and ``verify`` share
(``run_saddle`` for statement 1, ``vi.run_vi`` and ``ba.run_ba``):
``gated_problem``, the radius/mode ``gate`` and the saddle problem of the
report's radius rule; a solver step unless a stored solution is given; one
``Certificate`` constructor call.  Statements 2, 4 and 6 (and 5 on their
sets) take ``sphere_solve``, whose one ``contraction`` picks the solver and
feeds ``sphere_records``; 5 on other sets adds ``probe_uniqueness``.  A
solve runs the gate with a failure sink that raises, ``verify`` with one
that records instead.  Every statement's certificate is a ``Certificate``,
whose ``failed_checks`` walks the one order CHECK_ORDER.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from operator import attrgetter, itemgetter

import numpy as np

from .constants import (RADIUS_RULES, ConstantsReport, ba_report, delta_const, require_count,
                        vi_report)
from .errors import CertificationError, HypothesisViolation, InvalidInput, NonConvergence
from .geometry import (Ball, ConvexSet, as_point, axis_points, ball_projection, norm,
                       project_ball, sample_ball, sample_sphere)
from .oracles import uniqueness_probe

EVAL_DOMAIN_TOL = 1e-9
SPHERE_TOL = 1e-6
SOLUTION_TOL = 1e-6
MAX_STEP_HALVINGS = 60
UNIQUENESS_TOL = 1e-5
UNIQUENESS_STARTS = 16
AUDIT_SAMPLES = 256
CHECK_SAMPLES = 2000
CHECK_BLOCK = 512
# check thresholds, fixed: a passed certificate means the same checks whatever its config
CHECK_TOL = 1e-8  # slack of y-maximal
IDENTITY_TOL = 1e-6  # projection and distance identities
COLLAPSE_TOL = 1e-6  # |x* - y*| of a collapsed pair
DIRECTION_TOL = 1e-6  # |x* + r F(x*)/|F(x*)|| of statements 2 and 4
MAP_ZERO_TOL = 1e-9  # |F(x*)| above it is nonzero
STRICT_MARGIN = 1e-9  # margin of the strict inequalities
EXCLUSION_FACTOR = 1e-4  # radius of the exclusion ball about x*, a share of r
RADIUS_SLACK = 1e-12  # rounding allowance of r <= r_max


@dataclass
class SaddleConfig:
    """Problem geometry, regularization weight and the run settings ``tol``
    and ``max_iters``, which set how accurately a solve runs: the one place
    where they get their defaults and their validation; statement calls run
    at the defaults.  The thresholds of the checks are fixed constants
    (CHECK_TOL, STRICT_MARGIN, ...).

    ``smoothness`` bounds the Lipschitz constant of the saddle operator and
    fixes the extragradient step 1/(2 * smoothness); ``gated_problem`` sets
    L to the report's ``weight`` and the smoothness to 2 L + theta.
    ``r_max`` is the admissible radius when known; it gates the
    sphere-membership check (statement 6's certificate gates its own with
    its report's r_max).
    """

    r: float
    T: ConvexSet
    L: float
    smoothness: float
    tol: float = 1e-8
    max_iters: int = 10**6
    r_max: float | None = None

    def __post_init__(self):
        if not (np.isfinite(self.r) and self.r > 0):
            raise InvalidInput("r must be positive")
        if not (np.isfinite(self.L) and self.L >= 0):
            raise InvalidInput("L must be finite and >= 0")
        if not (np.isfinite(self.smoothness) and self.smoothness >= 0):
            raise InvalidInput("smoothness must be finite and >= 0")
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise InvalidInput(f"tol must be finite and positive, got {self.tol!r}")
        require_count("max_iters", self.max_iters, 1)

    @property
    def step(self) -> float:
        # a constant payoff gradient has zero smoothness; any fixed step converges
        return 1.0 if self.smoothness <= 1e-12 else 1.0 / (2.0 * self.smoothness)


@dataclass(frozen=True, eq=False)
class SaddlePoint:
    x_star: np.ndarray
    y_star: np.ndarray
    residual: float
    iterations: int
    step: float


@dataclass(frozen=True, slots=True, eq=False)
class CheckReport:
    """Outcome of one sampled check.

    ``margin`` is the worst observed slack (positive means the property held
    with room); ``witness`` is a violating sample when one exists.
    """

    name: str
    passed: bool
    n_samples: int
    margin: float
    witness: np.ndarray | None = None
    details: dict = field(default_factory=dict)

    def to_dict(self):
        return {"name": self.name, "passed": bool(self.passed),
                "n_samples": int(self.n_samples), "margin": float(self.margin),
                "witness": None if self.witness is None else [float(v) for v in self.witness],
                "details": {k: (float(v) if isinstance(v, (int, float, np.floating)) else v)
                            for k, v in self.details.items()}}


@dataclass(frozen=True, eq=False)
class SaddleChecks:
    reports: list[CheckReport]
    minimax_gap: float

    @property
    def passed(self) -> bool:
        return all(rep.passed for rep in self.reports)

    def report(self, name: str) -> CheckReport:
        for rep in self.reports:
            if rep.name == name:
                return rep
        raise KeyError(name)

    def to_dict(self):
        return {"passed": self.passed, "minimax_gap": float(self.minimax_gap),
                "reports": [rep.to_dict() for rep in self.reports]}


# the one order of ``Certificate.failed_checks``: (name, field, test of the
# field); "proof" is named after its audit
CHECK_ORDER = (
    ("projection", "projection_gap", lambda gap: gap <= IDENTITY_TOL),
    ("collapse", "collapse_gap", lambda gap: gap <= COLLAPSE_TOL),
    ("sphere-membership", "sphere_gap", lambda gap: gap <= SPHERE_TOL),
    ("map-nonzero", "map_norm", lambda value: value > MAP_ZERO_TOL),
    ("y-maximal", "y_maximal_slack", lambda slack: slack >= 0.0),
    ("saddle-checks", "saddle_checks", attrgetter("passed")),
    ("uniqueness", "uniqueness", itemgetter("passed")),
    ("proof", "proof", itemgetter("passed")),
    ("vi-inequality", "vi_check", attrgetter("passed")),
    ("nearest-point", "nearest_check", attrgetter("passed")),
    ("direction", "direction_gap", lambda gap: gap <= DIRECTION_TOL),
    ("distance-identity", "distance_gap", lambda gap: gap <= IDENTITY_TOL))


@dataclass(frozen=True, slots=True, eq=False)
class Certificate:
    """The certificate of every solving statement, 1, 2, 4, 5 and 6: its
    solution and constants, and the evidence its statement computes; the
    other fields are None.  Statements 1 and 5 carry ``saddle_checks``, 1
    ``step`` and ``y_star_unique`` (whether J depends on y near x*) for a
    uniqueness record.  The collapsed pairs of 2, 4 and 6 carry the proof
    of ``sphere_records``, its audit ``vi_check`` (2, 4) or
    ``nearest_check`` (6) and ``y_maximal_slack``, CHECK_TOL less
    sup_y J(x*, y) - J(x*, y*) in closed form, which the body leaves out,
    as it does ``sphere_gap`` (6, when ``claims_sphere``).  The shift
    record of statement 4 is its ``gate`` (2 writes an empty one).

    ``theorem`` is the wire label of the statement (see the README).
    ``mode`` is "certified" only when every constant used is certification
    grade and r respects the admissible radius.  ``failed_checks`` is the
    only verdict: ``passed`` holds when it is empty.  Certificates are
    frozen: each is built in one call, and ``dataclasses.replace`` copies.
    They compare and hash by identity; their ``to_dict`` bodies by value.
    """

    theorem: str
    mode: str
    r: float
    x_star: np.ndarray
    y_star: np.ndarray
    residual: float
    iterations: int
    constants: ConstantsReport
    uniqueness: dict | None = None
    proof: dict | None = None
    y_maximal_slack: float | None = None
    saddle_checks: SaddleChecks | None = None
    projection_gap: float | None = None
    collapse_gap: float | None = None
    sphere_gap: float | None = None
    map_norm: float | None = None
    direction_gap: float | None = None
    distance_gap: float | None = None
    vi_check: CheckReport | None = None
    nearest_check: CheckReport | None = None
    gate: dict | None = None
    step: float | None = None
    y_star_unique: bool | None = None

    def failed_checks(self) -> list[str]:
        """The failed checks in CHECK_ORDER, skipping each field that is None."""
        proof = ("vi-inequality-proof" if self.vi_check is not None
                 else "nearest-point-proof" if self.nearest_check is not None else "proof")
        return [proof if name == "proof" else name for name, attr, held in CHECK_ORDER
                if (value := getattr(self, attr)) is not None and not held(value)]

    @property
    def passed(self) -> bool:
        return not self.failed_checks()

    def to_dict(self):
        """The certificate body.  ``checks.uniqueness`` is written, null or
        not, unless ``y_star_unique`` stands in for it (statement 1)."""
        solution = {"x_star": [float(v) for v in self.x_star],
                    "y_star": [float(v) for v in self.y_star]}
        residuals = {"saddle_residual": float(self.residual)}
        residuals.update((name, float(getattr(self, name))) for name in (
            "projection_gap", "collapse_gap", "direction_gap", "map_norm", "distance_gap")
            if getattr(self, name) is not None)
        checks = {} if self.y_star_unique is not None else {"uniqueness": self.uniqueness}
        if self.proof is not None:
            checks["proof"] = self.proof
        checks.update((name, report.to_dict()) for name, report in (
            ("saddle", self.saddle_checks), ("vi", self.vi_check),
            ("nearest-point", self.nearest_check)) if report is not None)
        d = {"theorem": self.theorem, "mode": self.mode, "r": float(self.r),
             "solution": solution, "residuals": residuals, "iterations": int(self.iterations),
             "constants": self.constants.to_dict(), "checks": checks,
             "passed": bool(self.passed)}
        if self.y_star_unique is not None:
            solution["y_star_unique"] = self.y_star_unique
        if self.step is not None:
            d["step"] = float(self.step)
        if self.gate is not None:
            d["gate"] = self.gate
        return d


def _grads(payoff):
    """(x, y) -> (grad_x J, grad_y J) of the payoff's ``grads`` as float
    arrays."""
    def grads(x, y, oracle=payoff.grads):
        gx, gy = oracle(x, y)
        return np.asarray(gx, dtype=float), np.asarray(gy, dtype=float)
    return grads


def phi_value_grad(payoff, L: float, x, y):
    """(phi, grad_x phi, grad_y phi) at (x, y); x must lie in the domain ball."""
    x = as_point(x, dim=payoff.dimension)
    y = as_point(y, dim=payoff.dimension)
    if norm(x) > payoff.x_radius + EVAL_DOMAIN_TOL:
        raise InvalidInput(
            f"x lies outside the domain ball of radius {payoff.x_radius}")
    val = 0.5 * L * float(x @ x) + payoff.value(x, y)
    gx, gy = _grads(payoff)(x, y)
    return val, L * x + gx, gy


def solve_saddle(payoff, cfg: SaddleConfig, x0=None, y0=None) -> SaddlePoint:
    """Extragradient iteration for the regularized saddle problem.

    Starts at (0, P_T(0)) unless overridden.  Stops when the fixed-point
    residual ||(x - P_ball(x - step*gx), y - P_T(y + step*gy))|| falls below
    ``cfg.tol``; raises NonConvergence at the iteration cap.  A sustained
    residual blow-up (10x the best seen) halves the step and restarts from
    the best iterate, which keeps the run deterministic.

    ``x0``, ``y0`` and the radius are validated once, on entry (``cfg``
    validated itself when it was built).  The loop then projects with the
    unchecked ``ball_projection`` and ``T.project_unchecked`` (a projection
    oracle T keeps its checks) and takes both gradients of each point from
    one call of the payoff's ``grads``.  A non-finite iterate makes the
    residual non-finite; when T is not a ball, which clips an infinite step
    to its bound, each y-gradient is checked too.  Both raise InvalidInput
    naming the iteration.
    """
    r, n = cfg.r, payoff.dimension
    if r > payoff.x_radius + EVAL_DOMAIN_TOL:
        raise InvalidInput(
            f"ball radius {r} exceeds the payoff domain radius {payoff.x_radius}")
    T, L, tol = cfg.T, cfg.L, cfg.tol
    x = project_ball(as_point(x0, dim=n) if x0 is not None else np.zeros(n), r)
    y = T.project(as_point(y0, dim=n) if y0 is not None else np.zeros(n))
    tau, grads = cfg.step, _grads(payoff)
    if not isinstance(T, Ball):  # ``it`` is read when the loop calls it
        def grads(x, y, unchecked=grads):
            gx, gy = unchecked(x, y)
            if np.count_nonzero(np.isfinite(gy)) < n:  # half the cost of .all()
                raise InvalidInput(f"extragradient y-gradient is not finite at iteration {it}")
            return gx, gy
    best_res = np.inf
    best_x, best_y = x, y
    halvings = 0
    res = np.inf
    for it in range(1, cfg.max_iters + 1):
        gx, gy = grads(x, y)
        xh = ball_projection(x - tau * (L * x + gx), r)
        yh = T.project_unchecked(y + tau * gy)
        dx, dy = x - xh, y - yh
        res = float(np.hypot(math.sqrt(dx.dot(dx)), math.sqrt(dy.dot(dy))))
        if not math.isfinite(res):
            raise InvalidInput(f"extragradient iterate is not finite at iteration {it}")
        if res <= tol:
            return SaddlePoint(x, y, res, it, tau)
        if res < best_res:
            best_res, best_x, best_y = res, x, y
        elif res > 10.0 * best_res and it > 20:
            halvings += 1
            if halvings > MAX_STEP_HALVINGS:
                raise NonConvergence("step halving limit reached",
                                     residual=res, iterations=it)
            tau *= 0.5
            x, y = best_x, best_y
            best_res = np.inf
            continue
        gxh, gyh = grads(xh, yh)
        x = ball_projection(x - tau * (L * xh + gxh), r)
        y = T.project_unchecked(y + tau * gyh)
    raise NonConvergence(
        f"extragradient did not reach tolerance {tol} in {cfg.max_iters} iterations",
        residual=res, iterations=cfg.max_iters)


def sphere_fixed_point(G, q: float, dim: int, cfg: SaddleConfig) -> SaddlePoint:
    """Banach iteration x <- G(x) from G(0) for a G that contracts with q < 1
    (``contraction``).  Stops when q/(1 - q) times the step, the proved
    distance to the fixed point x*, is at most ``cfg.tol``; returns (x*, x*)
    with the last step as residual and the map values as iterations.  A
    non-finite step raises InvalidInput, the iteration cap NonConvergence."""
    if not 0.0 <= q < 1.0:
        raise InvalidInput(f"the fixed-point map must contract with 0 <= q < 1, got {q}")
    factor, x, step = q / (1.0 - q), np.zeros(dim), np.inf
    for it in range(1, cfg.max_iters + 1):
        x_next = G(x)
        d = x_next - x
        step = math.sqrt(d @ d)
        if not math.isfinite(step):
            raise InvalidInput(f"fixed-point step is not finite at iteration {it}")
        x = x_next
        if factor * step <= cfg.tol:
            return SaddlePoint(x, x, step, it, 1.0)
    raise NonConvergence(
        f"fixed-point iteration did not reach tolerance {cfg.tol} in {cfg.max_iters} map values",
        residual=step, iterations=cfg.max_iters)


def raise_failure(name: str, error: Exception):
    """Failure sink of the solve paths: a failed hypothesis gate raises.
    ``verify`` passes a sink that records ``name`` and goes on.  Only the
    gates use a sink; a failed check is a name in ``failed_checks``."""
    raise error


def gate(report: ConstantsReport, r, mode: str, rho: float, fail=raise_failure) -> float:
    """The radius/mode gate of every solve; returns r.

    The numerator of the report's radius rule (``RADIUS_RULES``) must be
    positive, r defaults to the admissible radius and must lie in (0, rho],
    and certified mode needs certification-grade constants and r <= r_max.
    Heuristic mode skips the last two.  Without positivity and without an
    explicit r the gate raises even when ``fail`` records.
    """
    if mode not in ("certified", "heuristic"):
        raise InvalidInput(f"mode must be 'certified' or 'heuristic', got {mode!r}")
    what = RADIUS_RULES[report.radius_rule][0]
    if getattr(report, what).value <= 0.0:
        error = HypothesisViolation(
            f"{what} = 0: the dual set reaches the gradient kernel at the origin")
        fail("positivity", error)
        if r is None:  # the default radius r_max is then 0: nothing is left to gate
            raise error
    if r is None:
        r = report.r_max
    if not (np.isfinite(r) and 0 < r <= rho):
        raise InvalidInput(f"r must lie in (0, {rho}], got {r}")
    if mode == "certified":
        if not report.certified:
            fail("constants-certified", CertificationError(
                "constants are sampled lower bounds, not certification grade; "
                "rerun in heuristic mode or declare analytic constants"))
        if not admissible(r, report.r_max):
            fail("radius-admissible", HypothesisViolation(
                f"r = {r} exceeds the admissible radius {report.r_max}",
                deficit=r - report.r_max))
    return float(r)


def gated_problem(m, report: ConstantsReport, r: float | None, mode: str,
                  T: ConvexSet | None = None, *, fail=raise_failure) -> SaddleConfig:
    """The saddle problem of every statement: ``gate`` on the report, then
    ball(r) x T (T = ball(r) when None) of the map ``m`` with the
    regularization weight L = ``report.weight``, the smoothness 2 L + theta
    and SaddleConfig's default run settings."""
    r = gate(report, r, mode, m.domain_radius, fail)
    L = report.weight.value
    return SaddleConfig(r=r, T=Ball(r, m.dimension) if T is None else T, L=L,
                        smoothness=2.0 * L + report.theta.value, r_max=report.r_max)


def run_saddle(payoff, T: ConvexSet | None, r: float | None,
               report: ConstantsReport | None = None, point: SaddlePoint | None = None, *,
               mode: str, seed: int, fail=raise_failure) -> Certificate:
    """Statement 1's one path, which the CLI's run and ``verify`` take: phi =
    (L/2) ||x||^2 + J on ball(r) x T (T = ball(r) when None), J a catalog
    payoff.  The heuristic ``gate`` of J's own ``report`` (None: built by
    J's kind; positivity, the default r), then ``gated_problem`` of J's map
    in ``mode`` on the saddle report (delta over T, L the weight, the
    "saddle" rule), failures to ``fail``; a solve unless ``point`` is given;
    then ``check_saddle``.  A certified run with no r whose saddle r_max is
    positive and below J's default radius runs at r = that r_max; a default
    T then shrinks with it, which can only raise delta."""
    own = report or (vi_report(payoff.smooth_map, seed=seed) if payoff.kind == "vi"
                     else ba_report(payoff.smooth_map, payoff.y_set, seed=seed))
    radius = gate(own, r, "heuristic", payoff.x_radius, fail)
    report = replace(own, delta=delta_const(payoff, T or Ball(radius, payoff.dimension)),
                     L=own.weight, radius_rule="saddle")
    if r is None and mode == "certified" and 0.0 < report.r_max < radius:
        return run_saddle(payoff, T, report.r_max, own, point, mode=mode, seed=seed, fail=fail)
    cfg = gated_problem(payoff.smooth_map, report, radius, mode, T, fail=fail)
    if point is None:
        point = solve_saddle(payoff, cfg)
    return Certificate(
        theorem="1", mode=mode, r=cfg.r, x_star=point.x_star, y_star=point.y_star,
        residual=point.residual, iterations=point.iterations, constants=report,
        step=point.step, saddle_checks=check_saddle(payoff, point, cfg, seed=seed + 1),
        y_star_unique=payoff_depends_on_y(payoff, point.x_star, cfg.T, seed=seed))


def admissible(r: float, r_max: float | None) -> bool:
    """Whether r <= r_max (None: unknown) up to RADIUS_SLACK."""
    return r_max is not None and r <= r_max + RADIUS_SLACK


def claims_sphere(L: float, r: float, r_max: float | None) -> bool:
    """Whether x* must lie on the sphere: L > 0 and r ``admissible``."""
    return L > 0 and admissible(r, r_max)


def probe_uniqueness(payoff, cfg: SaddleConfig, seed: int) -> dict:
    """The uniqueness record of a prox-pair solve: the spread of the
    solutions from UNIQUENESS_STARTS scattered starting points."""
    spread = uniqueness_probe(
        lambda x0: solve_saddle(payoff, cfg, x0=x0, y0=x0).x_star,
        starts=UNIQUENESS_STARTS, seed=seed, dim=payoff.dimension, radius=cfg.r)
    return {"starts": UNIQUENESS_STARTS, "max_pairwise": float(spread),
            "passed": bool(spread <= UNIQUENESS_TOL)}


def uniqueness_consistent(record) -> bool:
    """Whether a stored uniqueness record could come from
    ``probe_uniqueness``: UNIQUENESS_STARTS starts and a verdict that
    matches its own spread."""
    return (isinstance(record, dict) and record.get("starts") == UNIQUENESS_STARTS
            and record.get("passed") == (float(record["max_pairwise"]) <= UNIQUENESS_TOL))


def contraction(m, r: float, theta: float, least: float = -np.inf) -> tuple[float, float]:
    """(reach, q): reach = ||m(0)|| - r theta bounds the theta-Lipschitz m
    below on ball(r), and the map G of statements 2, 4 and 6, m then a
    normalization that is r/floor-Lipschitz on its image (floor = max(least,
    reach); statement 6 projects, so its least is r), contracts with q =
    r theta / floor, inf for floor <= 0; ``sphere_solve`` takes it once."""
    reach = norm(m.val(np.zeros(m.dimension))) - r * theta
    floor = max(least, reach)
    return reach, (r * theta / floor if floor > 0.0 else np.inf)


def sphere_solve(m, G, least: float, payoff, cfg: SaddleConfig, report: ConstantsReport,
                 point: SaddlePoint | None) -> tuple[SaddlePoint, tuple[float, float]]:
    """(point, ``contraction``'s (reach, q)) of statement 2, 4 or 6, whose
    solution is the fixed point of ``G``, with the floor ``least``.  Unless
    ``point`` (a stored solution) is given, it solves with
    ``sphere_fixed_point`` of G for certification-grade constants and
    q < 1, else with ``solve_saddle`` of ``payoff()``, built only then."""
    reach, q = contraction(m, cfg.r, report.theta.value, least)
    if point is None:
        point = (sphere_fixed_point(G, q, m.dimension, cfg) if report.certified and q < 1.0
                 else solve_saddle(payoff(), cfg))
    return point, (reach, q)


def sphere_records(contracted: tuple[float, float], theta: float, gap: float,
                   map_norm: float, terms: tuple[float, float], dim: int) -> tuple[dict, dict]:
    """(uniqueness record, proof record) of a sphere statement, 2, 4 or 6.

    ``contracted`` is ``contraction``'s (reach, q) of the statement's map G
    of ball(r), which moves the reported point by ``gap``.  For q < 1
    Banach's theorem gives one solution x*, within the error bound
    gap / (1 - q) of the point; q >= 1 proves nothing.  phi_lower bounds
    the map norm at x* below: reach or, when x* is located, ``map_norm`` at
    the point less theta times the error bound.

    The proof terms (d, t), (2r, theta) for statements 2 and 4 and
    (r, max(1, 2 theta)) for 6, give the coefficient phi_lower/d - t of the
    quadratic slack coefficient * ||x - x*||^2 of the strict inequality,
    proved in closed form for every x != x* in ball(r).  The proof holds
    when x* is located within SOLUTION_TOL of the reported point, so that it
    is about that point, and the coefficient, a difference of terms of size
    phi_lower/d + t, clears the rounding pad (dim + 1) eps (phi_lower/d + t):
    the error bound of a norm of a map value, an inner product of length dim
    plus an offset (Higham, ch. 3), and of the final subtraction.  The
    margin is the coefficient less the pad."""
    reach, q = contracted
    proved = q < 1.0
    error_bound = gap / (1.0 - q) if proved else np.inf
    phi = max(reach, map_norm - theta * error_bound) if proved else reach
    d, t = terms
    margin = phi / d - t - (dim + 1) * np.finfo(float).eps * (phi / d + t)
    uniqueness = {"method": "contraction", "q": float(q), "passed": bool(proved),
                  "error_bound": float(error_bound)}
    proof = {"phi_lower": float(phi), "margin": float(margin),
             "passed": bool(proved and error_bound <= SOLUTION_TOL and margin > 0.0)}
    return uniqueness, proof


def payoff_depends_on_y(payoff, x_star, T: ConvexSet, seed: int = 0) -> bool:
    """False when the payoff is y-independent near the solution (then the
    reported y* is just one valid choice among many)."""
    rng = np.random.default_rng(seed)
    x_star, grads = np.asarray(x_star, dtype=float), _grads(payoff)
    probes = list(T.sample(rng, 3)) + [T.project(x_star)]
    return any(norm(grads(x_star, y)[1]) > 1e-12 for y in probes)


def ball_check_samples(rng, n: int, dim: int, r: float,
                       x_star: np.ndarray | None = None) -> np.ndarray:
    """Ball samples enriched with sphere samples, axis boundary points and,
    when x* is given and nonzero, the antipode of x*."""
    inside = sample_ball(rng, n, dim, r)
    on_sphere = sample_sphere(rng, max(n // 4, 1), dim, r)
    extras = [inside, on_sphere, axis_points(dim, r)]
    nx = 0.0 if x_star is None else norm(x_star)
    if nx > 0:
        extras.append((-r / nx) * x_star[None, :])
    return np.vstack(extras)


def exclusion_mask(xs: np.ndarray, x_star: np.ndarray, r: float) -> np.ndarray:
    """Rows of ``xs`` outside the ball of radius EXCLUSION_FACTOR * r about x*.
    The factor lies in (0, 1), so an axis point +-r e_1 of
    ``ball_check_samples`` survives: no check runs on zero samples."""
    return (by_blocks(lambda block: np.linalg.norm(block - x_star, axis=1), xs)
            > EXCLUSION_FACTOR * r)


def by_blocks(fn, xs: np.ndarray) -> np.ndarray:
    """``fn`` over blocks of CHECK_BLOCK rows of ``xs``, concatenated: a wide
    sampled check holds its map values and differences for one block at a
    time, not for all its samples at once."""
    return np.concatenate([fn(xs[i:i + CHECK_BLOCK]) for i in range(0, len(xs), CHECK_BLOCK)])


def slack_report(name: str, slack: np.ndarray, points: np.ndarray, details: dict) -> CheckReport:
    """The outcome of a property sampled at the rows of ``points`` with the
    given slack (positive means it held with room): the worst slack is the
    margin, a nonnegative margin passes, and on failure the sample that
    attains it is the witness."""
    i = int(np.argmin(slack))
    passed = bool(slack[i] >= 0.0)
    return CheckReport(name=name, passed=passed, n_samples=slack.size, margin=float(slack[i]),
                       witness=None if passed else points[i], details=details)


def audit(name: str, m, x_star, r: float, n_samples: int, seed: int, gains,
          strict_margin: float = STRICT_MARGIN, forms: tuple = ()) -> CheckReport:
    """The sampled check of ``check_vi`` and ``check_nearest_point``: over
    ``ball_check_samples`` outside the exclusion ball about x*, by blocks,
    each column of ``gains(block, m.vals(block))`` must exceed
    ``strict_margin``.  The details name, under each of ``forms``, the
    largest negated gain of its column."""
    require_count("n_samples", n_samples, 1)
    x_star = np.asarray(x_star, dtype=float)
    rng = np.random.default_rng(seed)
    xs = ball_check_samples(rng, n_samples, m.dimension, r, x_star)
    xs = xs[exclusion_mask(xs, x_star, r)]
    g = by_blocks(lambda block: gains(block, m.vals(block)), xs)
    details = {"strict_margin": strict_margin, "exclusion_radius": EXCLUSION_FACTOR * r}
    details.update((form, -float(np.min(column))) for form, column in zip(forms, g.T))
    return slack_report(name, np.min(g, axis=1) - strict_margin, xs, details)


def check_saddle(payoff, point: SaddlePoint, cfg: SaddleConfig, seed: int = 0,
                 n_samples: int = CHECK_SAMPLES) -> SaddleChecks:
    """Sampled certification of a saddle candidate (solved or stored), with
    ``n_samples`` samples per sampled set.

    Checks, in order: J(x*, y) <= J(x*, y*) + CHECK_TOL over sampled y in T;
    J(x, y*) >= J(x*, y*) + STRICT_MARGIN over sampled x in ball(r) outside
    the exclusion ball of radius EXCLUSION_FACTOR * r; | ||x*|| - r | below
    SPHERE_TOL when ``claims_sphere``.  Also reports the sampled minimax gap
    of phi.
    """
    require_count("n_samples", n_samples, 1)
    x_star = as_point(point.x_star, dim=payoff.dimension)
    y_star = as_point(point.y_star, dim=payoff.dimension)
    rng = np.random.default_rng(seed)
    dim = payoff.dimension
    r, T = cfg.r, cfg.T
    ys = (ball_check_samples(rng, n_samples, dim, T.radius) if isinstance(T, Ball)
          else T.sample(rng, n_samples))
    xs = ball_check_samples(rng, n_samples, dim, r, x_star)
    far = exclusion_mask(xs, x_star, r)

    j_star = payoff.value(x_star, y_star)
    j_up = payoff.values_y(x_star, ys)
    j_at_xs = payoff.values_x(xs, y_star)
    reports = [
        slack_report("y-maximal", (j_star + CHECK_TOL) - j_up, ys, {"tolerance": CHECK_TOL}),
        slack_report("x-strictly-minimal", j_at_xs[far] - (j_star + STRICT_MARGIN), xs[far],
                     {"exclusion_radius": EXCLUSION_FACTOR * r, "strict_margin": STRICT_MARGIN})]
    if claims_sphere(cfg.L, r, cfg.r_max):
        gap = abs(norm(x_star) - r)
        reports.append(slack_report("sphere-membership", np.array([SPHERE_TOL - gap]),
                                    x_star[None, :], {"norm_gap": gap}))

    # minimax gap of the regularized objective over the same samples
    half_l = 0.5 * cfg.L
    phi_up = half_l * float(x_star @ x_star) + max(float(np.max(j_up)), j_star)
    phi_at_xs = half_l * np.einsum("mi,mi->m", xs, xs) + j_at_xs
    phi_low = min(float(np.min(phi_at_xs)), half_l * float(x_star @ x_star) + j_star)
    return SaddleChecks(reports=reports, minimax_gap=float(phi_up - phi_low))
