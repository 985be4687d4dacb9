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
run it (see ``Certificate`` for the collapsed pairs of 2, 4 and 6).

Every solve is a solver step (``solve_saddle`` or ``sphere_fixed_point``;
statement 5 adds ``probe_uniqueness``) and a certify step (statements 2, 4 and 6, and 5 on
their sets, prove uniqueness there with ``contraction_record``; 2, 4 and 6
prove their strict inequality with ``proof_record`` and audit it on
AUDIT_SAMPLES samples).  ``gate``
is the radius/mode gate both share: the solve paths run it before solving,
``verify`` runs it with a failure sink that records instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import ConstantsReport
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
CHECK_BLOCK = 512


@dataclass
class SaddleConfig:
    """Problem geometry, regularization weight and the run settings: the one
    place where the solver and check settings get their defaults and their
    validation.

    ``n_samples`` sizes the sampled sets of ``check_saddle`` (statements 1
    and 5); statements 2, 4 and 6 refuse it (``refuse_sample_count``).
    ``smoothness`` bounds the Lipschitz constant of the saddle operator and
    fixes the extragradient step 1/(2 * smoothness); the problem builders
    set it to 2 * weight + theta from the constants report.  ``r_max`` is
    the admissible radius when known; it gates the sphere-membership check
    (statement 6's certificate gates its own with its report's r_max).
    """

    r: float
    T: ConvexSet
    L: float
    smoothness: float
    tol: float = 1e-8
    max_iters: int = 10**6
    check_tol: float = 1e-8
    strict_margin: float = 1e-9
    exclusion_factor: float = 1e-4
    n_samples: int = 2000
    r_max: float | None = None

    def __post_init__(self):
        if not (np.isfinite(self.r) and self.r > 0):
            raise InvalidInput("r must be positive")
        if not (np.isfinite(self.L) and self.L >= 0):
            raise InvalidInput("L must be finite and >= 0")
        if not (np.isfinite(self.smoothness) and self.smoothness >= 0):
            raise InvalidInput("smoothness must be finite and >= 0")
        for name in ("tol", "check_tol", "strict_margin"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise InvalidInput(f"{name} must be finite and positive, got {value!r}")
        require_count("max_iters", self.max_iters, 1)
        require_exclusion_factor(self.exclusion_factor)
        require_count("n_samples", self.n_samples, 1)

    @property
    def step(self) -> float:
        # a constant payoff gradient has zero smoothness; any fixed step converges
        return 1.0 if self.smoothness <= 1e-12 else 1.0 / (2.0 * self.smoothness)


@dataclass(frozen=True)
class SaddlePoint:
    x_star: np.ndarray
    y_star: np.ndarray
    residual: float
    iterations: int
    step: float


@dataclass(slots=True)
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


@dataclass
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


def failed_names(*checks: tuple[str, bool]) -> list[str]:
    """The names of the (name, held) pairs that did not hold, in order."""
    return [name for name, ok in checks if not ok]


@dataclass
class Certificate:
    """Solution, constants and uniqueness record of one certified run; the
    VI and approximation certificates add their own identities and checks,
    and statement 5 the sampled saddle checks.  The collapsed pairs of
    statements 2, 4 and 6 prove x-strictly-minimal in closed form
    (``proof``, a ``proof_record`` named ``proof_check``) and audit it in
    their own sampled check, and ``y_maximal_slack`` is check_tol less
    sup_y J(x*, y) - J(x*, y*) in closed form over T = ball(r); the body
    leaves it out.

    ``theorem`` is the wire label of the certified statement template (see
    the certificate format notes in the README).  ``mode`` is "certified"
    only when every constant used is certification grade and r respects the
    admissible radius.  ``failed_checks`` names every failed check and is
    the only verdict: ``passed`` holds when it is empty.
    """

    theorem: str
    mode: str
    r: float
    x_star: np.ndarray
    y_star: np.ndarray
    residual: float
    iterations: int
    constants: ConstantsReport
    uniqueness: dict | None
    y_maximal_slack: float | None
    proof: dict | None
    proof_check = "proof"

    def failed_checks(self) -> list[str]:
        """Closed-form y-maximal, uniqueness and the proof; the subclasses
        put their identities first and their own checks last."""
        return failed_names(
            ("y-maximal", self.y_maximal_slack is None or self.y_maximal_slack >= 0.0),
            ("uniqueness", self.uniqueness is None or bool(self.uniqueness["passed"])),
            (self.proof_check, self.proof is None or bool(self.proof["passed"])))

    @property
    def passed(self) -> bool:
        return not self.failed_checks()

    def to_dict(self):
        return {
            "theorem": self.theorem, "mode": self.mode, "r": float(self.r),
            "solution": {"x_star": [float(v) for v in self.x_star],
                         "y_star": [float(v) for v in self.y_star]},
            "residuals": {"saddle_residual": float(self.residual)},
            "iterations": int(self.iterations),
            "constants": self.constants.to_dict(),
            "checks": {"uniqueness": self.uniqueness,
                       **({} if self.proof is None else {"proof": self.proof})},
            "passed": bool(self.passed),
        }


def _grad_y(payoff, x, y):
    if payoff.grad_y is not None:
        return np.asarray(payoff.grad_y(x, y), dtype=float)
    h = 1e-6 * max(1.0, norm(y))
    g = np.empty_like(y)
    for j in range(y.size):
        e = np.zeros_like(y)
        e[j] = h
        g[j] = (payoff.value(x, y + e) - payoff.value(x, y - e)) / (2.0 * h)
    return g


def _grads(payoff):
    """(x, y) -> (grad_x J, grad_y J) as float arrays: one call of the
    payoff's fused ``grads`` when it has one, else grad_x and ``_grad_y``."""
    if payoff.grads is None:
        return lambda x, y: (np.asarray(payoff.grad_x(x, y), dtype=float), _grad_y(payoff, x, y))

    def grads(x, y, fused=payoff.grads):
        gx, gy = fused(x, y)
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
    one call of the fused ``grads`` when the payoff has it.  A non-finite
    iterate makes the residual non-finite; when T is not a ball, which
    clips an infinite step to its bound, each y-gradient is checked too.
    Both raise InvalidInput naming the iteration.
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


def gate(report, r, mode: str, rho: float, fail=raise_failure) -> float:
    """The radius/mode gate of every solve; returns r.

    The numerator of the report's radius rule (sigma, or delta for the
    saddle rule) must be positive, r defaults to the admissible radius and
    must lie in (0, rho], and certified mode needs certification-grade
    constants and r <= r_max.  Heuristic mode skips the last two.  Without
    positivity and without an explicit r the gate raises even when ``fail``
    records.
    """
    if mode not in ("certified", "heuristic"):
        raise InvalidInput(f"mode must be 'certified' or 'heuristic', got {mode!r}")
    what = "delta" if report.radius_rule == "saddle" else "sigma"
    positive = getattr(report, what)
    if positive is None or positive.value <= 0.0:
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
        if r > report.r_max + 1e-12:
            fail("radius-admissible", HypothesisViolation(
                f"r = {r} exceeds the admissible radius {report.r_max}",
                deficit=r - report.r_max))
    return float(r)


def require_count(name: str, value, least: int):
    """A count setting must be an integer >= ``least`` (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise InvalidInput(f"{name} must be an integer >= {least}, got {value!r}")


def probe_uniqueness(payoff, cfg: SaddleConfig, starts: int, seed: int) -> dict | None:
    """The uniqueness record of a prox-pair solve: the spread of the
    solutions from ``starts`` scattered starting points, or None below two
    starts."""
    if starts < 2:
        return None
    spread = uniqueness_probe(
        lambda x0: solve_saddle(payoff, cfg, x0=x0, y0=x0).x_star,
        starts=starts, seed=seed, dim=payoff.dimension, radius=cfg.r)
    return {"starts": starts, "max_pairwise": float(spread),
            "passed": bool(spread <= UNIQUENESS_TOL)}


def uniqueness_consistent(record, starts: int) -> bool:
    """Whether a stored uniqueness record could come from
    ``probe_uniqueness`` with ``starts``: the same start count and a verdict
    that matches its own spread."""
    if record is None:
        return starts < 2
    return (isinstance(record, dict) and record.get("starts") == starts
            and record.get("passed") == (float(record["max_pairwise"]) <= UNIQUENESS_TOL))


def contraction(m, r: float, theta: float, least: float = -np.inf) -> tuple[float, float]:
    """(reach, q): reach = ||m(0)|| - r theta bounds the theta-Lipschitz m
    below on ball(r), and the map G of statements 2, 4 and 6, m then a
    normalization that is r/floor-Lipschitz on its image (floor = max(least,
    reach); statement 6 projects, so its least is r), contracts with q =
    r theta / floor, inf for floor <= 0.  Their solve and certify step both
    take q from here."""
    reach = norm(m.val(np.zeros(m.dimension))) - r * theta
    floor = max(least, reach)
    return reach, (r * theta / floor if floor > 0.0 else np.inf)


def contraction_record(q: float, gap: float) -> dict:
    """The uniqueness record of a map G of ball(r) into itself that contracts
    with q: for q < 1 Banach's theorem gives one solution, within gap / (1 -
    q) of a point that G moves by gap; q >= 1 proves nothing."""
    proved = q < 1.0
    return {"method": "contraction", "q": float(q), "passed": bool(proved),
            "error_bound": float(gap / (1.0 - q)) if proved else np.inf}


def proved_norm_floor(uniqueness: dict, theta: float, floor: float, point_norm: float) -> float:
    """phi_lower, a lower bound on the map norm at the exact solution x*:
    the floor over ball(r) or, when the contraction ``uniqueness`` proves x*
    within its error bound e of the point, the norm there less theta e."""
    if not uniqueness["passed"]:
        return float(floor)
    return float(max(floor, point_norm - theta * uniqueness["error_bound"]))


def proof_record(uniqueness: dict, phi: float, coefficient: float, scale: float,
                 dim: int) -> dict:
    """The record of a strict inequality proved in closed form for every
    x != x* in ball(r), with a quadratic slack coefficient * ||x - x*||^2.
    It proves something when the contraction ``uniqueness`` proves x*
    (q < 1) within SOLUTION_TOL of the reported point, so that the proof is
    about that point, and the coefficient, a difference of terms of size
    ``scale``, clears the rounding pad (dim + 1) eps scale: the error bound
    of a norm of a map value, an inner product of length dim plus an
    offset (Higham, ch. 3), and of the final subtraction.  The margin is
    the coefficient less the pad."""
    margin = coefficient - (dim + 1) * np.finfo(float).eps * scale
    located = uniqueness["passed"] and uniqueness["error_bound"] <= SOLUTION_TOL
    return {"phi_lower": float(phi), "margin": float(margin),
            "passed": bool(located and margin > 0.0)}


def refuse_sample_count(settings: dict):
    """Statements 2, 4 and 6 prove their strict inequality and audit it on
    AUDIT_SAMPLES samples: ``n_samples`` sizes only ``check_saddle``, and a
    setting that nothing would read is refused."""
    if "n_samples" in settings:
        raise TypeError("n_samples sizes the sampled saddle checks of statements 1 and 5; "
                        "statements 2, 4 and 6 prove their inequality and audit it on "
                        f"{AUDIT_SAMPLES} samples")


def payoff_depends_on_y(payoff, x_star, T: ConvexSet, seed: int = 0) -> bool:
    """False when the payoff is y-independent near the solution (then the
    reported y* is just one valid choice among many)."""
    rng = np.random.default_rng(seed)
    probes = list(T.sample(rng, 3)) + [T.project(np.asarray(x_star, dtype=float))]
    return any(norm(_grad_y(payoff, np.asarray(x_star, dtype=float), y)) > 1e-12
               for y in probes)


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


def require_exclusion_factor(factor: float):
    """An exclusion factor must lie in (0, 1): then one of the axis points
    +-r e_1 of ``ball_check_samples`` lies at least r from x* and survives
    the exclusion, so no check of ball(r) runs on zero samples."""
    if not 0.0 < factor < 1.0:
        raise InvalidInput(f"exclusion_factor must lie in (0, 1), got {factor}")


def exclusion_mask(xs: np.ndarray, x_star: np.ndarray, r: float, factor: float) -> np.ndarray:
    """Rows of ``xs`` outside the exclusion ball of radius factor * r about x*."""
    require_exclusion_factor(factor)
    return by_blocks(lambda block: np.linalg.norm(block - x_star, axis=1), xs) > factor * r


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


def check_saddle(payoff, point: SaddlePoint, cfg: SaddleConfig, seed: int = 0) -> SaddleChecks:
    """Sampled certification of a saddle candidate (solved or stored), with
    ``cfg.n_samples`` samples per sampled set.

    Checks, in order: J(x*, y) <= J(x*, y*) + check_tol over sampled y in T;
    J(x, y*) >= J(x*, y*) + strict_margin over sampled x in ball(r) outside
    the exclusion ball of radius exclusion_factor * r; |...||x*|| - r| below
    1e-6 when L > 0 and r is within the admissible radius.  Also reports the
    sampled minimax gap of phi.
    """
    x_star = as_point(point.x_star, dim=payoff.dimension)
    y_star = as_point(point.y_star, dim=payoff.dimension)
    rng = np.random.default_rng(seed)
    dim = payoff.dimension
    r, T, n_samples = cfg.r, cfg.T, cfg.n_samples
    ys = (ball_check_samples(rng, n_samples, dim, T.radius) if isinstance(T, Ball)
          else T.sample(rng, n_samples))
    xs = ball_check_samples(rng, n_samples, dim, r, x_star)
    far = exclusion_mask(xs, x_star, r, cfg.exclusion_factor)

    j_star = payoff.value(x_star, y_star)
    j_up = payoff.values_y(x_star, ys)
    j_at_xs = payoff.values_x(xs, y_star)
    reports = [
        slack_report("y-maximal", (j_star + cfg.check_tol) - j_up, ys,
                     {"tolerance": cfg.check_tol}),
        slack_report("x-strictly-minimal", j_at_xs[far] - (j_star + cfg.strict_margin), xs[far],
                     {"exclusion_radius": cfg.exclusion_factor * r,
                      "strict_margin": cfg.strict_margin})]
    if cfg.L > 0 and cfg.r_max is not None and r <= cfg.r_max + 1e-12:
        gap = abs(norm(x_star) - r)
        reports.append(slack_report("sphere-membership", np.array([SPHERE_TOL - gap]),
                                    x_star[None, :], {"norm_gap": gap}))

    # minimax gap of the regularized objective over the same samples
    half_l = 0.5 * cfg.L
    phi_up = half_l * float(x_star @ x_star) + max(float(np.max(j_up)), j_star)
    phi_at_xs = half_l * np.einsum("mi,mi->m", xs, xs) + j_at_xs
    phi_low = min(float(np.min(phi_at_xs)), half_l * float(x_star @ x_star) + j_star)
    return SaddleChecks(reports=reports, minimax_gap=float(phi_up - phi_low))
