"""Best-approximation points and prox pairs for maps on small balls.

For a C^1 map f on ball(rho) and bounded closed convex Y, the payoff

    J(x, y) = ||f(x) - x||^2 - ||f(x) - y||^2

has a saddle pair (x*, y*) on sphere(r) x T for every r up to the
admissible radius, with y* = P_T(f(x*)).  When Y = ball(rho) and
T = ball(r) the pair collapses to a single x* that is simultaneously the
unique nearest point of ball(r) to its own image:

    ||f(x*) - x*|| = dist(f(x*), ball(r)),
    ||f(x) - x*||  < ||f(x) - x||   for every other x in ball(r).

``solve_prox_pair`` certifies the general pair and probes its uniqueness
(proves it with the sets above); ``solve_best_approx`` adds the collapse
and nearest-point conclusions; ``ba_small_radius`` picks a radius that
makes the hypotheses automatic when f(0) != 0.  ``run_ba`` is the one path
of statements 5 and 6, which both solves and the CLI's run and ``verify``
take, each in one call: it builds the constants report of f and Y, gates
the problem (``saddle.gated_problem``, then T within Y), solves unless a
stored solution is given (``saddle.sphere_solve`` on the sets above, else
the extragradient and the uniqueness probe), and builds its
``saddle.Certificate``.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .catalog import SmoothMap, ba_payoff
from .constants import ConstantsReport, ba_report
from .errors import CertificationError, HypothesisViolation, InvalidInput
from .geometry import Ball, Box, ConvexSet, ball_projection, dist_ball, norm, project_ball
from .saddle import (AUDIT_SAMPLES, CHECK_SAMPLES, CHECK_TOL, STRICT_MARGIN, UNIQUENESS_STARTS,
                     Certificate, CheckReport, SaddlePoint, audit, check_saddle, claims_sphere,
                     gated_problem, probe_uniqueness, raise_failure, solve_saddle,
                     sphere_records, sphere_solve, uniqueness_consistent)
from .vi import SmallRadiusResult, radius_from_origin

CONTAINMENT_TOL = 1e-9


def _containment_check(T: ConvexSet, Y: ConvexSet, seed: int, fail, n: int = 128):
    """T within CONTAINMENT_TOL of Y: exact for a ball or box T in a ball Y
    (``T.sup_norm()`` is the norm of its farthest point) and for a box in a
    box (each coordinate's overhang), else on n sampled points of T."""
    if isinstance(Y, Ball) and isinstance(T, (Ball, Box)):
        gaps = [T.sup_norm() - Y.radius]
    elif isinstance(Y, Box) and isinstance(T, Box):
        gaps = [norm(np.maximum(Y.project(T.lower) - T.lower, T.upper - Y.project(T.upper)))]
    else:
        gaps = (norm(Y.project(t) - t) for t in T.sample(np.random.default_rng(seed), n))
    for gap in gaps:
        if gap > CONTAINMENT_TOL:
            fail("containment", HypothesisViolation(
                f"T must be contained in Y; a point of T projects {gap:.2e} away", deficit=gap))
            return


def run_ba(m: SmoothMap, Y: ConvexSet, T: ConvexSet | None, r: float | None,
           report: ConstantsReport | None, point: SaddlePoint | None = None,
           *, mode: str, seed: int, fail=raise_failure, uniqueness: dict | None = None,
           theorem: str = "5") -> Certificate:
    """The one path of statements 5 and 6, which ``solve_prox_pair``,
    ``solve_best_approx`` and the CLI's run and ``verify`` all take.

    ``report`` defaults to ``ba_report`` of ``m`` and ``Y``.  Gates the
    problem (``gated_problem``, then T contained in Y, failures to
    ``fail``).  Statement 6 needs its sets, Y = ball(rho) and T =
    ball(r), else InvalidInput before any solve.  On them the pair
    collapses: ``sphere_solve`` of x -> P_ball(r)(f(x)), with the floor
    max(r, reach), reach = ||f(0)|| - r theta (the projection is
    1-Lipschitz, and radial beyond r), and its ``sphere_records`` with the
    proof terms (r, max(1, 2 theta)) give the uniqueness record (and
    statement 6's proof).  On other sets a solve takes the extragradient
    and ``probe_uniqueness``, and a stored probe record ``uniqueness`` must
    be ``uniqueness_consistent``, else ``fail("uniqueness-record")``.

    The ``Certificate`` measures y* = P_T(f(x*)).  Statement 5 adds the
    sampled saddle checks; statement 6 the collapse x* = y*, sphere
    membership (when ``claims_sphere``), the distance identity, y-maximal
    in closed form, the proved nearest-point inequality and its audit on
    AUDIT_SAMPLES samples.  A failed check is a name in ``failed_checks``.
    The payoff, which the extragradient, the probe and ``check_saddle``
    share, is built once and only when one of them runs.

    The proof of statement 6: for a lower bound phi >= r of ||f(x*)||
    (the records' phi_lower, from reach), x* = r f(x*)/||f(x*)|| and f is
    theta-Lipschitz, so ||f(x) - x||^2 - ||f(x) - x*||^2 >=
    (phi/r - 2 theta) ||x - x*||^2 on ball(r).  The proof's coefficient is
    phi/r - max(1, 2 theta), which covers both conditions.
    """
    report = report or ba_report(m, Y, seed=seed)
    cfg = gated_problem(m, report, r, mode, T, fail=fail)
    _containment_check(cfg.T, Y, seed + 7, fail)
    r, theta = cfg.r, report.theta.value
    collapsed = (isinstance(Y, Ball) and Y.radius == m.domain_radius
                 and isinstance(cfg.T, Ball) and cfg.T.radius == r)
    if theorem == "6" and not collapsed:
        raise InvalidInput("statement 6 needs Y = ball(rho) and T = ball(r)")
    payoff = cache(lambda: ba_payoff(m, Y))  # built once, and only by a step that needs it
    if collapsed:
        point, contracted = sphere_solve(m, lambda x: ball_projection(m.val(x), r), r,
                                         payoff, cfg, report, point)
    elif point is None:
        point = solve_saddle(payoff(), cfg)
        uniqueness = probe_uniqueness(payoff(), cfg, seed + 3)
    elif not uniqueness_consistent(uniqueness):
        fail("uniqueness-record", CertificationError("the uniqueness record is not a "
             f"{UNIQUENESS_STARTS}-start probe record consistent with its own spread"))
    x_star, y_star = point.x_star, point.y_star
    fx, proof = m.val(x_star), None
    if collapsed:
        uniqueness, proof = sphere_records(contracted, theta, norm(x_star - project_ball(fx, r)),
                                           norm(fx), (r, max(1.0, 2.0 * theta)), m.dimension)
    if theorem == "6":
        dist, on_sphere = dist_ball(fx, r), claims_sphere(report.weight.value, r, report.r_max)
        own = dict(
            proof=proof, collapse_gap=norm(x_star - y_star),
            sphere_gap=abs(norm(x_star) - r) if on_sphere else None,
            distance_gap=abs(norm(fx - x_star) - dist),
            # sup over y in ball(r) of J(x*, y) = ||f - x*||^2 - ||f - y||^2 less J(x*, y*)
            y_maximal_slack=CHECK_TOL - (norm(fx - y_star) ** 2 - dist ** 2),
            nearest_check=check_nearest_point(m, x_star, r, AUDIT_SAMPLES, seed + 4))
    else:
        own = dict(saddle_checks=check_saddle(payoff(), point, cfg, seed=seed + 1))
    return Certificate(theorem=theorem, mode=mode, r=r, x_star=x_star, y_star=y_star,
                       residual=point.residual, iterations=point.iterations, constants=report,
                       uniqueness=uniqueness, projection_gap=norm(y_star - cfg.T.project(fx)),
                       **own)


def solve_prox_pair(m: SmoothMap, Y: ConvexSet, T: ConvexSet | None,
                    r: float | None = None, report: ConstantsReport | None = None,
                    *, mode: str = "certified", seed: int = 0) -> Certificate:
    """Solve and certify the saddle pair of statement 5 (``run_ba``): the
    approximation payoff on ball(r) x T, with y* the projection of f(x*)
    onto T.

    ``r`` defaults to the admissible radius sigma / L and ``T`` (None) to
    ball(r).  Certified mode requires certification-grade constants and r
    within the admissible radius.  Uniqueness is probed from
    UNIQUENESS_STARTS starts unless Y = ball(rho) and T = ball(r), where
    a contraction proves it."""
    return run_ba(m, Y, T, r, report, mode=mode, seed=seed)


def check_nearest_point(m: SmoothMap, x_star, r: float,
                        n_samples: int = CHECK_SAMPLES, seed: int = 0,
                        strict_margin: float = STRICT_MARGIN) -> CheckReport:
    """Sampled check (``saddle.audit``) that x* is closer to every image
    f(x) than x itself is, by more than strict_margin (the certify step
    keeps STRICT_MARGIN), over ball(r) outside the exclusion ball of radius
    EXCLUSION_FACTOR * r."""
    x_star = np.asarray(x_star, dtype=float)

    def gains(block, F):
        return (np.linalg.norm(F - block, axis=1) - np.linalg.norm(F - x_star, axis=1))[:, None]
    return audit("nearest-point", m, x_star, r, n_samples, seed, gains, strict_margin)


def solve_best_approx(m: SmoothMap, r: float | None = None, report: ConstantsReport | None = None,
                      *, mode: str = "certified", seed: int = 0) -> Certificate:
    """Certify the unique best-approximation point of statement 6:
    Y = ball(rho) and T = ball(r), where the saddle pair collapses onto
    x* = P_ball(r)(f(x*)).  The keywords are those of ``solve_prox_pair``.
    """
    return run_ba(m, Ball(m.domain_radius, m.dimension), None, r, report, mode=mode, seed=seed,
                  theorem="6")


def ba_small_radius(m: SmoothMap, epsilon: float = 0.5) -> SmallRadiusResult:
    """The radius of statement 7: requires f(0) != 0, since a fixed point at
    the origin leaves nothing to approximate from the sphere."""
    return radius_from_origin(
        m, epsilon, lambda restricted, r_star: ba_report(restricted, Ball(r_star, m.dimension)),
        "7")
