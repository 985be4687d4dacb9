"""Best-approximation points and prox pairs for maps on small balls.

For a C^1 map f on ball(rho) and bounded closed convex Y, the payoff

    J(x, y) = ||f(x) - x||^2 - ||f(x) - y||^2

has a saddle pair (x*, y*) on sphere(r) x T for every r up to the
admissible radius, with y* = P_T(f(x*)).  When Y = ball(rho) and
T = ball(r) the pair collapses to a single x* that is simultaneously the
unique nearest point of ball(r) to its own image:

    ||f(x*) - x*|| = dist(f(x*), ball(r)),
    ||f(x) - x*||  < ||f(x) - x||   for every other x in ball(r).

``solve_prox_pair`` certifies the general pair and probes its uniqueness;
``solve_best_approx`` adds the collapse and nearest-point conclusions and
proves uniqueness; ``ba_small_radius`` picks a
radius that makes the hypotheses automatic when f(0) != 0.  Both solves
gate the problem (``ba_problem``), solve, and hand the solution to
``certify_ba``, the same certify step ``verify`` runs on a stored solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import SmoothMap, ba_payoff
from .constants import ConstantsReport, ba_report
from .errors import HypothesisViolation
from .geometry import Ball, ConvexSet, dist_ball, norm, project_ball
from .saddle import (UNIQUENESS_STARTS, Certificate, CheckReport, SaddleConfig, SaddlePoint,
                     ball_check_samples, check_saddle, contraction_record, exclusion_mask,
                     failed_names, gate, probe_uniqueness, raise_failure, require_count,
                     slack_report, solve_saddle)
from .vi import COLLAPSE_TOL, SmallRadiusResult, radius_from_origin

IDENTITY_TOL = 1e-6
CONTAINMENT_TOL = 1e-9


@dataclass
class BACertificate(Certificate):
    """Certificate of statement 5 or 6: the projection identity and, for
    statement 6 only, the collapse, the distance identity and the
    nearest-point check."""

    projection_gap: float
    collapse_gap: float | None = None
    distance_gap: float | None = None
    nearest_check: CheckReport | None = None

    def failed_checks(self) -> list[str]:
        identities, own = [("projection", self.projection_gap <= IDENTITY_TOL)], []
        if self.nearest_check is not None:  # statement 6
            identities.append(("collapse", self.collapse_gap <= COLLAPSE_TOL))
            own = [("nearest-point", self.nearest_check.passed),
                   ("distance-identity", self.distance_gap <= IDENTITY_TOL)]
        return failed_names(*identities) + super().failed_checks() + failed_names(*own)

    def to_dict(self):
        d = super().to_dict()
        d["residuals"]["projection_gap"] = float(self.projection_gap)
        if self.nearest_check is not None:
            d["residuals"].update(collapse_gap=float(self.collapse_gap),
                                  distance_gap=float(self.distance_gap))
            d["checks"]["nearest-point"] = self.nearest_check.to_dict()
        return d


def _containment_check(T: ConvexSet, Y: ConvexSet, seed: int, fail, n: int = 128):
    if isinstance(T, Ball) and isinstance(Y, Ball) and T.radius <= Y.radius:
        return
    rng = np.random.default_rng(seed)
    for t in T.sample(rng, n):
        gap = norm(Y.project(t) - t)
        if gap > CONTAINMENT_TOL:
            fail("containment", HypothesisViolation(
                f"T must be contained in Y; a sampled point of T projects {gap:.2e} away"))
            return


def ba_problem(m: SmoothMap, Y: ConvexSet, T: ConvexSet | None, r: float | None,
               report: ConstantsReport, mode: str = "certified", *, seed: int = 0,
               fail=raise_failure, **settings) -> SaddleConfig:
    """The gated saddle problem of an approximation run: ``gate`` on the
    report, T (ball(r) when None) contained in Y, the regularization weight
    L and the smoothness 2 L + theta.  ``settings`` are the run settings of
    SaddleConfig."""
    r = gate(report, r, mode, m.domain_radius, fail)
    T = Ball(r, m.dimension) if T is None else T
    _containment_check(T, Y, seed + 7, fail)
    L = report.L.value
    return SaddleConfig(r=r, T=T, L=L, smoothness=2.0 * L + report.theta.value,
                        r_max=report.r_max, **settings)


def certify_ba(m: SmoothMap, Y: ConvexSet, point: SaddlePoint, cfg: SaddleConfig,
               report: ConstantsReport, *, mode: str = "certified",
               uniqueness: dict | None = None, seed: int = 0,
               theorem: str = "5") -> BACertificate:
    """The certify step of an approximation run on the problem ``cfg`` from
    ``ba_problem``.

    Measures y* = P_T(f(x*)) and runs the sampled saddle checks of
    ``point`` (a fresh solve or a stored solution).  Statement 6 adds the
    collapse x* = y*, the distance identity, the sampled nearest-point
    check and the ``contraction_record`` of x -> P_ball(r)(f(x)), with the
    floor max(r, ||f(0)|| - r theta) (the projection is 1-Lipschitz, and
    radial beyond r).  It never raises on a failed check: the gates ran in
    ``ba_problem``, and a failed identity or check is a name in
    ``failed_checks``.  ``uniqueness`` is the probe record of statement 5.
    """
    x_star, y_star, r = point.x_star, point.y_star, cfg.r
    projection_gap = norm(y_star - cfg.T.project(m.val(x_star)))
    schecks = check_saddle(ba_payoff(m, Y), point, cfg, seed=seed + 1)
    cert = BACertificate(
        theorem=theorem, mode=mode, r=r, x_star=x_star, y_star=y_star,
        residual=point.residual, iterations=point.iterations,
        projection_gap=float(projection_gap), constants=report,
        saddle_checks=schecks, uniqueness=uniqueness)
    if theorem == "6":
        cert.collapse_gap = float(norm(x_star - y_star))
        fx = m.val(x_star)
        cert.distance_gap = float(abs(norm(fx - x_star) - dist_ball(fx, r)))
        cert.nearest_check = check_nearest_point(
            m, x_star, r, cfg.n_samples, seed + 4,
            strict_margin=cfg.strict_margin, exclusion_factor=cfg.exclusion_factor)
        reach = norm(m.val(np.zeros(m.dimension))) - r * report.theta.value
        cert.uniqueness = contraction_record(r, report.theta.value, max(r, reach),
                                             norm(x_star - project_ball(fx, r)))
    return cert


def solve_prox_pair(m: SmoothMap, Y: ConvexSet, T: ConvexSet | None,
                    r: float | None = None, report: ConstantsReport | None = None,
                    *, mode: str = "certified", seed: int = 0,
                    uniqueness_starts: int = UNIQUENESS_STARTS, **settings) -> BACertificate:
    """Solve and certify the saddle pair of statement 5: the approximation
    payoff on ball(r) x T, with y* the projection of f(x*) onto T.

    ``r`` defaults to the admissible radius sigma / L and ``T`` (None) to
    ball(r).  Certified mode requires certification-grade constants and r
    within the admissible radius.  ``uniqueness_starts`` counts the starts
    of the uniqueness probe (none runs below two).  ``settings`` (``tol``,
    ``max_iters``, ``check_tol``, ``strict_margin``, ``exclusion_factor``,
    ``n_samples``) go to SaddleConfig, which holds their defaults.
    """
    require_count("uniqueness_starts", uniqueness_starts, 0)
    if report is None:
        report = ba_report(m, Y, seed=seed)
    cfg = ba_problem(m, Y, T, r, report, mode, seed=seed, fail=raise_failure, **settings)
    payoff = ba_payoff(m, Y)
    point = solve_saddle(payoff, cfg)
    uniq = probe_uniqueness(payoff, cfg, uniqueness_starts, seed + 3)
    return certify_ba(m, Y, point, cfg, report, mode=mode, uniqueness=uniq, seed=seed)


def check_nearest_point(m: SmoothMap, x_star, r: float,
                        n_samples: int = SaddleConfig.n_samples, seed: int = 0,
                        strict_margin: float = SaddleConfig.strict_margin,
                        exclusion_factor: float = SaddleConfig.exclusion_factor) -> CheckReport:
    """Sampled check that x* is strictly closer to every image f(x) than x
    itself is, over ball(r) outside the exclusion ball.  The defaults are
    SaddleConfig's."""
    x_star = np.asarray(x_star, dtype=float)
    rng = np.random.default_rng(seed)
    xs = ball_check_samples(rng, n_samples, m.dimension, r, x_star)
    xs = xs[exclusion_mask(xs, x_star, r, exclusion_factor)]
    F = m.vals(xs)
    slack = np.linalg.norm(F - xs, axis=1) - np.linalg.norm(F - x_star, axis=1) - strict_margin
    return slack_report("nearest-point", slack, xs, {"strict_margin": strict_margin,
                                                     "exclusion_radius": exclusion_factor * r})


def solve_best_approx(m: SmoothMap, r: float | None = None,
                      report: ConstantsReport | None = None, *, mode: str = "certified",
                      seed: int = 0, **settings) -> BACertificate:
    """Certify the unique best-approximation point of statement 6:
    Y = ball(rho) and T = ball(r), where the saddle pair collapses onto
    x* = P_ball(r)(f(x*)).  The keywords are those of ``solve_prox_pair``
    but the start count: uniqueness is proved, not probed.
    """
    Y = Ball(m.domain_radius, m.dimension)
    if report is None:
        report = ba_report(m, Y, seed=seed)
    cfg = ba_problem(m, Y, None, r, report, mode, seed=seed, fail=raise_failure,
                     **settings)
    point = solve_saddle(ba_payoff(m, Y), cfg)
    return certify_ba(m, Y, point, cfg, report, mode=mode, seed=seed, theorem="6")


def ba_small_radius(m: SmoothMap, epsilon: float = 0.5) -> SmallRadiusResult:
    """The radius of statement 7: requires f(0) != 0, since a fixed point at
    the origin leaves nothing to approximate from the sphere."""
    return radius_from_origin(
        m, epsilon, lambda restricted, r_star: ba_report(restricted, Ball(r_star, m.dimension)))
