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
makes the hypotheses automatic when f(0) != 0.  Both solves gate the
problem (``ba_problem``), solve (``solve_ba``), and hand the solution to
``certify_ba``, the same certify step ``verify`` runs on a stored solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import SmoothMap, ba_payoff
from .constants import ConstantsReport, ba_report
from .errors import HypothesisViolation, InvalidInput
from .geometry import Ball, Box, ConvexSet, ball_projection, dist_ball, norm, project_ball
from .saddle import (AUDIT_SAMPLES, SPHERE_TOL, UNIQUENESS_STARTS, Certificate, CheckReport,
                     SaddleChecks, SaddleConfig, SaddlePoint, ball_check_samples, by_blocks,
                     check_saddle, contraction, contraction_record, exclusion_mask,
                     failed_names, gate, probe_uniqueness, proof_record, proved_norm_floor,
                     raise_failure, refuse_sample_count, require_count, slack_report,
                     solve_saddle, sphere_fixed_point)
from .vi import COLLAPSE_TOL, SmallRadiusResult, radius_from_origin

IDENTITY_TOL = 1e-6
CONTAINMENT_TOL = 1e-9


@dataclass
class BACertificate(Certificate):
    """Certificate of statement 5 or 6: the projection identity, then the
    saddle checks (5), or the collapse, sphere membership (gated as in
    ``check_saddle``), the proved nearest-point inequality, its sampled
    audit and the distance identity (6)."""

    projection_gap: float
    saddle_checks: SaddleChecks | None = None
    collapse_gap: float | None = None
    distance_gap: float | None = None
    nearest_check: CheckReport | None = None
    proof_check = "nearest-point-proof"

    def failed_checks(self) -> list[str]:
        first, own = [("projection", self.projection_gap <= IDENTITY_TOL)], []
        if self.saddle_checks is not None:  # statement 5
            first.append(("saddle-checks", self.saddle_checks.passed))
        else:  # statement 6
            rep, gap = self.constants, abs(norm(self.x_star) - self.r)
            first += [("collapse", self.collapse_gap <= COLLAPSE_TOL),
                      ("sphere-membership", gap <= SPHERE_TOL or rep.L.value <= 0
                       or self.r > rep.r_max + 1e-12)]
            own = [("nearest-point", self.nearest_check.passed),
                   ("distance-identity", self.distance_gap <= IDENTITY_TOL)]
        return failed_names(*first) + super().failed_checks() + failed_names(*own)

    def to_dict(self):
        d = super().to_dict()
        d["residuals"]["projection_gap"] = float(self.projection_gap)
        if self.saddle_checks is not None:
            d["checks"]["saddle"] = self.saddle_checks.to_dict()
        else:
            d["residuals"].update(collapse_gap=float(self.collapse_gap),
                                  distance_gap=float(self.distance_gap))
            d["checks"]["nearest-point"] = self.nearest_check.to_dict()
        return d


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


def collapses(m: SmoothMap, Y: ConvexSet, cfg: SaddleConfig) -> bool:
    """Whether the problem ``cfg`` with dual set Y is statement 6's,
    Y = ball(rho) and T = ball(r), whose contraction proves uniqueness."""
    return (isinstance(Y, Ball) and Y.radius == m.domain_radius
            and isinstance(cfg.T, Ball) and cfg.T.radius == cfg.r)


def solve_ba(m: SmoothMap, Y: ConvexSet, cfg: SaddleConfig,
             report: ConstantsReport) -> SaddlePoint:
    """``sphere_fixed_point`` of x -> P_ball(r)(f(x)) when the problem
    ``collapses`` and its contraction is proved (certification-grade
    constants, q < 1); else the extragradient on the saddle payoff."""
    if collapses(m, Y, cfg):
        _, q = contraction(m, cfg.r, report.theta.value, cfg.r)
        if report.certified and q < 1.0:
            return sphere_fixed_point(lambda x: ball_projection(m.val(x), cfg.r), q,
                                      m.dimension, cfg)
    return solve_saddle(ba_payoff(m, Y), cfg)


def certify_ba(m: SmoothMap, Y: ConvexSet, point: SaddlePoint, cfg: SaddleConfig,
               report: ConstantsReport, *, mode: str = "certified",
               uniqueness: dict | None = None, seed: int = 0,
               theorem: str = "5") -> BACertificate:
    """The certify step of an approximation run on the problem ``cfg`` from
    ``ba_problem``.

    Measures y* = P_T(f(x*)) of ``point`` (a fresh solve or a stored
    solution).  Statement 5 adds the sampled saddle checks; statement 6 the
    collapse x* = y*, the distance identity, y-maximal in closed form, the
    proved nearest-point inequality and its audit on AUDIT_SAMPLES samples.
    Uniqueness is the probe record ``uniqueness``, or when the problem
    ``collapses`` the ``contraction_record`` of x -> P_ball(r)(f(x)), with
    the floor max(r, reach), reach = ||f(0)|| - r theta (the projection is
    1-Lipschitz, and radial beyond r).  A failed identity or check is a
    name in ``failed_checks``.

    The proof of statement 6: for a lower bound phi >= r of ||f(x*)||
    (``proved_norm_floor`` from reach), x* = r f(x*)/||f(x*)|| and f is
    theta-Lipschitz, so ||f(x) - x||^2 - ||f(x) - x*||^2 >=
    (phi/r - 2 theta) ||x - x*||^2 on ball(r).  The proof's coefficient is
    phi/r - max(1, 2 theta), which covers both conditions.
    """
    x_star, y_star, r, theta = point.x_star, point.y_star, cfg.r, report.theta.value
    collapsed = collapses(m, Y, cfg)
    if theorem == "6" and not collapsed:
        raise InvalidInput("statement 6 needs Y = ball(rho) and T = ball(r)")
    fx = m.val(x_star)
    if collapsed:
        reach, q = contraction(m, r, theta, r)
        uniqueness = contraction_record(q, norm(x_star - project_ball(fx, r)))
    cert = BACertificate(
        theorem=theorem, mode=mode, r=r, x_star=x_star, y_star=y_star,
        residual=point.residual, iterations=point.iterations,
        projection_gap=norm(y_star - cfg.T.project(fx)), constants=report,
        uniqueness=uniqueness, y_maximal_slack=None, proof=None)
    if theorem == "6":
        dist = dist_ball(fx, r)
        cert.collapse_gap, cert.distance_gap = norm(x_star - y_star), abs(norm(fx - x_star) - dist)
        # sup over y in ball(r) of J(x*, y) = ||f - x*||^2 - ||f - y||^2 less J(x*, y*)
        cert.y_maximal_slack = cfg.check_tol - (norm(fx - y_star) ** 2 - dist ** 2)
        phi = proved_norm_floor(uniqueness, theta, reach, norm(fx))
        least = max(1.0, 2.0 * theta)
        cert.proof = proof_record(uniqueness, phi, phi / r - least, phi / r + least, m.dimension)
        cert.nearest_check = check_nearest_point(
            m, x_star, r, AUDIT_SAMPLES, seed + 4,
            strict_margin=cfg.strict_margin, exclusion_factor=cfg.exclusion_factor)
    else:
        cert.saddle_checks = check_saddle(ba_payoff(m, Y), point, cfg, seed=seed + 1)
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
    of the uniqueness probe (none runs below two, nor when the problem
    ``collapses``: a contraction proves it).  ``settings`` are the run
    settings of SaddleConfig, as for ``solve_vi``.
    """
    require_count("uniqueness_starts", uniqueness_starts, 0)
    if report is None:
        report = ba_report(m, Y, seed=seed)
    cfg = ba_problem(m, Y, T, r, report, mode, seed=seed, fail=raise_failure, **settings)
    point = solve_ba(m, Y, cfg, report)
    uniq = (None if collapses(m, Y, cfg)
            else probe_uniqueness(ba_payoff(m, Y), cfg, uniqueness_starts, seed + 3))
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

    def gain(block):
        F = m.vals(block)
        return np.linalg.norm(F - block, axis=1) - np.linalg.norm(F - x_star, axis=1)
    slack = by_blocks(gain, xs) - strict_margin
    return slack_report("nearest-point", slack, xs, {"strict_margin": strict_margin,
                                                     "exclusion_radius": exclusion_factor * r})


def solve_best_approx(m: SmoothMap, r: float | None = None,
                      report: ConstantsReport | None = None, *, mode: str = "certified",
                      seed: int = 0, **settings) -> BACertificate:
    """Certify the unique best-approximation point of statement 6:
    Y = ball(rho) and T = ball(r), where the saddle pair collapses onto
    x* = P_ball(r)(f(x*)).  The keywords are those of ``solve_prox_pair``
    but the start count and ``n_samples``: uniqueness and the nearest-point
    inequality are proved, and the audit has a fixed size.
    """
    refuse_sample_count(settings)
    Y = Ball(m.domain_radius, m.dimension)
    if report is None:
        report = ba_report(m, Y, seed=seed)
    cfg = ba_problem(m, Y, None, r, report, mode, seed=seed, fail=raise_failure,
                     **settings)
    point = solve_ba(m, Y, cfg, report)
    return certify_ba(m, Y, point, cfg, report, mode=mode, seed=seed, theorem="6")


def ba_small_radius(m: SmoothMap, epsilon: float = 0.5) -> SmallRadiusResult:
    """The radius of statement 7: requires f(0) != 0, since a fixed point at
    the origin leaves nothing to approximate from the sphere."""
    return radius_from_origin(
        m, epsilon, lambda restricted, r_star: ba_report(restricted, Ball(r_star, m.dimension)))
