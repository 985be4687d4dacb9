"""Variational-inequality solutions on small balls, with certificates.

Given a C^1 map F on the ball of radius rho with sigma > 0, every radius r
up to the admissible sigma/(2M) bound carries a unique point x* on the
sphere of radius r satisfying the double strict inequality

    max{ <F(x*), x* - x>, <F(x), x* - x> } < 0   for all x in ball(r), x != x*.

The point is the fixed point of x -> -r F(x)/||F(x)||, computed by its
Banach iteration when the constants prove it a contraction, else as the
collapsed saddle point of the payoff J(x, y) = <F(x), x - y> regularized
with the weight M of the "vi" radius rule.  It is certified by the
structural identities x* = y*, F(x*) != 0 and x* antiparallel to F(x*) on
the sphere, y-maximal in closed form, the contraction that makes it unique,
the double inequality (with y* = x*, the x-strictly-minimal saddle
inequality) proved in closed form, and a sampled audit of it.
``run_vi`` is the one path of statements 2 and 4, which ``solve_vi``,
``solve_vi_shifted`` and the CLI take: it derives the report (and statement
4's shifted map), gates the problem (``saddle.gated_problem``), solves unless
given a solution (``saddle.sphere_solve``), and builds a ``saddle.Certificate``.

``solve_vi_shifted`` handles maps with vanishing Jacobian at the origin
shifted by a far-enough target w, and ``small_radius`` picks a radius that
makes the positivity hypothesis automatic when F(0) != 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import SmoothMap, shift_map, vi_payoff
from .constants import ConstantsReport, op_norm, vi_report
from .errors import HypothesisViolation, InvalidInput
from .geometry import norm
from .saddle import (AUDIT_SAMPLES, CHECK_SAMPLES, CHECK_TOL, MAP_ZERO_TOL, Certificate,
                     CheckReport, SaddlePoint, audit, gated_problem, raise_failure,
                     sphere_records, sphere_solve)

SIGMA_FLOOR_TOL = 1e-8  # rounding allowance of sigma >= sigma_floor


def check_vi(m: SmoothMap, x_star, r: float, n_samples: int = CHECK_SAMPLES,
             seed: int = 0) -> CheckReport:
    """Sampled check (``saddle.audit``) of the double strict inequality at
    x*: both inner products below -STRICT_MARGIN over ball(r), enriched with
    sphere points, axis points and the antipode of x*, outside the
    exclusion ball of radius EXCLUSION_FACTOR * r about x*."""
    x_star = np.asarray(x_star, dtype=float)
    fx = m.val(x_star)

    def gains(block, values):
        d = x_star - block
        return -np.stack([d @ fx, np.einsum("mi,mi->m", values, d)], axis=1)
    return audit("vi-double-inequality", m, x_star, r, n_samples, seed, gains,
                 forms=("worst_first_form", "worst_second_form"))


def run_vi(m: SmoothMap, r: float | None, report: ConstantsReport | None,
           point: SaddlePoint | None = None, *, mode: str, seed: int, fail=raise_failure,
           w=None) -> Certificate:
    """The one path of statements 2 and 4, which ``solve_vi``,
    ``solve_vi_shifted`` and the CLI's run and ``verify`` all take.

    Given a target ``w``, ``shift_problem`` gates statement 4's shift, whose
    map is solved and whose record labels the certificate "4".  ``report``
    (None: built) is the map's.  Gates the problem (``gated_problem``,
    failures to ``fail``), then ``sphere_solve`` of x -> -r F(x)/||F(x)||
    unless ``point`` (a stored solution) is given.  The certificate measures
    x* = y*, F(x*) != 0, x* antiparallel to F(x*) on the sphere and
    y-maximal in closed form, proves the double inequality and audits it on
    AUDIT_SAMPLES samples; a failed check is a name in ``failed_checks``.
    Its uniqueness and proof records are the ``sphere_records`` of the
    contraction, with the floor ||F(0)|| - r theta of ||F|| on ball(r) and
    the proof terms (2r, theta).

    The proof: x* = -r F(x*)/||F(x*)|| gives <F(x*), x* - x> <=
    -(||F(x*)||/2r) ||x - x*||^2 on ball(r), and F is theta-Lipschitz, so
    both forms are at most -(phi/2r - theta) ||x - x*||^2 for any lower
    bound phi of ||F(x*)||, such as the records' phi_lower.
    """
    record = {}
    if w is not None:  # statement 4 solves the shifted map
        m, shifted_report, record = shift_problem(m, w, seed=seed, fail=fail)
    report = report or (shifted_report if record else vi_report(m, seed=seed))
    cfg = gated_problem(m, report, r, mode, fail=fail)
    r, theta = cfg.r, report.theta.value

    def toward_sphere(x):  # -r F(x)/||F(x)||, NaN where undefined: the step check names it
        fx = m.val(x)
        nf = math.sqrt(fx @ fx)
        return fx * (-r / nf) if 0.0 < nf < math.inf else fx * math.nan
    point, contracted = sphere_solve(m, toward_sphere, -np.inf, lambda: vi_payoff(m), cfg,
                                     report, point)
    x_star, y_star = point.x_star, point.y_star
    fx = m.val(x_star)
    map_norm = norm(fx)
    direction_gap = norm(x_star + (r / map_norm) * fx) if map_norm > 0.0 else np.inf
    uniqueness, proof = sphere_records(contracted, theta, direction_gap, map_norm,
                                       (2.0 * r, theta), m.dimension)
    return Certificate(
        theorem="4" if record else "2", mode=mode, r=r, x_star=x_star, y_star=y_star,
        residual=point.residual, iterations=point.iterations,
        collapse_gap=norm(x_star - y_star), map_norm=map_norm,
        direction_gap=direction_gap, constants=report,
        vi_check=check_vi(m, x_star, r, AUDIT_SAMPLES, seed + 2),
        # sup of J(x*, .) over ball(r) less J(x*, y*) is <F(x*), y*> + r ||F(x*)||
        y_maximal_slack=CHECK_TOL - float(fx @ y_star) - r * map_norm,
        uniqueness=uniqueness, proof=proof, gate=record)


def solve_vi(m: SmoothMap, r: float | None = None,
             report: ConstantsReport | None = None, *, mode: str = "certified",
             seed: int = 0) -> Certificate:
    """Solve and certify the variational inequality on ball(r) (``run_vi``).

    ``r`` defaults to the admissible radius.  In certified mode the
    constants must be certification grade and r must respect the admissible
    radius; heuristic mode skips both gates and watermarks the certificate.
    """
    return run_vi(m, r, report, mode=mode, seed=seed)


def shift_problem(m: SmoothMap, w, *, seed: int = 0, fail=raise_failure):
    """(shifted map x -> m(x) - w, its constants report, gate record) of
    statement 4.

    The Jacobian of ``m`` must vanish at the origin and ||w - m(0)|| must
    reach 2 M1 rho with M1 = 2 (theta1 + rho gamma1); a shortfall goes to
    ``fail`` with the deficit.  The shift leaves the Jacobian alone, so M1
    is the M of the shifted report.
    """
    w = np.asarray(w, dtype=float)
    zero = np.zeros(m.dimension)
    jac0_norm = op_norm(m.jac(zero))
    if jac0_norm > 1e-10:
        fail("shift-jacobian", HypothesisViolation(
            f"the Jacobian at the origin must vanish (norm {jac0_norm:.2e})",
            deficit=jac0_norm))
    shifted = shift_map(m, w)
    report = vi_report(shifted, seed=seed)
    threshold = 2.0 * report.M.value * m.domain_radius
    gap = norm(w - m.val(zero))
    deficit = threshold - gap
    if deficit > 0.0:
        fail("shift-threshold", HypothesisViolation(
            f"||w - value(0)|| = {gap} is below the threshold {threshold}",
            deficit=deficit))
    record = {"M1": float(report.M.value), "threshold": float(threshold),
              "shift_gap": float(gap), "deficit": float(max(deficit, 0.0)),
              "jacobian_origin_norm": float(jac0_norm)}
    return shifted, report, record


def solve_vi_shifted(m: SmoothMap, w, r: float | None = None, *, seed: int = 0,
                     mode: str = "certified") -> Certificate:
    """Variational inequality for x -> m(x) - w when the Jacobian of ``m``
    vanishes at the origin (see ``shift_problem`` for the gate).  Every
    radius up to rho is then admissible for the shifted map.  ``mode`` is
    that of ``solve_vi``."""
    return run_vi(m, r, None, mode=mode, seed=seed, w=w)


@dataclass(frozen=True)
class SmallRadiusResult:
    """A radius certified from the origin data alone, plus the constants of
    the map restricted to that ball, for statement ``theorem``, 3 or 7.
    ``failed_checks`` names ``sigma-floor`` when the report's sigma falls
    below the floor eps ||m(0)|| by more than SIGMA_FLOOR_TOL."""

    r_star: float
    epsilon: float
    sigma_floor: float
    report: ConstantsReport
    map: SmoothMap
    theorem: str

    def failed_checks(self) -> list[str]:
        held = self.report.sigma.value >= self.sigma_floor - SIGMA_FLOOR_TOL
        return [] if held else ["sigma-floor"]

    def to_dict(self):
        return {"r_star": float(self.r_star), "epsilon": float(self.epsilon),
                "sigma_floor": float(self.sigma_floor),
                "constants": self.report.to_dict()}


def radius_from_origin(m: SmoothMap, epsilon: float, report_of,
                       theorem: str) -> SmallRadiusResult:
    """r* = min(rho, (1 - eps) ||m(0)|| / ||jac(0)||) and the constants
    report ``report_of(restricted map, r*)`` of the map restricted to
    ball(r*), whose sigma is then at least eps * ||m(0)|| > 0, for
    statement ``theorem``."""
    if not (0.0 < epsilon < 1.0):
        raise InvalidInput(f"epsilon must lie in (0, 1), got {epsilon}")
    zero = np.zeros(m.dimension)
    v0 = norm(m.val(zero))
    if v0 <= MAP_ZERO_TOL:
        raise HypothesisViolation(
            "the map vanishes at the origin; no positive radius can be certified")
    j0 = op_norm(m.jac(zero))
    r_star = min(m.domain_radius, (1.0 - epsilon) * v0 / max(j0, 1e-12))
    restricted = m.restrict(r_star)
    return SmallRadiusResult(r_star=float(r_star), epsilon=float(epsilon),
                             sigma_floor=float(epsilon * v0),
                             report=report_of(restricted, r_star), map=restricted,
                             theorem=theorem)


def small_radius(m: SmoothMap, epsilon: float = 0.5) -> SmallRadiusResult:
    """The radius of statement 3: requires m(0) != 0, which turns
    nonvanishing at the origin into a certified variational inequality on
    the sphere of any r <= r*."""
    return radius_from_origin(m, epsilon, lambda restricted, r_star: vi_report(restricted), "3")
