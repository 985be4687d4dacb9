"""Variational-inequality solutions on small balls, with certificates.

Given a C^1 map F on the ball of radius rho with sigma > 0, every radius r
up to the admissible sigma/(2M) bound carries a unique point x* on the
sphere of radius r satisfying the double strict inequality

    max{ <F(x*), x* - x>, <F(x), x* - x> } < 0   for all x in ball(r), x != x*.

The point is the fixed point of x -> -r F(x)/||F(x)||, computed by its
Banach iteration when the constants prove it a contraction, else as the
collapsed saddle point of the payoff J(x, y) = <F(x), x - y> regularized
with weight L = M.  It is certified by the structural identities x* = y*,
F(x*) != 0 and x* antiparallel to F(x*) on the sphere, y-maximal in closed
form, the contraction that makes it unique, the double inequality (with
y* = x*, the x-strictly-minimal saddle inequality) proved in closed form,
and a sampled audit of it.
``solve_vi`` gates the problem (``vi_problem``), solves, and hands the
solution to ``certify_vi``, the same certify step ``verify`` runs on a
stored solution.

``solve_vi_shifted`` handles maps with vanishing Jacobian at the origin
shifted by a far-enough target w, and ``small_radius`` picks a radius that
makes the positivity hypothesis automatic when F(0) != 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .catalog import SmoothMap, shift_map, vi_payoff
from .constants import ConstantsReport, op_norm, vi_report
from .errors import HypothesisViolation, InvalidInput
from .geometry import Ball, norm
from .saddle import (AUDIT_SAMPLES, Certificate, CheckReport, SaddleConfig, SaddlePoint,
                     ball_check_samples, by_blocks, contraction, contraction_record,
                     exclusion_mask, failed_names, gate, proof_record, proved_norm_floor,
                     raise_failure, refuse_sample_count, slack_report, solve_saddle,
                     sphere_fixed_point)

COLLAPSE_TOL = 1e-6
DIRECTION_TOL = 1e-6
MAP_ZERO_TOL = 1e-9


@dataclass
class VICertificate(Certificate):
    """Certificate of statement 2 or 4: the structural identities, the
    proved double inequality and its sampled audit and, for statement 4,
    the shift gate record."""

    collapse_gap: float
    map_norm: float
    direction_gap: float
    vi_check: CheckReport
    gate: dict = field(default_factory=dict)
    proof_check = "vi-inequality-proof"

    def failed_checks(self) -> list[str]:
        return (failed_names(("collapse", self.collapse_gap <= COLLAPSE_TOL),
                             ("map-nonzero", self.map_norm > MAP_ZERO_TOL))
                + super().failed_checks()
                + failed_names(("vi-inequality", self.vi_check.passed),
                               ("direction", self.direction_gap <= DIRECTION_TOL)))

    def to_dict(self):
        d = super().to_dict()
        d["residuals"].update(collapse_gap=float(self.collapse_gap),
                              direction_gap=float(self.direction_gap),
                              map_norm=float(self.map_norm))
        d["checks"]["vi"] = self.vi_check.to_dict()
        d["gate"] = self.gate
        return d


def check_vi(m: SmoothMap, x_star, r: float, n_samples: int = SaddleConfig.n_samples,
             seed: int = 0, strict_margin: float = SaddleConfig.strict_margin,
             exclusion_factor: float = SaddleConfig.exclusion_factor) -> CheckReport:
    """Sampled check of the double strict inequality at x*.

    Samples ball(r) (enriched with sphere points, axis points and the
    antipode of x*), excludes a ball of radius exclusion_factor * r around
    x*, and requires both inner products below -strict_margin everywhere.
    The defaults are SaddleConfig's.
    """
    x_star = np.asarray(x_star, dtype=float)
    rng = np.random.default_rng(seed)
    xs = ball_check_samples(rng, n_samples, m.dimension, r, x_star)
    xs = xs[exclusion_mask(xs, x_star, r, exclusion_factor)]
    fx = m.val(x_star)

    def forms(block):
        d = x_star - block
        return np.stack([d @ fx, np.einsum("mi,mi->m", m.vals(block), d)], axis=1)
    first, second = by_blocks(forms, xs).T
    return slack_report("vi-double-inequality", -np.maximum(first, second) - strict_margin, xs,
                        {"strict_margin": strict_margin,
                         "exclusion_radius": exclusion_factor * r,
                         "worst_first_form": float(np.max(first)),
                         "worst_second_form": float(np.max(second))})


def vi_problem(m: SmoothMap, r: float | None, report: ConstantsReport,
               mode: str = "certified", *, fail=raise_failure, **settings) -> SaddleConfig:
    """The gated saddle problem of a VI run: ``gate`` on the report, then
    T = ball(r), the regularization weight L = M and the smoothness
    2 M + theta.  ``settings`` are the run settings of SaddleConfig but
    ``n_samples`` (see ``refuse_sample_count``)."""
    refuse_sample_count(settings)
    r = gate(report, r, mode, m.domain_radius, fail)
    M = report.M.value
    return SaddleConfig(r=r, T=Ball(r, m.dimension), L=M,
                        smoothness=2.0 * M + report.theta.value,
                        r_max=report.r_max, **settings)


def certify_vi(m: SmoothMap, point: SaddlePoint, cfg: SaddleConfig,
               report: ConstantsReport, *, mode: str = "certified",
               seed: int = 0) -> VICertificate:
    """The certify step of a VI run on the problem ``cfg`` from ``vi_problem``;
    the certificate is labeled statement 2 (``solve_vi_shifted`` relabels it).

    Measures the structural identities of ``point`` (a fresh solve or a
    stored solution): x* = y*, F(x*) != 0, x* antiparallel to F(x*) on the
    sphere and y-maximal in closed form; then proves the double inequality
    and audits it on AUDIT_SAMPLES samples.  It never raises on a failed
    check: the gates ran in ``vi_problem``, and a failed identity or check
    is a name in ``failed_checks``.  Uniqueness is the
    ``contraction_record`` of x -> -r F(x)/||F(x)||, with the floor
    ||F(0)|| - r theta of ||F|| on ball(r).

    The proof: x* = -r F(x*)/||F(x*)|| gives <F(x*), x* - x> <=
    -(||F(x*)||/2r) ||x - x*||^2 on ball(r), and F is theta-Lipschitz, so
    both forms are at most -(phi/2r - theta) ||x - x*||^2 for any lower
    bound phi of ||F(x*)|| (``proved_norm_floor``).
    """
    x_star, r, theta = point.x_star, cfg.r, report.theta.value
    fx = m.val(x_star)
    map_norm = norm(fx)
    direction_gap = norm(x_star + (r / map_norm) * fx) if map_norm > 0.0 else np.inf
    floor, q = contraction(m, r, theta)
    uniqueness = contraction_record(q, direction_gap)
    phi = proved_norm_floor(uniqueness, theta, floor, map_norm)
    return VICertificate(
        theorem="2", mode=mode, r=r, x_star=x_star, y_star=point.y_star,
        residual=point.residual, iterations=point.iterations,
        collapse_gap=norm(x_star - point.y_star), map_norm=map_norm,
        direction_gap=direction_gap, constants=report,
        vi_check=check_vi(m, x_star, r, AUDIT_SAMPLES, seed + 2,
                          strict_margin=cfg.strict_margin,
                          exclusion_factor=cfg.exclusion_factor),
        # sup of J(x*, .) over ball(r) less J(x*, y*) is <F(x*), y*> + r ||F(x*)||
        y_maximal_slack=cfg.check_tol - float(fx @ point.y_star) - r * map_norm,
        uniqueness=uniqueness,
        proof=proof_record(uniqueness, phi, phi / (2.0 * r) - theta, phi / (2.0 * r) + theta,
                           m.dimension))


def solve_vi(m: SmoothMap, r: float | None = None,
             report: ConstantsReport | None = None, *, mode: str = "certified",
             seed: int = 0, **settings) -> VICertificate:
    """Solve and certify the variational inequality on ball(r).

    ``r`` defaults to the admissible radius.  In certified mode the
    constants must be certification grade and r must respect the admissible
    radius; heuristic mode skips both gates and watermarks the certificate.
    ``settings`` are the run settings of SaddleConfig (``tol``,
    ``strict_margin``, ...), which holds their defaults; ``n_samples`` is
    refused, since the inequality is proved and the audit has a fixed size.
    The solve is ``sphere_fixed_point`` when the constants are certification
    grade and ``contraction`` gives q < 1, else the extragradient.
    """
    if report is None:
        report = vi_report(m, seed=seed)
    cfg = vi_problem(m, r, report, mode, fail=raise_failure, **settings)
    _, q = contraction(m, cfg.r, report.theta.value)
    if report.certified and q < 1.0:
        def toward_sphere(x):  # -r F(x)/||F(x)||, NaN where undefined: the step check names it
            fx = m.val(x)
            nf = math.sqrt(fx @ fx)
            return fx * (-cfg.r / nf) if 0.0 < nf < math.inf else fx * math.nan
        point = sphere_fixed_point(toward_sphere, q, m.dimension, cfg)
    else:
        point = solve_saddle(vi_payoff(m), cfg)
    return certify_vi(m, point, cfg, report, mode=mode, seed=seed)


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
                     **kw) -> VICertificate:
    """Variational inequality for x -> m(x) - w when the Jacobian of ``m``
    vanishes at the origin (see ``shift_problem`` for the gate).  Every
    radius up to rho is then admissible for the shifted map.  ``kw`` are
    the keywords of ``solve_vi``.
    """
    shifted, report, record = shift_problem(m, w, seed=seed)
    cert = solve_vi(shifted, r, report, seed=seed, **kw)
    cert.theorem, cert.gate = "4", record
    return cert


@dataclass(frozen=True)
class SmallRadiusResult:
    """A radius certified from the origin data alone, plus the constants of
    the map restricted to that ball."""

    r_star: float
    epsilon: float
    sigma_floor: float
    report: ConstantsReport
    map: SmoothMap

    def to_dict(self):
        return {"r_star": float(self.r_star), "epsilon": float(self.epsilon),
                "sigma_floor": float(self.sigma_floor),
                "constants": self.report.to_dict()}


def radius_from_origin(m: SmoothMap, epsilon: float, report_of) -> SmallRadiusResult:
    """r* = min(rho, (1 - eps) ||m(0)|| / ||jac(0)||) and the constants
    report ``report_of(restricted map, r*)`` of the map restricted to
    ball(r*), whose sigma is then at least eps * ||m(0)|| > 0."""
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
                             report=report_of(restricted, r_star), map=restricted)


def small_radius(m: SmoothMap, epsilon: float = 0.5) -> SmallRadiusResult:
    """The radius of statement 3: requires m(0) != 0, which turns
    nonvanishing at the origin into a certified variational inequality on
    the sphere of any r <= r*."""
    return radius_from_origin(m, epsilon, lambda restricted, r_star: vi_report(restricted))
