"""Evidence on the sampled audits of statements 2 and 6: perturbed stored
solutions, re-certified without a solve, are never rejected by the audit
(``vi-inequality``, ``nearest-point``) alone.

``perturbed_points`` is also the generator of the wider sweep over the
benchmark pools; see CHANGES.md for its table.
"""

import numpy as np
import pytest

from ballsaddle import Ball, make_affine, make_quadratic, solve_best_approx, solve_vi
from ballsaddle.ba import run_ba
from ballsaddle.saddle import SaddlePoint, raise_failure
from ballsaddle.vi import run_vi

AUDITS = {"vi": "vi-inequality", "best-approx": "nearest-point"}
KINDS = ("radial-in", "radial-out", "tangential", "tangential-sphere", "random")


def benchmark_map(n, seed, quadratic):
    """A map of the benchmark family: A = I + 0.3 G / sqrt(n), ||b|| = 2,
    symmetric Q_i scaled to sqrt(sum ||Q_i||^2) = 0.1, rho = 1."""
    rng = np.random.default_rng(seed)
    A = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    b = rng.standard_normal(n)
    b *= 2.0 / np.linalg.norm(b)
    if not quadratic:
        return make_affine(A, b, 1.0)
    Q = rng.standard_normal((n, n, n))
    Q = 0.5 * (Q + Q.transpose(0, 2, 1))
    Q *= 0.1 / np.sqrt(sum(np.linalg.norm(q, 2) ** 2 for q in Q))
    return make_quadratic(A, b, Q, 1.0)


def perturbed_points(x, y, r, sizes, rng):
    """(kind, size, y moved, x', y') for each perturbation kind of KINDS,
    each size, and y* either moved with x* or kept."""
    radial = x / np.linalg.norm(x)
    t = rng.standard_normal(x.size)
    t -= (t @ radial) * radial
    t /= np.linalg.norm(t)
    g = rng.standard_normal(x.size)
    g /= np.linalg.norm(g)
    for size in sizes:
        moved = {"radial-in": x - size * radial, "radial-out": x + size * radial,
                 "tangential": x + size * t,
                 "tangential-sphere": r * (x + size * t) / np.linalg.norm(x + size * t),
                 "random": x + size * g}
        for kind in KINDS:
            for move_y in (True, False):
                yield kind, size, move_y, moved[kind], y + (moved[kind] - x) if move_y else y


def recertify(m, request, cert, x, y, seed):
    """Failed check names of the stored solution (x, y) of ``cert``, put
    through the certify path of a verify: gates, no solve, certify."""
    point = SaddlePoint(x, y, cert.residual, cert.iterations, 0.0)
    if request == "vi":
        again = run_vi(m, cert.r, cert.constants, point, mode="certified", seed=seed,
                       fail=raise_failure)
    else:
        again = run_ba(m, Ball(m.domain_radius, m.dimension), None, cert.r, cert.constants,
                       point, mode="certified", seed=seed, fail=raise_failure, theorem="6")
    return again.failed_checks()


@pytest.mark.parametrize("request_type", ["vi", "best-approx"])
@pytest.mark.parametrize("n, seed, quadratic", [(4, 1, True), (4, 2, False), (8, 3, True),
                                                (8, 4, False), (32, 5, True)])
def test_the_audit_is_never_the_only_rejection(n, seed, quadratic, request_type):
    m = benchmark_map(n, seed, quadratic)
    cert = (solve_vi if request_type == "vi" else solve_best_approx)(m, seed=seed)
    assert cert.passed
    rng = np.random.default_rng(seed)
    rejected = 0
    for kind, size, move_y, x, y in perturbed_points(cert.x_star, cert.y_star, cert.r,
                                                     np.logspace(-9, -3, 7), rng):
        failed = recertify(m, request_type, cert, x, y, seed)
        assert failed != [AUDITS[request_type]], (kind, size, move_y)
        rejected += bool(failed)
    assert rejected > 0  # the largest moves are refused, by the identities or the proof
