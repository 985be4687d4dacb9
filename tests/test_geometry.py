"""Hilbert-space primitives: projections, sets, sampling."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ballsaddle import (Ball, Box, CertificationError, DimensionMismatch,
                        InvalidInput, ProjectionOracle, dist_ball, norm,
                        project_ball, sample_ball, sample_sphere)
from ballsaddle.geometry import as_point


def test_as_point_validation():
    p = as_point([1, 2, 3])
    assert p.dtype == np.float64 and p.shape == (3,)
    with pytest.raises(InvalidInput):
        as_point([1.0, np.nan])
    with pytest.raises(InvalidInput):
        as_point([[1.0, 2.0]])
    with pytest.raises(DimensionMismatch):
        as_point([1.0, 2.0], dim=3)


def test_norm():
    assert norm([3.0, 4.0]) == 5.0


def test_project_ball_inside_is_identity():
    z = np.array([0.1, -0.2])
    assert_allclose(project_ball(z, 1.0), z)


def test_project_ball_outside_lands_on_sphere():
    p = project_ball(np.array([3.0, 4.0]), 1.0)
    assert_allclose(p, [0.6, 0.8])
    assert_allclose(norm(p), 1.0)


def test_project_ball_rejects_bad_radius():
    with pytest.raises(InvalidInput):
        project_ball(np.array([1.0]), 0.0)


def test_projection_nonexpansive():
    # ||P(a) - P(b)|| <= ||a - b|| on random pairs, ball and box
    rng = np.random.default_rng(7)
    box = Box([-0.5, -1.0, 0.0], [0.5, 1.0, 2.0])
    for _ in range(1000):
        a = rng.normal(size=3) * 3.0
        b = rng.normal(size=3) * 3.0
        assert norm(project_ball(a, 1.3) - project_ball(b, 1.3)) <= norm(a - b) + 1e-12
        assert norm(box.project(a) - box.project(b)) <= norm(a - b) + 1e-12


def test_projection_characterization():
    # <z - P(z), c - P(z)> <= 0 for every c in the set
    rng = np.random.default_rng(11)
    ball = Ball(0.8, 4)
    for _ in range(200):
        z = rng.normal(size=4) * 2.0
        p = ball.project(z)
        for c in ball.sample(rng, 5):
            assert float((z - p) @ (c - p)) <= 1e-10


def test_dist_ball():
    assert dist_ball(np.array([0.2, 0.0]), 1.0) == 0.0
    assert_allclose(dist_ball(np.array([3.0, 4.0]), 1.0), 4.0)


def test_ball_set():
    B = Ball(2.0, 3)
    assert B.sup_norm() == 2.0
    rng = np.random.default_rng(0)
    pts = B.sample(rng, 500)
    assert np.all(np.linalg.norm(pts, axis=1) <= 2.0 + 1e-12)


def test_box_set():
    box = Box([-1.0, 0.0], [1.0, 3.0])
    assert box.dim == 2
    assert_allclose(box.project(np.array([5.0, -2.0])), [1.0, 0.0])
    assert_allclose(box.sup_norm(), np.hypot(1.0, 3.0))
    rng = np.random.default_rng(1)
    pts = box.sample(rng, 300)
    assert np.all(pts[:, 0] >= -1.0) and np.all(pts[:, 1] <= 3.0)


@pytest.mark.parametrize("n", [1, 3, 8, 32, 128])
def test_unchecked_projections_match_the_checked_ones(n):
    # the solver's inner loop projects without validation; the bits must
    # equal the validated projections and the formulas they replaced
    rng = np.random.default_rng(n)
    ball, box = Ball(0.7, n), Box(-0.2 * np.ones(n), 0.3 * np.ones(n))
    Z = np.vstack([rng.normal(size=(200, n)), 0.1 * rng.normal(size=(200, n)),
                   np.zeros((1, n)), -np.zeros((1, n)), ball.sample(rng, 20)])
    for z in Z:
        fast = ball.project_unchecked(z)
        nz = np.linalg.norm(z)
        assert fast.tobytes() == project_ball(z, 0.7).tobytes() == ball.project(z).tobytes()
        assert fast.tobytes() == (z if nz <= 0.7 else (0.7 / nz) * z).tobytes()
        fast = box.project_unchecked(z)
        assert fast.tobytes() == box.project(z).tobytes()
        assert fast.tobytes() == np.clip(z, box.lower, box.upper).tobytes()


def test_only_the_validated_projection_checks_its_input():
    ball, box = Ball(1.0, 2), Box([-1.0, -1.0], [1.0, 1.0])
    oracle = ProjectionOracle(lambda z: z, norm_bound=1.0, dim=2)
    for C in (ball, box, oracle):
        with pytest.raises(InvalidInput):
            C.project(np.array([np.nan, 0.0]))
    # a projection oracle keeps its checks on the unchecked path
    with pytest.raises(InvalidInput):
        oracle.project_unchecked(np.array([np.nan, 0.0]))
    assert np.isnan(ball.project_unchecked(np.array([np.nan, 0.0]))).all()
    assert np.isnan(box.project_unchecked(np.array([np.nan, 0.0]))[0])


def test_box_rejects_crossed_bounds():
    with pytest.raises(InvalidInput):
        Box([1.0, 0.0], [0.0, 1.0])


def test_projection_oracle_idempotence():
    good = ProjectionOracle(lambda z: np.clip(z, -1.0, 1.0), norm_bound=np.sqrt(2.0),
                            dim=2)
    assert_allclose(good.project(np.array([4.0, -0.5])), [1.0, -0.5])
    assert good.sup_norm() == np.sqrt(2.0)

    # a non-idempotent "projection" must be caught
    bad = ProjectionOracle(lambda z: 0.5 * z, dim=2)
    with pytest.raises(CertificationError):
        bad.project(np.array([2.0, 0.0]))


def test_projection_oracle_needs_bound_for_sup_norm():
    oracle = ProjectionOracle(lambda z: np.clip(z, -1.0, 1.0), dim=2)
    with pytest.raises(InvalidInput):
        oracle.sup_norm()


def test_sample_ball_and_sphere():
    rng = np.random.default_rng(3)
    pts = sample_ball(rng, 2000, 5, 1.5)
    r = np.linalg.norm(pts, axis=1)
    assert np.all(r <= 1.5 + 1e-12)
    # radial cdf of a uniform ball sample: median radius = (1/2)^(1/5) * 1.5
    assert abs(np.median(r) - 1.5 * 0.5 ** 0.2) < 0.05

    sph = sample_sphere(rng, 500, 3, 0.7)
    assert_allclose(np.linalg.norm(sph, axis=1), 0.7, atol=1e-12)
