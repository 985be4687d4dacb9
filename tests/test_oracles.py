"""Brute-force oracles cross-check the solvers by an independent route."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ballsaddle import (Ball, Box, InvalidInput, NonConvergence, Payoff,
                        make_affine, make_constant, min_residual, solve_vi)
from ballsaddle.oracles import (ball_grid, fixedpoint_vi_oracle,
                                grid_saddle_oracle, grid_sigma_oracle,
                                grid_vi_oracle, set_grid, uniqueness_probe,
                                vi_violation_score)


class TestGrids:
    def test_ball_grid_membership(self):
        inside, boundary = ball_grid(2, 1.0, 51)
        assert np.all(np.linalg.norm(inside, axis=1) <= 1.0 + 1e-12)
        assert_allclose(np.linalg.norm(boundary, axis=1), 1.0, atol=1e-12)
        assert inside.shape[0] > 0 and boundary.shape[0] > 0

    def test_ball_grid_density(self):
        # every sphere point has a boundary candidate within ~2 spacings
        inside, boundary = ball_grid(2, 1.0, 101)
        spacing = 2.0 / 100
        angles = np.linspace(0, 2 * np.pi, 400, endpoint=False)
        targets = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        d = np.linalg.norm(targets[:, None, :] - boundary[None, :, :], axis=2)
        assert float(np.max(np.min(d, axis=1))) <= 2.0 * spacing

    def test_set_grid_box(self):
        g = set_grid(Box([0.0, 0.0], [1.0, 2.0]), 11)
        assert g.shape == (121, 2)
        assert np.all((g >= 0.0) & (g <= [1.0, 2.0]))

    def test_grid_cap(self):
        with pytest.raises(InvalidInput):
            set_grid(Ball(1.0, 5), 201)

    def test_grid_spec_validation(self):
        # every grid checks its resolution before dividing by ppa - 1
        with pytest.raises(InvalidInput, match="ppa"):
            grid_vi_oracle(make_constant([1.0, 0.0], 1.0), 0.5, ppa=1)
        with pytest.raises(InvalidInput, match="ppa"):
            grid_sigma_oracle(np.array([2.0, 0.0]), np.eye(2), Ball(1.0, 2), ppa=1)


class TestSaddleOracle:
    def test_bilinear_corner(self):
        # J = x y on [-0.3, 0.3] x [1, 2]: minimax at (-0.3, 1)
        p = Payoff(dimension=1, x_radius=0.3, y_set=Box([1.0], [2.0]),
                   value=lambda x, y: float(x[0] * y[0]),
                   grads=lambda x, y: (np.array([y[0]]), np.array([x[0]])))
        x_hat, y_hat, val = grid_saddle_oracle(p, 0.3, p.y_set,
                                               ppa=61)
        assert_allclose(x_hat, [-0.3], atol=1e-12)
        assert_allclose(y_hat, [1.0], atol=1e-12)
        assert_allclose(val, -0.3, atol=1e-12)

    def test_matches_solver_on_affine_instance(self):
        from ballsaddle import SaddleConfig, solve_saddle, vi_payoff
        m = make_affine(np.eye(2), [2.0, 0.0], 1.0)
        p = vi_payoff(m)
        cfg = SaddleConfig(r=0.25, T=Ball(0.25, 2), L=2.0, smoothness=5.0, tol=1e-10)
        pt = solve_saddle(p, cfg)
        x_hat, _, _ = grid_saddle_oracle(p, 0.25, Ball(0.25, 2),
                                         ppa=81,
                                         reg_weight=2.0)
        spacing = 0.5 / 80
        assert np.linalg.norm(x_hat - pt.x_star) <= 2.0 * spacing


class TestVIOracle:
    def test_affine_agrees_with_solver(self):
        m = make_affine(np.eye(2), [2.0, 0.0], 1.0)
        cert = solve_vi(m, tol=1e-10)
        cand = grid_vi_oracle(m, cert.r, ppa=201)
        spacing = 2.0 * cert.r / 200
        assert np.linalg.norm(cand - cert.x_star) <= 2.0 * spacing

    def test_constant_map_antipode(self):
        m = make_constant([3.0, 4.0], 1.0)
        cand = grid_vi_oracle(m, 0.5, ppa=201)
        assert np.linalg.norm(cand - [-0.3, -0.4]) <= 2.0 * (1.0 / 200)

    def test_violation_score_sign(self):
        m = make_affine(np.eye(2), [2.0, 0.0], 1.0)
        inside, boundary = ball_grid(2, 0.25, 101)
        xs = np.vstack([inside, boundary])
        good = vi_violation_score(m, np.array([-0.25, 0.0]), xs)
        bad = vi_violation_score(m, np.array([0.25, 0.0]), xs)
        assert good < 0 < bad


class TestFixedPoint:
    def test_agrees_with_saddle_route(self):
        m = make_affine(np.eye(2), [2.0, 0.0], 1.0)
        cert = solve_vi(m, tol=1e-10)
        fp = fixedpoint_vi_oracle(m, cert.r, step=0.2)
        assert np.linalg.norm(fp - cert.x_star) <= 1e-6

    def test_nonconvergence(self):
        # interior zero of F: geometric approach, never an exact landing
        m = make_affine(0.5 * np.eye(2), [0.05, 0.0], 1.0)
        with pytest.raises(NonConvergence) as exc:
            fixedpoint_vi_oracle(m, 1.0, step=0.2, tol=1e-14, max_iters=5)
        assert exc.value.iterations == 5

    def test_step_validation(self):
        m = make_constant([1.0, 0.0], 1.0)
        with pytest.raises(InvalidInput):
            fixedpoint_vi_oracle(m, 0.5, step=0.0)


class TestUniquenessProbe:
    def test_constant_solver_gives_zero_exactly(self):
        calls = []

        def solve_from(x0):
            calls.append(x0)
            return np.array([0.5, -0.25])

        spread = uniqueness_probe(solve_from, starts=3, seed=0, dim=2, radius=1.0)
        assert spread == 0.0
        assert len(calls) == 3

    def test_distinct_starts_spread(self):
        spread = uniqueness_probe(lambda x0: x0, starts=8, seed=1,
                                  dim=2, radius=1.0)
        assert spread > 0.1  # the identity map keeps the scatter

    def test_contraction_collapses(self):
        m = make_affine(np.eye(2), [2.0, 0.0], 1.0)

        def solve_from(x0):
            return fixedpoint_vi_oracle(m, 0.25, step=0.2, tol=1e-12)

        spread = uniqueness_probe(solve_from, starts=4, seed=0, dim=2, radius=0.25)
        assert spread <= 1e-10

    def test_starts_validation(self):
        with pytest.raises(InvalidInput):
            uniqueness_probe(lambda x0: x0, starts=1, dim=2, radius=1.0)


class TestSigmaOracle:
    def test_exact_on_affine_instance(self):
        v = grid_sigma_oracle(np.array([2.0, 0.0]), np.eye(2), Ball(1.0, 2))
        assert v == pytest.approx(1.0, abs=1e-9)

    def test_matches_solver_when_positive(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            A = rng.normal(size=(2, 2))
            b = rng.normal(size=2)
            b *= 3.2 / np.linalg.norm(b)  # keep the target out of reach
            mine = min_residual(b, A, Ball(1.0, 2)).value
            assert abs(mine - grid_sigma_oracle(b, A, Ball(1.0, 2))) <= 1e-4

    def test_box_set(self):
        # identity jacobian: the residual is the distance from b to the box
        v = grid_sigma_oracle(np.array([2.0, 0.5]), np.eye(2),
                              Box([0.0, 0.0], [1.0, 1.0]))
        assert v == pytest.approx(1.0, abs=1e-4)
