"""Extragradient solver and sampled saddle certification."""

import dataclasses
import inspect

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ballsaddle import (Ball, Box, InvalidInput, NonConvergence, Payoff,
                        SaddleConfig, SaddlePoint, ba_report, check_nearest_point,
                        check_saddle, check_vi, make_constant, map_from_dict,
                        phi_value_grad, solve_saddle, vi_payoff, vi_report)
from ballsaddle.ba import ba_problem, solve_prox_pair
from ballsaddle import saddle as saddle_module
from ballsaddle.cli import DEFAULT_TOLERANCES, RunConfig, _saddle_problem, parse_config
from ballsaddle.saddle import UNIQUENESS_STARTS, probe_uniqueness
from ballsaddle.vi import vi_problem


def linear_payoff(c, rho, y_set):
    """J(x, y) = <c, x>, independent of y."""
    c = np.asarray(c, dtype=float)
    return Payoff(
        dimension=c.size, x_radius=rho, y_set=y_set,
        value=lambda x, y: float(c @ x),
        grad_x=lambda x, y: c.copy(),
        grad_y=lambda x, y: np.zeros_like(c))


def bilinear_1d():
    """J(x, y) = x y on [-0.3, 0.3] x [1, 2]."""
    return Payoff(
        dimension=1, x_radius=0.3, y_set=Box([1.0], [2.0]),
        value=lambda x, y: float(x[0] * y[0]),
        grad_x=lambda x, y: np.array([y[0]]),
        grad_y=lambda x, y: np.array([x[0]]))


class TestConfig:
    @pytest.mark.parametrize("smoothness, step", [(2.5, 0.2), (0.0, 1.0)])
    def test_step_from_smoothness(self, smoothness, step):
        # zero smoothness takes the unit step
        assert SaddleConfig(r=0.5, T=Ball(1.0, 2), L=0.0, smoothness=smoothness).step == step

    def test_step_is_not_a_setting(self):
        with pytest.raises(TypeError):
            SaddleConfig(r=0.5, T=Ball(1.0, 2), L=0.0, smoothness=1.0, step=0.1)
        with pytest.raises(TypeError):
            SaddleConfig(r=0.5, T=Ball(1.0, 2), L=0.0)  # smoothness is required
        cfg = SaddleConfig(r=0.5, T=Ball(1.0, 2), L=0.0, smoothness=1.0)
        with pytest.raises(AttributeError):
            cfg.step = 0.1

    @pytest.mark.parametrize("smoothness", [-1.0, np.inf, np.nan])
    def test_bad_smoothness_rejected(self, smoothness):
        with pytest.raises(InvalidInput, match="smoothness"):
            SaddleConfig(r=0.5, T=Ball(1.0, 2), L=0.0, smoothness=smoothness)

    @pytest.mark.parametrize("setting, value", [
        ("tol", np.nan), ("tol", np.inf), ("check_tol", np.nan), ("check_tol", np.inf),
        ("check_tol", -1e-8), ("strict_margin", -1e-3), ("strict_margin", np.nan),
        ("strict_margin", 0.0), ("max_iters", 50.0), ("max_iters", True)])
    def test_bad_solver_setting_rejected(self, setting, value):
        # tol = nan ran to the iteration cap, tol = inf returned the unsolved
        # start, max_iters = 50.0 failed inside range() and a negative
        # strict_margin passed a non-minimal x*
        with pytest.raises(InvalidInput, match=setting):
            SaddleConfig(r=0.5, T=Ball(1.0, 2), L=0.0, smoothness=1.0, **{setting: value})

    def test_settings_are_declared_once(self):
        # the standalone audits and the command line take SaddleConfig's defaults
        for audit in (check_vi, check_nearest_point):
            params = inspect.signature(audit).parameters
            for name in ("n_samples", "strict_margin", "exclusion_factor"):
                assert params[name].default == getattr(SaddleConfig, name)
        run = RunConfig(command="vi", problem={})
        assert run.n_samples == SaddleConfig.n_samples
        # the start count is a setting of the prox-pair probe only
        starts = inspect.signature(solve_prox_pair).parameters["uniqueness_starts"].default
        assert run.uniqueness_starts == starts == UNIQUENESS_STARTS
        assert DEFAULT_TOLERANCES == {
            "solve": SaddleConfig.tol, "check": SaddleConfig.check_tol,
            "strict_margin": SaddleConfig.strict_margin,
            "exclusion_factor": SaddleConfig.exclusion_factor}

    @pytest.mark.parametrize("kind", ["affine", "quadratic"])
    def test_builders_take_the_step_from_the_report(self, kind):
        # every builder's step is 1 / (2 (2 weight + theta)), the weight being
        # the report's M (VI payoff) or L (approximation payoff)
        rng = np.random.default_rng(3)
        problem = {"kind": kind, "A": (np.eye(3) + 0.3 * rng.normal(size=(3, 3))).tolist(),
                   "b": [2.0, 0.5, 0.0], "rho": 1.0}
        if kind == "quadratic":
            Q = 0.05 * rng.normal(size=(3, 3, 3))
            problem["Q"] = (Q + Q.transpose(0, 2, 1)).tolist()
        m = map_from_dict(problem)

        def step(weight, report):
            return 1.0 / (2.0 * (2.0 * weight.value + report.theta.value))

        rep = vi_report(m)
        assert vi_problem(m, None, rep).step == step(rep.M, rep)
        Y = Ball(1.0, 3)
        rep = ba_report(m, Y)
        assert ba_problem(m, Y, None, None, rep).step == step(rep.L, rep)
        for payoff in ("vi", "ba"):
            cfg = parse_config({"problem": problem, "payoff": payoff}, "saddle")
            _, scfg, rep = _saddle_problem(cfg, m)
            assert scfg.step == step(rep.L, rep)


class TestSolve:
    def test_constant_map_payoff(self):
        # J(x, y) = <c, x - y> with c = (3, 4): min over ball(0.5) sits at
        # -0.5 c / |c|
        p = vi_payoff(make_constant([3.0, 4.0], 1.0))
        cfg = SaddleConfig(r=0.5, T=Ball(1.0, 2), L=0.0, smoothness=0.0, tol=1e-10)
        pt = solve_saddle(p, cfg)
        assert_allclose(pt.x_star, [-0.3, -0.4], atol=1e-8)
        assert pt.residual <= 1e-10

    def test_bilinear_corner(self):
        p = bilinear_1d()
        cfg = SaddleConfig(r=0.3, T=p.y_set, L=0.0, smoothness=1.0, tol=1e-10)
        pt = solve_saddle(p, cfg)
        assert_allclose(pt.x_star, [-0.3], atol=1e-8)
        assert_allclose(pt.y_star, [1.0], atol=1e-8)

    def test_regularized_interior_minimum(self):
        # phi = 0.5 |x|^2 + <b, x>: unconstrained minimum -b, interior here
        b = np.array([0.4, -0.2])
        p = linear_payoff(b, 1.0, Ball(1.0, 2))
        cfg = SaddleConfig(r=1.0, T=Ball(1.0, 2), L=1.0, smoothness=1.0, tol=1e-10)
        pt = solve_saddle(p, cfg)
        assert_allclose(pt.x_star, -b, atol=1e-8)

    def test_constant_gradient_unit_step(self):
        # zero smoothness: the default step is the unit fallback
        p = linear_payoff([1.0, 0.0], 1.0, Ball(1.0, 2))
        cfg = SaddleConfig(r=0.5, T=Ball(1.0, 2), L=0.0, smoothness=0.0)
        pt = solve_saddle(p, cfg)
        assert pt.step == 1.0
        assert_allclose(pt.x_star, [-0.5, 0.0], atol=1e-7)

    def test_custom_start_same_answer(self):
        p = vi_payoff(make_constant([3.0, 4.0], 1.0))
        cfg = SaddleConfig(r=0.5, T=Ball(1.0, 2), L=0.0, smoothness=0.0, tol=1e-10)
        a = solve_saddle(p, cfg)
        b = solve_saddle(p, cfg, x0=[0.2, -0.1], y0=[0.5, 0.5])
        assert_allclose(a.x_star, b.x_star, atol=1e-8)

    def test_determinism(self):
        p = bilinear_1d()
        cfg = SaddleConfig(r=0.3, T=p.y_set, L=0.0, smoothness=1.0, tol=1e-10)
        a = solve_saddle(p, cfg)
        b = solve_saddle(p, cfg)
        assert a.x_star.tobytes() == b.x_star.tobytes()
        assert a.iterations == b.iterations and a.residual == b.residual

    def test_nonconvergence_carries_residual(self):
        # geometric convergence cannot reach 1e-14 in three iterations
        p = linear_payoff([0.4, -0.2], 1.0, Ball(1.0, 2))
        cfg = SaddleConfig(r=1.0, T=Ball(1.0, 2), L=1.0, smoothness=1.0, tol=1e-14,
                           max_iters=3)
        with pytest.raises(NonConvergence) as exc:
            solve_saddle(p, cfg)
        assert exc.value.iterations == 3
        assert exc.value.residual > 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gradient_stops_the_solve(self, bad):
        calls = []

        def grad_x(x, y):
            calls.append(1)
            return np.array([bad, 0.0])

        p = dataclasses.replace(linear_payoff([0.4, -0.2], 1.0, Ball(1.0, 2)), grad_x=grad_x)
        cfg = SaddleConfig(r=1.0, T=Ball(1.0, 2), L=1.0, smoothness=1.0)
        with pytest.raises(InvalidInput, match="not finite at iteration 1"), \
                np.errstate(invalid="ignore"):  # 0 * inf in the ball projection
            solve_saddle(p, cfg)
        assert len(calls) == 1

    def test_non_finite_map_stops_the_prox_pair_probe(self, monkeypatch):
        # the map turns NaN once the probe starts its first solve; the
        # probe resolves solve_saddle in the saddle module, the main solve
        # in the ba module
        rng = np.random.default_rng(5)
        m = map_from_dict({"kind": "affine", "A": (0.3 * rng.normal(size=(3, 3))).tolist(),
                           "b": [1.5, 0.5, -0.5], "rho": 1.0})
        state = {"poisoned": False, "calls": 0}
        value, jacobian = m.value, m.jacobian

        def poisoned(oracle):
            def call(x):
                if not state["poisoned"]:
                    return oracle(x)
                state["calls"] += 1
                return np.full_like(oracle(x), np.nan)
            return call

        m = dataclasses.replace(m, value=poisoned(value), jacobian=poisoned(jacobian))
        solve = saddle_module.solve_saddle

        def probe_solve(*args, **kwargs):
            state["poisoned"] = True
            return solve(*args, **kwargs)

        monkeypatch.setattr(saddle_module, "solve_saddle", probe_solve)
        with pytest.raises(InvalidInput, match="not finite at iteration 1"):
            solve_prox_pair(m, Ball(1.0, 3), Box(-0.05 * np.ones(3), 0.05 * np.ones(3)),
                            mode="heuristic")
        assert state["poisoned"] and state["calls"] == 2  # one value, one Jacobian

    def test_radius_exceeding_domain_rejected(self):
        p = vi_payoff(make_constant([1.0, 0.0], 1.0))
        cfg = SaddleConfig(r=2.0, T=Ball(1.0, 2), L=0.0, smoothness=0.0)
        with pytest.raises(InvalidInput):
            solve_saddle(p, cfg)


class TestPhi:
    def test_value_and_gradients(self):
        p = vi_payoff(make_constant([3.0, 4.0], 1.0))
        x, y = np.array([0.1, 0.2]), np.array([0.3, -0.3])
        val, gx, gy = phi_value_grad(p, 2.0, x, y)
        c = np.array([3.0, 4.0])
        assert_allclose(val, 0.5 * 2.0 * float(x @ x) + float(c @ (x - y)))
        assert_allclose(gx, 2.0 * x + c)
        assert_allclose(gy, -c)

    def test_domain_violation(self):
        p = vi_payoff(make_constant([3.0, 4.0], 1.0))
        with pytest.raises(InvalidInput):
            phi_value_grad(p, 1.0, np.array([2.0, 0.0]), np.zeros(2))


class TestChecks:
    def make_solved(self):
        p = vi_payoff(make_constant([3.0, 4.0], 1.0))
        cfg = SaddleConfig(r=0.5, T=Ball(1.0, 2), L=0.0, smoothness=0.0, tol=1e-10,
                           r_max=1.0)
        return p, cfg, solve_saddle(p, cfg)

    def test_pass_on_solution(self):
        p, cfg, pt = self.make_solved()
        checks = check_saddle(p, pt, dataclasses.replace(cfg, n_samples=1500), seed=0)
        assert checks.passed
        assert checks.report("y-maximal").passed
        assert checks.report("x-strictly-minimal").margin > 0
        assert checks.minimax_gap < 10.0  # finite and sane

    def test_sphere_check_applies_only_with_regularizer(self):
        p, cfg, pt = self.make_solved()
        names = [rep.name for rep in
                 check_saddle(p, pt, dataclasses.replace(cfg, n_samples=200)).reports]
        assert "sphere-membership" not in names  # L = 0 here
        cfg2 = SaddleConfig(r=0.5, T=Ball(1.0, 2), L=1.0, smoothness=1.0, r_max=1.0)
        pt2 = solve_saddle(vi_payoff(make_constant([3.0, 4.0], 1.0)), cfg2)
        names2 = [rep.name
                  for rep in check_saddle(p, pt2,
                                          dataclasses.replace(cfg2, n_samples=200)).reports]
        assert "sphere-membership" in names2

    def test_tampered_point_fails_with_witness(self):
        p, cfg, pt = self.make_solved()
        bad = SaddlePoint(np.array([0.3, 0.4]), pt.y_star, pt.residual,
                          pt.iterations, pt.step)
        checks = check_saddle(p, bad, dataclasses.replace(cfg, n_samples=1500), seed=0)
        rep = checks.report("x-strictly-minimal")
        assert not rep.passed
        assert rep.witness is not None
        assert not checks.passed

    def test_x_samples_evaluated_once(self):
        # strict minimality and the minimax gap share one batch of J(., y*)
        p, cfg, pt = self.make_solved()
        calls = []

        def counting(X, y, batch=p.value_xbatch):
            calls.append(len(X))
            return batch(X, y)
        cfg = dataclasses.replace(cfg, n_samples=300)
        checks = check_saddle(dataclasses.replace(p, value_xbatch=counting), pt, cfg, seed=0)
        assert checks.to_dict() == check_saddle(p, pt, cfg, seed=0).to_dict()
        assert len(calls) == 1

    @pytest.mark.parametrize("factor", [0.0, 1.0, 3.0])
    def test_exclusion_factor_outside_unit_interval_rejected(self, factor):
        p, cfg, pt = self.make_solved()
        with pytest.raises(InvalidInput, match="exclusion_factor"):
            check_saddle(p, pt, dataclasses.replace(cfg, exclusion_factor=factor,
                                                    n_samples=50))

    @pytest.mark.parametrize("starts", [0, 1])
    def test_probe_needs_two_starts(self, starts):
        p, cfg, _ = self.make_solved()
        assert probe_uniqueness(p, cfg, starts, 3) is None

    def test_reports_serialize(self):
        p, cfg, pt = self.make_solved()
        d = check_saddle(p, pt, dataclasses.replace(cfg, n_samples=300)).to_dict()
        assert d["passed"] is True
        assert {rep["name"] for rep in d["reports"]} >= {"y-maximal",
                                                         "x-strictly-minimal"}
