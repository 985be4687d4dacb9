"""Extragradient solver and sampled saddle certification."""

import dataclasses
import inspect
import json
import math
import pathlib
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ballsaddle import (Ball, Box, CheckReport, InvalidInput, NonConvergence, Payoff,
                        SaddleChecks, SaddleConfig, SaddlePoint, SmoothMap, ba_payoff, ba_report,
                        check_nearest_point, check_saddle, check_vi, make_affine,
                        make_constant, make_quadratic, map_from_dict, phi_value_grad,
                        project_ball, sample_ball, sample_sphere, shift_map,
                        solve_best_approx, solve_saddle, solve_vi, solve_vi_shifted,
                        vi_payoff, vi_report)
from ballsaddle.ba import run_ba, solve_prox_pair
from ballsaddle import saddle as saddle_module
from ballsaddle.cli import main as cli_main
from ballsaddle.oracles import fixedpoint_vi_oracle
from ballsaddle.saddle import (CHECK_SAMPLES, MAX_STEP_HALVINGS, Certificate, gated_problem,
                               payoff_depends_on_y, raise_failure, run_saddle)
from ballsaddle.vi import run_vi


def linear_payoff(c, rho, y_set):
    """J(x, y) = <c, x>, independent of y."""
    c = np.asarray(c, dtype=float)
    return Payoff(
        dimension=c.size, x_radius=rho, y_set=y_set,
        value=lambda x, y: float(c @ x),
        grads=lambda x, y: (c.copy(), np.zeros_like(c)))


def bilinear_1d():
    """J(x, y) = x y on [-0.3, 0.3] x [1, 2]."""
    return Payoff(
        dimension=1, x_radius=0.3, y_set=Box([1.0], [2.0]),
        value=lambda x, y: float(x[0] * y[0]),
        grads=lambda x, y: (np.array([y[0]]), np.array([x[0]])))


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
        ("tol", np.nan), ("tol", np.inf), ("max_iters", 50.0), ("max_iters", True)])
    def test_bad_solver_setting_rejected(self, setting, value):
        # tol = nan ran to the iteration cap, tol = inf returned the unsolved
        # start and max_iters = 50.0 failed inside range()
        with pytest.raises(InvalidInput, match=setting):
            SaddleConfig(r=0.5, T=Ball(1.0, 2), L=0.0, smoothness=1.0, **{setting: value})

    def test_settings_are_declared_once(self):
        # the two run settings are SaddleConfig's; the check thresholds are
        # module constants that no caller of the certify path can set, only
        # the nearest-point audit keeps a strict margin defaulting to the
        # constant, and the sampled checks draw CHECK_SAMPLES samples
        assert [f.name for f in dataclasses.fields(SaddleConfig)] == [
            "r", "T", "L", "smoothness", "tol", "max_iters", "r_max"]
        params = inspect.signature(check_nearest_point).parameters
        assert params["strict_margin"].default == saddle_module.STRICT_MARGIN
        assert "strict_margin" not in inspect.signature(check_vi).parameters
        for audit in (check_vi, check_nearest_point):
            assert "exclusion_factor" not in inspect.signature(audit).parameters
        for check in (check_vi, check_nearest_point, check_saddle):
            assert inspect.signature(check).parameters["n_samples"].default == CHECK_SAMPLES
        # the sample and start counts are no settings of any solve
        assert not {"n_samples", "uniqueness_starts"} & (
            {f.name for f in dataclasses.fields(SaddleConfig)}
            | set(inspect.signature(solve_prox_pair).parameters))
        assert not hasattr(saddle_module, "require_exclusion_factor")

    def test_readme_settings_table_matches_the_config(self):
        # the "Solver settings" table lists exactly the run settings of
        # SaddleConfig, each with its default
        readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
        section = readme.split("## Solver settings", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| `(\w+)` \| `([^`]+)` \|", section, flags=re.M)
        problem = {"r", "T", "L", "smoothness", "r_max"}
        fields = {f.name: f.default for f in dataclasses.fields(SaddleConfig)
                  if f.name not in problem}
        assert "| setting | default | meaning |" in section
        assert sorted(name for name, _ in rows) == sorted(fields)
        for name, default in rows:
            assert eval(default, {"__builtins__": {}}) == fields[name], name

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
        assert gated_problem(m, rep, None, "certified").step == step(rep.M, rep)
        Y = Ball(1.0, 3)
        rep = ba_report(m, Y)
        assert gated_problem(m, rep, None, "certified").step == step(rep.L, rep)
        # statement 1 takes the payoff's weight as L, on its saddle report
        for payoff, own in ((vi_payoff(m), vi_report(m)), (ba_payoff(m, Y), rep)):
            cert = run_saddle(payoff, None, None, own, mode="certified", seed=0,
                              fail=raise_failure)
            assert cert.step == step(cert.constants.L, cert.constants)


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

    def test_step_halving_restart(self):
        # a smoothness at 3% of 2 M + theta makes the step too long for this
        # convex-concave payoff: the residual blows up, the step is halved
        # and the solve restarts from the best iterate, landing on the
        # solution of the safe step
        rng = np.random.default_rng(25)
        A, b = rng.normal(size=(2, 2)), 2.0 * rng.normal(size=2)
        m = make_affine(A, b, 1.0)
        rep = vi_report(m)
        M, safe_smoothness = rep.M.value, 2.0 * rep.M.value + rep.theta.value
        p = vi_payoff(m)
        cfg = SaddleConfig(r=0.5, T=Ball(0.5, 2), L=M, smoothness=0.03 * safe_smoothness)
        safe = SaddleConfig(r=0.5, T=Ball(0.5, 2), L=M, smoothness=safe_smoothness)
        halved = solve_saddle(p, cfg)
        assert halved.step == cfg.step / 8  # below the configured step: three halvings
        assert_allclose(halved.x_star, solve_saddle(p, safe).x_star, atol=1e-7)

    def test_step_halving_limit(self):
        # the x-gradient at the origin alternates between 1e-3 e_1 and e_1
        # and vanishes elsewhere, so x stays at 0 and every other residual
        # is 1000 times the last: past iteration 20 each blow-up halves the
        # step, and the 61st halving gives up
        calls = []

        def grads(x, y):
            if x.any():
                return np.zeros(2), np.zeros(2)
            calls.append(1)
            return np.array([1e-3 if len(calls) % 2 else 1.0, 0.0]), np.zeros(2)
        p = Payoff(2, 1.0, Ball(1.0, 2), lambda x, y: 0.0, grads)
        cfg = SaddleConfig(r=1.0, T=Ball(1.0, 2), L=0.0, smoothness=0.5, tol=1e-300)
        with pytest.raises(NonConvergence, match="step halving limit reached") as exc:
            solve_saddle(p, cfg)
        # the k-th blow-up comes at iteration 20 + 2 k
        assert exc.value.iterations == 20 + 2 * (MAX_STEP_HALVINGS + 1)
        assert exc.value.residual == 2.0 ** -MAX_STEP_HALVINGS

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

        def grads(x, y):
            calls.append(1)
            return np.array([bad, 0.0]), np.zeros(2)

        p = dataclasses.replace(linear_payoff([0.4, -0.2], 1.0, Ball(1.0, 2)), grads=grads)
        cfg = SaddleConfig(r=1.0, T=Ball(1.0, 2), L=1.0, smoothness=1.0)
        with pytest.raises(InvalidInput, match="not finite at iteration 1"):
            solve_saddle(p, cfg)
        assert len(calls) == 1

    @pytest.mark.filterwarnings("error")
    def test_infinite_gradient_stops_the_solve_without_a_warning(self):
        # the ball projection must not scale an infinite point by r / inf = 0:
        # numpy warns about 0 * inf before the residual check can raise
        self.test_non_finite_gradient_stops_the_solve(np.inf)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("half", ["probing", "full"])
    def test_non_finite_y_gradient_stops_a_box_solve(self, bad, half):
        # a box clips y + tau * inf to its bound, so the residual stays finite;
        # from the origin the probing half-step moves x below 0
        def grads(x, y):
            return np.array([y[0]]), np.array([bad if half == "probing" or x[0] < 0.0 else 0.0])

        p = dataclasses.replace(bilinear_1d(), grads=grads)
        cfg = SaddleConfig(r=0.3, T=p.y_set, L=0.0, smoothness=1.0)
        with pytest.raises(InvalidInput, match="y-gradient is not finite at iteration 1"):
            solve_saddle(p, cfg)

    @pytest.mark.filterwarnings("error")
    def test_huge_finite_y_gradient_clips_to_the_box(self):
        # 1e200 squared overflows; the check must not mistake it for infinity
        p = dataclasses.replace(bilinear_1d(),
                                grads=lambda x, y: (np.array([y[0]]), np.array([1e200])))
        pt = solve_saddle(p, SaddleConfig(r=0.3, T=p.y_set, L=0.0, smoothness=1.0))
        assert pt.y_star.tolist() == [2.0]
        assert_allclose(pt.x_star, [-0.3], atol=1e-7)

    @pytest.mark.parametrize("T", [Box([1.0], [2.0]), Ball(2.0, 1)])
    def test_fused_gradients_given_as_lists_are_converted(self, T):
        p = dataclasses.replace(bilinear_1d(), y_set=T)
        listed = dataclasses.replace(p, grads=lambda x, y: ([float(y[0])], [float(x[0])]))
        cfg = SaddleConfig(r=0.3, T=T, L=0.1, smoothness=1.0)
        want, got = solve_saddle(p, cfg), solve_saddle(listed, cfg)
        assert (got.x_star.tolist(), got.y_star.tolist()) == (want.x_star.tolist(),
                                                              want.y_star.tolist())

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

        m = SmoothMap(m.dimension, m.domain_radius, poisoned(value), poisoned(jacobian),
                      analytic=m.analytic)
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


def test_y_star_unique_reads_the_y_gradient():
    # payoff_depends_on_y writes y_star_unique of the statement-1 certificate
    T = Ball(0.5, 2)
    x = np.array([-0.4, 0.1])
    assert not payoff_depends_on_y(linear_payoff([0.4, -0.2], 1.0, T), x, T)
    assert payoff_depends_on_y(bilinear_1d(), [-0.3], Box([1.0], [2.0]))
    m = make_affine(np.eye(2), [2.0, 0.0], 1.0)
    assert payoff_depends_on_y(vi_payoff(m), x, T)
    assert payoff_depends_on_y(ba_payoff(m, Ball(1.0, 2)), x, T)


class TestChecks:
    def make_solved(self):
        p = vi_payoff(make_constant([3.0, 4.0], 1.0))
        cfg = SaddleConfig(r=0.5, T=Ball(1.0, 2), L=0.0, smoothness=0.0, tol=1e-10,
                           r_max=1.0)
        return p, cfg, solve_saddle(p, cfg)

    def test_pass_on_solution(self):
        p, cfg, pt = self.make_solved()
        checks = check_saddle(p, pt, cfg, seed=0, n_samples=1500)
        assert checks.passed
        assert checks.report("y-maximal").passed
        assert checks.report("x-strictly-minimal").margin > 0
        assert checks.minimax_gap < 10.0  # finite and sane

    def test_sphere_check_applies_only_with_regularizer(self):
        p, cfg, pt = self.make_solved()
        names = [rep.name for rep in
                 check_saddle(p, pt, cfg, n_samples=200).reports]
        assert "sphere-membership" not in names  # L = 0 here
        cfg2 = SaddleConfig(r=0.5, T=Ball(1.0, 2), L=1.0, smoothness=1.0, r_max=1.0)
        pt2 = solve_saddle(vi_payoff(make_constant([3.0, 4.0], 1.0)), cfg2)
        names2 = [rep.name
                  for rep in check_saddle(p, pt2, cfg2, n_samples=200).reports]
        assert "sphere-membership" in names2

    def test_tampered_point_fails_with_witness(self):
        p, cfg, pt = self.make_solved()
        bad = SaddlePoint(np.array([0.3, 0.4]), pt.y_star, pt.residual,
                          pt.iterations, pt.step)
        checks = check_saddle(p, bad, cfg, seed=0, n_samples=1500)
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
        counted = Payoff(p.dimension, p.x_radius, p.y_set, p.value, p.grads, p.grad0_affine,
                         counting, p.value_ybatch)
        checks = check_saddle(counted, pt, cfg, seed=0, n_samples=300)
        assert checks.to_dict() == check_saddle(p, pt, cfg, seed=0, n_samples=300).to_dict()
        assert len(calls) == 1

    @pytest.mark.parametrize("factor", [0.0, 1.0, 3.0])
    def test_exclusion_factor_outside_unit_interval_rejected(self, factor):
        # the factor is the fixed EXCLUSION_FACTOR, no field of the config
        p, cfg, pt = self.make_solved()
        with pytest.raises(TypeError, match="exclusion_factor"):
            check_saddle(p, pt, dataclasses.replace(cfg, exclusion_factor=factor), n_samples=50)

    @pytest.mark.parametrize("check", ["saddle", "vi", "nearest_point"])
    def test_sample_count_is_validated(self, check):
        # a negative count once died in numpy, 2.5 and True in a TypeError, and
        # 0 ran the check on the structured points alone
        p, cfg, pt = self.make_solved()
        m, x_star = make_constant([3.0, 4.0], 1.0), np.array([-0.3, -0.4])
        run = {"saddle": lambda n: check_saddle(p, pt, cfg, n_samples=n),
               "vi": lambda n: check_vi(m, x_star, 0.5, n_samples=n),
               "nearest_point": lambda n: check_nearest_point(m, x_star, 0.5, n_samples=n)}
        for value in (0, -5, 2.5, True):
            with pytest.raises(InvalidInput, match="n_samples must be an integer >= 1"):
                run[check](value)
        run[check](1)

    def test_reports_serialize(self):
        p, cfg, pt = self.make_solved()
        d = check_saddle(p, pt, cfg, n_samples=300).to_dict()
        assert d["passed"] is True
        assert {rep["name"] for rep in d["reports"]} >= {"y-maximal",
                                                         "x-strictly-minimal"}


def family_map(kind, n, seed):
    """A map of the benchmark family: A = I + 0.3 G / sqrt(n), ||b|| = 2,
    rho = 1, and for quadratic maps symmetric Q_i with
    sqrt(sum ||Q_i||^2) = 0.1."""
    rng = np.random.default_rng(seed)
    A = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    b = rng.standard_normal(n)
    b *= 2.0 / np.linalg.norm(b)
    if kind == "affine":
        return make_affine(A, b, 1.0)
    Q = rng.standard_normal((n, n, n))
    Q = 0.5 * (Q + Q.transpose(0, 2, 1))
    Q *= 0.1 / np.sqrt(sum(np.linalg.norm(q, 2) ** 2 for q in Q))
    return make_quadratic(A, b, Q, 1.0)


def quartic_map():
    """F(x) = (x^T x, 0): its Jacobian vanishes at the origin."""
    Q = np.zeros((2, 2, 2))
    Q[0] = np.eye(2)
    return make_quadratic(np.zeros((2, 2)), np.zeros(2), Q, 1.0)


def collapsed_instance(request, m):
    """(certificate, saddle payoff, saddle config, certificate of a stored
    point) of a solved statement 2, 4 or 6 instance of ``m``."""
    kw = {"mode": "certified", "seed": 0, "fail": raise_failure}
    if request == "best-approx":
        cert = solve_best_approx(m)
        Y = Ball(1.0, m.dimension)
        cfg = gated_problem(m, cert.constants, cert.r, "certified")
        return (cert, ba_payoff(m, Y), cfg,
                lambda p: run_ba(m, Y, None, cert.r, cert.constants, {}, p, theorem="6", **kw))
    if request == "vi-shifted":
        cert = solve_vi_shifted(m, [16.0, 0.0], r=1.0)
        m = shift_map(m, [16.0, 0.0])
    else:
        cert = solve_vi(m)
    cfg = gated_problem(m, cert.constants, cert.r, "certified")
    return cert, vi_payoff(m), cfg, lambda p: run_vi(m, cert.r, cert.constants, {}, p, **kw)


def moved_points(x, r):
    """(label, x') candidates: radial shrinks and rotations on the sphere
    from the collapse-gap size (the solver tolerance leaves ||y* - x*|| near
    5e-9) up to 1e-3, and the benchmark's tamper x[0] += 1e-3."""
    u = np.zeros_like(x)
    u[np.argmin(np.abs(x))] = 1.0
    u -= (u @ x) / (x @ x) * x
    u /= np.linalg.norm(u)
    out = []
    for size in (5e-9, 1e-7, 1e-6, 1e-4, 1e-3):
        out.append((f"radial {size:g}", x * (1.0 - size / r)))
        out.append((f"rotation {size:g}",
                    np.cos(size / r) * x + np.sin(size / r) * np.linalg.norm(x) * u))
    tampered = x.copy()
    tampered[0] += 1e-3
    return out + [("tamper", tampered)]


@pytest.mark.parametrize("request_type, kind, n, seed", [
    ("vi", "axis", 2, 0), ("vi", "quadratic", 8, 1), ("vi", "affine", 32, 2),
    ("vi-shifted", "quartic", 2, 0),
    ("best-approx", "axis", 2, 0), ("best-approx", "quadratic", 4, 3),
    ("best-approx", "quadratic", 32, 4)])
def test_dropped_saddle_check_rejects_nothing_new(request_type, kind, n, seed):
    # statements 2, 4 and 6 no longer run check_saddle; it stays the
    # reference here, with the seed their certify step gave it.  On the
    # "axis" map x + (2, 0) and the quartic map, F(x*) points along an axis,
    # so the sampled y-maximal check meets its exact maximizer
    if kind == "axis":
        m = make_affine(np.eye(2), [2.0, 0.0], 1.0)
    elif kind == "quartic":
        m = quartic_map()
    else:
        m = family_map(kind, n, seed)
    cert, payoff, cfg, certify = collapsed_instance(request_type, m)
    assert cert.passed and "saddle" not in cert.to_dict()["checks"]
    rejected = []
    for label, x in moved_points(cert.x_star, cert.r):
        for y in (cert.y_star, x):  # y* left in place, or moved along with x*
            point = SaddlePoint(x, y, cert.residual, cert.iterations, 0.0)
            if not check_saddle(payoff, point, cfg, seed=1).passed:
                rejected.append(label)
                assert certify(point).failed_checks(), (label, y is x)
    assert "tamper" in rejected


@pytest.mark.parametrize("tamper", ["moved-off-sphere", "vi-margin"])
def test_verify_rejects_a_tampered_vi_certificate(tmp_path, capsys, tamper):
    config, out = tmp_path / "cfg.json", tmp_path / "cert.json"
    config.write_text(json.dumps({"problem": {"kind": "affine", "A": [[1, 0], [0, 1]],
                                              "b": [2, 0], "rho": 1.0}}))
    assert cli_main(["vi", "--config", str(config), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    body = doc["certificate"]
    if tamper == "moved-off-sphere":
        body["solution"]["x_star"] = [0.99 * v for v in body["solution"]["x_star"]]
    else:
        body["checks"]["vi"]["margin"] *= 2.0
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli_main(["verify", "--config", str(out)]) == 3
    failures = json.loads(capsys.readouterr().out)["failures"]
    assert ("direction" in failures if tamper == "moved-off-sphere"
            else failures == ["recorded:checks.vi.margin"])


PROOF_SAMPLES = 10**4
# x* comes from an iteration stopped at a 1e-13 step, so it lies within about
# 1e-12 of the exact solution; the forms are Lipschitz in x* with constant
# about 3 ||F|| < 20 on these maps, and their rounding is about n eps ||F|| r,
# so the sampled forms may exceed the exact bound by this much
PROOF_ALLOWANCE = 1e-10


def tight_fixed_point(g, x, tol=1e-13, max_iters=10**4):
    """The fixed point of the contraction ``g`` from ``x``, to a step of tol."""
    for _ in range(max_iters):
        x, last = g(x), x
        if np.linalg.norm(x - last) <= tol:
            return x
    raise AssertionError("the fixed-point iteration did not settle")


@pytest.mark.parametrize("kind", ["affine", "quadratic"])
@pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
def test_sampled_forms_obey_the_proved_bounds(kind, n):
    # statements 2 and 4: max of both forms <= -(phi/2r - theta) ||x - x*||^2;
    # statement 6: ||f(x) - x||^2 - ||f(x) - x*||^2 >= (phi/r - 2 theta) ||x - x*||^2
    m = family_map(kind, n, 10 + n)
    rng = np.random.default_rng(n)
    unit = np.vstack([sample_ball(rng, PROOF_SAMPLES // 2, n, 1.0),
                      sample_sphere(rng, PROOF_SAMPLES // 2, n, 1.0)])
    cert = solve_vi(m)
    proof, theta, r = cert.proof, cert.constants.theta.value, cert.r
    coefficient = proof["phi_lower"] / (2.0 * r) - theta
    assert proof["passed"] and coefficient > proof["margin"] > 0.0
    x_star = fixedpoint_vi_oracle(m, r, 1.0 / (2.0 * cert.constants.M.value), tol=1e-13)
    assert np.linalg.norm(cert.x_star - x_star) <= 1e-7  # the solve's fixed point
    assert np.linalg.norm(m.val(x_star)) >= proof["phi_lower"]
    xs = r * unit
    d = x_star - xs
    dist2 = np.einsum("mi,mi->m", d, d)
    forms = np.maximum(d @ m.val(x_star), np.einsum("mi,mi->m", m.vals(xs), d))
    assert np.all(forms <= -coefficient * dist2 + PROOF_ALLOWANCE)

    cert = solve_best_approx(m)
    proof, theta, r = cert.proof, cert.constants.theta.value, cert.r
    coefficient = proof["phi_lower"] / r - 2.0 * theta
    assert proof["passed"] and proof["phi_lower"] > r and coefficient > proof["margin"] > 0.0
    x_star = tight_fixed_point(lambda x: project_ball(m.val(x), r), np.zeros(n))
    assert np.linalg.norm(cert.x_star - x_star) <= 1e-7
    assert np.linalg.norm(m.val(x_star)) >= proof["phi_lower"]
    xs = r * unit
    F = m.vals(xs)
    gain = (np.einsum("mi,mi->m", F - xs, F - xs)
            - np.einsum("mi,mi->m", F - x_star, F - x_star))
    d = xs - x_star
    assert np.all(gain >= coefficient * np.einsum("mi,mi->m", d, d) - PROOF_ALLOWANCE)


def test_a_rounding_sized_coefficient_proves_nothing():
    # q = 1/3 and x* located exactly; phi/2r - theta = 1e-15 lies within the
    # rounding pad (n + 1) eps (phi/2r + theta) = 1.3e-15 at n = 2
    r, theta = 0.5, 1.0
    for coefficient, proved in ((1e-15, False), (1e-13, True)):
        phi = 2.0 * r * (theta + coefficient)
        uniqueness, record = saddle_module.sphere_records((0.0, 1.0 / 3.0), theta, 0.0, phi,
                                                          (2.0 * r, theta), 2)
        assert uniqueness["passed"] and uniqueness["error_bound"] == 0.0
        assert record["phi_lower"] == phi
        assert record["passed"] is proved and (record["margin"] > 0.0) is proved


def test_proof_needs_the_reported_point_located():
    # a contraction that places x* only within 2e-6 of the reported point
    # proves the inequality about a point the certificate does not report;
    # phi_lower = 3 and the terms (1, 1) give the coefficient 2 either way
    def records(gap):
        return saddle_module.sphere_records((3.0, 1.0 / 3.0), 1.0, gap, 3.0, (1.0, 1.0), 2)
    located, located_proof = records(1e-9)
    loose, loose_proof = records(2e-6 * (2.0 / 3.0))
    assert located["passed"] and loose["passed"]
    assert located_proof["phi_lower"] == loose_proof["phi_lower"] == 3.0
    assert located_proof["passed"] and located_proof["margin"] > 0.0
    assert not loose_proof["passed"] and loose_proof["margin"] > 0.0


def test_heuristic_run_beyond_the_proof_names_it():
    # F(x) = x + (2, 0) at r = 0.68, beyond r_max = 1/4: q = 0.68 / 1.32 < 1
    # proves a unique x*, but phi = 2 - r <= 2 r theta, so the closed form
    # proves no strict inequality, and the proof check is named
    r = 0.68
    cert = solve_vi(make_affine(np.eye(2), [2.0, 0.0], 1.0), r=r, mode="heuristic")
    assert cert.uniqueness["passed"] and cert.uniqueness["q"] < 1.0
    assert cert.proof["phi_lower"] == pytest.approx(2.0 - r)
    assert cert.proof["phi_lower"] <= 2.0 * r * cert.constants.theta.value
    assert "vi-inequality-proof" in cert.failed_checks()
    assert cert.to_dict()["checks"]["proof"]["passed"] is False


def sphere_map(request, m):
    """(G, q, r) of statement 2 or 6 for ``m`` at its admissible radius,
    with G written out as the statement gives it."""
    if request == "vi":
        report = vi_report(m)
        r = report.r_max
        _, q = saddle_module.contraction(m, r, report.theta.value)
        return (lambda x: -r * m.val(x) / np.linalg.norm(m.val(x))), q, r
    report = ba_report(m, Ball(1.0, m.dimension))
    r = report.r_max
    _, q = saddle_module.contraction(m, r, report.theta.value, r)
    return (lambda x: project_ball(m.val(x), r)), q, r


@pytest.mark.parametrize("request_type", ["vi", "best-approx"])
@pytest.mark.parametrize("kind, n", [("affine", 2), ("quadratic", 8), ("affine", 32),
                                     ("quadratic", 32)])
@pytest.mark.parametrize("tol", [1e-8, 1e-13])
def test_fixed_point_map_values_within_the_banach_bound(request_type, kind, n, tol):
    # from x0 = G(0), x1 = G(x0): ||x_{k+1} - x_k|| <= q^k ||x1 - x0||, so the
    # stop q/(1 - q) ||x_{k+1} - x_k|| <= tol comes within this many map values
    G, q, r = sphere_map(request_type, family_map(kind, n, 30 + n))
    assert 0.0 < q < 1.0
    calls = []

    def counted(x):
        calls.append(1)
        return G(x)
    cfg = SaddleConfig(r=r, T=Ball(r, n), L=0.0, smoothness=0.0, tol=tol)
    point = saddle_module.sphere_fixed_point(counted, q, n, cfg)
    x0 = G(np.zeros(n))
    x1 = G(x0)
    bound = math.ceil(math.log(tol * (1.0 - q) / np.linalg.norm(x1 - x0)) / math.log(q)) + 1
    assert point.iterations == len(calls) <= bound
    assert q / (1.0 - q) * point.residual <= tol
    assert point.x_star is point.y_star
    assert np.linalg.norm(G(point.x_star) - point.x_star) <= point.residual


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("solve", [solve_vi, solve_best_approx], ids=["vi", "best-approx"])
def test_non_finite_map_stops_the_fixed_point(solve, bad):
    # the map turns non-finite at the third map value of the iteration: the
    # solve names that iteration, and numpy warns about nothing on the way
    m = family_map("affine", 4, 3)
    report = (vi_report(m) if solve is solve_vi else ba_report(m, Ball(1.0, 4)))
    state = {"calls": 0}
    value = m.value

    def poisoned(x):
        state["calls"] += 1
        return value(x) if state["calls"] < 4 else np.full(4, bad)  # call 1 is F(0) for q
    with pytest.raises(InvalidInput, match="not finite at iteration 3"):
        solve(SmoothMap(m.dimension, m.domain_radius, poisoned, m.jacobian, m.analytic),
              report=report)


@pytest.mark.parametrize("solve", [solve_vi, solve_best_approx], ids=["vi", "best-approx"])
def test_fixed_point_cap_carries_the_residual(solve):
    with pytest.raises(NonConvergence, match="2 map values") as exc:
        solve(family_map("quadratic", 8, 5), max_iters=2)
    assert exc.value.iterations == 2 and exc.value.residual > 0.0


@pytest.mark.parametrize("q", [1.0, 1.5, np.inf, np.nan, -0.1])
def test_fixed_point_needs_a_contraction(q):
    cfg = SaddleConfig(r=0.5, T=Ball(0.5, 2), L=0.0, smoothness=0.0)
    with pytest.raises(InvalidInput, match="contract"):
        saddle_module.sphere_fixed_point(lambda x: x, q, 2, cfg)


def solved_certificates():
    """{statement label: a solved certificate} of every statement of the
    README's check-order table, on F(x) = x + (2, 0)."""
    m = make_affine(np.eye(2), [2.0, 0.0], 1.0)
    Y = Ball(1.0, 2)
    return {"1": run_saddle(vi_payoff(m), None, None, vi_report(m), mode="certified", seed=0,
                            fail=raise_failure),
            "2, 4": solve_vi(m),
            "5": solve_prox_pair(make_constant([2.0, 0.0], 1.0), Y, Box([-0.5, -0.5], [0.5, 0.5]),
                                 0.5),
            "6": solve_best_approx(m)}


def test_certificates_are_frozen():
    certs = solved_certificates()
    assert all(type(cert) is Certificate for cert in certs.values())
    for cert in certs.values():
        with pytest.raises(dataclasses.FrozenInstanceError):
            cert.theorem = "0"
        assert dataclasses.replace(cert, theorem="0").theorem == "0"
    # the check reports a certificate holds are frozen too: its verdict cannot change
    with pytest.raises(dataclasses.FrozenInstanceError):
        certs["2, 4"].vi_check.passed = False
    with pytest.raises(dataclasses.FrozenInstanceError):
        certs["1"].saddle_checks.reports = []


TABLE_HEADER = "| statement | `failed_checks()` names, in order |\n"


def readme_check_order():
    """(the names of the README's one order of ``failed_checks()``, in the
    paragraph above its table, {statement label: the names of its row})."""
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    above, table = readme.split(TABLE_HEADER, 1)
    order = re.findall(r"`([a-z-]+)`", above.rstrip().rsplit("\n\n", 1)[1])
    rows = {}
    for line in table.split("\n\n", 1)[0].splitlines()[1:]:
        label, names = line.strip("|").split("|")
        rows[label.split("(")[0].strip()] = re.findall(r"`([a-z-]+)`", names)
    return order, rows


def test_readme_rows_follow_the_one_order():
    order, rows = readme_check_order()
    assert len(order) == len(set(order)) == 14 and len(rows) == 4
    for label, row in rows.items():
        names = iter(order)
        assert row and all(name in names for name in row), label


def test_every_failing_check_names_the_one_order():
    # every check field set and failing: the README's order, with the proof
    # named after the vi audit, which takes precedence over nearest-point
    order, _ = readme_check_order()
    vi = solved_certificates()["2, 4"]
    failing = dataclasses.replace(vi.vi_check, passed=False)
    cert = dataclasses.replace(
        vi, projection_gap=1.0, collapse_gap=1.0, sphere_gap=1.0, map_norm=0.0,
        y_maximal_slack=-1.0, saddle_checks=SaddleChecks([failing], 0.0),
        uniqueness={"passed": False}, proof={"passed": False}, vi_check=failing,
        nearest_check=failing, direction_gap=1.0, distance_gap=1.0)
    assert cert.failed_checks() == [
        name for name in order if name not in ("nearest-point-proof", "proof")]


def test_readme_check_order_table_matches_failed_checks():
    # every check of each statement made to fail names the README row, in its order
    _, rows = readme_check_order()
    certs = solved_certificates()
    assert set(rows) == set(certs) and all(cert.passed for cert in certs.values())
    failing = SaddleChecks([CheckReport("x-strictly-minimal", False, 1, -1.0)], 0.0)
    fails = {"uniqueness": {"passed": False}, "proof": {"passed": False},
             "y_maximal_slack": -1.0}
    vi, ba = certs["2, 4"], certs["6"]
    broken = {
        "1": dataclasses.replace(certs["1"], saddle_checks=failing),
        "2, 4": dataclasses.replace(
            vi, collapse_gap=1.0, map_norm=0.0, direction_gap=1.0,
            vi_check=dataclasses.replace(vi.vi_check, passed=False), **fails),
        "5": dataclasses.replace(certs["5"], projection_gap=1.0, saddle_checks=failing,
                                 uniqueness={"passed": False}),
        "6": dataclasses.replace(
            ba, projection_gap=1.0, collapse_gap=1.0, sphere_gap=1.0, distance_gap=1.0,
            nearest_check=dataclasses.replace(ba.nearest_check, passed=False), **fails)}
    for label, cert in broken.items():
        assert cert.failed_checks() == rows[label], label
