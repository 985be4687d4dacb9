"""Extragradient solver and sampled saddle certification."""

import dataclasses
import inspect
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ballsaddle import (Ball, Box, InvalidInput, NonConvergence, Payoff,
                        SaddleConfig, SaddlePoint, ba_payoff, ba_report,
                        check_nearest_point, check_saddle, check_vi, make_affine,
                        make_constant, make_quadratic, map_from_dict, phi_value_grad,
                        project_ball, sample_ball, sample_sphere, shift_map,
                        solve_best_approx, solve_saddle, solve_vi, solve_vi_shifted,
                        vi_payoff, vi_report)
from ballsaddle.ba import ba_problem, certify_ba, solve_prox_pair
from ballsaddle import saddle as saddle_module
from ballsaddle.cli import (DEFAULT_TOLERANCES, RunConfig, _saddle_problem, parse_config,
                            main as cli_main)
from ballsaddle.oracles import fixedpoint_vi_oracle
from ballsaddle.saddle import UNIQUENESS_STARTS, probe_uniqueness
from ballsaddle.vi import certify_vi, vi_problem


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
        def grad_y(x, y):
            return np.array([bad if half == "probing" or x[0] < 0.0 else 0.0])

        p = dataclasses.replace(bilinear_1d(), grad_y=grad_y)
        cfg = SaddleConfig(r=0.3, T=p.y_set, L=0.0, smoothness=1.0)
        with pytest.raises(InvalidInput, match="y-gradient is not finite at iteration 1"):
            solve_saddle(p, cfg)

    @pytest.mark.filterwarnings("error")
    def test_huge_finite_y_gradient_clips_to_the_box(self):
        # 1e200 squared overflows; the check must not mistake it for infinity
        p = dataclasses.replace(bilinear_1d(), grad_y=lambda x, y: np.array([1e200]))
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
    """(certificate, saddle payoff, saddle config, certify step of a point)
    of a solved statement 2, 4 or 6 instance of ``m``."""
    if request == "best-approx":
        cert = solve_best_approx(m)
        Y = Ball(1.0, m.dimension)
        cfg = ba_problem(m, Y, None, cert.r, cert.constants)
        return (cert, ba_payoff(m, Y), cfg,
                lambda p: certify_ba(m, Y, p, cfg, cert.constants, theorem="6"))
    if request == "vi-shifted":
        cert = solve_vi_shifted(m, [16.0, 0.0], r=1.0)
        m = shift_map(m, [16.0, 0.0])
    else:
        cert = solve_vi(m)
    cfg = vi_problem(m, cert.r, cert.constants)
    return cert, vi_payoff(m), cfg, lambda p: certify_vi(m, p, cfg, cert.constants)


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
    uniqueness = saddle_module.contraction_record(1.0 / 3.0, 0.0)
    r, theta = 0.5, 1.0
    for coefficient, proved in ((1e-15, False), (1e-13, True)):
        phi = 2.0 * r * (theta + coefficient)
        record = saddle_module.proof_record(uniqueness, phi, phi / (2.0 * r) - theta,
                                            phi / (2.0 * r) + theta, 2)
        assert record["passed"] is proved and (record["margin"] > 0.0) is proved


def test_proof_needs_the_reported_point_located():
    # a contraction that places x* only within 2e-6 of the reported point
    # proves the inequality about a point the certificate does not report
    located = saddle_module.contraction_record(1.0 / 3.0, 1e-9)
    loose = saddle_module.contraction_record(1.0 / 3.0, 2e-6 * (2.0 / 3.0))
    assert located["passed"] and loose["passed"]
    assert saddle_module.proof_record(located, 3.0, 2.0, 4.0, 2)["passed"]
    assert not saddle_module.proof_record(loose, 3.0, 2.0, 4.0, 2)["passed"]


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
        solve(dataclasses.replace(m, value=poisoned), report=report)


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
