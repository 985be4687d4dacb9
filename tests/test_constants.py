"""Certified constants: operator norms, Lipschitz estimates, sigma, reports."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ballsaddle import (Ball, Box, CertFlag, CertValue, ConstantsReport,
                        DimensionMismatch, HypothesisViolation, InvalidInput,
                        Payoff, ProjectionOracle, SmoothMap, ba_report,
                        combine_flags, delta_const, estimate_lipschitz,
                        estimate_theta, make_affine, make_constant,
                        make_quadratic, min_residual, op_norm, solve_vi, vi_payoff,
                        vi_report)
from ballsaddle import constants
from ballsaddle.cli import parse_config
from ballsaddle.saddle import gate, gated_problem, raise_failure, run_saddle
from ballsaddle.oracles import grid_sigma_oracle


def _sphere(rng, k, n):
    g = rng.normal(size=(k, n))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _trust_region_point(b, A, rho):
    """argmin over ||y|| <= rho of ||b - A^T y|| by bisection on the
    multiplier, scaled into the ball (independent of the library's Newton)."""
    U, s, Vt = np.linalg.svd(A.T)
    c = U.T @ b

    def y(lam):
        return Vt.T @ (s * c / (s * s + lam))
    if np.linalg.norm(c / s) <= rho:
        return Vt.T @ (c / s)
    lo, hi = 0.0, s.max() * np.linalg.norm(c) / rho
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if np.linalg.norm(y(mid)) > rho else (lo, mid)
    out = y(hi)
    return out * min(1.0, rho / np.linalg.norm(out))


def bare(m):
    """The same map with its declared constants dropped."""
    return SmoothMap(m.dimension, m.domain_radius, m.value, m.jacobian)


class TestOpNorm:
    def test_identity_is_exactly_one(self):
        assert op_norm(np.eye(4)) == 1.0

    def test_matches_svd_oracle(self):
        # oracle: numpy SVD largest singular value
        rng = np.random.default_rng(0)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            A = rng.normal(size=(n, n))
            assert abs(op_norm(A) - np.linalg.norm(A, 2)) <= 1e-8 * max(
                1.0, np.linalg.norm(A, 2))

    def test_zero_matrix(self):
        assert op_norm(np.zeros((3, 3))) == 0.0

    def test_rank_one(self):
        u = np.array([3.0, 4.0, 0.0])
        v = np.array([1.0, 2.0, 2.0])
        # |u| |v| = 5 * 3
        assert abs(op_norm(np.outer(u, v)) - 15.0) <= 1e-8

    def test_rejects_non_square(self):
        from ballsaddle import InvalidInput
        with pytest.raises(InvalidInput):
            op_norm(np.zeros((3, 2)))

    def test_stack_matches_each_matrix(self):
        stack = np.random.default_rng(1).normal(size=(7, 4, 4))
        assert_allclose(op_norm(stack), [np.linalg.norm(A, 2) for A in stack],
                        rtol=1e-15)

    def test_clustered_top_singular_values(self):
        # the top two singular values 1 and 1 - 1e-5 stalled the old power
        # iteration (it raised on draws 0, 2 and 3, and was low on the rest)
        rng = np.random.default_rng(0)
        for _ in range(100):
            U = np.linalg.qr(rng.normal(size=(6, 6)))[0]
            V = np.linalg.qr(rng.normal(size=(6, 6)))[0]
            A = U @ np.diag([1, 1 - 1e-5, 0.5, 0.3, 0.2, 0.1]) @ V.T
            m = make_affine(A, np.ones(6), 1.0)
            exact = np.linalg.norm(A, 2)
            assert abs(m.analytic.theta - exact) <= 1e-14 * exact

    def test_quadratic_gamma_is_the_exact_norm_sum(self):
        # the benchmark family at n = 32: A = I + 0.3 G / sqrt(n) and
        # symmetric Q_i scaled to sqrt(sum ||Q_i||^2) = 0.1.  gamma / 2 is
        # the exact norm ||sum_i Q_i^2||^(1/2), well below that sum here
        n = 32
        rng = np.random.default_rng(32)
        A = np.eye(n) + 0.3 * rng.normal(size=(n, n)) / np.sqrt(n)
        Q = rng.normal(size=(n, n, n))
        Q = 0.5 * (Q + Q.transpose(0, 2, 1))
        Q *= 0.1 / np.sqrt(sum(np.linalg.norm(q, 2) ** 2 for q in Q))
        m = make_quadratic(A, np.ones(n), Q, 1.0)
        s = np.sqrt(np.linalg.norm(sum(q @ q for q in Q), 2))
        assert abs(m.analytic.gamma / 2.0 - s) <= 1e-14 * s
        assert s <= 0.1 * 0.9
        assert m.analytic.theta >= np.linalg.norm(A, 2) + 2.0 * s * (1.0 - 1e-14)


class TestFlags:
    def test_ordering(self):
        assert combine_flags(CertFlag.ANALYTIC, CertFlag.ANALYTIC) is CertFlag.ANALYTIC
        assert combine_flags(CertFlag.ANALYTIC,
                             CertFlag.CONSERVATIVE) is CertFlag.CONSERVATIVE
        assert combine_flags(CertFlag.CONSERVATIVE,
                             CertFlag.SAMPLED) is CertFlag.SAMPLED

    def test_cert_value_rejects_nan(self):
        with pytest.raises(Exception):
            CertValue(float("nan"), CertFlag.ANALYTIC)


class TestEstimates:
    def test_theta_passthrough_analytic(self):
        m = make_affine(np.diag([3.0, 1.0]), np.zeros(2), 1.0)
        v = estimate_theta(m, samples=10, seed=0)
        assert v.flag is CertFlag.ANALYTIC and abs(v.value - 3.0) <= 1e-9

    def test_theta_sampled_is_lower_bound(self):
        m = bare(make_affine(np.diag([3.0, 1.0]), np.zeros(2), 1.0))
        v = estimate_theta(m, samples=200, seed=0)
        assert v.flag is CertFlag.SAMPLED
        assert v.value <= 3.0 + 1e-12
        assert v.value >= 2.9  # the sup is attained everywhere for affine maps

    def test_theta_sampled_monotone_in_samples(self):
        rng = np.random.default_rng(4)
        Q = rng.normal(size=(2, 2, 2))
        Q = 0.5 * (Q + np.transpose(Q, (0, 2, 1)))
        m = bare(make_quadratic(np.eye(2), np.zeros(2), Q, 1.0))
        small = estimate_theta(m, samples=50, seed=7).value
        big = estimate_theta(m, samples=400, seed=7).value
        # same seed: the first 50 draws are a prefix of the 400
        assert big >= small - 1e-12

    def test_sampled_estimates_use_exact_norms(self):
        from ballsaddle.constants import ball_points
        from ballsaddle.geometry import axis_points
        rng = np.random.default_rng(4)
        Q = rng.normal(size=(3, 3, 3))
        Q = 0.5 * (Q + np.transpose(Q, (0, 2, 1)))
        m = bare(make_quadratic(rng.normal(size=(3, 3)), np.zeros(3), Q, 1.0))
        # 0 and the six axis points, then 53 ball points
        pts = np.vstack([np.zeros((1, 3)), axis_points(3, 1.0), ball_points(3, 1.0, 53, seed=2)])
        assert estimate_theta(m, samples=60, seed=2).value == max(
            np.linalg.norm(m.jac(x), 2) for x in pts)
        pts = ball_points(3, 1.0, 80, seed=5)
        ref = max(np.linalg.norm(m.jac(a) - m.jac(b), 2) / np.linalg.norm(a - b)
                  for a, b in zip(pts[0::2], pts[1::2]))
        assert estimate_lipschitz(m.jac, 1.0, pairs=40, seed=5, dim=3).value == ref

    @pytest.mark.parametrize("count", [0, -1, 2.5, True])
    def test_sample_counts_must_be_integers_of_at_least_one(self, count):
        # delta's sampled minimum raised on an empty min() for 0 and on a
        # negative dimension for -1; the estimates raised a TypeError on 2.5
        m = make_affine(np.eye(2), [2.0, 0.0], 1.0)
        p = vi_payoff(m)
        p = Payoff(p.dimension, p.x_radius, p.y_set, p.value, p.grads)  # no grad0_affine
        with pytest.raises(InvalidInput, match="n_samples must be an integer >= 1"):
            delta_const(p, Ball(1.0, 2), n_samples=count)
        with pytest.raises(InvalidInput, match="samples must be an integer >= 1"):
            estimate_theta(bare(m), samples=count)
        with pytest.raises(InvalidInput, match="pairs must be an integer >= 1"):
            estimate_lipschitz(m.val, 1.0, pairs=count, dim=2)

    def test_lipschitz_sampled(self):
        A = np.array([[1.0, 2.0], [0.0, 1.0]])
        m = make_affine(A, np.zeros(2), 1.0)
        sampled = estimate_lipschitz(m.val, 1.0, pairs=300, seed=0, dim=2)
        assert sampled.flag is CertFlag.SAMPLED
        assert sampled.value <= np.linalg.norm(A, 2) + 1e-9
        assert sampled.value >= 0.5 * np.linalg.norm(A, 2)


class TestSigma:
    def test_affine_instance_exact(self):
        # F(x) = x + (2, 0): min over |y| <= 1 of |F(0) - y| = |(2,0)| - 1
        s = min_residual(np.array([2.0, 0.0]), np.eye(2), Ball(1.0, 2)).value
        assert abs(s - 1.0) <= 1e-8

    def test_interior_zero(self):
        # the target is reachable inside the ball, so the min residual is 0
        s = min_residual(np.array([0.3, 0.0]), np.eye(2), Ball(1.0, 2)).value
        assert s <= 1e-6

    def test_tiny_jacobian_guard(self):
        s = min_residual(np.array([2.0, 0.0]), np.zeros((2, 2)), Ball(1.0, 2)).value
        assert abs(s - 2.0) <= 1e-12

    def test_tiny_jacobian_on_a_box_is_a_conservative_bound(self):
        # ||A|| = 1e-10 <= 1e-9 ends the box iteration at its first iterate,
        # y = 0, before the duality gap 1e-10 * sum|b_i| / ||b|| closes; the
        # exact minimum takes 1e-10 off each |b_i|
        b = np.array([2.0, -1.0, 0.5])
        got = min_residual(b, 1e-10 * np.eye(3), Box(-np.ones(3), np.ones(3)))
        assert got.flag is CertFlag.CONSERVATIVE
        exact = float(np.linalg.norm(np.abs(b) - 1e-10))
        assert exact - 1e-9 <= got.value <= exact

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            b = rng.normal(size=2) * 2.0
            A = rng.normal(size=(2, 2))
            mine = min_residual(b, A, Ball(1.0, 2)).value
            grid = grid_sigma_oracle(b, A, Ball(1.0, 2))
            if mine > 1e-3:
                assert abs(mine - grid) <= 1e-4
            else:
                # an interior zero: the grid can only localize it to a cell
                assert grid <= 1e-3

    def test_ill_conditioned_ball_in_closed_form(self):
        # condition number 1e8: the old projected gradient raised
        # NonConvergence on draws 18 and 32
        rng = np.random.default_rng(5)
        probe = np.random.default_rng(6)
        for _ in range(100):
            U = np.linalg.qr(rng.normal(size=(5, 5)))[0]
            V = np.linalg.qr(rng.normal(size=(5, 5)))[0]
            A = U @ np.diag(np.logspace(0, -8, 5)) @ V.T
            b = 0.5 * rng.normal(size=5)
            sigma = min_residual(b, A, Ball(1.0, 5)).value
            # lower bound: no feasible y does better
            ys = np.vstack([Ball(1.0, 5).sample(probe, 200), _sphere(probe, 200, 5)])
            assert sigma <= np.min(np.linalg.norm(b - ys @ A, axis=1)) + 1e-12
            # and tight: the trust-region point y(lam) on the sphere attains it
            y = _trust_region_point(b, A, 1.0)
            attained = np.linalg.norm(b - A.T @ y)
            assert sigma <= attained + 1e-12
            assert attained - sigma <= 1e-9

    def test_ball_of_other_dimension_rejected(self):
        with pytest.raises(DimensionMismatch):
            min_residual(np.array([2.0, 0.0]), np.eye(2), Ball(1.0, 3))

    def test_ba_sigma_over_box(self):
        # constant f: the residual |f'(0)^T y - f(0)| reduces to |f(0)|
        Y = Box([0.0, 0.0], [1.0, 1.0])
        s = min_residual(np.array([3.0, 0.0]), np.zeros((2, 2)), Y).value
        assert abs(s - 3.0) <= 1e-8

    @staticmethod
    def _diagonal_instance(rng, n):
        # A = diag(d): the minimum over the box is separable, y_i = clip(b_i / d_i)
        d = rng.choice([-1.0, 1.0], n) * rng.uniform(0.05, 2.0, n)
        b = 2.0 * rng.normal(size=n)
        lo, hi = -rng.uniform(0.05, 1.0, n), rng.uniform(0.05, 1.0, n)
        exact = float(np.linalg.norm(b - d * np.clip(b / d, lo, hi)))
        return b, np.diag(d), Box(lo, hi), exact

    def test_box_sigma_never_exceeds_the_exact_minimum(self):
        # sigma is a numerator of r_max: a value above the minimum, such as
        # the objective at an iterate, would overstate the radius
        rng = np.random.default_rng(40)
        for n in (2, 3, 5, 8, 16):
            for _ in range(10):
                b, A, Y, exact = self._diagonal_instance(rng, n)
                v = min_residual(b, A, Y)
                assert v.value <= exact + 1e-13
                assert v.flag is CertFlag.CONSERVATIVE or exact - v.value <= 1e-10

    @pytest.mark.parametrize("n, ppa", [(2, 201), (3, 41)])
    def test_box_sigma_stays_below_the_grid(self, n, ppa):
        rng = np.random.default_rng(50 + n)
        for _ in range(6):
            A, b = rng.normal(size=(n, n)), 2.0 * rng.normal(size=n)
            Y = Box(-rng.uniform(0.1, 1.0, n), rng.uniform(0.1, 1.0, n))
            mine = min_residual(b, A, Y).value
            grid = grid_sigma_oracle(b, A, Y, ppa=ppa)
            assert mine <= grid + 1e-12
            # the coarser 3-d grid localizes an interior zero only to a cell
            assert grid - mine <= (5e-3 if n == 3 else 1e-6)

    def test_one_iteration_cap_returns_a_lower_bound(self, monkeypatch):
        # at the cap the bound so far comes back, flagged conservative,
        # and no NonConvergence is raised
        monkeypatch.setattr(constants, "SIGMA_MAX_ITERS", 1)
        rng = np.random.default_rng(41)
        for n in (2, 4, 8):
            b, A, Y, exact = self._diagonal_instance(rng, n)
            v = min_residual(b, A, Y)
            assert v.flag is CertFlag.CONSERVATIVE
            assert 0.0 <= v.value <= exact + 1e-13

    def test_oracle_set_bound(self):
        # an oracle ball is bounded by sup_norm ||v||, exact for a ball, so
        # the gap closes on the closed-form value; an oracle box, bounded the
        # same way, stays at or below the box value
        b, A = np.array([2.0, 0.5]), np.array([[1.0, 0.3], [0.0, 0.8]])
        ball = ProjectionOracle(lambda z: z / max(1.0, np.linalg.norm(z)), 1.0, 2)
        v = min_residual(b, A, ball)
        assert v.flag is CertFlag.ANALYTIC
        assert abs(v.value - min_residual(b, A, Ball(1.0, 2)).value) <= 1e-9
        box = Box([-0.5, -0.5], [0.5, 0.5])
        oracle = ProjectionOracle(box.project, box.sup_norm(), 2)
        assert min_residual(b, A, oracle).value <= min_residual(b, A, box).value

    def test_box_bound_keeps_its_flag(self):
        # the same bound, with its flag, is the sigma and delta of a ba
        # report and the delta of a vi payoff on a box
        m = make_affine(np.array([[1.0, 0.3], [0.0, 0.8]]), [2.0, 0.5], 1.0)
        Y = Box([-0.5, -0.5], [0.5, 0.5])
        rep = ba_report(m, Y)
        v = min_residual(m.val(np.zeros(2)), m.jac(np.zeros(2)), Y)
        assert rep.sigma == v and rep.delta == CertValue(2.0 * v.value, v.flag)
        assert delta_const(vi_payoff(m), Y) == v


class TestDelta:
    def test_affine_payoff_analytic(self):
        m = make_affine(np.eye(2), [2.0, 0.0], 1.0)
        p = vi_payoff(m)
        v = delta_const(p, Ball(1.0, 2))
        assert v.flag is CertFlag.ANALYTIC
        assert abs(v.value - 1.0) <= 1e-8

    def test_sampled_fallback(self):
        m = make_affine(np.eye(2), [2.0, 0.0], 1.0)
        p = vi_payoff(m)
        p.grad0_affine = None
        v = delta_const(p, Ball(1.0, 2), n_samples=4000, seed=0)
        assert v.flag is CertFlag.SAMPLED
        # a sampled inf can only overestimate the true value 1
        assert 1.0 - 1e-9 <= v.value <= 1.05


class TestReports:
    def test_vi_affine_numbers(self):
        m = make_affine(np.eye(2), [2.0, 0.0], 1.0)
        rep = vi_report(m)
        assert abs(rep.theta.value - 1.0) <= 1e-9
        assert rep.gamma.value == 0.0
        assert abs(rep.M.value - 2.0) <= 1e-9
        assert abs(rep.sigma.value - 1.0) <= 1e-8
        assert abs(rep.r_max - 0.25) <= 1e-8
        assert rep.certified

    def test_vi_sampled_not_certified(self):
        m = bare(make_affine(np.eye(2), [2.0, 0.0], 1.0))
        rep = vi_report(m, seed=0)
        assert not rep.certified
        assert rep.theta.flag is CertFlag.SAMPLED

    def test_ba_constant_numbers(self):
        m = make_constant([2.0, 0.0], 1.0)
        rep = ba_report(m, Ball(1.0, 2))
        assert abs(rep.eta.value - 1.0) <= 1e-9
        assert abs(rep.L.value - 2.0) <= 1e-9
        assert abs(rep.sigma.value - 2.0) <= 1e-8
        assert abs(rep.delta.value - 4.0) <= 1e-8
        assert abs(rep.r_max - 1.0) <= 1e-8

    def test_zero_sigma(self):
        # F(0) = 0 kills the positivity hypothesis: no radius is admissible
        m = make_affine(np.eye(2), [0.0, 0.0], 1.0)
        rep = vi_report(m)
        assert rep.r_max == 0.0

    def test_vacuous_denominator(self):
        # M = 0 (constant map): the radius bound degenerates to rho itself
        m = make_constant([3.0, 4.0], 1.0)
        rep = vi_report(m)
        assert rep.r_max == 1.0


RULE_PROBLEM = {"kind": "affine", "A": [[1.0, 0.2], [0.0, 1.0]], "b": [2.0, 0.5], "rho": 1.0}


def rule_report(rule):
    """(map, report) of each radius rule: a VI report, an approximation
    report on a box Y, and the saddle report of statement 1."""
    cfg = parse_config({"problem": RULE_PROBLEM}, "saddle")
    m = cfg.smooth_map
    if rule == "vi":
        return m, vi_report(m)
    if rule == "ba":
        return m, ba_report(m, Box([-0.6, -0.6], [0.6, 0.6]))
    cert = run_saddle(vi_payoff(m), None, None, vi_report(m), mode="certified", seed=0,
                      fail=raise_failure)
    return m, cert.constants


@pytest.mark.parametrize("rule", sorted(constants.RADIUS_RULES))
class TestRadiusRules:
    def test_r_max_and_weight_follow_the_table(self, rule):
        m, rep = rule_report(rule)
        num, den, scale = constants.RADIUS_RULES[rule]
        assert rep.radius_rule == rule
        assert 0.0 < rep.r_max < rep.rho
        numerator, denominator = getattr(rep, num).value, getattr(rep, den).value
        assert rep.r_max == min(rep.rho, numerator / (scale * denominator))
        assert rep.weight is getattr(rep, den)
        cfg = gated_problem(m, rep, None, "certified")
        assert (cfg.r, cfg.r_max, cfg.L) == (rep.r_max, rep.r_max, rep.weight.value)
        assert cfg.smoothness == 2.0 * cfg.L + rep.theta.value

    def test_zero_numerator_admits_no_radius(self, rule):
        m, rep = rule_report(rule)
        num = constants.RADIUS_RULES[rule][0]
        zero = dataclasses.replace(rep, **{num: CertValue(0.0, CertFlag.ANALYTIC)})
        assert zero.r_max == 0.0
        with pytest.raises(HypothesisViolation, match=f"^{num} = 0"):
            gate(zero, None, "certified", rep.rho)

    def test_zero_denominator_is_vacuous(self, rule):
        _, rep = rule_report(rule)
        den = constants.RADIUS_RULES[rule][1]
        zero = dataclasses.replace(rep, **{den: CertValue(0.0, CertFlag.ANALYTIC)})
        assert zero.r_max == rep.rho

    @pytest.mark.parametrize("change", ["rule", "numerator", "denominator", "rho", "rho-sign"])
    def test_a_report_without_its_rule_is_invalid(self, rule, change):
        _, rep = rule_report(rule)
        num, den, _ = constants.RADIUS_RULES[rule]
        fields = {"rule": {"radius_rule": "sigma"}, "numerator": {num: None},
                  "denominator": {den: None}, "rho": {"rho": 0.0}, "rho-sign": {"rho": -1.0}}
        with pytest.raises(InvalidInput):
            dataclasses.replace(rep, **fields[change])


def test_replaced_sigma_recomputes_r_max():
    # r_max was a settable field that dataclasses.replace carried over: with a
    # quarter of sigma it stayed 0.2314, and solve_vi certified a passing run there
    m = make_affine([[1.0, 0.2], [0.0, 1.0]], [2.0, 0.5], 1.0)
    rep = vi_report(m)
    quarter = dataclasses.replace(
        rep, sigma=dataclasses.replace(rep.sigma, value=rep.sigma.value / 4))
    assert quarter.r_max == min(rep.rho, quarter.sigma.value / (2.0 * rep.M.value)) < rep.r_max
    with pytest.raises(HypothesisViolation, match="admissible radius") as err:
        solve_vi(m, r=rep.r_max, report=quarter)
    assert err.value.deficit == rep.r_max - quarter.r_max
    names = []
    gated_problem(m, quarter, rep.r_max, "certified", fail=lambda name, error: names.append(name))
    assert names == ["radius-admissible"]
    with pytest.raises(ValueError, match="r_max"):
        dataclasses.replace(rep, r_max=rep.r_max)
    with pytest.raises(TypeError, match="r_max"):
        ConstantsReport(rho=1.0, theta=rep.theta, gamma=rep.gamma, M=rep.M, sigma=rep.sigma,
                        r_max=rep.r_max)


def test_reports_take_no_sample_count():
    # the sampled constants draw REPORT_SAMPLES points; the count is no
    # keyword, and a positional count is refused rather than read as the seed
    m, Y = bare(make_affine(np.eye(2), [2.0, 0.0], 1.0)), Ball(1.0, 2)
    with pytest.raises(TypeError, match="samples"):
        vi_report(m, samples=20)
    with pytest.raises(TypeError, match="samples"):
        ba_report(m, Y, samples=20)
    with pytest.raises(TypeError):
        vi_report(m, 20)
    with pytest.raises(TypeError):
        ba_report(m, Y, 20)
    theta = estimate_theta(m, samples=constants.REPORT_SAMPLES, seed=0)
    assert vi_report(m).theta == ba_report(m, Y).theta == theta
