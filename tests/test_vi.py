"""Variational inequality certificates: solve, gates, shifted form, small radius."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ballsaddle import (Ball, Box, CertificationError, HypothesisViolation,
                        InvalidInput, SmoothMap, check_vi, make_affine, make_constant,
                        make_quadratic, small_radius, solve_best_approx, solve_prox_pair,
                        solve_vi, solve_vi_shifted, vi_report)
from ballsaddle import saddle as saddle_module
from ballsaddle.saddle import AUDIT_SAMPLES, CHECK_SAMPLES, UNIQUENESS_STARTS
from ballsaddle.vi import run_vi


def affine_instance():
    # F(x) = x + (2, 0) on the unit ball: theta = 1, M = 2, sigma = 1,
    # admissible radius 1/4, solution (-1/4, 0)
    return make_affine(np.eye(2), [2.0, 0.0], 1.0)


def bare(m):
    """The same map with its declared constants dropped."""
    return SmoothMap(m.dimension, m.domain_radius, m.value, m.jacobian)


@pytest.fixture
def solve_calls(count_calls):
    return count_calls(saddle_module.solve_saddle)


@pytest.fixture
def fixed_point_calls(count_calls):
    return count_calls(saddle_module.sphere_fixed_point)


@pytest.fixture
def probe_calls(count_calls):
    return count_calls(saddle_module.uniqueness_probe)


def box_pair(**settings):
    # f = (2, 0) with the box T = [-1/2, 1/2]^2 inside Y = ball(1): statement 5
    return solve_prox_pair(make_constant([2.0, 0.0], 1.0), Ball(1.0, 2),
                           Box([-0.5, -0.5], [0.5, 0.5]), r=0.5, **settings)


def quartic_gate_map(scale=1.0):
    # F(x) = (x^T x) e_1 pattern via Q1 = I: theta1 = 2, gamma1 = 2, M1 = 8
    Q = np.zeros((2, 2, 2))
    Q[0] = np.eye(2) * scale
    return make_quadratic(np.zeros((2, 2)), np.zeros(2), Q, 1.0)


class TestSolveVI:
    def test_affine_certificate(self):
        cert = solve_vi(affine_instance(), tol=1e-10)
        assert cert.passed and cert.mode == "certified"
        assert abs(cert.r - 0.25) <= 1e-9
        assert_allclose(cert.x_star, [-0.25, 0.0], atol=1e-7)
        assert cert.collapse_gap <= 1e-6
        assert cert.direction_gap <= 1e-6
        assert cert.vi_check.passed
        assert cert.uniqueness["passed"]

    def test_constant_map_closed_form(self):
        # F = (3, 4): the solution is the antipodal sphere point -r F / |F|
        cert = solve_vi(make_constant([3.0, 4.0], 1.0), r=0.5, tol=1e-10)
        assert_allclose(cert.x_star, [-0.3, -0.4], atol=1e-7)
        assert cert.passed

    def test_solution_direction_identity(self):
        # x* = -r F(x*) / ||F(x*)|| is reported as the direction gap
        cert = solve_vi(affine_instance(), tol=1e-10)
        F = cert.x_star + np.array([2.0, 0.0])
        assert_allclose(cert.x_star, -0.25 * F / np.linalg.norm(F), atol=1e-6)

    def test_radius_above_admissible_rejected(self):
        with pytest.raises(HypothesisViolation) as exc:
            solve_vi(affine_instance(), r=0.3)
        assert exc.value.deficit == pytest.approx(0.05, abs=1e-9)

    def test_zero_sigma_rejected(self):
        m = make_affine(np.eye(2), [0.0, 0.0], 1.0)
        with pytest.raises(HypothesisViolation):
            solve_vi(m)

    def test_sampled_constants_need_heuristic_mode(self):
        m = bare(affine_instance())
        with pytest.raises(CertificationError):
            solve_vi(m, r=0.2)
        cert = solve_vi(m, r=0.2, mode="heuristic", tol=1e-10)
        assert cert.mode == "heuristic"
        assert not cert.constants.certified
        assert cert.passed  # checks still run and still pass

    def test_heuristic_beyond_admissible_returns_failing_certificate(self):
        # r = 1 is four times r_max: the saddle pair does not collapse, and
        # the run names that check instead of raising
        cert = solve_vi(affine_instance(), r=1.0, mode="heuristic")
        assert cert.mode == "heuristic" and not cert.passed
        assert cert.failed_checks()[0] == "collapse"
        assert cert.collapse_gap == pytest.approx(0.25, abs=1e-6)
        assert cert.to_dict()["passed"] is False

    def test_bad_mode_rejected(self):
        with pytest.raises(InvalidInput):
            solve_vi(affine_instance(), mode="party")

    @pytest.mark.parametrize("keyword", ["tolerance", "step", "fail", "smoothness", "point",
                                         "gate", "uniqueness", "check_tol", "strict_margin"])
    def test_unknown_setting_is_a_type_error(self, keyword):
        # the settings go to SaddleConfig, which knows only its own fields;
        # the step follows from the report, the check thresholds are fixed,
        # the failure sink and a stored point belong to the internal run_vi,
        # and the shift gate record to shift_problem
        with pytest.raises(TypeError, match=keyword):
            solve_vi(affine_instance(), **{keyword: 1e-8})
        with pytest.raises(TypeError, match=keyword):
            solve_vi_shifted(quartic_gate_map(), [16.0, 0.0], 1.0, **{keyword: 1e-8})

    def test_bad_exclusion_factor_stops_before_any_solve(self, solve_calls):
        # the factor is the fixed EXCLUSION_FACTOR, no setting of a solve
        with pytest.raises(TypeError, match="exclusion_factor"):
            solve_vi(affine_instance(), exclusion_factor=1.0)
        assert solve_calls == []

    def test_run_vi_takes_the_target_not_a_gate_record(self):
        # run_vi derives statement 4's shift record, and its label, from w
        m = quartic_gate_map()
        assert run_vi(m, 1.0, None, {}, mode="certified", seed=0, w=[16.0, 0.0]).theorem == "4"
        with pytest.raises(TypeError, match="gate"):
            run_vi(m, 1.0, None, {}, mode="certified", seed=0, gate={"M1": 1.0})

    def test_theorem_is_not_a_keyword(self):
        # statement 4 needs the shift gate, so only solve_vi_shifted labels it
        with pytest.raises(TypeError, match="theorem"):
            solve_vi(affine_instance(), theorem="4")

    @pytest.mark.parametrize("name, value", [("n_samples", 0), ("n_samples", -5),
                                             ("n_samples", 100.0),
                                             ("uniqueness_starts", 2.5),
                                             ("uniqueness_starts", -3),
                                             ("uniqueness_starts", True)])
    def test_bad_count_stops_before_any_solve(self, solve_calls, name, value):
        # the counts of the sampled checks and of the probe are constants: no
        # solve has them as a setting, whatever their value
        with pytest.raises(TypeError, match=name):
            solve_vi(affine_instance(), **{name: value})
        with pytest.raises(TypeError, match=name):
            box_pair(**{name: value})
        assert solve_calls == []

    def test_counts_reach_the_checks_and_the_probe(self):
        # the proved inequality is audited on AUDIT_SAMPLES ball samples, a
        # quarter as many sphere samples, the 4 axis points of ball(r) in 2-d
        # and the antipode of x*, less the axis point x* = (-r, 0) itself
        cert = solve_vi(affine_instance())
        assert cert.vi_check.n_samples == AUDIT_SAMPLES + AUDIT_SAMPLES // 4 + 4
        # the saddle checks of the prox pair sample CHECK_SAMPLES points of the box
        cert = box_pair()
        assert cert.saddle_checks.report("y-maximal").n_samples == CHECK_SAMPLES
        # only the prox pair of statement 5 still runs the probe
        assert cert.uniqueness["starts"] == UNIQUENESS_STARTS

    @pytest.mark.parametrize("solve", [
        lambda **kw: solve_vi(affine_instance(), **kw),
        lambda **kw: solve_vi_shifted(quartic_gate_map(), [16.0, 0.0], 1.0, **kw),
        lambda **kw: solve_best_approx(affine_instance(), **kw)],
        ids=["vi", "vi-shifted", "best-approx"])
    def test_start_count_is_a_type_error(self, solve_calls, solve):
        with pytest.raises(TypeError, match="uniqueness_starts"):
            solve(uniqueness_starts=16)
        assert solve_calls == []

    @pytest.mark.parametrize("solve", [
        lambda **kw: solve_vi(affine_instance(), **kw),
        lambda **kw: solve_vi_shifted(quartic_gate_map(), [16.0, 0.0], 1.0, **kw),
        lambda **kw: solve_best_approx(affine_instance(), **kw)],
        ids=["vi", "vi-shifted", "best-approx"])
    def test_sample_count_is_a_type_error(self, solve_calls, solve):
        # statements 2, 4 and 6 prove their inequality: no count would be read
        with pytest.raises(TypeError, match="n_samples"):
            solve(n_samples=2000)
        assert solve_calls == []

    @pytest.mark.parametrize("solve", [
        lambda: solve_vi(affine_instance()),
        lambda: solve_vi_shifted(quartic_gate_map(), [16.0, 0.0], 1.0),
        lambda: solve_best_approx(affine_instance()),
        lambda: solve_prox_pair(affine_instance(), Ball(1.0, 2), None)],
        ids=["vi", "vi-shifted", "best-approx", "prox-pair-default-sets"])
    def test_one_solve_and_no_probe(self, solve_calls, fixed_point_calls, probe_calls, solve):
        # the proved contraction solves: one fixed-point iteration, no extragradient
        cert = solve()
        assert (len(solve_calls), len(fixed_point_calls), len(probe_calls)) == (0, 1, 0)
        assert cert.uniqueness["method"] == "contraction" and cert.passed

    @pytest.mark.parametrize("solve", [
        # q = 1 / (2 - 1) = 1 at r = 1 proves no contraction
        lambda: solve_vi(affine_instance(), r=1.0, mode="heuristic"),
        # sampled constants: theta is a lower bound, so q proves nothing
        lambda: solve_vi(bare(affine_instance()), r=0.2, mode="heuristic"),
        lambda: solve_best_approx(bare(affine_instance()), mode="heuristic")],
        ids=["vi-q-one", "vi-sampled", "best-approx-sampled"])
    def test_unproved_contraction_runs_the_extragradient(self, solve_calls, fixed_point_calls,
                                                         solve):
        solve()
        assert (len(solve_calls), len(fixed_point_calls)) == (1, 0)

    def test_contraction_record(self):
        # q = r theta / (||F(0)|| - r theta) = 0.2 / 1.8, and the solver's
        # direction gap bounds the distance to the unique solution
        cert = solve_vi(affine_instance(), r=0.2, tol=1e-6)
        uniq = cert.uniqueness
        assert uniq["method"] == "contraction" and uniq["passed"]
        assert uniq["q"] == pytest.approx(0.2 / 1.8, rel=1e-12)
        assert uniq["error_bound"] == pytest.approx(cert.direction_gap / (1 - 0.2 / 1.8))
        assert np.linalg.norm(cert.x_star - [-0.2, 0.0]) <= uniq["error_bound"]

    def test_heuristic_without_contraction_names_uniqueness(self):
        # r = 1 is beyond r_max: q = 1 / (2 - 1) = 1 proves nothing
        cert = solve_vi(affine_instance(), r=1.0, mode="heuristic")
        assert (cert.uniqueness["q"], cert.uniqueness["passed"]) == (1.0, False)
        assert "uniqueness" in cert.failed_checks()
        # ||F(0)|| = 2 is below r theta = 3: no floor keeps F away from 0
        cert = solve_vi(make_affine(np.diag([3.0, 0.0]), [0.0, 2.0], 1.0), r=1.0,
                        mode="heuristic")
        assert cert.uniqueness == {"method": "contraction", "q": np.inf,
                                   "error_bound": np.inf, "passed": False}
        assert "uniqueness" in cert.failed_checks()

    def test_prox_pair_still_probes(self, solve_calls, probe_calls):
        assert box_pair().uniqueness["starts"] == 16
        assert (len(solve_calls), len(probe_calls)) == (17, 1)

    def test_certificate_dict_shape(self):
        d = solve_vi(affine_instance(), tol=1e-10).to_dict()
        assert d["theorem"] == "2"
        assert set(d) >= {"mode", "r", "solution", "residuals", "constants",
                          "checks", "passed"}
        assert d["checks"]["vi"]["name"] == "vi-double-inequality"


@pytest.mark.parametrize("r", [2.0, 0.0, -0.1, np.nan, np.inf])
@pytest.mark.parametrize("solve", [
    lambda m, r: solve_vi(m, r),
    lambda m, r: solve_vi(m, r, mode="heuristic"),
    lambda m, r: solve_best_approx(m, r),
    lambda m, r: solve_prox_pair(m, Ball(1.0, 2), None, r)],
    ids=["vi-certified", "vi-heuristic", "best-approx", "prox-pair"])
def test_radius_outside_the_ball_is_invalid(solve, r):
    # the gate of every solve takes r only in (0, rho], whatever the mode
    with pytest.raises(InvalidInput, match=r"r must lie in \(0, 1.0\], got"):
        solve(affine_instance(), r)


def test_bare_map_matches_its_catalog_twin():
    # a bare map takes the row-wise loop of vals in the audits, and its
    # restriction in small_radius keeps the declared constants it is given
    A, b = np.array([[1.0, 0.3], [-0.2, 0.8]]), np.array([2.0, 0.5])
    twin = make_affine(A, b, 1.0)
    plain = SmoothMap(2, 1.0, lambda x: A.dot(x) + b, lambda x: A.copy(),
                      analytic=twin.analytic)
    assert plain.value_batch is None and twin.value_batch is not None
    assert plain.restrict(0.5).analytic is twin.analytic
    for solve in (solve_vi, solve_best_approx):
        assert solve(plain).to_dict() == solve(twin).to_dict()
    assert small_radius(plain).to_dict() == small_radius(twin).to_dict()


class TestCheckVI:
    def test_margin_positive_at_solution(self):
        m = affine_instance()
        cert = solve_vi(m, tol=1e-10)
        rep = check_vi(m, cert.x_star, cert.r, n_samples=3000, seed=5)
        assert rep.passed and rep.margin > 0

    def test_wrong_point_yields_witness(self):
        m = affine_instance()
        rep = check_vi(m, np.array([0.25, 0.0]), 0.25, n_samples=2000, seed=0)
        assert not rep.passed
        assert rep.witness is not None
        # the true solution itself beats the impostor
        assert rep.details["worst_first_form"] > 0

    def test_interior_point_fails(self):
        m = affine_instance()
        rep = check_vi(m, np.array([-0.1, 0.0]), 0.25, n_samples=2000, seed=0)
        assert not rep.passed

    @pytest.mark.parametrize("factor", [0.0, 1.0, 3.0])
    def test_exclusion_factor_outside_unit_interval_rejected(self, factor):
        # a factor of 1 or more could exclude every sample; the factor is
        # now the fixed EXCLUSION_FACTOR, and no caller can pass one
        with pytest.raises(TypeError, match="exclusion_factor"):
            check_vi(affine_instance(), np.array([-0.25, 0.0]), 0.25, n_samples=50,
                     exclusion_factor=factor)

    @pytest.mark.parametrize("x_star", [[0.0, 0.0], [-0.25, 0.0], [0.1, -0.2]])
    def test_wide_exclusion_keeps_samples(self, x_star, monkeypatch):
        # any factor in (0, 1) keeps a sample: with one just below 1 only
        # points about r from x* survive, and an axis point +-r e_1 always does
        monkeypatch.setattr(saddle_module, "EXCLUSION_FACTOR", 0.999)
        rep = check_vi(affine_instance(), np.array(x_star), 0.25, n_samples=10, seed=1)
        assert rep.n_samples >= 1


class TestShifted:
    def test_accepts_above_threshold(self):
        # M1 = 8, threshold 16; w = (16, 0) meets it exactly
        cert = solve_vi_shifted(quartic_gate_map(), [16.0, 0.0], r=1.0, tol=1e-10)
        assert cert.theorem == "4"
        assert cert.passed
        assert_allclose(cert.x_star, [1.0, 0.0], atol=1e-6)
        assert cert.gate["threshold"] == pytest.approx(16.0)
        assert cert.gate["deficit"] == 0.0

    def test_rejects_below_threshold_with_deficit(self):
        with pytest.raises(HypothesisViolation) as exc:
            solve_vi_shifted(quartic_gate_map(), [15.9, 0.0], r=1.0)
        assert exc.value.deficit == pytest.approx(0.1, abs=1e-9)

    def test_rejects_nonvanishing_jacobian(self):
        with pytest.raises(HypothesisViolation):
            solve_vi_shifted(affine_instance(), [100.0, 0.0])


class TestSmallRadius:
    def test_affine_values(self):
        # |F(0)| = 2, |jac(0)| = 1: r* = (1 - eps) * 2 at eps = 0.5 -> 1.0,
        # capped at rho = 1
        res = small_radius(affine_instance(), epsilon=0.5)
        assert res.r_star == pytest.approx(1.0)
        assert res.sigma_floor == pytest.approx(1.0)
        assert res.report.sigma.value >= res.sigma_floor - 1e-9

    def test_shrinks_with_epsilon(self):
        m = make_affine(4.0 * np.eye(2), [2.0, 0.0], 1.0)
        tight = small_radius(m, epsilon=0.9)
        loose = small_radius(m, epsilon=0.1)
        assert tight.r_star < loose.r_star
        # r* = (1 - eps) |F(0)| / |jac(0)| = (1 - eps) / 2 here
        assert tight.r_star == pytest.approx(0.05)
        assert loose.r_star == pytest.approx(0.45)

    def test_restricted_map_certifies(self):
        res = small_radius(make_affine(4.0 * np.eye(2), [2.0, 0.0], 1.0),
                           epsilon=0.5)
        cert = solve_vi(res.map, report=res.report, tol=1e-10)
        assert cert.passed

    def test_vanishing_origin_rejected(self):
        with pytest.raises(HypothesisViolation):
            small_radius(make_affine(np.eye(2), [0.0, 0.0], 1.0))

    def test_epsilon_domain(self):
        for eps in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(InvalidInput):
                small_radius(affine_instance(), epsilon=eps)

    def test_sigma_floor_honest(self):
        # the actual sigma of the restricted map never undercuts the floor
        rng = np.random.default_rng(3)
        for _ in range(5):
            A = rng.normal(size=(2, 2))
            b = rng.normal(size=2)
            if np.linalg.norm(b) < 0.3:
                continue
            res = small_radius(make_affine(A, b, 1.0), epsilon=0.3)
            assert res.report.sigma.value >= res.sigma_floor - 1e-8
