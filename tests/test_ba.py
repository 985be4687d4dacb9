"""Best-approximation certificates: prox pairs, collapse, nearest point."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ballsaddle import (Ball, Box, HypothesisViolation, InvalidInput,
                        ProjectionOracle, SmoothMap, ba_small_radius, check_nearest_point, dist_ball,
                        make_affine, make_constant, solve_best_approx,
                        solve_prox_pair)
from ballsaddle import ba as ba_module
from ballsaddle import saddle as saddle_module
from ballsaddle.catalog import MapPayoff
from ballsaddle.saddle import UNIQUENESS_STARTS, SaddlePoint, raise_failure


def constant_two():
    # f = (2, 0) on the unit ball: eta = 1, L = 2, sigma = 2, r_max = 1
    return make_constant([2.0, 0.0], 1.0)


def shifted_identity():
    # f(x) = x + (2, 0): eta = 0, L = 2, sigma = dist((2,0), ball(1)) = 1,
    # so r_max = sigma / L = 1/2
    return make_affine(np.eye(2), [2.0, 0.0], 1.0)


class TestBestApprox:
    def test_constant_instance(self):
        cert = solve_best_approx(constant_two(), tol=1e-10)
        assert cert.theorem == "6"
        assert cert.passed
        assert abs(cert.r - 1.0) <= 1e-9
        # x* is the projection of f = (2, 0) onto ball(1)
        assert_allclose(cert.x_star, [1.0, 0.0], atol=1e-7)
        assert cert.collapse_gap <= 1e-6
        assert cert.distance_gap <= 1e-6
        assert cert.nearest_check.passed

    def test_shifted_identity_instance(self):
        cert = solve_best_approx(shifted_identity(), tol=1e-10)
        assert abs(cert.r - 0.5) <= 1e-9
        assert_allclose(cert.x_star, [0.5, 0.0], atol=1e-7)
        assert cert.passed

    def test_distance_identity_holds(self):
        cert = solve_best_approx(constant_two(), tol=1e-10)
        fx = np.array([2.0, 0.0])
        assert abs(np.linalg.norm(fx - cert.x_star)
                   - dist_ball(fx, cert.r)) <= 1e-6

    def test_radius_above_admissible_rejected(self):
        with pytest.raises(HypothesisViolation):
            solve_best_approx(shifted_identity(), r=0.8)

    def test_fixed_point_at_origin_rejected(self):
        # f(0) = 0 makes sigma = 0
        m = make_affine(2.0 * np.eye(2), [0.0, 0.0], 1.0)
        with pytest.raises(HypothesisViolation):
            solve_best_approx(m)

    def test_contraction_record(self):
        # q = r theta / max(r, ||f(0)|| - r theta) = 0.5 / 1.5 for f(x) = x + (2, 0)
        cert = solve_best_approx(shifted_identity(), tol=1e-6)
        uniq = cert.uniqueness
        assert uniq["method"] == "contraction" and uniq["passed"]
        assert uniq["q"] == pytest.approx(1 / 3, rel=1e-12)
        gap = np.linalg.norm(cert.x_star - cert.r * (cert.x_star + [2.0, 0.0])
                             / np.linalg.norm(cert.x_star + [2.0, 0.0]))
        assert uniq["error_bound"] == pytest.approx(1.5 * gap)
        assert np.linalg.norm(cert.x_star - [0.5, 0.0]) <= uniq["error_bound"]
        # a constant map is a contraction with q = 0
        assert solve_best_approx(constant_two()).uniqueness["q"] == 0.0

    def test_heuristic_without_contraction_names_uniqueness(self):
        # r = 1: q = 1 / max(1, 2 - 1) = 1, the projection no longer contracts
        cert = solve_best_approx(shifted_identity(), r=1.0, mode="heuristic")
        assert (cert.uniqueness["q"], cert.uniqueness["passed"]) == (1.0, False)
        # nor does the nearest-point proof hold without a proved x*
        assert cert.failed_checks() == ["uniqueness", "nearest-point-proof"]

    def test_sphere_membership_is_an_identity(self):
        # statement 6 runs no saddle check; its certificate gates | ||x*|| - r |
        # as check_saddle did: L > 0 and r within the admissible radius
        m = shifted_identity()
        cert = solve_best_approx(m)
        assert cert.sphere_gap <= 1e-12
        assert dataclasses.replace(cert, sphere_gap=2e-6).failed_checks() == [
            "sphere-membership"]
        rep = cert.constants  # r_max = sigma / L: a quarter of sigma puts r beyond it
        beyond = dataclasses.replace(rep, sigma=dataclasses.replace(
            rep.sigma, value=rep.sigma.value / 4))
        assert beyond.r_max < cert.r
        point = SaddlePoint(cert.x_star, cert.y_star, cert.residual, cert.iterations, 1.0)
        again = ba_module.run_ba(m, Ball(m.domain_radius, m.dimension), None, cert.r, beyond,
                                 {}, point, mode="heuristic", seed=0, fail=raise_failure,
                                 theorem="6")
        assert again.sphere_gap is None and again.passed

    @pytest.mark.parametrize("keyword", ["tolerance", "step", "fail", "theorem", "point",
                                         "gate", "uniqueness", "starts"])
    def test_unknown_setting_is_a_type_error(self, keyword):
        # the failure sink, the statement label, a stored point and probe
        # record and the start count are arguments of the internal run_ba
        m = shifted_identity()
        with pytest.raises(TypeError, match=keyword):
            solve_best_approx(m, **{keyword: 1e-8})
        with pytest.raises(TypeError, match=keyword):
            solve_prox_pair(m, Ball(m.domain_radius, m.dimension), None, **{keyword: 1e-8})


def test_one_payoff_per_run(monkeypatch):
    # a box prox-pair's solve, probe and saddle checks share one payoff; a
    # certified best-approx solves by the fixed point and checks in closed
    # form, so it builds none
    built, post_init = [], MapPayoff.__post_init__

    def counted(payoff):
        built.append(1)
        post_init(payoff)
    monkeypatch.setattr(MapPayoff, "__post_init__", counted)
    assert solve_prox_pair(constant_two(), Ball(1.0, 2), Box([-0.5, -0.5], [0.5, 0.5]),
                           r=0.5).passed
    assert len(built) == 1
    built.clear()
    assert solve_best_approx(shifted_identity()).passed and built == []


class TestProxPair:
    def test_box_dual_set(self):
        # T is a box inside Y = ball(1); y* must be the box projection of f(x*)
        m = constant_two()
        Y = Ball(1.0, 2)
        T = Box([-0.5, -0.5], [0.5, 0.5])
        cert = solve_prox_pair(m, Y, T, r=0.5, tol=1e-10)
        assert cert.theorem == "5"
        assert_allclose(cert.y_star, T.project(np.array([2.0, 0.0])), atol=1e-6)
        assert cert.projection_gap <= 1e-6
        assert cert.passed

    def test_projection_oracle_T_matches_its_box(self):
        # an oracle T is sampled through its projection, both in the
        # containment check and in the saddle checks; the pair and its
        # probe record are those of the box itself
        box = Box([-0.5, -0.5], [0.5, 0.5])
        oracle = ProjectionOracle(box.project, box.sup_norm(), 2)
        for m, r in ((constant_two(), 0.5), (shifted_identity(), 0.4)):
            want = solve_prox_pair(m, Ball(1.0, 2), box, r=r)
            got = solve_prox_pair(m, Ball(1.0, 2), oracle, r=r)
            assert got.passed and got.uniqueness["starts"] == UNIQUENESS_STARTS
            assert np.array_equal(got.x_star, want.x_star)
            assert np.array_equal(got.y_star, want.y_star)
            assert got.uniqueness == want.uniqueness

    def test_default_sets_prove_uniqueness(self, monkeypatch):
        # Y = ball(rho) and T = ball(r) is statement 6's problem: the
        # contraction record replaces the probe, the saddle checks stay
        def no_probe(*args, **kwargs):
            raise AssertionError("the probe ran")
        monkeypatch.setattr(ba_module, "probe_uniqueness", no_probe)
        cert = solve_prox_pair(shifted_identity(), Ball(1.0, 2), None)
        assert cert.theorem == "5" and cert.passed
        assert cert.uniqueness == solve_best_approx(shifted_identity()).uniqueness
        assert cert.uniqueness["method"] == "contraction"
        assert "saddle" in cert.to_dict()["checks"]

    def test_other_ball_T_is_probed(self):
        cert = solve_prox_pair(shifted_identity(), Ball(1.0, 2), Ball(0.4, 2), r=0.5)
        assert cert.uniqueness["starts"] == UNIQUENESS_STARTS and cert.passed

    def test_certified_probe_is_never_empty(self):
        # a start count of 0 or 1 once gave a certified, passing box pair with
        # no uniqueness record at all; the probe size is now a constant
        cert = solve_prox_pair(constant_two(), Ball(1.0, 2), Box([-0.5, -0.5], [0.5, 0.5]),
                               r=0.5)
        assert cert.mode == "certified" and cert.passed
        assert cert.uniqueness["starts"] == UNIQUENESS_STARTS
        with pytest.raises(TypeError, match="uniqueness_starts"):
            solve_prox_pair(constant_two(), Ball(1.0, 2), Box([-0.5, -0.5], [0.5, 0.5]),
                            r=0.5, uniqueness_starts=0)

    def test_containment_enforced(self):
        # T sticks out of Y
        m = constant_two()
        with pytest.raises(HypothesisViolation):
            solve_prox_pair(m, Ball(0.3, 2), Box([-1.0, -1.0], [1.0, 1.0]), r=0.2)

    def test_containment_is_exact_for_a_box_in_a_ball(self):
        # the corners of this box have norm 1.05 > 1, but 128 uniform points
        # of it in n = 8 all lie well inside the unit ball
        n = 8
        m = make_affine(np.eye(n), np.eye(n)[0] * 2.0, 1.0)
        c = 1.05 / np.sqrt(n)
        with pytest.raises(HypothesisViolation, match="contained"):
            solve_prox_pair(m, Ball(1.0, n), Box(-c * np.ones(n), c * np.ones(n)), r=0.5)
        points = Box(-c * np.ones(n), c * np.ones(n)).sample(np.random.default_rng(7), 128)
        assert np.linalg.norm(points, axis=1).max() < 1.0

    @pytest.mark.parametrize("T, Y, held", [
        (Box([-0.5, -0.5], [0.5, 0.5]), Ball(np.sqrt(0.5), 2), True),
        (Box([-0.5, -0.5], [0.5, 0.5 + 1e-6]), Ball(np.sqrt(0.5), 2), False),
        (Ball(0.5, 2), Ball(0.5 + 1e-12, 2), True),
        (Ball(0.5 + 1e-6, 2), Ball(0.5, 2), False),
        (Box([-0.5, 0.0], [0.5, 0.2]), Box([-0.5, -1.0], [0.5, 0.2]), True),
        (Box([-0.5, 0.0], [0.5, 0.2]), Box([-0.4, -1.0], [0.5, 0.2]), False)])
    def test_containment_decided_exactly(self, T, Y, held):
        failed = []
        ba_module._containment_check(T, Y, 0, lambda name, error: failed.append(name))
        assert failed == ([] if held else ["containment"])

    def test_heuristic_mode_watermark(self):
        m = constant_two()
        m = SmoothMap(m.dimension, m.domain_radius, m.value, m.jacobian)
        cert = solve_prox_pair(m, Ball(1.0, 2), Ball(0.5, 2), r=0.5,
                               mode="heuristic", tol=1e-10)
        assert cert.mode == "heuristic"
        assert not cert.constants.certified

    def test_certificate_dict_shape(self):
        d = solve_best_approx(constant_two(), tol=1e-10).to_dict()
        assert d["theorem"] == "6"
        assert "nearest-point" in d["checks"] and "saddle" not in d["checks"]
        assert d["residuals"]["collapse_gap"] <= 1e-6


def test_statement_6_needs_its_sets():
    # the proof and the contraction are statement 6's only on Y = ball(rho), T = ball(r)
    m, Y = constant_two(), Ball(1.0, 2)
    report = ba_module.ba_report(m, Y)
    point = SaddlePoint(np.array([0.5, 0.0]), np.array([0.5, 0.0]), 0.0, 1, 0.0)
    with pytest.raises(InvalidInput, match="statement 6"):
        ba_module.run_ba(m, Y, Box([-0.5, -0.5], [0.5, 0.5]), 0.5, report, {}, point,
                         mode="certified", seed=0, fail=raise_failure, theorem="6")


def test_statement_6_on_other_sets_stops_before_any_solve(count_calls):
    # the sets are checked before the solve; this ran a solve and 16 probe solves first
    solves, probes, fixed_points = (count_calls(getattr(saddle_module, name)) for name in (
        "solve_saddle", "probe_uniqueness", "sphere_fixed_point"))
    m, Y = constant_two(), Ball(1.0, 2)
    with pytest.raises(InvalidInput, match="statement 6"):
        ba_module.run_ba(m, Y, Box([-0.5, -0.5], [0.5, 0.5]), 0.5, ba_module.ba_report(m, Y),
                         {}, mode="certified", seed=0, fail=raise_failure, theorem="6")
    assert solves == probes == fixed_points == []


class TestNearestCheck:
    def test_solution_passes(self):
        m = constant_two()
        rep = check_nearest_point(m, np.array([1.0, 0.0]), 1.0,
                                  n_samples=3000, seed=2)
        assert rep.passed and rep.margin > 0

    def test_impostor_fails(self):
        m = constant_two()
        rep = check_nearest_point(m, np.array([-1.0, 0.0]), 1.0,
                                  n_samples=2000, seed=2)
        assert not rep.passed and rep.witness is not None

    @pytest.mark.parametrize("factor", [0.0, 1.0, 3.0])
    def test_exclusion_factor_outside_unit_interval_rejected(self, factor):
        # the factor is the fixed EXCLUSION_FACTOR; no caller can pass one
        with pytest.raises(TypeError, match="exclusion_factor"):
            check_nearest_point(constant_two(), np.array([1.0, 0.0]), 1.0, n_samples=50,
                                exclusion_factor=factor)


class TestBASmallRadius:
    def test_values(self):
        # |f(0)| = 2, |jac(0)| = 1: r* = min(rho, (1 - eps) * 2) = 1 at eps = 0.5
        res = ba_small_radius(shifted_identity(), epsilon=0.5)
        assert res.r_star == pytest.approx(1.0)
        assert res.sigma_floor == pytest.approx(1.0)
        assert res.report.sigma.value >= res.sigma_floor - 1e-9
        assert res.report.radius_rule == "ba"

    def test_certifies_downstream(self):
        res = ba_small_radius(shifted_identity(), epsilon=0.5)
        cert = solve_best_approx(res.map, report=res.report, tol=1e-10)
        assert cert.passed

    def test_fixed_origin_rejected(self):
        with pytest.raises(HypothesisViolation):
            ba_small_radius(make_affine(np.eye(2), [0.0, 0.0], 1.0))
