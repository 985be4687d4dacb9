"""Catalog maps, payoffs and the JSON problem schema."""

import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ballsaddle import (Ball, Box, CertFlag, ConfigError, DimensionMismatch,
                        InvalidInput, Payoff, SmoothMap, ba_payoff, check_saddle, delta_const,
                        make_affine, op_norm,
                        make_constant, make_quadratic, map_from_dict, shift_map,
                        sample_ball, small_radius, solve_best_approx, solve_vi,
                        validate_map, validate_payoff, vi_payoff)
from ballsaddle import catalog
from ballsaddle.saddle import SaddlePoint, gated_problem


def rand_quadratic(rng, n, rho=1.0, scale=0.2):
    A = rng.normal(size=(n, n))
    b = rng.normal(size=n)
    Q = rng.normal(size=(n, n, n)) * scale
    Q = 0.5 * (Q + np.transpose(Q, (0, 2, 1)))
    return make_quadratic(A, b, Q, rho)


def closed_form_grads(family, m, x, y):
    """(grad_x J, grad_y J) of vi_payoff(m) or ba_payoff(m, .) from separate
    calls of the map's value and Jacobian."""
    f, J = m.val(x), m.jac(x)
    if family == "vi":
        return J.T @ (x - y) + f, -f
    return 2.0 * (x - f - J.T @ (x - y)), 2.0 * (f - y)


def test_constant_map():
    m = make_constant([1.0, -2.0], 1.0)
    assert_allclose(m.val(np.array([0.3, 0.3])), [1.0, -2.0])
    assert_allclose(m.jac(np.array([0.3, 0.3])), np.zeros((2, 2)))
    a = m.analytic
    assert a.theta == 0.0 and a.gamma == 0.0 and a.eta == 1.0
    assert a.theta_flag is CertFlag.ANALYTIC


def test_affine_map_constants():
    A = np.diag([2.0, 1.0])
    m = make_affine(A, [0.5, 0.0], 1.0)
    assert abs(m.analytic.theta - 2.0) <= 1e-9
    assert m.analytic.gamma == 0.0
    assert abs(m.analytic.eta - np.linalg.norm(np.eye(2) - A, 2)) <= 1e-9
    assert_allclose(m.val(np.array([1.0, 1.0])), [2.5, 1.0])


def test_affine_theta_matches_svd_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        A = rng.normal(size=(3, 3))
        m = make_affine(A, np.zeros(3), 1.0)
        assert abs(m.analytic.theta - np.linalg.norm(A, 2)) <= 1e-8


def test_quadratic_map_formula():
    # component i is (A x + b)_i + x^T Q_i x
    A = np.array([[1.0, 2.0], [0.0, 1.0]])
    b = np.array([0.5, -0.5])
    Q = np.zeros((2, 2, 2))
    Q[0] = np.array([[1.0, 0.5], [0.5, 0.0]])
    x = np.array([0.3, -0.2])
    m = make_quadratic(A, b, Q, 1.0)
    expect0 = A[0] @ x + b[0] + x @ Q[0] @ x
    assert_allclose(m.val(x)[0], expect0)
    assert_allclose(m.jac(x)[0], A[0] + 2.0 * Q[0] @ x)


def test_quadratic_jacobian_against_finite_differences():
    rng = np.random.default_rng(9)
    for _ in range(3):
        m = rand_quadratic(rng, 3)
        validate_map(m, n_points=30, seed=1)


def test_quadratic_constants_are_upper_bounds():
    # sampled sups never exceed the conservative declarations
    rng = np.random.default_rng(13)
    m = rand_quadratic(rng, 3)
    pts = m.vals(np.zeros((1, 3)))  # touch the batch path too
    assert pts.shape == (1, 3)
    worst_jac = max(np.linalg.norm(m.jac(x), 2)
                    for x in Ball(1.0, 3).sample(rng, 300))
    assert worst_jac <= m.analytic.theta + 1e-9
    assert m.analytic.theta_flag is CertFlag.CONSERVATIVE
    a, bpt = Ball(1.0, 3).sample(rng, 2)
    lip = np.linalg.norm(m.jac(a) - m.jac(bpt), 2) / np.linalg.norm(a - bpt)
    assert lip <= m.analytic.gamma + 1e-9


def test_quadratic_zero_q_collapses_to_affine():
    A = np.diag([1.0, 3.0])
    m = make_quadratic(A, [1.0, 0.0], np.zeros((2, 2, 2)), 1.0)
    assert m.analytic.theta_flag is CertFlag.ANALYTIC
    assert abs(m.analytic.theta - 3.0) <= 1e-9


def test_quadratic_rejects_asymmetric_q():
    Q = np.zeros((2, 2, 2))
    Q[0] = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(InvalidInput):
        make_quadratic(np.eye(2), np.zeros(2), Q, 1.0)


def test_restrict_tightens_quadratic_constants():
    rng = np.random.default_rng(17)
    m = rand_quadratic(rng, 2)
    small = m.restrict(0.25)
    assert small.domain_radius == 0.25
    assert small.analytic.theta < m.analytic.theta
    x = np.array([0.1, -0.1])
    assert_allclose(small.val(x), m.val(x))


def test_a_catalog_map_refuses_new_oracles():
    # the copy used to keep the old batch value and restriction: for the
    # negated map below, vals and restrict(0.5).val gave [1.1, 0.2] at
    # (0.1, 0.2) while val gave [-1.1, -0.2]
    m = make_affine(np.eye(2), (1, 0), 1)
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(m, value=lambda x: -m.value(x), jacobian=lambda x: -m.jacobian(x))
    for name in ("jacobian", "value_batch", "analytic", "dimension"):
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(m, **{name: getattr(m, name)})


@pytest.mark.parametrize("family", ["vi", "ba"])
def test_a_catalog_payoff_refuses_new_oracles(family):
    # the copy of the payoff of x + (2, 0) with the oracles of x + (0.5, 0)
    # used to keep its delta data and batch values: delta over T = ball(0.2)
    # came out 1.8 against the true 0.3, and values_x evaluated the old map
    m1, m2 = make_affine(np.eye(2), (2, 0), 1), make_affine(np.eye(2), (0.5, 0), 1)
    Y = Ball(1.0, 2)
    p1, p2 = (vi_payoff(m) if family == "vi" else ba_payoff(m, Y) for m in (m1, m2))
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(p1, value=p2.value, grads=p2.grads)
    for name in ("grad0_affine", "value_xbatch", "value_ybatch", "dimension", "x_radius"):
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(p1, **{name: getattr(p1, name)})
    # a new map rebuilds every derived field
    moved, T = dataclasses.replace(p1, smooth_map=m2), Ball(0.2, 2)
    assert delta_const(moved, T) == delta_const(p2, T)
    if family == "vi":
        assert delta_const(moved, T).value == pytest.approx(0.3, rel=1e-12)
    X, y = sample_ball(np.random.default_rng(0), 5, 2, 1.0), np.array([0.1, -0.2])
    assert_allclose(moved.values_x(X, y), [p2.value(x, y) for x in X], rtol=1e-12)
    assert_allclose(moved.values_y(y, X), [p2.value(y, x) for x in X], rtol=1e-12)
    # a restricted map moves the radius, and a "vi" payoff's y_set with it
    small = dataclasses.replace(p1, smooth_map=m1.restrict(0.5))
    assert small.x_radius == 0.5
    assert small.y_set == (Ball(0.5, 2) if family == "vi" else Y)


@pytest.mark.parametrize("kind, calls", [("affine", 1), ("quadratic", 17)])
def test_axis_lower_bounds_of_a_constant_jacobian_visit_the_origin(monkeypatch, kind, calls):
    # an affine map's Jacobian is the same at every axis point: the origin's
    # SVD alone gives the same bound and witness as all 2n + 1 of them
    rng = np.random.default_rng(4)
    doc = {"kind": kind, "A": rng.normal(size=(8, 8)).tolist(), "b": [1.0] * 8, "rho": 1.0}
    if kind == "quadratic":
        Q = 0.1 * rng.normal(size=(8, 8, 8))
        doc["Q"] = (Q + Q.transpose(0, 2, 1)).tolist()
    m = map_from_dict(doc)
    counted = []
    monkeypatch.setattr(catalog, "op_norm", lambda M: counted.append(M) or op_norm(M))
    bounds = catalog.axis_lower_bounds(m, {"theta": 10.0})
    assert len(counted) == calls
    monkeypatch.undo()
    full = catalog.axis_lower_bounds(SmoothMap(8, 1.0, m.value, m.jacobian),
                                     ("theta", "gamma", "eta"))
    assert bounds == {"theta": full["theta"]}
    assert catalog.axis_lower_bounds(m, ("theta", "gamma", "eta")) == full
    if kind == "affine":
        assert full["theta"] == (op_norm(np.array(doc["A"])), "0")


def test_restriction_of_a_declared_shifted_quadratic_keeps_its_constants():
    # theta and gamma recomputed on the smaller ball, the declared eta kept:
    # the values the closure-built restriction of the map gave, bit for bit
    doc = {"kind": "quadratic", "rho": 1.0, "shift": [0.5, -0.25, 1.0],
           "A": [[1.0, 0.3, 0.0], [-0.2, 0.8, 0.1], [0.0, 0.4, 1.1]], "b": [2.0, 0.5, -1.0],
           "Q": [[[0.3, 0.1, 0.0], [0.1, 0.0, 0.2], [0.0, 0.2, -0.1]],
                 [[0.0, 0.0, 0.1], [0.0, 0.2, 0.0], [0.1, 0.0, 0.0]],
                 [[0.1, 0.0, 0.0], [0.0, -0.3, 0.1], [0.0, 0.1, 0.2]]],
           "analytic_constants": {"eta": 7.5}}
    m = map_from_dict(doc)
    conservative, analytic = CertFlag.CONSERVATIVE, CertFlag.ANALYTIC
    for r, theta in ((1.0, "0x1.1698da46adfd7p+1"), (0.3, "0x1.8a6f2965c2cc1p+0")):
        small = m.restrict(r)
        assert small.analytic == catalog.AnalyticConstants(
            float.fromhex(theta), float.fromhex("0x1.d107447123615p-1"), 7.5,
            conservative, conservative, analytic)
        x = np.array([0.1, -0.2, 0.05])
        assert small.val(x).tobytes() == m.val(x).tobytes()
        assert small.vals(x[None]).tobytes() == m.vals(x[None]).tobytes()


def test_a_catalog_map_is_freed_by_reference_counting():
    # the oracles hold the coefficients, not the map: no reference cycle
    # keeps a 256 KB Q alive until the cyclic collector runs
    rng = np.random.default_rng(3)
    gc.disable()
    try:
        for build in (lambda: rand_quadratic(rng, 32),
                      lambda: shift_map(make_constant([1.0, 2.0], 1.0), [0.5, 0.5]),
                      lambda: map_from_dict({"kind": "affine", "A": [[2.0]], "b": [1.0],
                                             "rho": 1.0, "analytic_constants": {"theta": 3.0}}
                                            ).restrict(0.5)):
            m = build()
            ref = weakref.ref(m)
            m.vals(np.zeros((2, m.dimension)))
            del m
            assert ref() is None
    finally:
        gc.enable()


def test_shift_map():
    m = make_affine(np.eye(2), [2.0, 0.0], 1.0)
    s = shift_map(m, [1.0, 1.0])
    x = np.array([0.2, 0.2])
    assert_allclose(s.val(x), m.val(x) - [1.0, 1.0])
    assert_allclose(s.jac(x), m.jac(x))
    assert s.analytic.theta == m.analytic.theta
    assert_allclose(s.vals(np.stack([x, -x])), m.vals(np.stack([x, -x])) - [1.0, 1.0])


def test_vi_payoff_structure():
    m = make_affine(np.array([[1.0, 0.5], [0.0, 2.0]]), [1.0, -1.0], 1.0)
    p = vi_payoff(m)
    x, y = np.array([0.2, 0.1]), np.array([-0.3, 0.4])
    assert_allclose(p.value(x, y), float(m.val(x) @ (x - y)))
    rng = np.random.default_rng(2)
    for x, y in zip(sample_ball(rng, 20, 2, 1.0), sample_ball(rng, 20, 2, 1.0)):
        gx, gy = p.grads(x, y)
        assert_allclose(gx, m.jac(x).T @ (x - y) + m.val(x), rtol=0, atol=1e-12)
        assert_allclose(gy, -m.val(x), rtol=0, atol=1e-12)
    b, A = p.grad0_affine
    for yy in Ball(1.0, 2).sample(rng, 50):
        direct = np.linalg.norm(p.grads(np.zeros(2), yy)[0])
        assert_allclose(np.linalg.norm(b - A.T @ yy), direct, atol=1e-12)


def test_ba_payoff_structure():
    m = make_affine(np.eye(2), [2.0, 0.0], 1.0)
    Y = Ball(1.0, 2)
    p = ba_payoff(m, Y)
    x, y = np.array([0.1, 0.2]), np.array([0.5, -0.5])
    fx = m.val(x)
    assert_allclose(p.value(x, y),
                    float((fx - x) @ (fx - x) - (fx - y) @ (fx - y)))
    rng = np.random.default_rng(3)
    for x, y in zip(sample_ball(rng, 20, 2, 1.0), Y.sample(rng, 20)):
        gx, gy = p.grads(x, y)
        f = m.val(x)
        assert_allclose(gx, 2.0 * (x - f - m.jac(x).T @ (x - y)), rtol=0, atol=1e-12)
        assert_allclose(gy, 2.0 * (f - y), rtol=0, atol=1e-12)
    b, A = p.grad0_affine
    yy = np.array([0.3, 0.3])
    assert_allclose(np.linalg.norm(b - A.T @ yy),
                    np.linalg.norm(p.grads(np.zeros(2), yy)[0]), atol=1e-12)


def test_payoff_y_difference_identity():
    # J(x, y1) - J(x, y2) depends on f(x) only through the two distances
    rng = np.random.default_rng(23)
    m = rand_quadratic(rng, 2)
    p = ba_payoff(m, Ball(1.0, 2))
    for _ in range(50):
        x = Ball(1.0, 2).sample(rng, 1)[0]
        y1, y2 = Ball(1.0, 2).sample(rng, 2)
        fx = m.val(x)
        lhs = p.value(x, y1) - p.value(x, y2)
        rhs = float((fx - y2) @ (fx - y2) - (fx - y1) @ (fx - y1))
        assert_allclose(lhs, rhs, atol=1e-12)


def test_payoff_gradients_against_finite_differences():
    rng = np.random.default_rng(29)
    maps = [make_constant([1.5, -0.5], 1.0),
            make_affine(rng.normal(size=(2, 2)), rng.normal(size=2), 1.0),
            rand_quadratic(rng, 2)]
    for m in maps:
        validate_payoff(vi_payoff(m), n_points=25, seed=3)
        validate_payoff(ba_payoff(m, Ball(1.0, 2)), n_points=25, seed=3)


def catalog_maps(n):
    rng = np.random.default_rng(37 + n)
    affine = make_affine(rng.normal(size=(n, n)), rng.normal(size=n), 1.0)
    return {"constant": make_constant(rng.normal(size=n), 1.0), "affine": affine,
            "quadratic": rand_quadratic(rng, n), "shift": shift_map(affine, rng.normal(size=n))}


@pytest.mark.parametrize("kind", ["constant", "affine", "quadratic", "shift"])
@pytest.mark.parametrize("family", ["vi", "ba"])
def test_fused_gradients_match_the_separate_ones_bit_for_bit(kind, family):
    n = 4
    m = catalog_maps(n)[kind]
    p = vi_payoff(m) if family == "vi" else ba_payoff(m, Ball(1.0, n))
    rng = np.random.default_rng(41)
    for x, y in zip(sample_ball(rng, 30, n, 1.0), sample_ball(rng, 30, n, 1.0)):
        got, want = p.grads(x, y), closed_form_grads(family, m, x, y)
        assert [g.tobytes() for g in got] == [g.tobytes() for g in want]
    validate_payoff(p, n_points=10, seed=1)


def test_fused_gradients_evaluate_the_map_once():
    m = catalog_maps(3)["affine"]
    calls = []
    counted = SmoothMap(3, 1.0, value=lambda x: calls.append(1) or m.val(x),
                        jacobian=m.jacobian)
    x, y = np.full(3, 0.1), np.full(3, -0.2)
    for p in (vi_payoff(counted), ba_payoff(counted, Ball(1.0, 3))):
        calls.clear()
        p.grads(x, y)
        assert len(calls) == 1


@pytest.mark.parametrize("which", [0, 1])
def test_validate_payoff_rejects_a_disagreeing_fused_oracle(which):
    p = vi_payoff(catalog_maps(3)["quadratic"])
    fused = p.grads

    def wrong(x, y):
        out = list(fused(x, y))
        out[which] = out[which] + 1e-3  # beyond the 1e-5 finite-difference tolerance
        return tuple(out)

    p.grads = wrong
    with pytest.raises(InvalidInput, match="payoff gradients disagree with finite differences"):
        validate_payoff(p, n_points=5, seed=0)
    p.grads = lambda x, y: (fused(x, y)[0], fused(x, y)[1][:2])
    with pytest.raises(InvalidInput, match="grads returned shapes"):
        validate_payoff(p, n_points=5, seed=0)


@pytest.mark.parametrize("make", [vi_payoff, lambda m: ba_payoff(m, Ball(1.0, 3))])
def test_payoff_gradients_follow_a_replaced_map(make):
    # the fused gradients call the map's own oracles: a map with new ones
    # is the map they differentiate, and lists are converted as val converts
    rng = np.random.default_rng(44)
    m = rand_quadratic(rng, 3)
    negated = SmoothMap(3, 1.0, value=lambda x: -m.value(x), jacobian=lambda x: -m.jacobian(x))
    flipped = make(negated)
    listed = make(SmoothMap(3, 1.0, value=lambda x: m.value(x).tolist(),
                            jacobian=lambda x: m.jacobian(x).tolist()))
    p, family = make(m), "vi" if make is vi_payoff else "ba"
    for x, y in zip(sample_ball(rng, 5, 3, 1.0), sample_ball(rng, 5, 3, 1.0)):
        gx, gy = flipped.grads(x, y)
        assert [gx.tobytes(), gy.tobytes()] == [
            g.tobytes() for g in closed_form_grads(family, negated, x, y)]
        assert not np.allclose(gy, p.grads(x, y)[1])
        assert [g.tobytes() for g in listed.grads(x, y)] == [g.tobytes() for g in p.grads(x, y)]


def test_payoff_batch_paths_match_scalar():
    rng = np.random.default_rng(31)
    m = rand_quadratic(rng, 3)
    for p in (vi_payoff(m), ba_payoff(m, Ball(1.0, 3))):
        X = Ball(1.0, 3).sample(rng, 40)
        y = Ball(1.0, 3).sample(rng, 1)[0]
        assert_allclose(p.values_x(X, y), [p.value(x, y) for x in X], atol=1e-12)
        x = X[0]
        Ys = Ball(1.0, 3).sample(rng, 40)
        assert_allclose(p.values_y(x, Ys), [p.value(x, y) for y in Ys], atol=1e-12)


def test_validate_map_catches_wrong_jacobian():
    m = SmoothMap(2, 1.0, value=lambda x: x ** 2,
                  jacobian=lambda x: np.eye(2))  # true jacobian is diag(2x)
    with pytest.raises(InvalidInput):
        validate_map(m, n_points=20, seed=0)


@pytest.mark.parametrize("n", [1, 3, 32])
def test_quadratic_batch_matches_rowwise_value(n):
    rng = np.random.default_rng(n)
    m = rand_quadratic(rng, n)
    X = sample_ball(rng, 500, n, 1.0)
    rows = np.stack([m.val(x) for x in X])
    assert np.linalg.norm(m.vals(X) - rows) <= 1e-12 * np.linalg.norm(rows)


def test_quadratic_oracles_match_explicit_forms():
    rng = np.random.default_rng(21)
    A, b = rng.normal(size=(5, 5)), rng.normal(size=5)
    Q = rng.normal(size=(5, 5, 5))
    Q = Q + Q.transpose(0, 2, 1)
    m = make_quadratic(A, b, Q, 1.0)
    x = sample_ball(rng, 1, 5, 1.0)[0]
    assert_allclose(m.val(x), A @ x + b + [x @ Q[k] @ x for k in range(5)], rtol=1e-13)
    assert_allclose(m.jac(x), A + 2.0 * np.stack([Q[k] @ x for k in range(5)]), rtol=1e-13)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 32])
def test_quadratic_norms_from_eigenvalues_match_the_singular_values(n):
    # s^2, the top eigenvalue of sum_i Q_i^2, is the squared top singular
    # value of the (n^2, n) stack of the Q_i, and s never exceeds the
    # per-Q_i sum sqrt(sum_i ||Q_i||^2) that an SVD stack gives
    rng = np.random.default_rng(100 + n)
    A, b = rng.normal(size=(n, n)), rng.normal(size=n)
    Q = rng.normal(size=(n, n, n))
    Q = 0.5 * (Q + Q.transpose(0, 2, 1))
    m = make_quadratic(A, b, Q, 1.0)
    s = np.linalg.norm(Q.reshape(n * n, n), 2)
    assert abs(m.analytic.gamma - 2.0 * s) <= 1e-14 * 2.0 * s
    assert abs(m.analytic.theta - (np.linalg.norm(A, 2) + 2.0 * s)) <= 1e-14 * m.analytic.theta
    assert s <= np.sqrt(np.sum(np.linalg.norm(Q, 2, axis=(1, 2)) ** 2))


def _quadratic_family(rng, n, family):
    """Symmetric Q of one of three shapes: independent random Q_i, rank-one
    Q_i = c_i v v^T aligned on one v, or multiples c_i M of one matrix M."""
    if family == "random":
        Q = rng.normal(size=(n, n, n))
        return 0.5 * (Q + Q.transpose(0, 2, 1))
    c = rng.normal(size=n)
    if family == "aligned":
        v = rng.normal(size=n)
        return c[:, None, None] * np.outer(v, v)
    M = rng.normal(size=(n, n))
    return c[:, None, None] * (M + M.T)


@pytest.mark.parametrize("family", ["random", "aligned", "shared"])
@pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 32])
def test_quadratic_constants_bound_the_jacobian(n, family):
    # gamma >= 2 ||Q(d)|| for unit d, where row i of Q(d) is (Q_i d)^T and
    # J(x) - J(x') = 2 Q(x - x'); theta >= ||J(x)|| on the ball; and s lies
    # at or below the per-Q_i sum, on it when the Q_i share one matrix
    rng = np.random.default_rng(1000 * n + len(family))
    A, b, rho = rng.normal(size=(n, n)), rng.normal(size=n), 0.7
    Q = _quadratic_family(rng, n, family)
    m = make_quadratic(A, b, Q, rho)
    s = m.analytic.gamma / 2.0
    top = np.linalg.eigh(sum(q @ q for q in Q))[1][:, -1]
    dirs = np.vstack([top, sample_ball(rng, 60, n, 1.0)])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    ratios = [2.0 * np.linalg.norm(Q @ d, 2) / m.analytic.gamma for d in dirs]
    assert max(ratios) <= 1.0 + 1e-12
    if family != "random":  # rank one in d: the bound is attained at the top direction
        assert ratios[0] >= 1.0 - 1e-9
    xs = np.vstack([sample_ball(rng, 30, n, rho), rho * dirs])
    assert max(np.linalg.norm(m.jac(x), 2) for x in xs) <= m.analytic.theta * (1.0 + 1e-12)
    per_q = np.sqrt(np.sum(np.linalg.norm(Q, 2, axis=(1, 2)) ** 2))
    assert s <= per_q * (1.0 + 1e-12)
    if family != "random":
        assert abs(s - per_q) <= 1e-12 * per_q


def test_quadratic_constants_take_one_small_eigenproblem(monkeypatch):
    # one eigvalsh of the n x n matrix sum_i Q_i^2, not one per Q_i
    shapes, eigvalsh = [], np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    rand_quadratic(np.random.default_rng(5), 8)
    assert shapes == [(8, 8)]


def test_slightly_asymmetric_quadratic_keeps_a_true_gamma():
    # the upper triangle of Q_1 carries the asymmetry: the lower triangle
    # alone is the identity, of norm 1, but ||Q_1|| = 1 + 5e-14
    Q = np.zeros((2, 2, 2))
    Q[0] = [[1.0, 1e-13], [0.0, 1.0]]
    m = make_quadratic(np.eye(2), [1.0, 0.0], Q, 1.0)
    rng = np.random.default_rng(3)
    top = np.array([1.0, 1.0]) / np.sqrt(2.0)
    pairs = [(0.5 * top, -0.5 * top)] + list(zip(sample_ball(rng, 200, 2, 1.0),
                                               sample_ball(rng, 200, 2, 1.0)))
    lipschitz = max(np.linalg.norm(m.jac(x) - m.jac(z), 2) / np.linalg.norm(x - z)
                    for x, z in pairs)
    assert lipschitz > 2.0 + 9e-14  # what the lower triangle alone would miss
    # a few ulps of rounding in the sampled quotient, far below the 1e-13 at stake
    assert m.analytic.gamma >= lipschitz * (1.0 - 1e-15)


def test_quadratic_batch_memory_stays_linear_in_rows():
    # an (m, n, n) temporary of 2000 rows at n = 64 would take about 65 MB
    rng = np.random.default_rng(2)
    m = rand_quadratic(rng, 64)
    X = sample_ball(rng, 2000, 64, 1.0)
    tracemalloc.start()
    try:
        m.vals(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


def quadratic_with_batch(monkeypatch, batch, n=3):
    """A quadratic catalog map whose batch value takes its quadratic forms
    through ``batch``; its row-wise value is left alone."""
    forms = catalog._quadratic_forms
    monkeypatch.setattr(catalog, "_quadratic_forms", lambda X, Q: batch(forms(X, Q)))
    return rand_quadratic(np.random.default_rng(n), n)


def test_batch_of_the_wrong_shape_is_rejected(monkeypatch):
    # an extra axis broadcasts the batch value to (rows, rows, n)
    m = quadratic_with_batch(monkeypatch, lambda V: V[:, None, :])
    with pytest.raises(DimensionMismatch, match="batch value"):
        m.vals(np.zeros((4, 3)))
    with pytest.raises(DimensionMismatch):
        validate_map(m, n_points=20, seed=0)


@pytest.mark.parametrize("batch", [lambda V: V.T, lambda V: V + 1e-3],
                         ids=["transposed", "offset"])
def test_validate_map_catches_batch_disagreeing_with_value(monkeypatch, batch):
    # three rows of three: transposed forms have the right shape
    with pytest.raises(InvalidInput, match="batch value disagrees"):
        validate_map(quadratic_with_batch(monkeypatch, batch), n_points=3, seed=0)


class TestMapFromDict:
    def test_flat_form(self):
        m = map_from_dict({"kind": "affine", "A": [[1.0, 0.0], [0.0, 1.0]],
                           "b": [2.0, 0.0], "rho": 1.0})
        assert m.domain_radius == 1.0
        assert_allclose(m.val(np.zeros(2)), [2.0, 0.0])

    def test_quadratic_and_shift(self):
        doc = {"kind": "quadratic", "A": [[0, 0], [0, 0]], "b": [0, 0],
               "Q": [[[1, 0], [0, 1]], [[0, 0], [0, 0]]], "rho": 1.0,
               "shift": [16.0, 0.0]}
        m = map_from_dict(doc)
        assert_allclose(m.val(np.zeros(2)), [-16.0, 0.0])

    def test_unknown_field_has_path(self):
        with pytest.raises(ConfigError, match="problem"):
            map_from_dict({"kind": "affine", "A": [[1.0]], "b": [0.0],
                           "rho": 1.0, "bogus": 1})

    def test_bad_rho_path(self):
        with pytest.raises(ConfigError, match="problem.rho"):
            map_from_dict({"kind": "constant", "c": [1.0], "rho": -2.0})

    def test_dimension_mismatch(self):
        doc = {"dimension": 3, "rho": 1.0, "kind": "constant", "c": [1.0, 2.0]}
        with pytest.raises(ConfigError, match="dimension"):
            map_from_dict(doc)

    @pytest.mark.parametrize("key, value, path", [
        # these were a ValueError and a TypeError traceback, and 2.5 was read as 2
        ("dimension", "abc", "problem.dimension"), ("dimension", [2], "problem.dimension"),
        ("dimension", 2.5, "problem.dimension"), ("dimension", True, "problem.dimension"),
        ("dimension", 0, "problem.dimension"),
        # these were a TypeError and an AttributeError traceback
        ("analytic_constants", 5, "problem.analytic_constants"),
        ("analytic_constants", ["theta"], "problem.analytic_constants"),
        # an unhashable kind was a TypeError traceback
        ("kind", ["constant"], "problem.kind")])
    def test_malformed_problem_field_has_path(self, key, value, path):
        doc = {"rho": 1.0, "kind": "constant", "c": [1.0, 2.0], key: value}
        with pytest.raises(ConfigError) as exc:
            map_from_dict(doc)
        assert exc.value.path == path

    def test_declared_constants_override(self):
        doc = {"kind": "affine", "A": [[1.0]], "b": [2.0], "rho": 1.0,
               "analytic_constants": {"theta": 5.0, "gamma": 1.0}}
        m = map_from_dict(doc)
        assert m.analytic.theta == 5.0 and m.analytic.gamma == 1.0

    def test_partly_declared_constants_keep_catalog_flags(self):
        doc = {"kind": "quadratic", "A": [[1.0, 0.0], [0.0, 1.0]], "b": [1.0, 0.0],
               "Q": [[[0.1, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.1]]], "rho": 1.0}
        catalog = map_from_dict(doc).analytic
        a = map_from_dict(dict(doc, analytic_constants={"eta": 5})).analytic
        assert (a.eta, a.eta_flag) == (5.0, CertFlag.ANALYTIC)
        assert (a.theta, a.theta_flag) == (catalog.theta, CertFlag.CONSERVATIVE)
        assert (a.gamma, a.gamma_flag) == (catalog.gamma, CertFlag.CONSERVATIVE)

    # F(x) = x + (2, 0) + (x^T x, 0): ||jac(e_1)|| = ||diag(3, 1)|| = 3,
    # ||I - jac(e_1)|| = 2 and ||jac(e_1) - jac(0)|| = 2
    REFUTED = {"kind": "quadratic", "A": [[1.0, 0.0], [0.0, 1.0]], "b": [2.0, 0.0],
               "Q": [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]]], "rho": 1.0}

    @pytest.mark.parametrize("name, value, bound", [("theta", 0.01, 3.0), ("eta", 1.5, 2.0),
                                                    ("gamma", 1.0, 2.0)])
    def test_refuted_declaration_has_path_witness_and_deficit(self, name, value, bound):
        # the declaration theta = 0.01 used to certify with r_max = 0.124
        doc = dict(self.REFUTED, analytic_constants={name: value})
        with pytest.raises(ConfigError) as exc:
            map_from_dict(doc)
        assert exc.value.path == f"problem.analytic_constants.{name}"
        assert f"x = +1 e_1 gives {name} >= {bound:g}" in str(exc.value)
        assert f"deficit {bound - value:g}" in str(exc.value)

    def test_declaration_at_the_bound_is_kept(self):
        # the catalog's own exact values survive their re-derivation at the axis points
        m = map_from_dict(dict(self.REFUTED, analytic_constants={"theta": 3.0, "eta": 2.0,
                                                                 "gamma": 2.0}))
        assert (m.analytic.theta, m.analytic.eta, m.analytic.gamma) == (3.0, 2.0, 2.0)

    def test_restriction_keeps_the_declaration(self):
        # small_radius reports the restricted map's constants; a bound
        # declared on ball(rho) still holds on the smaller ball
        doc = {"kind": "quadratic", "A": [[1.0, 0.0], [0.0, 1.0]], "b": [1.0, 0.0],
               "Q": [[[0.1, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.1]]], "rho": 1.0,
               "analytic_constants": {"theta": 50}}
        res = small_radius(map_from_dict(doc))
        assert res.report.theta.to_dict() == {"value": 50.0, "flag": "analytic"}
        # the undeclared constants are still recomputed for the smaller ball
        assert res.map.restrict(0.25).analytic.gamma_flag is CertFlag.CONSERVATIVE

    @pytest.mark.parametrize("value", ["abc", -1.0, None, True, float("inf"), [1.0],
                                       # an OverflowError traceback
                                       pytest.param(10**400, id="beyond-float")])
    def test_bad_declared_constant_has_path(self, value):
        doc = {"kind": "affine", "A": [[1.0]], "b": [2.0], "rho": 1.0,
               "analytic_constants": {"gamma": 0.0, "theta": value}}
        with pytest.raises(ConfigError, match=r"problem\.analytic_constants\.theta"):
            map_from_dict(doc)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            map_from_dict({"kind": "cubic", "rho": 1.0})


@pytest.mark.parametrize("family", ["vi", "ba"])
def test_rowwise_payoff_values_give_the_batched_checks(family):
    # a payoff without value batches falls back to one value call per row
    rng = np.random.default_rng(5)
    A, b = rng.normal(size=(3, 3)), rng.normal(size=3) + 3.0
    Q = 0.2 * rng.normal(size=(3, 3, 3))
    m = make_quadratic(A, b, 0.5 * (Q + np.transpose(Q, (0, 2, 1))), 1.0)
    if family == "vi":
        cert, p = solve_vi(m), vi_payoff(m)
    else:
        cert, p = solve_best_approx(m), ba_payoff(m, Ball(1.0, 3))
    point = SaddlePoint(cert.x_star, cert.y_star, cert.residual, cert.iterations, 0.0)
    cfg = gated_problem(m, cert.constants, cert.r, "certified")
    rowwise = Payoff(p.dimension, p.x_radius, p.y_set, p.value, p.grads, p.grad0_affine)
    batched, looped = (check_saddle(q, point, cfg, seed=1, n_samples=300) for q in (p, rowwise))
    assert [r.passed for r in looped.reports] == [r.passed for r in batched.reports]
    assert_allclose([r.margin for r in looped.reports] + [looped.minimax_gap],
                    [r.margin for r in batched.reports] + [batched.minimax_gap],
                    rtol=1e-12, atol=0.0)
