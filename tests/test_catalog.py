"""Catalog maps, payoffs and the JSON problem schema."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ballsaddle import (Ball, Box, CertFlag, ConfigError, DimensionMismatch,
                        InvalidInput, SmoothMap, ba_payoff, make_affine,
                        make_constant, make_quadratic, map_from_dict, shift_map,
                        sample_ball, small_radius, validate_map, validate_payoff,
                        vi_payoff)


def rand_quadratic(rng, n, rho=1.0, scale=0.2):
    A = rng.normal(size=(n, n))
    b = rng.normal(size=n)
    Q = rng.normal(size=(n, n, n)) * scale
    Q = 0.5 * (Q + np.transpose(Q, (0, 2, 1)))
    return make_quadratic(A, b, Q, rho)


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
    assert_allclose(p.grad_y(x, y), -m.val(x))
    b, A = p.grad0_affine
    for yy in Ball(1.0, 2).sample(np.random.default_rng(2), 50):
        direct = np.linalg.norm(p.grad_x(np.zeros(2), yy))
        assert_allclose(np.linalg.norm(b - A.T @ yy), direct, atol=1e-12)


def test_ba_payoff_structure():
    m = make_affine(np.eye(2), [2.0, 0.0], 1.0)
    Y = Ball(1.0, 2)
    p = ba_payoff(m, Y)
    x, y = np.array([0.1, 0.2]), np.array([0.5, -0.5])
    fx = m.val(x)
    assert_allclose(p.value(x, y),
                    float((fx - x) @ (fx - x) - (fx - y) @ (fx - y)))
    assert_allclose(p.grad_y(x, y), 2.0 * (fx - y))
    b, A = p.grad0_affine
    yy = np.array([0.3, 0.3])
    assert_allclose(np.linalg.norm(b - A.T @ yy),
                    np.linalg.norm(p.grad_x(np.zeros(2), yy)), atol=1e-12)


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
        gx, gy = p.grads(x, y)
        assert gx.tobytes() == np.asarray(p.grad_x(x, y), dtype=float).tobytes()
        assert gy.tobytes() == np.asarray(p.grad_y(x, y), dtype=float).tobytes()
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
        out[which] = out[which] + 1e-6
        return tuple(out)

    p.grads = wrong
    with pytest.raises(InvalidInput, match="fused gradients disagree"):
        validate_payoff(p, n_points=5, seed=0)
    p.grads = lambda x, y: (fused(x, y)[0], fused(x, y)[1][:2])
    with pytest.raises(InvalidInput, match="fused gradients have shapes"):
        validate_payoff(p, n_points=5, seed=0)


@pytest.mark.parametrize("make", [vi_payoff, lambda m: ba_payoff(m, Ball(1.0, 3))])
def test_payoff_gradients_follow_a_replaced_map(make):
    # the fused gradients call the map's own oracles: a copy with new ones
    # is the map they differentiate, and lists are converted as val converts
    rng = np.random.default_rng(44)
    m = rand_quadratic(rng, 3)
    flipped = make(dataclasses.replace(m, value=lambda x: -m.value(x),
                                       jacobian=lambda x: -m.jacobian(x)))
    listed = make(dataclasses.replace(m, value=lambda x: m.value(x).tolist(),
                                      jacobian=lambda x: m.jacobian(x).tolist()))
    p = make(m)
    for x, y in zip(sample_ball(rng, 5, 3, 1.0), sample_ball(rng, 5, 3, 1.0)):
        gx, gy = flipped.grads(x, y)
        assert gx.tobytes() == np.asarray(flipped.grad_x(x, y)).tobytes()
        assert gy.tobytes() == np.asarray(flipped.grad_y(x, y)).tobytes()
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
    rng = np.random.default_rng(100 + n)
    A, b = rng.normal(size=(n, n)), rng.normal(size=n)
    Q = rng.normal(size=(n, n, n))
    Q = 0.5 * (Q + Q.transpose(0, 2, 1))
    m = make_quadratic(A, b, Q, 1.0)
    svd = np.linalg.norm(Q, 2, axis=(1, 2))
    assert np.all(np.abs(np.max(np.abs(np.linalg.eigvalsh(Q)), axis=1) - svd) <= 1e-14 * svd)
    s = np.sqrt(np.sum(svd ** 2))
    assert abs(m.analytic.gamma - 2.0 * s) <= 1e-14 * 2.0 * s
    assert abs(m.analytic.theta - (np.linalg.norm(A, 2) + 2.0 * s)) <= 1e-14 * m.analytic.theta


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


def affine_with_batch(batch, n=3):
    A = np.arange(n * n, dtype=float).reshape(n, n) / n ** 2
    b = np.ones(n)
    return SmoothMap(n, 1.0, value=lambda x: A @ x + b, jacobian=lambda x: A,
                     value_batch=lambda X: batch(X @ A.T + b))


def test_batch_of_the_wrong_shape_is_rejected():
    m = affine_with_batch(lambda V: V.T)
    with pytest.raises(DimensionMismatch, match="batch value"):
        m.vals(np.zeros((4, 3)))
    with pytest.raises(DimensionMismatch):
        validate_map(m, n_points=20, seed=0)


@pytest.mark.parametrize("batch", [lambda V: V.T, lambda V: V + 1e-3],
                         ids=["transposed", "offset"])
def test_validate_map_catches_batch_disagreeing_with_value(batch):
    # three rows of three: a transposed batch has the right shape
    with pytest.raises(InvalidInput, match="batch value disagrees"):
        validate_map(affine_with_batch(batch), n_points=3, seed=0)


class TestMapFromDict:
    def test_flat_form(self):
        m = map_from_dict({"kind": "affine", "A": [[1.0, 0.0], [0.0, 1.0]],
                           "b": [2.0, 0.0], "rho": 1.0})
        assert m.domain_radius == 1.0
        assert_allclose(m.val(np.zeros(2)), [2.0, 0.0])

    def test_nested_form(self):
        doc = {"dimension": 2, "rho": 0.5,
               "map": {"kind": "constant", "c": [1.0, 1.0]}}
        m = map_from_dict(doc)
        assert m.dimension == 2 and m.domain_radius == 0.5

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
        doc = {"dimension": 3, "rho": 1.0, "map": {"kind": "constant", "c": [1.0, 2.0]}}
        with pytest.raises(ConfigError, match="dimension"):
            map_from_dict(doc)

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

    @pytest.mark.parametrize("value", ["abc", -1.0, None, True, float("inf"), [1.0]])
    def test_bad_declared_constant_has_path(self, value):
        doc = {"kind": "affine", "A": [[1.0]], "b": [2.0], "rho": 1.0,
               "analytic_constants": {"gamma": 0.0, "theta": value}}
        with pytest.raises(ConfigError, match=r"problem\.analytic_constants\.theta"):
            map_from_dict(doc)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            map_from_dict({"kind": "cubic", "rho": 1.0})
