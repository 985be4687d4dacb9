"""Acceptance gate: each numbered criterion at its stated tolerance.

Every test prints one PASS/FAIL line.  Solver runs use tol 1e-10 so the
certified identities are measured well inside the acceptance tolerances.
"""

import json

import numpy as np
import pytest

from ballsaddle import (Ball, Box, ba_payoff, check_nearest_point, check_vi, make_affine,
                        make_constant, make_quadratic, min_residual, shift_map,
                        solve_best_approx, solve_prox_pair, solve_saddle, solve_vi,
                        solve_vi_shifted, validate_map, validate_payoff,
                        vi_payoff)
from ballsaddle.cli import main
from ballsaddle.oracles import grid_sigma_oracle, grid_vi_oracle, uniqueness_probe
from ballsaddle.saddle import SaddlePoint, check_saddle, gated_problem

N_SAMPLES = 10**4
SOLVE_TOL = 1e-10
PROX_BOX = Box([-0.5, -0.5], [0.5, 0.5])


def _line(num, desc, checks):
    """One acceptance line; ``checks`` is a list of (label, ok) pairs."""
    bad = [label for label, ok in checks if not ok]
    status = "FAIL" if bad else "PASS"
    print(f"[criterion {num:2d}] {status}: {desc}")
    assert not bad, f"criterion {num} failed at: {', '.join(bad)}"


def quartic_map():
    Q = np.zeros((2, 2, 2))
    Q[0] = np.eye(2)
    return make_quadratic(np.zeros((2, 2)), np.zeros(2), Q, 1.0)


@pytest.fixture(scope="module")
def named():
    """The named instances, solved once at acceptance settings.  Their
    N_SAMPLES checks run in the criteria."""
    out = {}
    out["vi-constant"] = solve_vi(make_constant([3.0, 4.0], 1.0), r=0.5, tol=SOLVE_TOL)
    out["vi-affine"] = solve_vi(make_affine(np.eye(2), [2.0, 0.0], 1.0), tol=SOLVE_TOL)
    out["vi-shifted"] = solve_vi_shifted(quartic_map(), [16.0, 0.0], r=1.0, tol=SOLVE_TOL)
    out["ba-constant"] = solve_best_approx(make_constant([2.0, 0.0], 1.0), tol=SOLVE_TOL)
    out["ba-identity"] = solve_best_approx(make_affine(np.eye(2), [2.0, 0.0], 1.0),
                                           tol=SOLVE_TOL)
    out["prox-box"] = solve_prox_pair(make_constant([2.0, 0.0], 1.0), Ball(1.0, 2), PROX_BOX,
                                      r=0.5, tol=SOLVE_TOL)
    return out


def generator_map(i):
    """Seeded well-conditioned instance i: singular values in [0.8, 1.5],
    origin value of norm 3.2 (out of reach of the dual ball, so sigma > 0)."""
    rng = np.random.default_rng(1000 + i)
    dim = int(rng.integers(2, 7))
    U, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    V, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    s = rng.uniform(0.8, 1.5, size=dim)
    A = U @ np.diag(s) @ V.T
    bdir = rng.normal(size=dim)
    bdir /= np.linalg.norm(bdir)
    b = 3.2 * bdir
    if i % 3 == 2:
        Q = rng.normal(size=(dim, dim, dim)) * 0.05
        Q = 0.5 * (Q + np.transpose(Q, (0, 2, 1)))
        return make_quadratic(A, b, Q, 1.0)
    return make_affine(A, b, 1.0)


@pytest.fixture(scope="module")
def generated():
    """20 seeded catalog problems solved in certified mode at r = r_max."""
    return [solve_vi(generator_map(i), tol=SOLVE_TOL, seed=i) for i in range(20)]


def collapsed_maps():
    """The maps of the named instances of statements 2, 4 and 6."""
    return {"vi-constant": make_constant([3.0, 4.0], 1.0),
            "vi-affine": make_affine(np.eye(2), [2.0, 0.0], 1.0),
            "vi-shifted": shift_map(quartic_map(), [16.0, 0.0]),
            "ba-constant": make_constant([2.0, 0.0], 1.0),
            "ba-identity": make_affine(np.eye(2), [2.0, 0.0], 1.0)}


def collapsed_problem(m, cert):
    """(payoff, saddle config) of the statement 2, 4 or 6 instance ``cert``
    of the map ``m``, at the acceptance solver tolerance."""
    cfg = gated_problem(m, cert.constants, cert.r, "certified", tol=SOLVE_TOL)
    if cert.theorem in ("2", "4"):
        return vi_payoff(m), cfg
    return ba_payoff(m, Ball(1.0, m.dimension)), cfg


@pytest.fixture(scope="module")
def saddle_checks(named, generated):
    """The sampled saddle checks of every acceptance instance, by name, run
    here on the solved point with N_SAMPLES samples and the solve's
    seed + 1 (the certificate of statement 5 carries them at CHECK_SAMPLES)."""
    def run(payoff, cfg, cert, seed):
        point = SaddlePoint(cert.x_star, cert.y_star, cert.residual, cert.iterations, 0.0)
        return check_saddle(payoff, point, cfg, seed=seed + 1, n_samples=N_SAMPLES)
    out = {name: run(*collapsed_problem(m, named[name]), named[name], 0)
           for name, m in collapsed_maps().items()}
    prox, m, Y = named["prox-box"], make_constant([2.0, 0.0], 1.0), Ball(1.0, 2)
    out["prox-box"] = run(ba_payoff(m, Y),
                          gated_problem(m, prox.constants, prox.r, "certified", PROX_BOX,
                                        tol=SOLVE_TOL),
                          prox, 0)
    for i, cert in enumerate(generated):
        out[f"gen-{i}"] = run(*collapsed_problem(generator_map(i), cert), cert, i)
    return out


def test_criterion_01_constant_map_closed_form():
    checks = []
    cases = [(np.array([3.0, 4.0]), 0.5)]
    rng = np.random.default_rng(7)
    for dim, r in ((7, 0.3), (16, 1.0)):
        c = rng.normal(size=dim)
        c *= (1.0 + rng.uniform()) / np.linalg.norm(c)
        cases.append((c, r))
    for c, r in cases:
        m = make_constant(c, 1.0)
        cert = solve_vi(m, r=r, tol=SOLVE_TOL)
        nc = np.linalg.norm(c)
        expect = -r * c / nc
        checks.append((f"x* closed form (dim {c.size})",
                       np.linalg.norm(cert.x_star - expect) <= 1e-6))
        checks.append((f"check_vi passes (dim {c.size})",
                       check_vi(m, cert.x_star, r, N_SAMPLES, seed=2).passed))
        antipode = r * c / nc
        d = cert.x_star - antipode
        first = float(np.dot(c, d))
        margin_at = -max(first, first)  # both inequality forms coincide here
        checks.append((f"antipode margin (dim {c.size})",
                       margin_at >= 0.9 * r * nc - 1e-8))
    _line(1, "constant-map solutions match -r c/|c| and the antipode margin",
          checks)


def test_criterion_02_affine_constants_and_oracle(named):
    cert = named["vi-affine"]
    rep = cert.constants
    checks = [
        ("M = 2", abs(rep.M.value - 2.0) <= 1e-9),
        ("sigma = 1", abs(rep.sigma.value - 1.0) <= 1e-9),
        ("r_max = 0.25", abs(rep.r_max - 0.25) <= 1e-9),
        ("x* closed form", np.linalg.norm(cert.x_star - [-0.25, 0.0]) <= 1e-6),
    ]
    cand = grid_vi_oracle(make_affine(np.eye(2), [2.0, 0.0], 1.0), cert.r,
                          ppa=201)
    spacing = 2.0 * cert.r / 200
    checks.append(("grid oracle within 2 spacings",
                   np.linalg.norm(cand - cert.x_star) <= 2.0 * spacing))
    _line(2, "affine instance: exact constants, closed form, grid agreement",
          checks)


def test_criterion_03_sphere_localization(generated):
    checks = [(f"instance {i} (dim {c.x_star.size})",
               abs(np.linalg.norm(c.x_star) - c.r) <= 1e-6)
              for i, c in enumerate(generated)]
    checks.append(("all runs certified",
                   all(c.mode == "certified" for c in generated)))
    _line(3, "20 seeded certified runs at r = r_max land on the sphere", checks)


def test_criterion_04_saddle_inequality_sampling(saddle_checks):
    checks = []
    for name, sampled in saddle_checks.items():
        up = sampled.report("y-maximal")
        low = sampled.report("x-strictly-minimal")
        checks.append((f"{name} y-maximal", up.passed and up.n_samples >= N_SAMPLES))
        checks.append((f"{name} x-strict", low.passed and low.n_samples >= N_SAMPLES))
    _line(4, "10^4-sample saddle inequalities hold on every acceptance problem",
          checks)


def test_criterion_05_gradient_integrity():
    rng = np.random.default_rng(42)
    Q = rng.normal(size=(3, 3, 3)) * 0.2
    Q = 0.5 * (Q + np.transpose(Q, (0, 2, 1)))
    maps = {
        "constant": make_constant([3.0, 4.0], 1.0),
        "affine": make_affine(np.eye(2), [2.0, 0.0], 1.0),
        "quadratic": make_quadratic(rng.normal(size=(3, 3)), rng.normal(size=3),
                                    Q, 1.0),
        "shifted": shift_map(quartic_map(), [16.0, 0.0]),
    }
    checks = []
    for name, m in maps.items():
        try:
            validate_map(m, n_points=100, seed=0)
            validate_payoff(vi_payoff(m), n_points=100, seed=0)
            validate_payoff(ba_payoff(m, Ball(1.0, m.dimension)),
                            n_points=100, seed=0)
            checks.append((name, True))
        except Exception:
            checks.append((name, False))
    _line(5, "finite differences confirm every catalog gradient to 1e-5", checks)


def test_criterion_06_collapse_and_identities(named):
    checks = []
    maps = collapsed_maps()
    for name in ("ba-constant", "ba-identity"):
        cert = named[name]
        near = check_nearest_point(maps[name], cert.x_star, cert.r, N_SAMPLES, seed=4)
        checks.append((f"{name} collapse", cert.collapse_gap <= 1e-6))
        checks.append((f"{name} distance identity", cert.distance_gap <= 1e-6))
        checks.append((f"{name} nearest-point sampling",
                       near.passed and near.n_samples >= N_SAMPLES))
    _line(6, "best-approximation collapse, distance identity and "
             "nearest-point sampling", checks)


def test_criterion_07_shift_gate(named, tmp_path):
    cert = named["vi-shifted"]
    checks = [
        ("accepted at the threshold", cert.passed and cert.r == 1.0),
        ("check_vi passes", check_vi(collapsed_maps()["vi-shifted"], cert.x_star, cert.r,
                                     N_SAMPLES, seed=2).passed),
        ("gate deficit zero", cert.gate["deficit"] == 0.0),
    ]
    doc = {"problem": {"kind": "quadratic", "A": [[0, 0], [0, 0]], "b": [0, 0],
                       "Q": [[[1, 0], [0, 1]], [[0, 0], [0, 0]]], "rho": 1.0},
           "w": [15.9, 0.0], "r": 1.0}
    path = tmp_path / "below.json"
    path.write_text(json.dumps(doc))
    code = main(["vi-shifted", "--config", str(path)])
    checks.append(("below threshold exits 2", code == 2))
    _line(7, "shift gate accepts w at the threshold and rejects below with "
             "exit 2", checks)


def test_criterion_08_sigma_grid_agreement():
    checks = []
    for i in range(10):
        rng = np.random.default_rng(2000 + i)
        dim = 3 if i >= 8 else 2
        A = rng.normal(size=(dim, dim))
        A *= 1.5 / np.linalg.svd(A, compute_uv=False)[0]
        bdir = rng.normal(size=dim)
        bdir /= np.linalg.norm(bdir)
        b = 3.2 * bdir
        mine = min_residual(b, A, Ball(1.0, dim)).value
        grid = grid_sigma_oracle(b, A, Ball(1.0, dim))
        checks.append((f"instance {i} (dim {dim})", abs(mine - grid) <= 1e-4))
    _line(8, "sigma solvers match dense grid minimization within 1e-4", checks)


def _distance_from_starts(m, cert, payoff, cfg):
    """Largest distance from x* of the extragradient solutions started at
    the 16 scattered points of ``uniqueness_probe``."""
    sols = []

    def solve_from(x0):
        sols.append(solve_saddle(payoff, cfg, x0=x0, y0=x0).x_star)
        return sols[-1]
    uniqueness_probe(solve_from, starts=16, seed=3, dim=m.dimension, radius=cert.r)
    return max(np.linalg.norm(x - cert.x_star) for x in sols)


def test_criterion_09_uniqueness(named):
    # the contraction proves uniqueness; 16 scattered starts audit the proof
    checks = []
    for name, m in collapsed_maps().items():
        cert = named[name]
        uniq = cert.uniqueness
        checks.append((f"{name} contraction", uniq["method"] == "contraction"
                       and uniq["q"] < 1.0 and uniq["passed"]))
        payoff, cfg = collapsed_problem(m, cert)
        checks.append((f"{name} 16 starts reach x*",
                       _distance_from_starts(m, cert, payoff, cfg) <= 1e-5))
    _line(9, "q < 1 on every certified instance, and 16 starts agree with x* to 1e-5",
          checks)


def test_criterion_10_minimax_gap(saddle_checks):
    checks = [(name, sampled.minimax_gap <= 10.0 * SOLVE_TOL)
              for name, sampled in saddle_checks.items()]
    _line(10, "sampled duality gap below 10 tol on all acceptance instances",
          checks)


def test_criterion_11_determinism(named, generated, tmp_path):
    checks = []
    again = solve_vi(make_affine(np.eye(2), [2.0, 0.0], 1.0), tol=SOLVE_TOL)
    checks.append(("library rerun identical",
                   again.to_dict() == named["vi-affine"].to_dict()))
    g5 = solve_vi(generator_map(5), tol=SOLVE_TOL, seed=5)
    checks.append(("generator rerun identical",
                   g5.to_dict() == generated[5].to_dict()))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": {"kind": "affine",
                                           "A": [[1.0, 0.0], [0.0, 1.0]],
                                           "b": [2.0, 0.0], "rho": 1.0}}))
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["vi", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        doc.pop("wall_time")
        outs.append(json.dumps(doc, sort_keys=True))
    checks.append(("certificate bytes identical minus wall_time",
                   outs[0] == outs[1]))
    _line(11, "same seeds reproduce identical certificates", checks)
