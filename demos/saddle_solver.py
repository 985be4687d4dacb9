#!/usr/bin/env python3
"""Drive the extragradient engine directly on a regularized saddle problem.

Everything upstream (VI and approximation certificates) funnels into
phi(x, y) = (L/2)|x|^2 + J(x, y) on ball(r) x T. This script builds the
payoff for F(x) = x + (2, 0) by hand, solves the saddle, and certifies the
pair by sampling: y* maximal, x* strictly minimal away from itself, x* on
the sphere, and a minimax gap at solver precision.
"""

import sys

import numpy as np

from ballsaddle import (Ball, SaddleConfig, check_saddle, make_affine,
                        phi_value_grad, solve_saddle, vi_payoff, vi_report)

failures = []


def check(label, ok):
    status = "PASS" if ok else "FAIL"
    print(f"  [{status}] {label}")
    if not ok:
        failures.append(label)


mapping = make_affine(np.eye(2), [2.0, 0.0], 1.0)
payoff = vi_payoff(mapping)
rep = vi_report(mapping)

# T = ball(r): the maximizer then collapses onto x* itself
M, theta = rep.M.value, rep.theta.value
cfg = SaddleConfig(r=rep.r_max, T=Ball(rep.r_max, 2), L=M, smoothness=2.0 * M + theta,
                   tol=1e-12, r_max=rep.r_max)
print("== problem ==")
print("  J(x, y) = <F(x), x - y>,  F(x) = x + (2, 0)")
print(f"  ball radius r = {cfg.r},  T = ball(r),  regularization L = {cfg.L}")
print("  default step  = 1/(2 smoothness)")

# ======================================================================
# Solve
# ======================================================================
pt = solve_saddle(payoff, cfg)
print("\n== extragradient run ==")
print(f"  x* = {np.array2string(pt.x_star, precision=10)}")
print(f"  y* = {np.array2string(pt.y_star, precision=10)}")
print(f"  residual = {pt.residual:.3e}  after {pt.iterations} iterations"
      f"  (step {pt.step:.4f})")
check("iteration converged below tol", pt.residual <= cfg.tol)
check("x* matches the certified VI solution (-1/4, 0)",
      np.linalg.norm(pt.x_star - np.array([-0.25, 0.0])) <= 1e-8)
check("saddle collapse: y* lands on x*",
      np.linalg.norm(pt.y_star - pt.x_star) <= 1e-8)

# ======================================================================
# Sampled certification
# ======================================================================
print("\n== sampled checks ==")
out = check_saddle(payoff, pt, cfg, seed=3, n_samples=20000)
for repc in out.reports:
    print(f"  {repc.name:22s} passed = {str(repc.passed):5s}"
          f"  margin = {repc.margin:.3e}  samples = {repc.n_samples}")
print(f"  minimax gap = {out.minimax_gap:.3e}")
check("all sampled checks pass", out.passed)
check("sphere membership was applicable and checked",
      any(repc.name == "sphere-membership" for repc in out.reports))
check("sampled minimax gap is at solver precision", out.minimax_gap <= 1e-10)

# ======================================================================
# The regularized objective by hand at the saddle
# ======================================================================
print("\n== phi at the saddle ==")
val, gx, gy = phi_value_grad(payoff, cfg.L, pt.x_star, pt.y_star)
print(f"  phi  = {val:.10f}")
print(f"  grad_x phi = {np.array2string(gx, precision=6)}")
print(f"  grad_y phi = {np.array2string(gy, precision=6)}")
# stationarity in x holds through the sphere constraint: the gradient is
# normal to the sphere at x*, i.e. parallel to x* itself
cross = gx[0] * pt.x_star[1] - gx[1] * pt.x_star[0]
check("grad_x phi is normal to the sphere at x*", abs(cross) <= 1e-8)

print(f"\n{'OK: saddle certified' if not failures else 'FAILED: ' + ', '.join(failures)}")
sys.exit(1 if failures else 0)
