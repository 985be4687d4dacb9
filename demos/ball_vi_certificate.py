#!/usr/bin/env python3
"""Certify a variational inequality on a small ball, end to end.

The map F(x) = x + (2, 0) never vanishes near the origin, so on any ball
of radius r <= r_max the problem  <F(x*), x* - x> <= 0 for all |x| <= r
has a unique solution sitting exactly on the sphere, aligned against F.
The script solves it, reads the closed-form proof of the strict
inequality from the certificate, checks the certified claims by sampling,
and then confronts the solution with two independent brute-force oracles.
"""

import sys

import numpy as np

from ballsaddle import check_vi, make_affine, solve_vi
from ballsaddle.oracles import fixedpoint_vi_oracle, grid_vi_oracle

failures = []


def check(label, ok):
    status = "PASS" if ok else "FAIL"
    print(f"  [{status}] {label}")
    if not ok:
        failures.append(label)


# ======================================================================
# Solve and read the certificate
# ======================================================================
mapping = make_affine(np.eye(2), [2.0, 0.0], 1.0)
cert = solve_vi(mapping, r=0.25, seed=0)
x = cert.x_star

print("== certificate ==")
print(f"  x*          = {np.array2string(x, precision=8)}")
print(f"  |x*|        = {np.linalg.norm(x):.12f}  (radius {cert.r})")
print(f"  last step   = {cert.residual:.3e}  after {cert.iterations} map values"
      f" (fixed-point iteration, q = {cert.uniqueness['q']:.4f})")
print(f"  proof       = phi_lower {cert.proof['phi_lower']:.6f}"
      f" (a lower bound of |F(x*)|), margin {cert.proof['margin']:.6f}")
print(f"  vi audit    = {cert.vi_check.name}, margin {cert.vi_check.margin:.3e}"
      f" over {cert.vi_check.n_samples} samples")
print(f"  passed      = {cert.passed}   mode = {cert.mode}")

check("double inequality proved: both forms <= -(phi/2r - theta) |x - x*|^2",
      cert.proof["passed"] and cert.proof["margin"] > 0)

check("solution is on the sphere of radius r",
      abs(np.linalg.norm(x) - cert.r) <= 1e-9)

Fx = mapping.val(x)
aligned = x + cert.r * Fx / np.linalg.norm(Fx)
check("x* is the antipode of the map direction: x* = -r F(x*)/|F(x*)|",
      np.linalg.norm(aligned) <= 1e-8)
check("certificate records the same identity",
      cert.direction_gap <= 1e-8)

check("closed form for this instance: x* = (-1/4, 0)",
      np.linalg.norm(x - np.array([-0.25, 0.0])) <= 1e-8)

# ======================================================================
# Sampling check: both inequality forms hold strictly away from x*
# ======================================================================
print("\n== sampling check ==")
rep = check_vi(mapping, x, cert.r, n_samples=20000, seed=1)
print(f"  {rep.name}: margin = {rep.margin:.3e} over {rep.n_samples} samples")
print(f"  worst first form  = {rep.details['worst_first_form']:.3e}")
print(f"  worst second form = {rep.details['worst_second_form']:.3e}")
check("every sampled point satisfies both strict inequality forms",
      rep.passed)

# ======================================================================
# Brute force agreement
# ======================================================================
print("\n== brute force ==")
grid_x = grid_vi_oracle(mapping, 0.25, ppa=161)
fp_x = fixedpoint_vi_oracle(mapping, 0.25, step=0.4, tol=1e-12, max_iters=5000)
spacing = 2 * 0.25 / 160
print(f"  grid winner    = {np.array2string(grid_x, precision=6)}")
print(f"  fixed point    = {np.array2string(fp_x, precision=8)}")
check("grid oracle lands within two grid cells of x*",
      np.linalg.norm(grid_x - x) <= 2 * spacing)
check("projected fixed-point iteration agrees to 1e-8",
      np.linalg.norm(fp_x - x) <= 1e-8)

print(f"\n{'OK: certificate corroborated' if not failures else 'FAILED: ' + ', '.join(failures)}")
sys.exit(1 if failures else 0)
