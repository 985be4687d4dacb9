#!/usr/bin/env python3
"""Best approximation on a sphere: |f(x*) - x*| = min over the ball.

For a map f whose image stays away from the small ball, minimizing the
distance to the graph localizes on the sphere, and the minimizer is also
the nearest point of the ball to its own image f(x*). The script certifies
two instances and cross-examines both with brute-force sweeps.
"""

import sys

import numpy as np

from ballsaddle import (check_nearest_point, make_affine, make_constant,
                        solve_best_approx)
from ballsaddle.oracles import ball_grid

failures = []


def check(label, ok):
    status = "PASS" if ok else "FAIL"
    print(f"  [{status}] {label}")
    if not ok:
        failures.append(label)


def report(title, mapping, r, expect):
    print(f"\n== {title} ==")
    cert = solve_best_approx(mapping, r=r, seed=0)
    x = cert.x_star
    fx = mapping.val(x)
    dist = np.linalg.norm(fx - x)
    print(f"  x*            = {np.array2string(x, precision=8)}")
    print(f"  |x*|          = {np.linalg.norm(x):.10f}   (radius {r})")
    print(f"  |f(x*) - x*|  = {dist:.10f}")
    print(f"  collapse gap  = {cert.collapse_gap:.3e}"
          f"   distance gap = {cert.distance_gap:.3e}")
    proof = cert.proof
    print(f"  proof         = phi_lower {proof['phi_lower']:.6f}, margin {proof['margin']:.6f}"
          f"   (audit margin {cert.nearest_check.margin:.3e}"
          f" over {cert.nearest_check.n_samples} samples)")
    check("nearest-point inequality proved: |f(x)-x|^2 - |f(x)-x*|^2 >= margin |x-x*|^2",
          proof["passed"] and proof["phi_lower"] >= r)
    check("minimizer sits on the sphere", abs(np.linalg.norm(x) - r) <= 1e-7)
    check(f"closed form x* = {expect}",
          np.linalg.norm(x - np.asarray(expect)) <= 1e-7)
    check("x* is the ball's nearest point to f(x*): distance = |f(x*)| - r",
          abs(dist - (np.linalg.norm(fx) - r)) <= 1e-7)
    check("certificate passed with the saddle collapsed onto x*",
          cert.passed and cert.collapse_gap <= 1e-6)
    return cert, dist


constant = make_constant([2.0, 0.0], 1.0)
cert_c, dist_c = report("constant map f = (2, 0), ball of radius 1",
                        constant, 1.0, [1.0, 0.0])

mapping = make_affine(np.eye(2), [2.0, 0.0], 1.0)
cert, dist = report("shifted identity f(x) = x + (2, 0), radius 0.5",
                    mapping, 0.5, [0.5, 0.0])

# ======================================================================
# Brute force on the constant instance: sweep |f - x| over the ball
# ======================================================================
print("\n== brute force sweep (constant instance) ==")
inside, boundary = ball_grid(2, 1.0, 201)
pts = np.vstack([inside, boundary])
dists = np.linalg.norm(pts - np.array([2.0, 0.0]), axis=1)
best = pts[np.argmin(dists)]
print(f"  grid minimum  = {dists.min():.8f} at {np.array2string(best, precision=6)}")
print(f"  certified     = {dist_c:.8f}")
check("grid never beats the certificate by more than discretization",
      dists.min() >= dist_c - 1e-6)
check("grid argmin lands next to x* = (1, 0)",
      np.linalg.norm(best - cert_c.x_star) <= 2 * (2.0 / 200))

# ======================================================================
# The shifted identity needs the nearest-point audit instead: there the
# distance |f(x) - x| = |(2, 0)| is the same at every x, yet the nearest
# point of ball(1/2) to f(x*) = (2.5, 0) is still uniquely x* = (0.5, 0)
# ======================================================================
print("\n== nearest-point audit (shifted identity) ==")
rep = check_nearest_point(mapping, cert.x_star, cert.r,
                          n_samples=20000, seed=1)
print(f"  {rep.name}: margin = {rep.margin:.3e} over {rep.n_samples} samples")
check("no sampled ball point gets closer to f(x*)", rep.passed)

fx = mapping.val(cert.x_star)
inside, boundary = ball_grid(2, 0.5, 201)
pts = np.vstack([inside, boundary])
gaps = np.linalg.norm(pts - fx, axis=1)
best = pts[np.argmin(gaps)]
print(f"  grid nearest point = {np.array2string(best, precision=6)}"
      f"   at distance {gaps.min():.8f}")
check("grid nearest point to f(x*) lands next to x*",
      np.linalg.norm(best - cert.x_star) <= 2 * (1.0 / 200))

print(f"\n{'OK: approximations certified' if not failures else 'FAILED: ' + ', '.join(failures)}")
sys.exit(1 if failures else 0)
