#!/usr/bin/env python3
"""Prox pairs: the saddle of |f(x) - x|^2 - |f(x) - y|^2 over ball x box.

With the dual variable ranging over a convex set T inside the reference
ball Y, the certified pair (x*, y*) couples a sphere-localized primal
point with y* = projection of f(x*) onto T. A box T makes the projection
a coordinatewise clamp we can state in closed form.
"""

import sys

import numpy as np

from ballsaddle import (Ball, Box, HypothesisViolation, make_constant,
                        solve_prox_pair)

failures = []


def check(label, ok):
    status = "PASS" if ok else "FAIL"
    print(f"  [{status}] {label}")
    if not ok:
        failures.append(label)


mapping = make_constant([2.0, 0.0], 1.0)
Y = Ball(1.0, 2)
T = Box([-0.5, -0.5], [0.5, 0.5])

print("== f = (2, 0), Y = ball(1), T = box[-1/2, 1/2]^2, r = 1/2 ==")
cert = solve_prox_pair(mapping, Y, T, r=0.5)
x, y = cert.x_star, cert.y_star
print(f"  x* = {np.array2string(x, precision=8)}   |x*| = {np.linalg.norm(x):.10f}")
print(f"  y* = {np.array2string(y, precision=8)}")
print(f"  projection gap = {cert.projection_gap:.3e}")
print(f"  saddle checks  = {[c.name for c in cert.saddle_checks.reports]}")

check("primal point sits on the sphere of radius 1/2",
      abs(np.linalg.norm(x) - 0.5) <= 1e-8)
check("dual point is the clamp of f(x*) = (2, 0) into the box: (1/2, 0)",
      np.linalg.norm(y - np.array([0.5, 0.0])) <= 1e-6)
check("projection identity gap is within certificate tolerance",
      cert.projection_gap <= 1e-6)
check("every sampled claim passed", cert.passed)

# ======================================================================
# Shrinking T moves y*, never x*
# ======================================================================
print("\n== tighter box T = [-0.2, 0.2]^2 ==")
tight = solve_prox_pair(mapping, Y, Box([-0.2, -0.2], [0.2, 0.2]),
                        r=0.5)
print(f"  y* = {np.array2string(tight.y_star, precision=8)}")
check("dual clamp follows the box: y* = (0.2, 0)",
      np.linalg.norm(tight.y_star - np.array([0.2, 0.0])) <= 1e-6)
check("primal point is unchanged",
      np.linalg.norm(tight.x_star - x) <= 1e-7)

# ======================================================================
# T must live inside Y
# ======================================================================
print("\n== containment gate ==")
try:
    solve_prox_pair(mapping, Ball(0.3, 2), Box([-1.0, -1.0], [1.0, 1.0]), r=0.2)
    check("a box poking out of Y is rejected", False)
except HypothesisViolation as exc:
    print(f"  HypothesisViolation: {exc}")
    check("a box poking out of Y is rejected", True)

print(f"\n{'OK: prox pair certified' if not failures else 'FAILED: ' + ', '.join(failures)}")
sys.exit(1 if failures else 0)
