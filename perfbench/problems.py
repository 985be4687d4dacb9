"""Inputs drawn from the seed, the requests that consume them, and the
output checks that decide whether a request succeeded.

Problem family: A = I + 0.3 G / sqrt(n) with G standard normal, ||b|| = 2,
rho = 1.  Quadratic maps add symmetric Q_i scaled so that
sqrt(sum_i ||Q_i||^2) = 0.1.  Every such instance certifies at the
admissible radius.  Prox-pair requests use the box T = [-r/sqrt(n), r/sqrt(n)]^n
inside Y = ball(rho).
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass

import numpy as np

RHO = 1.0
MATCH_TOL = 1e-6
FIXEDPOINT_MAX_ITERS = 10**5


@dataclass(frozen=True)
class Instance:
    """Raw inputs of one request: coefficients, request type and the seed
    handed to the library."""

    index: int
    kind: str
    n: int
    request: str
    A: np.ndarray
    b: np.ndarray
    Q: np.ndarray | None
    lib_seed: int


def draw_instance(seed: int, workload: str, index: int, slot) -> Instance:
    """Instance ``index`` of a workload; a function of (seed, workload, index)
    only, so every run with the same seed sees the same inputs."""
    kind, n, request = slot
    rng = np.random.default_rng([abs(int(seed)), zlib.crc32(workload.encode()), index])
    A = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    b = rng.standard_normal(n)
    b *= 2.0 / np.linalg.norm(b)
    Q = None
    if kind == "quadratic":
        Q = rng.standard_normal((n, n, n))
        Q = 0.5 * (Q + Q.transpose(0, 2, 1))
        Q *= 0.1 / np.sqrt(sum(np.linalg.norm(q, 2) ** 2 for q in Q))
    return Instance(index, kind, n, request, A, b, Q, int(rng.integers(0, 10**6)))


def draw_pool(seed: int, workload, count: int) -> list[Instance]:
    slots = workload.slots
    return [draw_instance(seed, workload.name, i, slots[i % len(slots)])
            for i in range(count)]


def box_for(r: float, n: int):
    c = r / np.sqrt(n)
    return np.full(n, -c), np.full(n, c)


# ---------------------------------------------------------------- in-process

def build_map(bs, inst: Instance):
    if inst.kind == "affine":
        return bs.catalog.make_affine(inst.A, inst.b, RHO)
    return bs.catalog.make_quadratic(inst.A, inst.b, inst.Q, RHO)


def certify(bs, inst: Instance):
    """One request: raw coefficients in, finished certificate out.  Library
    functions are looked up on their modules at call time, so wrappers
    installed there are seen."""
    m = build_map(bs, inst)
    seed = inst.lib_seed
    if inst.request == "vi":
        report = bs.constants.vi_report(m, seed=seed)
        return bs.vi.solve_vi(m, report=report, seed=seed)
    Y = bs.geometry.Ball(RHO, inst.n)
    report = bs.constants.ba_report(m, Y, seed=seed)
    if inst.request == "best-approx":
        return bs.ba.solve_best_approx(m, report=report, seed=seed)
    T = bs.geometry.Box(*box_for(report.r_max, inst.n))
    return bs.ba.solve_prox_pair(m, Y, T, report.r_max, report, seed=seed)


def check_certificate(bs, inst: Instance, cert):
    """(wrong, why): ``why`` says what is amiss, or is None.  ``wrong`` is
    True when the solution disagrees with a reference that shares no code
    path with the solver; a right solution whose certificate did not pass
    is a failed request but not a wrong output."""
    m = build_map(bs, inst)
    x = cert.x_star
    if inst.request == "vi":
        step = 1.0 / (2.0 * cert.constants.M.value)
        try:
            ref = bs.oracles.fixedpoint_vi_oracle(m, cert.r, step,
                                                  max_iters=FIXEDPOINT_MAX_ITERS)
        except bs.errors.NonConvergence as exc:
            return True, f"fixed-point reference did not converge: {exc}"
        gap = float(np.linalg.norm(x - ref))
        if gap > MATCH_TOL:
            return True, f"x* is {gap:.2e} from the fixed-point reference"
    elif inst.request == "best-approx":
        fx = m.val(x)
        nf = float(np.linalg.norm(fx))
        gap = float(np.linalg.norm(x - (fx if nf <= cert.r else (cert.r / nf) * fx)))
        if gap > MATCH_TOL:
            return True, f"x* is {gap:.2e} from P_ball(r)(f(x*))"
        # strict_margin 0: near the exclusion ball the true slack is
        # O((1e-4 r)^2 / r), below the default 1e-9 margin when r < 0.2
        near = bs.ba.check_nearest_point(m, x, cert.r, seed=inst.lib_seed + 1000,
                                         strict_margin=0.0)
        if not near.passed:
            return True, f"fresh-seed nearest-point check failed (margin {near.margin:.2e})"
    else:
        lo, hi = box_for(cert.r, inst.n)
        gap = float(np.linalg.norm(cert.y_star - np.clip(m.val(x), lo, hi)))
        if gap > MATCH_TOL:
            return True, f"y* is {gap:.2e} from P_T(f(x*))"
    return False, None if cert.passed else "certificate did not pass"


def cert_bytes(cert) -> bytes:
    return canonical(cert.to_dict())


# ---------------------------------------------------------------- CLI

def cli_config(bs, inst: Instance) -> dict:
    """The CLI config of ``inst``.  Prox-pair needs r to place the box, so
    it is computed here, before any timing, with the same report the CLI
    computes."""
    problem = {"kind": inst.kind, "A": inst.A.tolist(), "b": inst.b.tolist(), "rho": RHO}
    if inst.Q is not None:
        problem["Q"] = inst.Q.tolist()
    doc = {"problem": problem, "seed": inst.lib_seed}
    if inst.request == "prox-pair":
        m = build_map(bs, inst)
        r = bs.constants.ba_report(m, bs.geometry.Ball(RHO, inst.n),
                                   seed=inst.lib_seed).r_max
        lo, hi = box_for(r, inst.n)
        doc["r"] = r
        doc["t_set"] = {"kind": "box", "lower": lo.tolist(), "upper": hi.tolist()}
    return doc


def envelope_bytes(doc: dict) -> bytes:
    """A certificate envelope without its wall time."""
    return canonical({k: v for k, v in doc.items() if k != "wall_time"})


def tamper(doc: dict) -> dict:
    """A copy of the envelope whose solution was moved off the sphere."""
    out = json.loads(json.dumps(doc))
    x = out["certificate"]["solution"]["x_star"]
    x[0] += 1e-3
    return out


# ---------------------------------------------------------------- digests

def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=float).encode()


def digest(blobs) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(hashlib.sha256(blob).digest())
    return h.hexdigest()
