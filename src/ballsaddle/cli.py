"""Command-line front end: JSON config in, JSON certificate out.

Commands::

    ballsaddle constants    --config problem.json
    ballsaddle saddle       --config problem.json
    ballsaddle vi           --config problem.json
    ballsaddle vi-shifted   --config problem.json
    ballsaddle prox-pair    --config problem.json
    ballsaddle best-approx  --config problem.json
    ballsaddle small-radius --config problem.json
    ballsaddle verify       --config certificate.json

plus ``--out``, and the ``--r``, ``--seed`` and ``--heuristic`` overrides
of the config fields a command's schema has (``verify`` takes none).  Exit
codes: 0 all checks pass, 1 bad config or I/O, 2 hypothesis or
certification violation (stderr carries the deficit), 3 a check failed,
4 the solver did not converge.

Certificates embed the fully-resolved config, so ``verify`` can rebuild
the problem with the code ``run`` uses and put the stored solution through
the same gates and certify step, without re-solving.  Output is
deterministic for a fixed config and seed except for the ``wall_time``
field.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .ba import (ba_problem, ba_small_radius, certify_ba, collapses, solve_best_approx,
                 solve_prox_pair)
from .catalog import SmoothMap, ba_payoff, map_from_dict, require_fields, vi_payoff
from .constants import (CertFlag, ConstantsReport, admissible_radius, ba_report,
                        delta_const, vi_report)
from .errors import (BallSaddleError, CertificationError, ConfigError, HypothesisViolation,
                     InvalidInput, NonConvergence)
from .geometry import Ball, Box, ConvexSet, as_point
from .saddle import (UNIQUENESS_STARTS, SaddleConfig, SaddlePoint, check_saddle, gate,
                     payoff_depends_on_y, raise_failure, solve_saddle, uniqueness_consistent)
from .vi import (certify_vi, shift_problem, small_radius, solve_vi, solve_vi_shifted,
                 vi_problem)

CERT_FORMAT = "ballsaddle-certificate/4"
VERIFY_FORMAT = "ballsaddle-verification/1"
VERIFY_REL_TOL = 1e-9
VERIFY_ABS_TOL = 1e-14
COMMANDS = ("constants", "saddle", "vi", "vi-shifted", "prox-pair",
            "best-approx", "small-radius", "verify")
# config tolerance -> SaddleConfig field, whose default it takes
_TOLERANCE_FIELDS = {"solve": "tol", "check": "check_tol",
                     "strict_margin": "strict_margin", "exclusion_factor": "exclusion_factor"}
DEFAULT_TOLERANCES = {key: getattr(SaddleConfig, name) for key, name in _TOLERANCE_FIELDS.items()}

_COMMON = ("seed", "tolerances", "heuristic")
# n_samples sizes check_saddle, which only statements 1 and 5 run
_FIELDS = {
    "constants": {"required": ("problem",), "optional": ("application", "y_set")},
    "saddle": {"required": ("problem",),
               "optional": ("payoff", "r", "t_set", "y_set", "n_samples") + _COMMON},
    "vi": {"required": ("problem",), "optional": ("r",) + _COMMON},
    "vi-shifted": {"required": ("problem", "w"), "optional": ("r",) + _COMMON},
    "prox-pair": {"required": ("problem",),
                  "optional": ("r", "y_set", "t_set", "uniqueness_starts", "n_samples")
                  + _COMMON},
    "best-approx": {"required": ("problem",), "optional": ("r",) + _COMMON},
    "small-radius": {"required": ("problem",), "optional": ("application", "epsilon")},
}


@dataclass
class RunConfig:
    """A fully-resolved run request; ``to_dict`` is the echo embedded in
    certificates.  The run settings default to SaddleConfig's, the start
    count of the prox-pair probe to ``solve_prox_pair``'s (echoed only when
    the probe runs: not when the request ``collapses``).  ``smooth_map`` is
    the map ``parse_config`` built from ``problem``, outside the schema."""

    command: str
    problem: dict
    r: float | None = None
    seed: int = 0
    n_samples: int = SaddleConfig.n_samples
    heuristic: bool = False
    uniqueness_starts: int = UNIQUENESS_STARTS
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    application: str = "vi"
    payoff: str = "vi"
    epsilon: float = 0.5
    w: list | None = None
    y_set: dict | None = None
    t_set: dict | None = None
    smooth_map: SmoothMap | None = field(default=None, repr=False, compare=False)

    @property
    def mode(self) -> str:
        return "heuristic" if self.heuristic else "certified"

    @property
    def collapses(self) -> bool:
        """Whether a prox-pair request has statement 6's sets, Y = ball(rho)
        and T = ball(r) (``ba.collapses``): a contraction proves uniqueness
        there and no probe runs.  A ball T given without r is compared with
        the r the solve will take, ``default_r``."""
        def ball_of(doc, radius):
            return doc is None or (isinstance(doc, dict) and doc.get("kind") == "ball"
                                   and doc.get("radius") == radius())
        return (self.command == "prox-pair"
                and ball_of(self.y_set, lambda: self.smooth_map.domain_radius)
                and ball_of(self.t_set, lambda: self.default_r if self.r is None else self.r))

    @cached_property
    def default_r(self) -> float:
        """The r of a prox-pair request without one, as ``gate`` resolves it."""
        return ba_report(self.smooth_map, _y_set(self, self.smooth_map), seed=self.seed).r_max

    def to_dict(self):
        spec = _FIELDS[self.command]
        d = {"command": self.command}
        for key in spec["required"] + spec["optional"]:
            if getattr(self, key) is not None:
                d[key] = getattr(self, key)
        if self.collapses:
            del d["uniqueness_starts"]
        return d


def _is_finite_number(v) -> bool:
    # NaN, the infinities and integers beyond the float range all fail the bound
    return not isinstance(v, bool) and isinstance(v, (int, float)) and abs(v) <= sys.float_info.max


def _as_number(doc, key, path="", least=None):
    """``doc[key]``: a finite number > 0, or with ``least`` an integer >= least."""
    v, where = doc[key], f"{path}.{key}" if path else key
    if not _is_finite_number(v):
        raise ConfigError(f"{key} must be a finite number", path=where)
    if least is None:
        if v <= 0:
            raise ConfigError(f"{key} must be positive", path=where)
        return float(v)
    if v != int(v) or v < least:
        raise ConfigError(f"{key} must be an integer >= {least}", path=where)
    return int(v)


def parse_config(doc: dict, command: str) -> RunConfig:
    """Validate a config document against the schema of ``command``.

    Unknown fields anywhere are rejected with their dotted path.
    """
    if command not in _FIELDS:
        raise ConfigError(f"unknown command {command!r}")
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    spec = _FIELDS[command]
    allowed = set(spec["required"]) | set(spec["optional"])
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"unknown field {key!r} for command {command!r}", path=key)
    for key in spec["required"]:
        if key not in doc:
            raise ConfigError(f"missing required field {key!r}", path=key)

    cfg = RunConfig(command=command, problem=doc["problem"])
    cfg.smooth_map = map_from_dict(cfg.problem)  # built once; errors carry config paths
    for key, least in (("r", None), ("seed", 0), ("n_samples", 1),
                       ("uniqueness_starts", 0), ("epsilon", None)):
        if key in doc:
            setattr(cfg, key, _as_number(doc, key, least=least))
    if "heuristic" in doc:
        if not isinstance(doc["heuristic"], bool):
            raise ConfigError("heuristic must be a boolean", path="heuristic")
        cfg.heuristic = doc["heuristic"]
    for key in ("application", "payoff"):
        if key in doc:
            if doc[key] not in ("vi", "ba"):
                raise ConfigError(f"{key} must be 'vi' or 'ba'", path=key)
            setattr(cfg, key, doc[key])
    if "w" in doc:
        w = doc["w"]
        if not (isinstance(w, list) and w and all(map(_is_finite_number, w))):
            raise ConfigError("w must be a non-empty array of finite numbers", path="w")
        cfg.w = [float(v) for v in w]
    if "tolerances" in doc:
        tols = doc["tolerances"]
        if not isinstance(tols, dict):
            raise ConfigError("tolerances must be an object", path="tolerances")
        for key in tols:
            if key not in DEFAULT_TOLERANCES:
                raise ConfigError(f"unknown tolerance {key!r}", path=f"tolerances.{key}")
            cfg.tolerances[key] = _as_number(tols, key, "tolerances")
        if not cfg.tolerances["exclusion_factor"] < 1.0:
            raise ConfigError(f"must lie in (0, 1), got {cfg.tolerances['exclusion_factor']}",
                              path="tolerances.exclusion_factor")
    for name in ("y_set", "t_set"):
        if name in doc:
            setattr(cfg, name, doc[name])
    if "uniqueness_starts" in doc and cfg.collapses:
        raise ConfigError("uniqueness_starts has no use with Y = ball(rho) and T = ball(r): "
                          "a contraction proves uniqueness and no probe runs",
                          path="uniqueness_starts")
    return cfg


def set_from_dict(doc: dict, dim: int, path: str) -> ConvexSet:
    """{"kind": "ball", "radius": R} or {"kind": "box", "lower": [...],
    "upper": [...]} with dimension checks."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ConfigError("set needs a 'kind'", path=path)
    kind = doc["kind"]
    if kind == "ball":
        require_fields(doc, path, ("kind", "radius"))
        return Ball(_as_number(doc, "radius", path), dim)
    if kind == "box":
        require_fields(doc, path, ("kind", "lower", "upper"))
        try:
            box = Box(np.asarray(doc["lower"], dtype=float),
                      np.asarray(doc["upper"], dtype=float))
        except (KeyError, TypeError, ValueError, InvalidInput) as exc:
            raise ConfigError(f"bad box bounds: {exc}", path=path)
        if box.dim != dim:
            raise ConfigError(
                f"box dimension {box.dim} does not match problem dimension {dim}",
                path=path)
        return box
    raise ConfigError(f"unknown set kind {kind!r}", path=f"{path}.kind")


def _settings(cfg: RunConfig) -> dict:
    """The SaddleConfig run settings of a run request: the tolerances, and
    ``n_samples`` where the command's schema has it."""
    settings = {name: cfg.tolerances[key] for key, name in _TOLERANCE_FIELDS.items()}
    if "n_samples" in _FIELDS[cfg.command]["optional"]:
        settings["n_samples"] = cfg.n_samples
    return settings


def _y_set(cfg: RunConfig, m: SmoothMap) -> ConvexSet:
    y_doc = cfg.y_set or {"kind": "ball", "radius": m.domain_radius}
    return set_from_dict(y_doc, m.dimension, "y_set")


def _t_set(cfg: RunConfig, m: SmoothMap) -> ConvexSet | None:
    """The configured T, or None for the default ball(r)."""
    return None if cfg.t_set is None else set_from_dict(cfg.t_set, m.dimension, "t_set")


def _saddle_problem(cfg: RunConfig, m: SmoothMap, fail=raise_failure):
    """(payoff, gated saddle config, saddle-rule constants report) of the
    generic saddle command on ball(r) x T."""
    rho = m.domain_radius
    if cfg.payoff == "vi":
        rep = vi_report(m, seed=cfg.seed)
        payoff, L = vi_payoff(m), rep.M
    else:
        Y = _y_set(cfg, m)
        rep = ba_report(m, Y, seed=cfg.seed)
        payoff, L = ba_payoff(m, Y), rep.L
    # sigma > 0 and the default r come from the payoff's own report; the
    # certified-mode checks need the saddle report, which depends on T
    r = gate(rep, cfg.r, "heuristic", rho, fail)
    T = _t_set(cfg, m) or Ball(r, m.dimension)
    delta = delta_const(payoff, T)
    report = ConstantsReport(
        rho=rho, theta=rep.theta, gamma=rep.gamma, eta=rep.eta, delta=delta,
        M=rep.M, L=L, sigma=rep.sigma, radius_rule="saddle")
    if delta.value > 0.0:
        report = replace(report, r_max=admissible_radius(report))
    gate(report, r, cfg.mode, rho, fail)
    scfg = SaddleConfig(r=r, T=T, L=L.value, smoothness=2.0 * L.value + rep.theta.value,
                        r_max=report.r_max, **_settings(cfg))
    return payoff, scfg, report


def _certify_saddle(cfg: RunConfig, payoff, scfg: SaddleConfig,
                    report: ConstantsReport, point: SaddlePoint) -> tuple[dict, list[str]]:
    """The certify step of the saddle command, the sampled saddle checks:
    (certificate body, names of its failed checks)."""
    checks = check_saddle(payoff, point, scfg, seed=cfg.seed + 1)
    doc = {
        "theorem": "1", "mode": cfg.mode, "r": float(scfg.r),
        "solution": {"x_star": [float(v) for v in point.x_star],
                     "y_star": [float(v) for v in point.y_star],
                     "y_star_unique": payoff_depends_on_y(payoff, point.x_star, scfg.T,
                                                          seed=cfg.seed)},
        "residuals": {"saddle_residual": float(point.residual)},
        "iterations": int(point.iterations), "step": float(point.step),
        "constants": report.to_dict(),
        "checks": {"saddle": checks.to_dict()},
        "passed": bool(checks.passed),
    }
    return doc, [] if checks.passed else ["saddle-checks"]


def run(cfg: RunConfig) -> tuple[dict, list[str]]:
    """Execute a parsed config: (certificate document without envelope
    fields, names of its failed checks)."""
    m = cfg.smooth_map
    if cfg.command == "constants":
        if cfg.application == "vi":
            rep, theorem = vi_report(m), "2"
        else:
            rep, theorem = ba_report(m, _y_set(cfg, m)), "5"
        return {"theorem": theorem,
                "mode": "certified" if rep.certified else "heuristic",
                "constants": rep.to_dict(), "passed": True}, []
    if cfg.command == "small-radius":
        res = (small_radius(m, cfg.epsilon) if cfg.application == "vi"
               else ba_small_radius(m, cfg.epsilon))
        ok = res.report.sigma.value >= res.sigma_floor - 1e-8
        return {"theorem": "3" if cfg.application == "vi" else "7",
                "mode": "certified" if res.report.certified else "heuristic",
                "small_radius": res.to_dict(),
                "checks": {"sigma-floor": {"passed": bool(ok),
                                           "floor": float(res.sigma_floor),
                                           "sigma": float(res.report.sigma.value)}},
                "passed": bool(ok)}, [] if ok else ["sigma-floor"]
    if cfg.command == "saddle":
        payoff, scfg, report = _saddle_problem(cfg, m)
        return _certify_saddle(cfg, payoff, scfg, report, solve_saddle(payoff, scfg))
    kw = {"mode": cfg.mode, "seed": cfg.seed, **_settings(cfg)}
    if cfg.command == "vi":
        cert = solve_vi(m, cfg.r, **kw)
    elif cfg.command == "vi-shifted":
        cert = solve_vi_shifted(m, cfg.w, cfg.r, **kw)
    elif cfg.command == "prox-pair":
        cert = solve_prox_pair(m, _y_set(cfg, m), _t_set(cfg, m), cfg.r,
                               uniqueness_starts=cfg.uniqueness_starts, **kw)
    elif cfg.command == "best-approx":
        cert = solve_best_approx(m, cfg.r, **kw)
    else:
        raise ConfigError(f"unknown command {cfg.command!r}")
    return cert.to_dict(), cert.failed_checks()


def _recertify(cfg: RunConfig, body: dict, fail) -> tuple[dict, list[str]]:
    """(recomputed body, names of its failed checks) for the solution stored
    in ``body``: the problem is rebuilt as ``run`` builds it and goes
    through the same gates and certify step.  ``fail`` records the failed
    hypothesis gates and an inconsistent probe record, and only those; a
    failed check is named by the certify step.  The solver-owned fields
    (residual, iterations, step, a probe record of ``prox-pair``) are
    carried over from ``body``; the probe record is only checked for
    consistency, and a contraction record is recomputed."""
    m, probed = cfg.smooth_map, cfg.command == "prox-pair"
    try:
        sol, uniq = body["solution"], body["checks"].get("uniqueness") if probed else None
        point = SaddlePoint(as_point(sol["x_star"], dim=m.dimension),
                            as_point(sol["y_star"], dim=m.dimension),
                            float(body["residuals"]["saddle_residual"]),
                            int(body["iterations"]), float(body.get("step", 0.0)))
        if uniq is not None and not isinstance(uniq.get("passed"), bool):
            raise TypeError("the uniqueness record needs a boolean 'passed'")
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(f"malformed certificate body: {exc!r}")
    if cfg.command == "saddle":
        payoff, scfg, report = _saddle_problem(cfg, m, fail)
        return _certify_saddle(cfg, payoff, scfg, report, point)
    kw = {"mode": cfg.mode, "seed": cfg.seed}
    if cfg.command in ("vi", "vi-shifted"):
        if cfg.command == "vi":
            target, rep = m, vi_report(m, seed=cfg.seed)
        else:
            target, rep, record = shift_problem(m, cfg.w, seed=cfg.seed, fail=fail)
        scfg = vi_problem(target, cfg.r, rep, cfg.mode, fail=fail, **_settings(cfg))
        cert = certify_vi(target, point, scfg, rep, **kw)
        if cfg.command == "vi-shifted":
            cert.theorem, cert.gate = "4", record
    else:
        Y = _y_set(cfg, m)
        rep = ba_report(m, Y, seed=cfg.seed)
        scfg = ba_problem(m, Y, _t_set(cfg, m), cfg.r, rep, cfg.mode, seed=cfg.seed,
                          fail=fail, **_settings(cfg))
        if (probed and not collapses(m, Y, scfg)
                and not uniqueness_consistent(uniq, cfg.uniqueness_starts)):
            fail("uniqueness-record", None)
        cert = certify_ba(m, Y, point, scfg, rep, uniqueness=uniq,
                          theorem="5" if cfg.command == "prox-pair" else "6", **kw)
    return cert.to_dict(), cert.failed_checks()


def verify(cert: dict) -> dict:
    """Recompute the deterministic body of a certificate and compare it,
    field by field, with the stored one.

    The solver and the prox-pair uniqueness probe are not re-run (see
    ``_recertify``).  Returns a verification document whose ``verified``
    field is the overall verdict; ``failures`` names every failed gate or
    check and every stored field that disagrees with its recomputation
    (``constants:<name>``, ``recorded:<dotted.path>``).
    """
    if not isinstance(cert, dict) or cert.get("format") != CERT_FORMAT:
        raise ConfigError(f"not a {CERT_FORMAT} document; re-run the solve that wrote it")
    for key in ("command", "config", "certificate"):
        if key not in cert:
            raise ConfigError(f"certificate is missing {key!r}")
    command = cert["command"]
    body = cert["certificate"]
    conf = dict(cert["config"])
    if conf.pop("command", command) != command:
        raise ConfigError("config command does not match the certificate command")
    cfg = parse_config(conf, command)
    failures, fresh = [], None
    if command in ("constants", "small-radius"):  # nothing solved: rerun
        try:
            fresh, failures = run(cfg)
        except HypothesisViolation:  # small-radius: the map vanishes at the origin
            failures = ["origin-nonzero"]
    else:
        try:
            fresh, failed = _recertify(cfg, body, lambda name, error: failures.append(name))
            failures += failed
        except HypothesisViolation:  # positivity (recorded) failed and no r is left to gate
            pass
    if fresh is None:  # a gate stopped the recomputation: there is nothing to compare
        fresh = {}
    else:
        fresh = _to_jsonable(fresh)
        for path in _compare_dicts(body, fresh):
            parts = path.split(".")  # a constants report sits at "constants" or below
            failures.append(f"constants:{parts[parts.index('constants') + 1]}"
                            if "constants" in parts[:-1] else f"recorded:{path}")
    failures = list(dict.fromkeys(failures))
    return {"format": VERIFY_FORMAT, "verified": not failures, "failures": failures,
            "recomputed": fresh, "certificate_passed": bool(body.get("passed", False))}


def _compare_dicts(stored, fresh, prefix: str = "") -> list[str]:
    """Dotted paths where ``fresh`` disagrees with ``stored``.  Finite numbers
    agree within VERIFY_REL_TOL of their own magnitude plus VERIFY_ABS_TOL,
    which absorbs last-bit noise in values near 0; a non-finite number
    matches only itself."""
    bad = []
    if isinstance(stored, dict) and isinstance(fresh, dict):
        for key in sorted(set(stored) | set(fresh)):
            if key not in stored or key not in fresh:
                bad.append(prefix + key)
                continue
            bad.extend(_compare_dicts(stored[key], fresh[key], prefix + key + "."))
        return bad
    if isinstance(stored, (int, float)) and isinstance(fresh, (int, float)) \
            and not isinstance(stored, bool) and not isinstance(fresh, bool):
        a, b = float(stored), float(fresh)
        if a != b and not (math.isfinite(a) and math.isfinite(b) and
                           abs(a - b) <= VERIFY_REL_TOL * max(abs(a), abs(b)) + VERIFY_ABS_TOL):
            bad.append(prefix.rstrip("."))
        return bad
    if stored != fresh:
        bad.append(prefix.rstrip("."))
    return bad


def _to_jsonable(obj):
    if isinstance(obj, dict):
        return {k: _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, CertFlag):
        return obj.value
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def _write_atomic(path: str, text: str):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


# command-line overrides of config fields; a command takes those in its schema
_OVERRIDES = {
    "r": {"type": float, "help": "ball radius override"},
    "seed": {"type": int, "help": "seed override"},
    "heuristic": {"action": "store_const", "const": True,
                  "help": "skip certification gates and watermark the output"},
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; that code means hypothesis violation
    # here, so bad usage is remapped to the config-error exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ballsaddle",
                     description="Certified saddle points, variational "
                                 "inequalities and best-approximation points "
                                 "on small balls.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="write the certificate here")
        for key, kwargs in _OVERRIDES.items():
            if key in _FIELDS.get(name, {}).get("optional", ()):
                p.add_argument("--" + key, **kwargs)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}")

        t0 = time.perf_counter()
        if args.command == "verify":
            out_doc = verify(doc)
            failures = out_doc["failures"]
        else:
            overrides = {key: getattr(args, key) for key in _OVERRIDES
                         if getattr(args, key, None) is not None}
            cfg = parse_config({**doc, **overrides} if isinstance(doc, dict) else doc,
                               args.command)
            body, failures = run(cfg)
            # the config echo is plain JSON already; only the body needs the walk
            out_doc = {"format": CERT_FORMAT, "command": cfg.command,
                       "config": cfg.to_dict(), "certificate": _to_jsonable(body),
                       "passed": not failures}
            if "seed" in _FIELDS[cfg.command]["optional"]:
                out_doc["seed"] = cfg.seed
        passed = not failures
        out_doc["wall_time"] = time.perf_counter() - t0
        text = json.dumps(out_doc, sort_keys=True, indent=2) + "\n"
        if args.out:
            _write_atomic(args.out, text)
            status = "PASS" if passed else "FAIL"
            print(f"{status} {args.command}: certificate written to {args.out}")
        else:
            sys.stdout.write(text)
        if not passed:
            print(f"check failure: {', '.join(failures)}", file=sys.stderr)
        return 0 if passed else 3
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (HypothesisViolation, CertificationError) as exc:
        msg = f"hypothesis violation: {exc}"
        if isinstance(exc, HypothesisViolation) and exc.deficit is not None:
            msg += f" (deficit {exc.deficit:.6g})"
        print(msg, file=sys.stderr)
        return 2
    except NonConvergence as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 4
    except (InvalidInput, BallSaddleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
