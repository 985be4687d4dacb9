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

Certificates embed the fully-resolved config.  ``run`` and ``verify`` of
a solving command take one path, ``_certify``: gate, solve unless a stored
solution is given, certify.  So ``verify`` rebuilds the problem with the
code ``run`` uses and puts the stored solution through the same gates and
certify step, without re-solving.  Output is deterministic for a fixed
config and seed except for the ``wall_time`` field.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

from .ba import ba_small_radius, run_ba
from .catalog import (MapPayoff, SmoothMap, map_from_dict, read_array, read_number,
                      require_fields)
from .constants import ba_report, vi_report
from .errors import (BallSaddleError, CertificationError, ConfigError, DimensionMismatch,
                     HypothesisViolation, InvalidInput, NonConvergence)
from .geometry import Ball, Box, ConvexSet, as_point
from .saddle import SaddlePoint, raise_failure, run_saddle
from .vi import run_vi, small_radius

CERT_FORMAT = "ballsaddle-certificate/5"
VERIFY_FORMAT = "ballsaddle-verification/1"
VERIFY_REL_TOL = 1e-9
VERIFY_ABS_TOL = 1e-14
COMMANDS = ("constants", "saddle", "vi", "vi-shifted", "prox-pair",
            "best-approx", "small-radius", "verify")
_COMMON = ("seed", "heuristic")
_FIELDS = {
    "constants": {"required": ("problem",), "optional": ("application", "y_set")},
    "saddle": {"required": ("problem",), "optional": ("payoff", "r", "t_set", "y_set") + _COMMON},
    "vi": {"required": ("problem",), "optional": ("r",) + _COMMON},
    "vi-shifted": {"required": ("problem", "w"), "optional": ("r",) + _COMMON},
    "prox-pair": {"required": ("problem",), "optional": ("r", "y_set", "t_set") + _COMMON},
    "best-approx": {"required": ("problem",), "optional": ("r",) + _COMMON},
    "small-radius": {"required": ("problem",), "optional": ("application", "epsilon")},
}


@dataclass
class RunConfig:
    """A fully-resolved run request; ``to_dict`` is the echo embedded in
    certificates.  No field sets a solver setting or a check threshold.
    ``smooth_map``, ``Y`` (default ball(rho)) and ``T``, outside the schema,
    are built by ``parse_config`` from ``problem``, ``y_set`` and ``t_set``."""

    command: str
    problem: dict
    r: float | None = None
    seed: int = 0
    heuristic: bool = False
    application: str = "vi"
    payoff: str = "vi"
    epsilon: float = 0.5
    w: list | None = None
    y_set: dict | None = None
    t_set: dict | None = None
    smooth_map: SmoothMap | None = field(default=None, repr=False, compare=False)
    Y: ConvexSet | None = field(default=None, repr=False, compare=False)
    T: ConvexSet | None = field(default=None, repr=False, compare=False)

    @property
    def mode(self) -> str:
        return "heuristic" if self.heuristic else "certified"

    def to_dict(self):
        spec = _FIELDS[self.command]
        d = {"command": self.command}
        for key in spec["required"] + spec["optional"]:
            if getattr(self, key) is not None:
                d[key] = getattr(self, key)
        return d


def parse_config(doc: dict, command: str) -> RunConfig:
    """Validate a config document against the schema of ``command``.

    Unknown fields anywhere are rejected with their dotted path, and so is
    a set the command will not read: ``y_set`` of ``constants`` or
    ``saddle`` with the "vi" application or payoff.
    """
    if command not in _FIELDS:
        raise ConfigError(f"unknown command {command!r}")
    require_fields(doc, "", _FIELDS[command]["required"], _FIELDS[command]["optional"])
    cfg = RunConfig(command=command, problem=doc["problem"])
    cfg.smooth_map = map_from_dict(cfg.problem)  # built once; errors carry config paths
    for key, least in (("r", None), ("seed", 0), ("epsilon", None)):
        if key in doc:
            setattr(cfg, key, read_number(doc, key, least=least))
    if not cfg.epsilon < 1.0:
        raise ConfigError(f"epsilon must lie in (0, 1), got {cfg.epsilon}", path="epsilon")
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
        w = read_array(doc, "w")
        if w.ndim != 1:
            raise ConfigError("w must be a non-empty array of finite numbers", path="w")
        cfg.w = w.tolist()
    selector = {"constants": "application", "saddle": "payoff"}.get(command)
    if "y_set" in doc and selector and getattr(cfg, selector) == "vi":
        raise ConfigError(f"{command} with {selector} 'vi' reads no y_set", path="y_set")
    m = cfg.smooth_map
    for name, attr in (("y_set", "Y"), ("t_set", "T")):
        if name in doc:
            setattr(cfg, name, doc[name])
            setattr(cfg, attr, set_from_dict(doc[name], m.dimension, name))
    cfg.Y = cfg.Y or Ball(m.domain_radius, m.dimension)
    return cfg


def set_from_dict(doc: dict, dim: int, path: str) -> ConvexSet:
    """{"kind": "ball", "radius": R} or {"kind": "box", "lower": [...],
    "upper": [...]} with dimension checks."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ConfigError("set needs a 'kind'", path=path)
    kind = doc["kind"]
    if kind == "ball":
        require_fields(doc, path, ("kind", "radius"))
        return Ball(read_number(doc, "radius", path), dim)
    if kind == "box":
        require_fields(doc, path, ("kind", "lower", "upper"))
        try:
            box = Box(read_array(doc, "lower", path), read_array(doc, "upper", path))
        except (InvalidInput, DimensionMismatch) as exc:
            raise ConfigError(f"bad box bounds: {exc}", path=path)
        if box.dim != dim:
            raise ConfigError(
                f"box dimension {box.dim} does not match problem dimension {dim}",
                path=path)
        return box
    raise ConfigError(f"unknown set kind {kind!r}", path=f"{path}.kind")


def run(cfg: RunConfig) -> tuple[dict, list[str]]:
    """Execute a parsed config: (certificate document without envelope
    fields, names of its failed checks)."""
    m = cfg.smooth_map
    if cfg.command == "constants":
        if cfg.application == "vi":
            rep, theorem = vi_report(m), "2"
        else:
            rep, theorem = ba_report(m, cfg.Y), "5"
        return {"theorem": theorem,
                "mode": "certified" if rep.certified else "heuristic",
                "constants": rep.to_dict(), "passed": True}, []
    if cfg.command == "small-radius":
        res = (small_radius(m, cfg.epsilon) if cfg.application == "vi"
               else ba_small_radius(m, cfg.epsilon))
        failed = res.failed_checks()
        return {"theorem": res.theorem,
                "mode": "certified" if res.report.certified else "heuristic",
                "small_radius": res.to_dict(),
                "checks": {"sigma-floor": {"passed": not failed,
                                           "floor": float(res.sigma_floor),
                                           "sigma": float(res.report.sigma.value)}},
                "passed": not failed}, failed
    return _certify(cfg, raise_failure)


def _certify(cfg: RunConfig, fail, point: SaddlePoint | None = None,
             uniqueness: dict | None = None) -> tuple[dict, list[str]]:
    """(body, names of failed checks) of a solving command, the one path of
    ``run`` and ``verify``: one ``run_saddle``, ``run_vi`` or ``run_ba`` call
    on what the config gives, the sink ``fail`` and, from ``verify``, a stored
    ``point`` (and a ``prox-pair``'s probe record ``uniqueness``)."""
    m, kw = cfg.smooth_map, {"mode": cfg.mode, "seed": cfg.seed, "fail": fail}
    if cfg.command == "saddle":
        cert = run_saddle(MapPayoff(cfg.Y, m, cfg.payoff), cfg.T, cfg.r, None, point, **kw)
    elif cfg.command in ("vi", "vi-shifted"):
        cert = run_vi(m, cfg.r, None, {}, point, w=cfg.w, **kw)
    else:  # prox-pair or best-approx
        cert = run_ba(m, cfg.Y, cfg.T, cfg.r, None, {}, point, uniqueness=uniqueness,
                      theorem="5" if cfg.command == "prox-pair" else "6", **kw)
    return cert.to_dict(), cert.failed_checks()


def _recertify(cfg: RunConfig, body: dict, fail) -> tuple[dict, list[str]]:
    """(recomputed body, names of its failed checks) for the solution stored
    in ``body``, through ``_certify`` as ``run`` takes it but without the
    solve.  The solver-owned fields (residual, iterations, step, a probe
    record of ``prox-pair``) are carried over from ``body``; the probe
    record is only checked for consistency, and a contraction record is
    recomputed."""
    m = cfg.smooth_map
    try:
        sol = body["solution"]
        uniq = body["checks"].get("uniqueness") if cfg.command == "prox-pair" else None
        point = SaddlePoint(as_point(sol["x_star"], dim=m.dimension),
                            as_point(sol["y_star"], dim=m.dimension),
                            float(body["residuals"]["saddle_residual"]),
                            int(body["iterations"]), float(body.get("step", 0.0)))
        if uniq is not None and not _is_uniqueness_record(uniq):
            raise TypeError("the uniqueness record is neither a contraction nor a probe record")
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(f"malformed certificate body: {exc!r}")
    return _certify(cfg, fail, point, uniq)


def _is_uniqueness_record(record) -> bool:
    """Whether a stored ``prox-pair`` uniqueness record has the shape of a
    contraction record (recomputed, so only its verdict is read) or of a
    ``probe_uniqueness`` record: an integer ``starts`` and a number
    ``max_pairwise``, neither a bool.  Both have a boolean ``passed``."""
    if not (isinstance(record, dict) and isinstance(record.get("passed"), bool)):
        return False
    return record.get("method") == "contraction" or (
        type(record.get("starts")) is int and type(record.get("max_pairwise")) in (int, float))


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
    command, conf, body = cert["command"], cert["config"], cert["certificate"]
    if not isinstance(command, str):
        raise ConfigError("must be a string", path="command")
    for key, value in (("config", conf), ("certificate", body)):
        if not isinstance(value, dict):
            raise ConfigError("must be an object", path=key)
    conf = dict(conf)
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
    matches only itself, and a boolean only the same boolean (in Python
    ``True == 1.0``).  Lists of equal length agree element by element under
    the same rules; a list that disagrees anywhere is named by its own path."""
    if isinstance(stored, dict) and isinstance(fresh, dict):
        bad = []
        for key in sorted(set(stored) | set(fresh)):
            if key not in stored or key not in fresh:
                bad.append(prefix + key)
                continue
            bad.extend(_compare_dicts(stored[key], fresh[key], prefix + key + "."))
        return bad
    if isinstance(stored, list) and isinstance(fresh, list):
        same = len(stored) == len(fresh) and not any(map(_compare_dicts, stored, fresh))
    elif isinstance(stored, bool) or isinstance(fresh, bool):
        same = stored is fresh
    elif isinstance(stored, (int, float)) and isinstance(fresh, (int, float)):
        a, b = float(stored), float(fresh)
        same = a == b or (math.isfinite(a) and math.isfinite(b) and
                          abs(a - b) <= VERIFY_REL_TOL * max(abs(a), abs(b)) + VERIFY_ABS_TOL)
    else:
        same = stored == fresh
    return [] if same else [prefix.rstrip(".")]


def _to_jsonable(obj):
    if isinstance(obj, dict):
        return {k: _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _write_atomic(path: str, text: str):
    """Write ``text`` to ``path`` through a fresh temporary file beside it,
    ``<path>.<random hex>.tmp``, created exclusively with mode 0666 less the
    umask, the mode a plain ``open(path, "w")`` gives; no other file is
    touched.  A failure removes the temporary file if this call created it
    and raises InvalidInput naming ``path``."""
    tmp, created = f"{path}.{os.urandom(8).hex()}.tmp", False
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        created = True
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        if created:
            os.remove(tmp)
        raise InvalidInput(f"cannot write {path}: {exc.strerror or exc}") from None


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
