"""Byte-identity dump of the command line over a fixed matrix of configs.

    python tests/cli_dump.py --src src --out dump.json

Imports ``ballsaddle`` from ``--src`` and runs ``cli.main`` in process on
each config of ``CONFIGS``: every command, both ``saddle`` payoffs, ball
and box ``y_set``/``t_set``, heuristic mode, an explicit ``r``, a seed,
declared constants, shifts above and below the threshold, small radii of
both applications and refused problems.  A config's record holds the exit
code, the certificate without ``wall_time`` and stderr of the run, then
the same for ``verify`` of the certificate and of two tampered copies of a
solving command's certificate (a moved ``x_star``, a scaled residual).
The script writes the records to ``--out`` and prints their count and the
sha256 of that file, so two source trees (a change and its parent, say)
give equal digests exactly when their outputs agree.  pytest does not
collect this file; ``test_cli.py`` runs it on a few configs.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import io
import json
import os
import sys
import tempfile

AFFINE = {"kind": "affine", "A": [[1.0, 0.0], [0.0, 1.0]], "b": [2.0, 0.0], "rho": 1.0}
SKEW = {"kind": "affine", "A": [[1.0, 0.5, 0.0], [-0.5, 1.0, 0.2], [0.0, -0.2, 0.8]],
        "b": [1.0, -0.5, 0.5], "rho": 1.0}
QUADRATIC = {"kind": "quadratic", "A": [[1.0, 0.2], [-0.1, 0.9]], "b": [1.5, 0.5], "rho": 1.0,
             "Q": [[[0.1, 0.0], [0.0, 0.05]], [[0.0, 0.05], [0.05, 0.0]]]}
CONSTANT = {"kind": "constant", "c": [2.0, 0.0], "rho": 1.0}
# Jacobian 0 at the origin: the statement-4 shift of a quartic payoff
QUARTIC = {"kind": "quadratic", "A": [[0, 0], [0, 0]], "b": [0, 0], "rho": 1.0,
           "Q": [[[1, 0], [0, 1]], [[0, 0], [0, 0]]]}
DECLARED = {"kind": "quadratic", "A": [[1, 0], [0, 1]], "b": [2, 0], "rho": 1.0,
            "Q": [[[1, 0], [0, 1]], [[0, 0], [0, 0]]],
            "analytic_constants": {"theta": 4.0, "gamma": 2.0, "eta": 3.0}}
SHIFTED = dict(AFFINE, shift=[0.5, -0.5])
VANISHING = dict(AFFINE, b=[0.0, 0.0])
MAPS = {"affine": AFFINE, "skew": SKEW, "quadratic": QUADRATIC, "constant": CONSTANT,
        "declared": DECLARED, "shifted": SHIFTED, "vanishing": VANISHING}


def ball(radius):
    return {"kind": "ball", "radius": radius}


def box(lower, upper):
    return {"kind": "box", "lower": lower, "upper": upper}


def _sets(dim):
    """Named ball and box sets of dimension ``dim`` for y_set and t_set."""
    return {"ball": ball(0.5), "box": box([-0.5] * dim, [0.5] * dim),
            "offbox": box([-0.2] + [-0.4] * (dim - 1), [0.3] + [0.1] * (dim - 1))}


def _dim(problem):
    return len(problem["b"] if "b" in problem else problem["c"])


def _configs():
    """(name, command, config document) of the matrix, in a fixed order."""
    out = []
    runs = [{}, {"heuristic": True}, {"r": 0.1}, {"seed": 3}, {"r": 1.0},
            {"r": 1.0, "heuristic": True}]
    for name, problem in MAPS.items():
        dim, sets = _dim(problem), _sets(_dim(problem))
        for application in ("vi", "ba"):
            out.append((f"constants-{application}-{name}", "constants",
                        {"problem": problem, "application": application}))
            out.append((f"small-radius-{application}-{name}", "small-radius",
                        {"problem": problem, "application": application, "epsilon": 0.25}))
        out.append((f"constants-ba-box-{name}", "constants",
                    {"problem": problem, "application": "ba", "y_set": sets["box"]}))
        for command in ("vi", "best-approx", "prox-pair"):
            for k, extra in enumerate(runs):
                out.append((f"{command}-{name}-{k}", command, {"problem": problem, **extra}))
        for k, extra in enumerate(runs[:4]):
            out.append((f"saddle-vi-{name}-{k}", "saddle", {"problem": problem, **extra}))
            out.append((f"saddle-ba-{name}-{k}", "saddle",
                        {"problem": problem, "payoff": "ba", **extra}))
        for y_name in ("ball", "box", "offbox"):
            out.append((f"saddle-ba-y{y_name}-{name}", "saddle",
                        {"problem": problem, "payoff": "ba", "y_set": sets[y_name]}))
            out.append((f"prox-pair-y{y_name}-{name}", "prox-pair",
                        {"problem": problem, "y_set": sets[y_name]}))
        for t_name in ("ball", "box"):
            for payoff in ("vi", "ba"):
                out.append((f"saddle-{payoff}-t{t_name}-{name}", "saddle",
                            {"problem": problem, "payoff": payoff, "t_set": sets[t_name],
                             "r": 0.5}))
            out.append((f"prox-pair-t{t_name}-{name}", "prox-pair",
                        {"problem": problem, "t_set": sets[t_name], "r": 0.5}))
            out.append((f"prox-pair-t{t_name}-heuristic-{name}", "prox-pair",
                        {"problem": problem, "t_set": sets[t_name], "r": 0.5,
                         "heuristic": True}))
    for w in ([16.0, 0.0], [0.0, 20.0], [1.0, 0.0]):  # above, above, below the threshold
        for extra in ({"r": 1.0}, {}, {"r": 0.5, "heuristic": True}, {"r": 0.5, "seed": 2}):
            out.append((f"vi-shifted-{w}-{sorted(extra.items())}", "vi-shifted",
                        {"problem": QUARTIC, "w": w, **extra}))
    return out


CONFIGS = _configs()


def _tampered(cert):
    """Copies of a solving command's certificate with a moved x_star and a
    scaled residual."""
    moved, scaled = copy.deepcopy(cert), copy.deepcopy(cert)
    moved["certificate"]["solution"]["x_star"][0] += 1e-3
    scaled["certificate"]["residuals"]["saddle_residual"] *= 2.0
    return {"moved": moved, "scaled": scaled}


def _call(main, argv, out_path):
    """(exit code, document written without wall_time or None, stderr) of
    ``main(argv + ["--out", out_path])``."""
    if os.path.exists(out_path):
        os.remove(out_path)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv + ["--out", out_path])
    doc = None
    if os.path.exists(out_path):
        with open(out_path) as fh:
            doc = json.load(fh)
        doc.pop("wall_time", None)
    return {"exit": code, "document": doc, "stderr": err.getvalue()}


def records(configs, workdir: str) -> list[dict]:
    """One record per config: its run, and ``verify`` of what it wrote."""
    from ballsaddle.cli import main

    out = []
    config_path = os.path.join(workdir, "config.json")
    cert_path = os.path.join(workdir, "cert.json")
    verify_path = os.path.join(workdir, "verify.json")
    for name, command, doc in configs:
        with open(config_path, "w") as fh:
            json.dump(doc, fh)
        record = {"name": name, "command": command,
                  "run": _call(main, [command, "--config", config_path], cert_path)}
        cert = record["run"]["document"]
        if cert is not None:
            copies = {"stored": cert}
            if "solution" in cert["certificate"]:
                copies.update(_tampered(cert))
            for label, doc_ in copies.items():
                with open(cert_path, "w") as fh:
                    json.dump(doc_, fh)
                record["verify-" + label] = _call(main, ["verify", "--config", cert_path],
                                                  verify_path)
        out.append(record)
    return out


def dump(src: str, out: str, configs=CONFIGS) -> tuple[int, str]:
    """Write the records of ``configs``, run with the package under
    ``src``, to ``out``; returns (record count, sha256 of the file)."""
    src = os.path.realpath(src)
    if src not in map(os.path.realpath, sys.path):
        sys.path.insert(0, src)
    import ballsaddle
    if not os.path.realpath(ballsaddle.__file__).startswith(src + os.sep):
        raise SystemExit(f"ballsaddle was imported from {ballsaddle.__file__}, not {src}")
    with tempfile.TemporaryDirectory() as workdir:
        recs = records(configs, workdir)
    text = json.dumps(recs, sort_keys=True, indent=1) + "\n"
    with open(out, "w") as fh:
        fh.write(text)
    return len(recs), hashlib.sha256(text.encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the ballsaddle package")
    parser.add_argument("--out", required=True, help="file the records are written to")
    args = parser.parse_args(argv)
    count, digest = dump(args.src, args.out)
    print(f"{count} configs, sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
