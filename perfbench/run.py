"""ballsaddle benchmark: time to a certificate.

    python3 perfbench/run.py --workload solve-small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selfcheck
    python3 perfbench/run.py --write-spec

Run from the repository root.  ``--trace 0`` runs the closed loop and
prints the end-to-end metrics; ``--trace 1`` replays the first rotation
untraced and traced and prints the per-layer metrics.  Human-readable
report lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--selfcheck`` runs every workload with a handful of requests and checks
the benchmark itself; ``--write-spec`` rewrites ``BENCHMARK.json``.

The library is imported from ``src/`` of the checkout this file sits in,
never from an installed copy; without it the benchmark exits with code 2.
"""

import os

# Pinned before numpy loads; child processes inherit them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import spec  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


def import_library():
    """(ballsaddle, seconds the import took).  Imported before anything else
    loads numpy, so the time includes numpy as a user would see it."""
    src = ROOT / "src"
    if not (src / "ballsaddle" / "__init__.py").is_file():
        print(f"ballsaddle sources not found under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import ballsaddle
    import ballsaddle.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    if Path(ballsaddle.__file__).resolve().parent != (src / "ballsaddle").resolve():
        print(f"imported ballsaddle from {ballsaddle.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return ballsaddle, import_s


def environment(seed, workload) -> dict:
    import numpy
    import scipy

    def blas(show_config):
        try:
            return show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
        except (TypeError, KeyError):
            return "unknown"

    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numpy_openblas": blas(numpy.show_config),
            "scipy_openblas": blas(scipy.show_config),
            "threads": {v: os.environ[v] for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "seed": seed, "workload": workload}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS_BY_NAME))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--write-spec", action="store_true")
    args = parser.parse_args(argv)

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(spec.benchmark_text())
        return 0
    if not args.selfcheck and args.workload is None:
        parser.error("--workload is required")

    bs, import_s = import_library()
    import bench
    OUT.mkdir(exist_ok=True)
    ctx = bench.Context(bs, ROOT, OUT, import_s)
    if args.selfcheck:
        import selfcheck
        return selfcheck.run(ctx, ROOT)

    wl = spec.WORKLOADS_BY_NAME[args.workload]
    print(f"# env {json.dumps(environment(args.seed, wl.name))}")
    res = bench.run_workload(ctx, wl, args.seed, args.seconds, bool(args.trace))
    for line in res.lines:
        print(f"# {line}")
    for name, (value, unit) in res.metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": res.correct,
        "attempted": res.attempted, "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
