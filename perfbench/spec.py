"""What the benchmark measures: workloads, metrics and the predictions that
later changes are judged against.

``BENCHMARK.json`` at the repository root is generated from this file with
``python3 perfbench/run.py --write-spec``; the self-check fails when the two
disagree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

RUN_SECONDS = 36
COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload.

    ``slots`` is the rotation of (map kind, dimension, request type) that
    the pool is drawn along.  A run draws ``pool`` instances from the seed,
    one rotation after another, and requests them in turn, pass after pass,
    until the time is up, so every instance is timed several times, spread
    over the run.

    The time metrics use each instance's loaded time, the upper quartile of
    its repeats.  On a shared 2-CPU host a request runs at one of a few
    speeds, with the load beside it: mostly at a loaded speed, in spells up
    to 1.6 times faster, rarely slower still.  Which spells fall into a run
    changes from run to run, so the median or the best of a run's requests
    jumps; the loaded time moved least.  ``cert_p50_s`` and
    ``cert_tail_s`` are the median and the ``tail_pct`` percentile of the
    loaded times.  ``tail_pct`` is fixed, so that a faster program is not
    reported at another percentile, and leaves at least ten instances
    beyond it; higher percentiles fall among the few instances that need
    several times the usual iterations and move with the seed.
    ``dominant`` is the phase with the largest self-time share in the
    traced run.
    """

    name: str
    why: str
    slots: tuple
    pool: int
    tail_pct: int
    cli: bool = False
    dominant: str | None = None


def _rotation(instances, types=("vi", "best-approx", "prox-pair")):
    return tuple((kind, n, t) for kind, n in instances for t in types)


WORKLOADS = (
    Workload(
        name="solve-small",
        why=("affine and quadratic maps at n 4 and 8, certified: the extragradient "
             "solves and the 16-start uniqueness probe dominate"),
        slots=_rotation((("affine", 4), ("affine", 8), ("quadratic", 4),
                         ("quadratic", 8))),
        pool=60,
        tail_pct=75,
        dominant="uniqueness"),
    Workload(
        name="check-wide",
        why=("quadratic n 32 and affine n 128, certified vi and best-approx: the "
             "sampled checks on wide value batches dominate, not Python-loop overhead"),
        # prox-pair is left out: with its box T the solves take 5-7 times more
        # iterations, and the 16-start probe, not the checks, dominates it
        slots=_rotation((("quadratic", 32), ("quadratic", 32), ("affine", 128)),
                        types=("vi", "best-approx")),
        pool=30,
        tail_pct=66,
        dominant="checks"),
    Workload(
        name="cli-roundtrip",
        why=("python -m ballsaddle solve then verify in child processes at n 8 and "
             "32: import, config parsing, the JSON envelope and the re-check path"),
        slots=_rotation((("affine", 8), ("quadratic", 8), ("affine", 32),
                         ("quadratic", 32))),
        pool=24,
        tail_pct=50,
        cli=True),
)
WORKLOADS_BY_NAME = {w.name: w for w in WORKLOADS}

# (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("cert_p50_s", "s", "lower", 0.25),
    ("cert_tail_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
)

# (name, unit); "/req" metrics are per request of the traced pass
PER_LAYER = (
    ("catalog.build_s", "s/req"),
    ("catalog.val_calls", "count/req"),
    ("catalog.jac_calls", "count/req"),
    ("catalog.vals_rows", "count/req"),
    ("catalog.eval_s", "s/req"),
    ("constants.report_s", "s/req"),
    ("constants.report_calls", "count/req"),
    ("constants.op_norm_calls", "count/req"),
    ("constants.op_norm_s", "s/req"),
    ("saddle.solve_s", "s/req"),
    ("saddle.solve_calls", "count/req"),
    ("saddle.iterations", "count/req"),
    ("saddle.step_halvings", "count/req"),
    ("oracles.uniqueness_s", "s/req"),
    ("oracles.uniqueness_solves", "count/req"),
    ("oracles.uniqueness_iterations", "count/req"),
    ("saddle.check_s", "s/req"),
    ("saddle.check_samples", "count/req"),
    ("vi.check_s", "s/req"),
    ("ba.check_s", "s/req"),
    ("geometry.project_calls", "count/req"),
    ("geometry.as_point_calls", "count/req"),
    ("geometry.project_s", "s/req"),
    ("cli.import_s", "s"),
    ("cli.run_s", "s"),
    ("cli.overhead_s", "s"),
    ("cli.verify_s", "s"),
    ("other_s", "s/req"),
    ("trace.overhead_s", "s"),
)

# Which per-layer metric should move which end-to-end metric, on which
# workload.  Later changes cite these by name.
PREDICTIONS = {
    "solver-loop": {
        "layers": ["oracles.uniqueness_*", "saddle.solve_s", "saddle.iterations",
                   "geometry.as_point_calls", "geometry.project_calls",
                   "catalog.val_calls", "catalog.jac_calls"],
        "moves": {"solve-small": ["cert_p50_s", "cert_tail_s"],
                  "check-wide": ["cert_p50_s"]},
        "note": "largest on solve-small, smaller on check-wide",
        "still": ["cli-roundtrip verify time"],
    },
    "sampled-checks": {
        "layers": ["saddle.check_s", "vi.check_s", "ba.check_s",
                   "catalog.vals_rows", "catalog.eval_s"],
        "moves": {"check-wide": ["cert_p50_s", "peak_rss_mb"],
                  "cli-roundtrip": ["cert_p50_s"]},
        "note": "on cli-roundtrip through the verify child process",
        "still": ["solve-small"],
    },
    "constants": {
        "layers": ["constants.*", "catalog.build_s"],
        "moves": {"check-wide": ["cert_p50_s"]},
        "note": "about 7-10% of check-wide; constants.op_norm_s in the traced "
                "run is where a change to op_norm shows first",
        "still": ["solve-small"],
    },
    "cli-startup": {
        "layers": ["cli.import_s", "cli.overhead_s"],
        "moves": {"cli-roundtrip": ["cert_p50_s", "cert_tail_s", "peak_rss_mb"]},
        "note": "only the child-process workload",
        "still": ["solve-small", "check-wide"],
    },
}


def benchmark_json() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": "lower"}
                      for n, u in PER_LAYER],
    }


def benchmark_text() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"
