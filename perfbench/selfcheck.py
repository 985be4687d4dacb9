"""Quick check of the benchmark itself.

Runs every workload with a handful of requests and fails when:
BENCHMARK.json differs from ``spec.py``; a metric named there is missing,
extra or carries another unit; an output check fails; the per-layer counts
of two traced runs differ; the certificate digests differ between the
untraced loop, the untraced replay and the traced replay; or the phase with
the largest self-time share is not the one the workload names.
"""

from __future__ import annotations

import bench
import spec

QUICK_REQUESTS = 3
QUICK_SEED = 11


def run(ctx, root) -> int:
    problems = []
    if (root / "BENCHMARK.json").read_text() != spec.benchmark_text():
        problems.append("BENCHMARK.json differs from spec.py; run --write-spec")
    e2e = {n: u for n, u, _, _ in spec.END_TO_END}
    layer = dict(spec.PER_LAYER)
    for wl in spec.WORKLOADS:
        plain = bench.run_workload(ctx, wl, QUICK_SEED, 0.0, False, QUICK_REQUESTS)
        traced = [bench.run_workload(ctx, wl, QUICK_SEED, 0.0, True, QUICK_REQUESTS)
                  for _ in range(2)]
        for res, want in ((plain, e2e), (traced[0], layer), (traced[1], layer)):
            got = {k: u for k, (_, u) in res.metrics.items()}
            if got != want:
                problems.append(f"{wl.name}: metrics {sorted(set(got) ^ set(want))} "
                                "missing or extra, or units differ")
            if res.failed or not res.consistent:
                problems.append(f"{wl.name}: {res.failed} failed; " + "; ".join(
                    line for line in res.lines if line.startswith("FAILURE")))
        counts = [{k: v for k, (v, u) in res.metrics.items() if u.startswith("count")}
                  for res in traced]
        if counts[0] != counts[1]:
            diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
            problems.append(f"{wl.name}: per-layer counts differ between traced runs: {diff}")
        digests = {plain.digest, traced[0].digest, traced[1].digest}
        if len(digests) != 1:
            problems.append(f"{wl.name}: certificate digests differ: {sorted(digests)}")
        top = next(iter(traced[0].shares))
        if wl.dominant and top != wl.dominant:
            problems.append(f"{wl.name}: largest self-time share is {top}, "
                            f"expected {wl.dominant}")
        print(f"{wl.name}: digest {plain.digest[:16]}, largest share {top} "
              f"{100 * traced[0].shares[top]:.1f}%")
    for line in problems:
        print(f"SELFCHECK FAIL {line}")
    print("SELFCHECK " + ("FAIL" if problems else "OK"))
    return 1 if problems else 0
