"""Running one workload: set-up, the closed loop, the output checks and,
with tracing, the per-layer pass.

One process and one caller: each request starts when the previous one
returned.  In-process workloads call the library; ``cli-roundtrip`` runs
``python -m ballsaddle <command>`` and then ``python -m ballsaddle verify``
as child processes, one at a time.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import problems
import spec
import tracer as tracing

SETUP_REPEATS = 3
LOADED_PCT = 75       # the percentile of an instance's repeats that the time metrics use
CHILD_TIMEOUT_S = 120
IMPORT_PROBES = 3


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0       # requests without a passing, checked certificate
    wrong: int = 0        # outputs that contradict a reference
    metrics: dict = field(default_factory=dict)   # name -> (value, unit)
    lines: list = field(default_factory=list)     # human-readable report
    digest: str | None = None
    consistent: bool = True
    shares: dict = field(default_factory=dict)

    def fail(self, why: str, wrong: bool = False):
        self.failed += 1
        self.wrong += int(wrong)
        if self.failed <= 5:
            self.lines.append(f"FAILURE {why}")

    @property
    def correct(self) -> bool:
        return self.wrong == 0 and self.consistent


def tail(samples, pct: int):
    """(value at percentile ``pct``, number of samples beyond it)."""
    s = sorted(samples)
    k = min(len(s) - 1, int(len(s) * pct / 100))
    return s[k], len(s) - 1 - k


class Context:
    """Library handle and paths shared by every workload of one process."""

    def __init__(self, bs, root: Path, out: Path, import_s: float):
        self.bs, self.root, self.out, self.import_s = bs, root, out, import_s
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def child(self, args):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *args], cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        return proc, time.perf_counter() - t0


def run_workload(ctx: Context, wl, seed: int, seconds: float, trace: bool,
                 first: int | None = None) -> Result:
    """Run ``wl`` and return its metrics.  ``first`` is the number of leading
    requests that the digest covers and the traced pass replays (default:
    one rotation of the workload's slots).  The timed loop cycles through
    ``wl.pool`` instances; a run without ``seconds`` or with tracing draws
    only the first ``first``."""
    first = first or len(wl.slots)
    res = Result()
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=ctx.out))
    try:
        pool_size = first if trace or seconds <= 0 else max(first, wl.pool)
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            pool = problems.draw_pool(seed, wl, pool_size)
            configs = _write_configs(ctx, pool, work) if wl.cli else None
            _warm_up(ctx, wl, work)
            setups.append(time.perf_counter() - t0)
        if trace:
            _traced(ctx, wl, pool, configs, first, work, res, seed)
        else:
            res.metrics["setup_s"] = (ctx.import_s + statistics.median(setups), "s")
            _timed(ctx, wl, pool, configs, first, seconds, work, res)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return res


# ---------------------------------------------------------------- set-up

def _write_configs(ctx, pool, work: Path) -> list[Path]:
    paths = []
    for inst in pool:
        path = work / f"config-{inst.index}.json"
        path.write_text(json.dumps(problems.cli_config(ctx.bs, inst)))
        paths.append(path)
    return paths


def _warm_up(ctx, wl, work):
    """One request on a fixed instance of the first slot, so that set-up
    does the same work whatever the seed."""
    inst = problems.draw_instance(0, "warm-up", 0, wl.slots[0])
    if wl.cli:
        work = work / "warm-up"
        work.mkdir(exist_ok=True)
        config = work / "config.json"
        config.write_text(json.dumps(problems.cli_config(ctx.bs, inst)))
        _cli_roundtrip_child(ctx, inst, config, work)
    else:
        problems.certify(ctx.bs, inst)


# ---------------------------------------------------------------- requests

def _call(ctx, wl, inst, config, work, inline=False):
    """(seconds, raw result) of one request.  The raw result is a
    (certificate, wrong, error) triple in process, or the round-trip record
    of the CLI; ``inline`` runs the CLI through ``cli.main`` in this
    process."""
    if wl.cli:
        roundtrip = _cli_roundtrip_inline if inline else _cli_roundtrip_child
        rt = roundtrip(ctx, inst, config, work)
        return rt["solve_s"] + rt["verify_s"], rt
    t0 = time.perf_counter()
    try:
        raw = (problems.certify(ctx.bs, inst), False, None)
    except Exception as exc:  # a failed request is counted, and the loop goes on
        raw = (None, False, f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - t0, raw


def _outcome(wl, raw):
    """(certificate or its bytes, wrong, failure reason or None)."""
    return _cli_outcome(raw) if wl.cli else raw


def _cli_roundtrip_child(ctx, inst, config: Path, work: Path) -> dict:
    """Solve and verify in two child processes."""
    cert, ver = work / f"cert-{inst.index}.json", work / f"verify-{inst.index}.json"
    solve, solve_s = ctx.child(["-m", "ballsaddle", inst.request, "--config", str(config),
                                "--out", str(cert)])
    verify, verify_s = ctx.child(["-m", "ballsaddle", "verify", "--config", str(cert),
                                  "--out", str(ver)])
    return {"solve_s": solve_s, "verify_s": verify_s, "solve_rc": solve.returncode,
            "verify_rc": verify.returncode, "cert": cert, "ver": ver,
            "stderr": solve.stderr + verify.stderr}


def _cli_roundtrip_inline(ctx, inst, config: Path, work: Path) -> dict:
    """The same round trip through ``cli.main`` in this process."""
    cert, ver = work / f"cert-{inst.index}.json", work / f"verify-{inst.index}.json"
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        solve_rc = ctx.bs.cli.main([inst.request, "--config", str(config),
                                    "--out", str(cert)])
        t1 = time.perf_counter()
        verify_rc = ctx.bs.cli.main(["verify", "--config", str(cert), "--out", str(ver)])
        t2 = time.perf_counter()
    return {"solve_s": t1 - t0, "verify_s": t2 - t1, "solve_rc": solve_rc,
            "verify_rc": verify_rc, "cert": cert, "ver": ver, "stderr": ""}


def _cli_outcome(rt: dict) -> tuple[bytes | None, bool, str | None]:
    """(certificate bytes for the digest, wrong, failure reason or None).
    A certificate that its own verify rejects counts as a wrong output."""
    if rt["solve_rc"] != 0:
        return None, False, f"solve exited {rt['solve_rc']}: {rt['stderr'].strip()[-300:]}"
    blob = problems.envelope_bytes(json.loads(rt["cert"].read_text()))
    if rt["verify_rc"] != 0:
        return blob, True, f"verify exited {rt['verify_rc']}: {rt['stderr'].strip()[-300:]}"
    if json.loads(rt["ver"].read_text()).get("verified") is not True:
        return blob, True, "verification document is not verified"
    return blob, False, None


# ---------------------------------------------------------------- timed loop

def loaded(times) -> float:
    """The upper quartile of one instance's request times: its time at the
    host's usual, loaded speed (see ``spec.Workload``)."""
    return tail(times, LOADED_PCT)[0]


def _timed(ctx, wl, pool, configs, first, seconds, work, res: Result):
    """Passes over the pool until ``seconds`` are up.  Each instance is
    requested once per pass, so its repeats are spread over the whole run.
    The time metrics are taken over the instances' loaded times; the wall
    clock of the same loop is a report line."""
    lat = [[] for _ in pool]          # seconds of every request, per instance
    parts = [[] for _ in pool]        # (solve child, verify child) on cli-roundtrip
    outcomes = []
    start = time.perf_counter()
    i = 0
    while i < first or time.perf_counter() - start < seconds:
        k = i % len(pool)
        dt, raw = _call(ctx, wl, pool[k], configs and configs[k], work)
        lat[k].append(dt)
        outcomes.append((pool[k], _outcome(wl, raw)))
        if wl.cli:
            parts[k].append((raw["solve_s"], raw["verify_s"]))
        i += 1
    loop_s = time.perf_counter() - start

    passing = _gate(ctx, wl, outcomes, res)
    if wl.cli:
        _tamper_check(ctx, outcomes, work, res)
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    visited = [k for k in range(len(pool)) if lat[k]]
    times = [loaded(lat[k]) for k in visited]
    value, beyond = tail(times, wl.tail_pct)
    res.metrics["cert_p50_s"] = (statistics.median(times), "s")
    res.metrics["cert_tail_s"] = (value, "s")
    res.metrics["peak_rss_mb"] = (rss / 1024.0, "MB")
    repeats = [len(lat[k]) for k in visited]
    ok = [k for k in visited if pool[k].index in passing]
    res.lines.append(f"{len(visited)} instances, {min(repeats)}-{max(repeats)} requests "
                     f"each; cert_tail_s is p{wl.tail_pct} of their loaded times, "
                     f"{beyond} beyond it")
    res.lines.append(f"certs_per_s {len(ok) / sum(times):.6g} 1/s "
                     "(passing instances over the sum of their loaded times)")
    res.lines.append(f"fail_ratio {res.failed / max(res.attempted, 1):.6g} "
                     f"({res.failed} of {res.attempted}, {res.wrong} wrong)")
    every = [t for k in visited for t in lat[k]]
    res.lines.append(f"wall clock: {len(every)} requests in {loop_s:.3f} s, "
                     f"{sum(len(lat[k]) for k in ok) / loop_s:.6g} passing/s, "
                     f"median request {statistics.median(every):.6g} s")
    if wl.cli:
        solves = [loaded([s for s, _ in parts[k]]) for k in visited]
        verifies = [loaded([v for _, v in parts[k]]) for k in visited]
        cv, cbeyond = tail(solves + verifies, 75)
        res.lines.append(f"cli_solve_p50_s {statistics.median(solves):.6g} s")
        res.lines.append(f"cli_verify_p50_s {statistics.median(verifies):.6g} s")
        res.lines.append(f"cli_tail_s {cv:.6g} s (p75 of the loaded times of "
                         f"{len(solves + verifies)} child commands, {cbeyond} beyond it)")
    res.digest = _digest(wl, outcomes[:first])
    res.lines.append(f"digest over the first {first} requests: {res.digest}")


def _gate(ctx, wl, outcomes, res: Result) -> set:
    """Check every output after the loop; returns the indices of the
    instances all of whose requests passed.  Repeats of one instance must
    give byte-identical certificates, so the references run once per
    instance."""
    checked = {}      # instance index -> (blob, wrong, why) of its first request
    failing = set()
    for inst, (out, wrong, err) in outcomes:
        res.attempted += 1
        blob = out if wl.cli else (None if out is None else problems.cert_bytes(out))
        earlier = checked.get(inst.index)
        if earlier is None:
            if not wl.cli and out is not None and err is None:
                wrong, err = problems.check_certificate(ctx.bs, inst, out)
            checked[inst.index] = (blob, wrong, err)
        elif blob != earlier[0]:
            wrong, err = True, "a repeat of this request gave a different certificate"
        elif err is None:
            wrong, err = earlier[1], earlier[2]
        if err is not None:
            failing.add(inst.index)
            res.fail(f"request {inst.index} ({inst.kind} n={inst.n} {inst.request}): "
                     f"{err}", wrong)
    return set(checked) - failing


def _tamper_check(ctx, outcomes, work: Path, res: Result):
    """One tampered certificate must be rejected with exit 3 and failures."""
    res.attempted += 1
    inst = outcomes[0][0]
    doc = json.loads((work / f"cert-{inst.index}.json").read_text())
    bad, ver = work / "tampered.json", work / "tampered-verify.json"
    bad.write_text(json.dumps(problems.tamper(doc)))
    proc, _ = ctx.child(["-m", "ballsaddle", "verify", "--config", str(bad),
                         "--out", str(ver)])
    failures = json.loads(ver.read_text()).get("failures") if ver.exists() else None
    if proc.returncode != 3 or not failures:
        res.fail(f"tampered certificate: exit {proc.returncode}, failures {failures}",
                 wrong=True)
    else:
        res.lines.append(f"tampered certificate rejected: {', '.join(failures)}")


def _digest(wl, outcomes) -> str:
    blobs = []
    for _, (out, _, _) in outcomes:
        if wl.cli:
            blobs.append(out or b"")
        else:
            blobs.append(b"" if out is None else problems.cert_bytes(out))
    return problems.digest(blobs)


# ---------------------------------------------------------------- traced pass

def _replay(ctx, wl, pool, configs, first, work, tr=None):
    """The first ``first`` requests, the CLI through ``cli.main`` in this
    process, each in a request span when traced."""
    lat, outcomes = [], []
    for i in range(first):
        span = tr.begin_request(i) if tr else None
        dt, raw = _call(ctx, wl, pool[i], configs and configs[i], work, inline=True)
        if tr:
            tr.end_request(span)
        lat.append(dt)
        outcomes.append((pool[i], _outcome(wl, raw)))
    return lat, outcomes


def _traced(ctx, wl, pool, configs, first, work, res: Result, seed: int):
    plain_lat, plain = _replay(ctx, wl, pool, configs, first, work)
    tr = tracing.Tracer()
    with tr:
        traced_lat, traced = _replay(ctx, wl, pool, configs, first, work, tr)
        layers, res.shares = tracing.layer_metrics(tr, list(range(first)))
        probe = _cli_probe(ctx, pool, work, tr, res)
    _gate(ctx, wl, plain + traced, res)

    plain_digest, traced_digest = _digest(wl, plain), _digest(wl, traced)
    res.digest = traced_digest
    res.consistent = plain_digest == traced_digest
    res.lines.append(f"digest untraced {plain_digest}")
    res.lines.append(f"digest traced   {traced_digest}")
    if not res.consistent:
        res.lines.append("FAILURE traced and untraced certificates differ")

    covered = layers["request_s"] * first / sum(traced_lat)
    res.lines.append(f"spans cover {100 * covered:.2f}% of the measured request time")
    res.lines.append("self-time shares " + ", ".join(
        f"{k} {100 * v:.1f}%" for k, v in res.shares.items()))
    for name, unit in spec.PER_LAYER:
        if name in probe:
            value = probe[name]
        elif name == "trace.overhead_s":
            value = statistics.median(traced_lat) - statistics.median(plain_lat)
        else:
            value = layers.get(name, 0.0)
        res.metrics[name] = (value, unit)
    trace_path = ctx.out / f"trace-{wl.name}-{seed}-{os.getpid()}.jsonl"
    tr.write(trace_path)
    res.lines.append(f"spans written to {trace_path.relative_to(ctx.root)}")


def _cli_probe(ctx, pool, work: Path, tr, res: Result) -> dict:
    """CLI layer timings on the first instance of each request type: import
    in a child process, solve in a child process, verify in this process
    under the tracer.  In-process workloads get the probe too, with their
    own inputs, so every run reports the CLI layer."""
    imports = []
    for _ in range(IMPORT_PROBES):
        proc, _ = ctx.child(["-c", "import time; t = time.perf_counter(); "
                             "import ballsaddle.cli; print(time.perf_counter() - t)"])
        imports.append(float(proc.stdout))
    runs, overheads = [], []
    mark = len(tr.spans)
    for inst in pool[:3]:
        config = work / f"probe-config-{inst.index}.json"
        config.write_text(json.dumps(problems.cli_config(ctx.bs, inst)))
        cert = work / f"probe-cert-{inst.index}.json"
        proc, wall = ctx.child(["-m", "ballsaddle", inst.request, "--config",
                                str(config), "--out", str(cert)])
        res.attempted += 2
        if proc.returncode != 0:
            res.fail(f"CLI probe solve exited {proc.returncode}: "
                     f"{proc.stderr.strip()[-300:]}")
            continue
        wall_time = json.loads(cert.read_text())["wall_time"]
        runs.append(wall_time)
        overheads.append(wall - wall_time)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = ctx.bs.cli.main(["verify", "--config", str(cert)])
        if rc != 0:
            res.fail(f"CLI probe verify exited {rc}")
    verifies = [s.end - s.start for s in tr.spans[mark:] if s.name == "cli.verify"]
    return {"cli.import_s": statistics.median(imports),
            "cli.run_s": statistics.median(runs),
            "cli.overhead_s": statistics.median(overheads),
            "cli.verify_s": statistics.median(verifies)}
