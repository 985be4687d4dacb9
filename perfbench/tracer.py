"""Spans and counters recorded from outside the library.

``Tracer.install`` replaces public functions of ballsaddle by timing
wrappers at every module attribute that refers to them, which is where the
callers resolve them (``vi.solve_saddle``, ``ba.ba_report``,
``saddle.project_ball``, ``constants.op_norm``, ...), and ``uninstall``
puts every original back.  ``src/`` is never edited.

Layer-boundary calls become spans (name, start, end, parent, request id),
kept in memory and written out when the run ends.  Calls that happen
thousands of times per request (map evaluations, projections, point
validation, power iterations) only bump counters and busy time, which keeps
memory flat; their time stays in the self time of the enclosing span.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict

MODULES = ("ballsaddle", "ballsaddle.ba", "ballsaddle.catalog", "ballsaddle.cli",
           "ballsaddle.constants", "ballsaddle.geometry", "ballsaddle.oracles",
           "ballsaddle.saddle", "ballsaddle.vi")

# (defining module, function, span name)
SPANS = (
    ("catalog", "make_affine", "catalog.build"),
    ("catalog", "make_quadratic", "catalog.build"),
    ("constants", "vi_report", "constants.report"),
    ("constants", "ba_report", "constants.report"),
    ("saddle", "solve_saddle", "saddle.solve"),
    ("saddle", "check_saddle", "saddle.check"),
    ("oracles", "uniqueness_probe", "oracles.uniqueness"),
    ("vi", "solve_vi", "vi.solve_vi"),
    ("vi", "check_vi", "vi.check"),
    ("ba", "solve_best_approx", "ba.solve_best_approx"),
    ("ba", "solve_prox_pair", "ba.solve_prox_pair"),
    ("ba", "check_nearest_point", "ba.check"),
    ("cli", "main", "cli.main"),
    ("cli", "parse_config", "cli.parse_config"),
    ("cli", "run", "cli.run"),
    ("cli", "verify", "cli.verify"),
)

# (defining module, function, counter, timer or None)
COUNTERS = (
    ("constants", "op_norm", "constants.op_norm_calls", "constants.op_norm_s"),
    ("geometry", "project_ball", "geometry.project_calls", "geometry.project_s"),
    ("geometry", "as_point", "geometry.as_point_calls", None),
)

# SmoothMap methods: (method, counter); all share the catalog.eval_s timer,
# and vals also counts its rows in catalog.vals_rows
EVAL_METHODS = (("val", "catalog.val_calls"), ("jac", "catalog.jac_calls"),
                ("vals", None))

# Phase of each span name; a solve inside the uniqueness probe belongs to
# the probe, and request time outside every span is "other".
PHASES = {
    "catalog.build": "build", "constants.report": "constants",
    "saddle.solve": "solve", "oracles.uniqueness": "uniqueness",
    "saddle.check": "checks", "vi.check": "checks", "ba.check": "checks",
    "vi.solve_vi": "api", "ba.solve_best_approx": "api", "ba.solve_prox_pair": "api",
    "cli.main": "cli", "cli.parse_config": "cli", "cli.run": "cli", "cli.verify": "cli",
    "request": "other",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "info")

    def __init__(self, name, start, parent, request):
        self.name, self.start, self.end = name, start, None
        self.parent, self.request, self.info = parent, request, None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters = defaultdict(float)
        self._stack: list[int] = []
        self._request = None
        self._depth = defaultdict(int)
        self._saved: list[tuple] = []
        self._wrappers: list = []

    # ------------------------------------------------------------ recording
    def begin_request(self, request_id):
        self._request = request_id
        return self._open("request")

    def end_request(self, idx):
        self._close(idx)
        self._request = None

    def _open(self, name) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, self._request))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx):
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if name == "saddle.solve":
                self.spans[idx].info = _solve_info(args, kwargs, out)
            elif name == "saddle.check":
                self.spans[idx].info = {"samples": sum(r.n_samples for r in out.reports)}
            return out
        return wrapper

    def _counter_wrapper(self, fn, counter, timer, rows=False):
        counters, depth = self.counters, self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                counters[counter] += 1
            if rows:
                counters["catalog.vals_rows"] += len(args[1])
            if timer is None:
                return fn(*args, **kwargs)
            # only the outermost call of a timer counts, so nesting is not
            # timed twice
            depth[timer] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                depth[timer] -= 1
                if depth[timer] == 0:
                    counters[timer] += time.perf_counter() - t0
        return wrapper

    # ------------------------------------------------------------ install
    def install(self):
        """Wrap every target at each module attribute bound to it."""
        mods = [sys.modules[name] for name in MODULES]
        for owner, fname, span in SPANS:
            fn = getattr(sys.modules["ballsaddle." + owner], fname)
            self._replace(mods, fn, self._span_wrapper(fn, span))
        for owner, fname, counter, timer in COUNTERS:
            fn = getattr(sys.modules["ballsaddle." + owner], fname)
            self._replace(mods, fn, self._counter_wrapper(fn, counter, timer))
        smooth_map = sys.modules["ballsaddle.catalog"].SmoothMap
        for meth, counter in EVAL_METHODS:
            fn = smooth_map.__dict__[meth]
            wrapper = self._counter_wrapper(fn, counter, "catalog.eval_s",
                                            rows=(meth == "vals"))
            self._saved.append((smooth_map, meth, fn))
            self._wrappers.append(wrapper)
            setattr(smooth_map, meth, wrapper)

    def _replace(self, mods, fn, wrapper):
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._saved.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)
        self._wrappers.append(wrapper)

    def uninstall(self):
        """Put back every original; raises if anything is left wrapped."""
        while self._saved:
            obj, attr, fn = self._saved.pop()
            setattr(obj, attr, fn)
        smooth_map = sys.modules["ballsaddle.catalog"].SmoothMap
        spaces = [vars(sys.modules[name]) for name in MODULES] + [vars(smooth_map)]
        wrappers = {id(w) for w in self._wrappers}
        for space in spaces:
            for attr, value in space.items():
                if id(value) in wrappers:
                    raise RuntimeError(f"wrapper left installed at {attr}")

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ------------------------------------------------------------ output
    def write(self, path):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "request": s.request, "info": s.info}) + "\n")


def _solve_info(args, kwargs, out) -> dict:
    """Iterations and step halvings of one solve.  The solver halves from
    1 / (2 smoothness) when no explicit step is configured."""
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    start = cfg.step if cfg.step is not None else (
        1.0 / (2.0 * cfg.smoothness) if cfg.smoothness else None)
    halvings = 0
    if start is not None and out.step > 0:
        halvings = max(0, round(math.log2(start / out.step)))
    return {"iterations": int(out.iterations), "halvings": int(halvings)}


# ---------------------------------------------------------------- analysis

# span name -> metric that sums the span's duration
DURATION_METRICS = {
    "request": "request_s", "catalog.build": "catalog.build_s",
    "constants.report": "constants.report_s", "oracles.uniqueness": "oracles.uniqueness_s",
    "saddle.check": "saddle.check_s", "vi.check": "vi.check_s", "ba.check": "ba.check_s",
}


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the time its direct children cover (children
    never overlap: calls are nested and single-threaded)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def phase_of(spans: list[Span], idx: int) -> str:
    p = spans[idx].parent
    while p >= 0:
        if spans[p].name == "oracles.uniqueness":
            return "uniqueness"
        p = spans[p].parent
    return PHASES[spans[idx].name]


def layer_metrics(tracer: Tracer, requests: list) -> tuple[dict, dict]:
    """Per-request means of the span and counter metrics over the spans of
    ``requests``, plus the self-time share of each phase."""
    spans = tracer.spans
    keep = set(requests)
    selfs = self_times(spans)
    totals = defaultdict(float)
    phase = defaultdict(float)
    for i, s in enumerate(spans):
        if s.request not in keep:
            continue
        dur = s.end - s.start
        ph = phase_of(spans, i)
        phase[ph] += selfs[i]
        if s.name in DURATION_METRICS:
            totals[DURATION_METRICS[s.name]] += dur
        if s.name == "request":
            totals["other_s"] += selfs[i]
        elif s.name == "constants.report":
            totals["constants.report_calls"] += 1
        elif s.name == "saddle.check":
            totals["saddle.check_samples"] += s.info["samples"]
        elif s.name == "saddle.solve" and ph == "uniqueness":
            totals["oracles.uniqueness_solves"] += 1
            totals["oracles.uniqueness_iterations"] += s.info["iterations"]
        elif s.name == "saddle.solve":
            totals["saddle.solve_s"] += dur
            totals["saddle.solve_calls"] += 1
            totals["saddle.iterations"] += s.info["iterations"]
            totals["saddle.step_halvings"] += s.info["halvings"]
    for key, value in tracer.counters.items():
        totals[key] += value
    n = max(len(keep), 1)
    per_req = {k: v / n for k, v in totals.items()}
    total_self = sum(phase.values()) or 1.0
    shares = {k: v / total_self for k, v in sorted(phase.items(), key=lambda kv: -kv[1])}
    return per_req, shares
