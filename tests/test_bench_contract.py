"""The library contract of the benchmark under ``perfbench/``.

The benchmark wraps library functions by module and name, calls the solve
entry points with its own keywords and checks their certificates.  These
tests load its modules from the checkout, without editing them, so that a
renamed function or a changed signature fails here rather than only in a
benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import ballsaddle
import ballsaddle.cli  # noqa: F401  (the tracer wraps functions of every module)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REQUESTS = ("vi", "best-approx", "prox-pair")


def _load(name):
    loader_spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                         PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(loader_spec)
    sys.modules[loader_spec.name] = mod
    loader_spec.loader.exec_module(mod)
    return mod


spec, problems, tracer = (_load(name) for name in ("spec", "problems", "tracer"))


def _instance(request):
    # the first instance of each request type along the first workload's seed stream
    index = REQUESTS.index(request)
    return problems.draw_instance(1, spec.WORKLOADS[0].name, index, ("affine", 4, request))


def test_workloads_use_the_tested_requests():
    assert {slot[2] for w in spec.WORKLOADS for slot in w.slots} == set(REQUESTS)


def test_traced_targets_exist():
    for owner, fname, *_ in tracer.SPANS + tracer.COUNTERS:
        assert callable(getattr(importlib.import_module("ballsaddle." + owner), fname))
    for meth, _ in tracer.EVAL_METHODS:
        assert callable(getattr(ballsaddle.SmoothMap, meth))
    for name in tracer.MODULES:
        assert name in sys.modules


@pytest.mark.parametrize("request_type", REQUESTS)
def test_request_certifies_and_checks(request_type):
    inst = _instance(request_type)
    cert = problems.certify(ballsaddle, inst)
    wrong, why = problems.check_certificate(ballsaddle, inst, cert)
    assert not wrong, why
    assert cert.passed and why is None


WIDE = spec.WORKLOADS_BY_NAME["check-wide"]


def _wide_id(slot):
    # the request type alone for the quadratic n = 32 slots, the test's namesake
    kind, n, request = slot
    return request if (kind, n) == ("quadratic", 32) else f"{kind}-{n}-{request}"


@pytest.mark.parametrize("slot", list(dict.fromkeys(WIDE.slots)), ids=_wide_id)
def test_wide_quadratic_request_certifies_and_checks(slot):
    # every check-wide slot at its own size: 32-wide quadratic and 128-wide
    # affine batches
    inst = problems.draw_instance(1, WIDE.name, WIDE.slots.index(slot), slot)
    cert = problems.certify(ballsaddle, inst)
    wrong, why = problems.check_certificate(ballsaddle, inst, cert)
    assert not wrong, why
    assert cert.passed and why is None


def test_request_runs_traced():
    solve = ballsaddle.saddle.solve_saddle
    with tracer.Tracer() as tr:
        assert ballsaddle.vi.solve_saddle is not solve
        problems.certify(ballsaddle, _instance("vi"))
    assert ballsaddle.vi.solve_saddle is solve
    names = {s.name for s in tr.spans}
    assert {"constants.report", "vi.solve_vi", "vi.check"} <= names
    # vi solves by the proved contraction's fixed-point iteration, proves
    # uniqueness by it and samples its inequalities once; only the box prox
    # pair runs the extragradient, the probe and the saddle checks
    assert not {"saddle.solve", "oracles.uniqueness", "saddle.check"} & names
    with tracer.Tracer() as tr:
        problems.certify(ballsaddle, _instance("prox-pair"))
    assert {"saddle.solve", "oracles.uniqueness", "saddle.check"} <= {s.name for s in tr.spans}
