"""Shared fixtures."""

import importlib

import pytest

import ballsaddle

MODULES = ("ba", "catalog", "cli", "constants", "geometry", "oracles", "saddle", "vi")


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(fn)``: a list that gains an entry per call of ``fn``,
    counted at every module attribute of the package bound to it, which is
    where its callers look it up."""
    def count(fn) -> list:
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)
        for mod in [ballsaddle] + [importlib.import_module("ballsaddle." + name)
                                   for name in MODULES]:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counting)
        return calls
    return count
