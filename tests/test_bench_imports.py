"""The benchmark under ``bench/`` imports library names that no test in
``tests/`` otherwise touches; importing its modules here keeps a removed
or renamed name from breaking only the benchmark."""

import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("module", ["layers", "workloads"])
def test_bench_module_imports(monkeypatch, module):
    monkeypatch.syspath_prepend(str(BENCH))
    assert importlib.import_module(module).__file__.startswith(str(BENCH))
