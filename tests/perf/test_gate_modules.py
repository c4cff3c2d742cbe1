"""The perf-gate modules import against the current program.

``bench_engine.py`` and ``bench_fabric.py`` are not collected here
(pytest collects ``test_*.py``); CI runs them by path.  Importing them,
without running a gate, makes a renamed program name fail this suite
too, not only the two CI jobs.
"""

import importlib.util
import pathlib

import pytest

PERF_DIR = pathlib.Path(__file__).resolve().parent


@pytest.mark.parametrize("name", ["bench_engine", "bench_fabric"])
def test_gate_module_imports(name):
    spec = importlib.util.spec_from_file_location(
        f"perf_gate_{name}", PERF_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    gates = [attr for attr in vars(module) if attr.startswith("test_")]
    assert len(gates) >= 2
