"""The benchmark under perfbench/ reads the package; these tests keep the
parts it relies on working, so a change that breaks them fails here."""

import subprocess
import sys
import types
from pathlib import Path

from quiddity.rings import GaussianRational, GaussianRationalField

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    # the self-test imports the package from src/ and checks every checker
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_traced_methods_are_plain_functions():
    # the fields tracer wraps these two by name on their classes
    for cls, name in ((GaussianRational, "__mul__"), (GaussianRationalField, "exact_div")):
        assert isinstance(cls.__dict__.get(name), types.FunctionType), (cls, name)
