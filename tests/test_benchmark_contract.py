"""The benchmark under perfbench/ reads the package; these tests keep the
parts it relies on working, so a change that breaks them fails here."""

import subprocess
import sys
import types
from pathlib import Path

from quiddity.rings import CycloElement, GaussianRational, GaussianRationalField

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    # the self-test imports the package from src/ and checks every checker
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_traced_names_exist():
    # a traced run wraps package functions and methods by name, and raises
    # when one is gone, so a rename here would break every `--trace 1` run
    code = ("import sys\n"
            "sys.path[:0] = ['src', 'perfbench']\n"
            "import spans, workloads\n"
            "tracer = spans.Tracer()\n"
            "workloads.install_spans(tracer)\n"
            "patches = list(tracer._patches)\n"
            "tracer.remove()\n"
            "assert patches and all(vars(owner)[attr] is fn for owner, attr, fn in patches)\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_traced_methods_are_plain_functions():
    # the fields tracer wraps these three by name on their classes
    for cls, name in ((GaussianRational, "__mul__"), (GaussianRationalField, "exact_div"),
                      (CycloElement, "__mul__")):
        assert isinstance(cls.__dict__.get(name), types.FunctionType), (cls, name)
