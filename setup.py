"""Build script: compiles the optional search kernel.

The package is pure Python except for quiddity._speedups, a hand-written C
twin of quiddity._kernel.  The extension is optional: if it cannot be
compiled (no C compiler, no Python headers) the build goes on without it and
the pure kernel is used at runtime.
"""

from setuptools import Extension, setup

setup(ext_modules=[
    Extension("quiddity._speedups", ["src/quiddity/_speedups.c"], optional=True)
])
