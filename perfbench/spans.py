"""Spans around the package's public calls, recorded from outside the package.

`Tracer.install` replaces a function with a timing wrapper wherever its
callers look it up: in every `quiddity` module that holds it as a global,
or on the class that defines an arithmetic method.  `remove` puts the
originals back.  A span is only recorded while `active` is set, so the
benchmark's own checks never show up.  Spans are folded into per-name
totals as they close: count, inclusive time, self time (inclusive minus the
time of spans that closed inside it) and, for the names asked for, every
duration.  Arithmetic spans are leaves: one opened inside another (the
Fraction products inside a Q(i) product) is not recorded, so the outer one
does not carry the inner ones' tracing cost.
"""

from __future__ import annotations

import sys
import time
from functools import wraps


class Stat:
    __slots__ = ("count", "total_ns", "self_ns", "samples", "results")

    def __init__(self, keep_samples: bool):
        self.count = 0
        self.total_ns = 0
        self.self_ns = 0
        self.samples = [] if keep_samples else None
        self.results = 0


class Tracer:
    def __init__(self, sample_names=()):
        self.active = False
        self.stats = {}
        self._sample_names = set(sample_names)
        self._stack = []  # inclusive ns of the closed children, per open span
        self._in_leaf = False
        self._patches = []  # (owner, attribute, original)

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat(name in self._sample_names)
        return st

    def wrap(self, fn, name, result_size=None, leaf=False):
        """A wrapper timing `fn` as span `name`.  `name` may be a callable
        of the call's arguments, for spans named after their receiver.
        `result_size(result)` adds to the span's result count."""
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active or tracer._in_leaf:
                return fn(*args, **kwargs)
            stack.append(0)
            tracer._in_leaf = leaf
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                tracer._in_leaf = False
                children = stack.pop()
                if stack:
                    stack[-1] += dur
                st = tracer.stat(name if isinstance(name, str) else name(*args))
                st.count += 1
                st.total_ns += dur
                st.self_ns += dur - children
                if st.samples is not None:
                    st.samples.append(dur)
            if result_size is not None:
                st.results += result_size(result)
            return result

        return traced

    def install_function(self, fn, name, result_size=None):
        """Wrap `fn` in every loaded `quiddity` module that holds it."""
        wrapper = self.wrap(fn, name, result_size)
        found = False
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "quiddity" or modname.startswith("quiddity.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapper)
                    found = True
        if not found:
            raise LookupError(f"{fn!r} is not reachable from any quiddity module")

    def install_method(self, cls, attr, name):
        """Wrap an arithmetic method on its class, as a leaf span."""
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, leaf=True))

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
