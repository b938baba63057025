"""Shared exception types.

The CLI maps these onto exit codes: InvalidCycleError becomes exit 1 (the
input is not a quiddity cycle, a mathematically negative answer); every
other QuiddityError, UsageError, NotApplicableError and SingularError
included, becomes exit 2 (bad input or schema, or an inapplicable request).
A verb that answers a well-posed question in the negative exits 1 itself,
after printing its answer, such as `NONE` or `QUIDDITY: no`.
"""

from __future__ import annotations


class QuiddityError(Exception):
    """Base class for all library errors."""


class UsageError(QuiddityError):
    """Malformed input: unknown ring tag, mixed rings, bad JSON shape."""


class UnsupportedRingError(QuiddityError):
    """Operation requires a property the ring lacks (e.g. discreteness)."""


class NotApplicableError(QuiddityError):
    """A rule or case was requested where its preconditions fail."""


class SingularError(NotApplicableError):
    """A required inverse does not exist (zero parameter, uv = 1 window)."""


class NotRepresentableError(NotApplicableError):
    """Exact division failed in a non-field ring."""


class InvalidCycleError(QuiddityError):
    """An operation needed a quiddity cycle (or epsilon-cycle) and got none."""


class InvalidLabellingError(QuiddityError):
    """An operation needed an admissible labelling and got none."""
