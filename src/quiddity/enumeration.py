"""Exhaustive search for quiddity cycles whose friezes have no zero entry.

The search itself runs in a small kernel over machine-integer pairs: a
compiled extension when the build produced one, otherwise a pure-Python
twin with the identical contract.  This module prepares candidate sets,
splits the space into independent prefix tasks, reassembles and sorts the
results, and groups cycles into orbits of the dihedral symmetry that
rotates and reflects them.  It also builds the one-parameter family of
cycles indexed by divisors of 2, which exists over every ring where 2 has
infinitely many divisors.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from multiprocessing import get_context

from quiddity import _kernel as _pure
from quiddity.bounds import candidate_entries
from quiddity.cycles import Cycle, is_quiddity
from quiddity.errors import NotRepresentableError, UnsupportedRingError, UsageError
from quiddity.frieze import frieze_from_cycle, is_nonzero
from quiddity.rings import Ring, divisors_of_two

__all__ = [
    "EnumerationResult",
    "active_kernel",
    "canonical_form",
    "count_nonzero",
    "enumerate_nonzero",
    "unit_family",
    "unit_family_cycle",
]


# The compiled kernel is preferred when present; kernel="pure" forces the
# fallback for a single call, and so does a cell with more candidates than
# the compiled kernel holds.
try:
    from quiddity import _speedups as _default  # type: ignore[no-redef]
except ImportError:
    _default = _pure

# The compiled kernel holds its candidates in fixed arrays of this size.
_COMPILED_MAX_CANDIDATES = 128


def active_kernel() -> str:
    """Kernel used when no explicit choice is made: "compiled" or "pure"."""
    return _default.KERNEL_KIND


def _kernel_module(kernel: str | None):
    if kernel is None:
        return _default
    if kernel == "pure":
        return _pure
    if kernel == "compiled":
        try:
            return importlib.import_module("quiddity._speedups")
        except ImportError as exc:
            raise UsageError(
                "compiled kernel unavailable: the extension quiddity._speedups "
                "is not built (reinstall with a C compiler, or use kernel 'pure')"
            ) from exc
    raise UsageError(f"unknown kernel {kernel!r}, expected 'pure' or 'compiled'")


def _kernel_inputs(ring: Ring, n: int):
    """Candidate entry pairs in the ring's total order, plus the norm cap."""
    if ring.kernel_id is None:
        raise UnsupportedRingError(f"no search kernel for {ring.tag}")
    elems = candidate_entries(ring, n)
    pairs = [ring.to_pair(x) for x in elems]
    return pairs, (n + 1) ** 2


def _search_tasks(ring: Ring, n: int, pairs: list) -> list:
    """Disjoint search prefixes covering the whole space, in output order.

    Height 1 has a single free position, so tasks are single entries; from
    height 2 on the space is split by the first two entries, dropping pairs
    with product 1 since no quiddity cycle can contain one.
    """
    if n == 1:
        return [(c,) for c in pairs]
    rid = ring.kernel_id
    tasks = []
    for c1 in pairs:
        for c2 in pairs:
            if _pure._mul(rid, c1[0], c1[1], c2[0], c2[1]) != (1, 0):
                tasks.append((c1, c2))
    return tasks


def _run_task(args):
    kind, rid, n, prefix, pairs, limit = args
    return _kernel_module(kind).search_from_prefix(rid, n, list(prefix), pairs, limit)


def _search_all(ring: Ring, n: int, jobs: int = 1, kernel: str | None = None) -> list:
    """Raw kernel output (tuples of pairs) for the whole space.

    Results arrive in task order and each task is internally deterministic,
    so the outcome is identical for one worker and for many.  A cell with
    too many candidates for the compiled kernel runs on the pure one, unless
    the compiled kernel was asked for by name.
    """
    if not ring.is_discrete:
        raise UnsupportedRingError(f"{ring.tag} is not discrete")
    if n < 1:
        raise UsageError(f"height must be at least 1, got {n}")
    if n > _pure.MAX_DEPTH:
        raise UsageError(f"height must be at most {_pure.MAX_DEPTH}, got {n}")
    mod = _kernel_module(kernel)
    pairs, limit = _kernel_inputs(ring, n)
    if mod.KERNEL_KIND == "compiled" and len(pairs) > _COMPILED_MAX_CANDIDATES:
        if kernel is not None:
            raise UsageError(
                f"{ring.tag} at height {n} has {len(pairs)} candidates; the compiled "
                f"kernel takes at most {_COMPILED_MAX_CANDIDATES} (use kernel 'pure')")
        mod = _pure
    tasks = _search_tasks(ring, n, pairs)
    argl = [(mod.KERNEL_KIND, ring.kernel_id, n, t, pairs, limit) for t in tasks]
    if jobs is None or jobs <= 1:
        chunks = map(_run_task, argl)
    else:
        with get_context("fork").Pool(jobs) as pool:
            chunks = pool.map(_run_task, argl, chunksize=max(1, len(argl) // (8 * jobs)))
    out = []
    for chunk in chunks:
        out.extend(chunk)
    return out


def enumerate_nonzero(ring: Ring, n: int, jobs: int = 1, kernel: str | None = None) -> list:
    """Every quiddity cycle of height n with a frieze free of zero entries.

    Cycles are based sequences: each rotation or reflection of a solution is
    listed separately.  The list is sorted by the entrywise total order of
    the ring, so repeated runs and different job counts agree exactly.
    """
    raw = _search_all(ring, n, jobs=jobs, kernel=kernel)
    cycles = [Cycle(ring, tuple(ring.from_pair(p) for p in tup)) for tup in raw]
    cycles.sort(key=lambda c: tuple(ring.sort_key(x) for x in c.entries))
    return cycles


def canonical_form(cycle: Cycle) -> Cycle:
    """Least representative of the cycle's orbit under rotation and reversal.

    "Least" is lexicographic in the ring's total order, so two cycles are
    related by a dihedral symmetry exactly when their canonical forms match.
    """
    ring = cycle.ring
    ent = cycle.entries
    rev = tuple(reversed(ent))
    m = len(ent)
    variants = [ent[s:] + ent[:s] for s in range(m)]
    variants += [rev[s:] + rev[:s] for s in range(m)]
    best = min(variants, key=lambda v: tuple(ring.sort_key(x) for x in v))
    return Cycle(ring, best)


@dataclass(frozen=True)
class EnumerationResult:
    """Counts for one (ring, height) cell of the enumeration table."""

    ring: Ring
    n: int
    total: int
    orbit_count: int
    representatives: tuple

    def __post_init__(self):
        assert self.total >= self.orbit_count
        assert self.orbit_count == len(self.representatives)


def count_nonzero(ring: Ring, n: int, jobs: int = 1, kernel: str | None = None) -> EnumerationResult:
    """Enumerate and group by dihedral symmetry: totals, orbits, representatives."""
    cycles = enumerate_nonzero(ring, n, jobs=jobs, kernel=kernel)
    reps = {}
    for c in cycles:
        canon = canonical_form(c)
        reps.setdefault(tuple(ring.sort_key(x) for x in canon.entries), canon)
    ordered = tuple(reps[k] for k in sorted(reps))
    return EnumerationResult(ring, n, len(cycles), len(ordered), ordered)


def unit_family_cycle(ring: Ring, n: int, t) -> Cycle:
    """The height-n cycle attached to a divisor t of 2.

    For n = 1 this is (t, 2/t, t, 2/t); from n = 2 on it is
    (t+n-1, 1, 2, ..., 2, 1+2/t, t, 2/t) with n-2 middle twos.
    """
    if n < 1:
        raise UsageError(f"height must be at least 1, got {n}")
    t = ring.check_element(t)
    quot = ring.exact_div(ring.from_int(2), t)
    if quot is None:
        raise NotRepresentableError(f"2/{t} does not exist in {ring.tag}")
    if n == 1:
        return Cycle(ring, (t, quot, t, quot))
    entries = (
        t + ring.from_int(n - 1),
        ring.one,
        *[ring.from_int(2)] * (n - 2),
        ring.one + quot,
        t,
        quot,
    )
    return Cycle(ring, entries)


def _excluded_parameters(ring: Ring, n: int) -> list:
    # t in {-1, ..., -(n-1)} or {-2, -4, ..., -2(n-1)} puts a zero somewhere
    # in the frieze; every other divisor of 2 works.
    out = []
    for k in range(1, n):
        out.append(ring.from_int(-k))
        out.append(ring.from_int(-2 * k))
    return out


def unit_family(ring: Ring, n: int, how_many: int) -> list:
    """Up to how_many pairs (t, cycle), t a divisor of 2, friezes checked.

    Over a ring with finitely many divisors of 2 the list may come up short;
    over rings with infinitely many (fields, or cyclotomic integers whose
    order is not 1, 2, 3, 4 or 6) it has exactly how_many members.  Each
    returned cycle is verified to be a quiddity cycle with a zero-free
    frieze, so callers can treat the family as certified.
    """
    if n < 1:
        raise UsageError(f"height must be at least 1, got {n}")
    if how_many < 0:
        raise UsageError(f"how_many must be nonnegative, got {how_many}")
    bad = _excluded_parameters(ring, n)
    out = []
    # 2n - 2 parameters are excluded, so this margin always suffices.
    for t in divisors_of_two(ring, how_many + 2 * n):
        if any(t == b for b in bad):
            continue
        cyc = unit_family_cycle(ring, n, t)
        assert is_quiddity(cyc)
        assert is_nonzero(frieze_from_cycle(cyc))
        out.append((t, cyc))
        if len(out) == how_many:
            break
    return out
