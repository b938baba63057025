"""Exhaustive search for quiddity cycles whose friezes have no zero entry.

The search itself runs in a small kernel over machine-integer pairs: a
compiled extension when the build produced one, otherwise a pure-Python
twin with the identical contract; the code picks between them, no caller
does.  A task whose int64 arithmetic would overflow in the compiled kernel
is rerun on the pure one, so every input gets the same answer.  The
dihedral symmetry that rotates and reflects cycles splits the solutions
into orbits, and only the canonical cycle of each orbit (its least
rotation or reflection) is searched for: the first entry is fixed to the
cycle's least one, which has norm below 4, and later entries range only
over candidates at least as large.  The kernel tests each completion for
that least form itself and returns the survivors with their orbit sizes.
This module prepares the candidate set, splits the search into one
independent task per first entry, merges their canonical cycles, and
expands each orbit when every cycle is asked for.  It also builds the
one-parameter family of cycles indexed by divisors of 2, which exists over
every ring where 2 has infinitely many divisors.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import get_context

from quiddity import _kernel as _pure
from quiddity.bounds import candidate_entries
from quiddity.cycles import Cycle
from quiddity.errors import NotRepresentableError, UnsupportedRingError, UsageError
from quiddity.frieze import frieze_from_cycle, is_nonzero
from quiddity.rings import Ring, _check_int, divisors_of_two

__all__ = [
    "EnumerationResult",
    "active_kernel",
    "canonical_form",
    "count_nonzero",
    "enumerate_nonzero",
    "unit_family",
    "unit_family_cycle",
]


# The compiled kernel is preferred when present.
try:
    from quiddity import _speedups as _default  # type: ignore[no-redef]
except ImportError:
    _default = _pure


def active_kernel() -> str:
    """Kernel the search runs on: "compiled" or "pure".  A task that
    overflows int64 in the compiled kernel is rerun on the pure one."""
    return _default.KERNEL_KIND


def _canonical_tasks(ring: Ring, elems: list, pairs: list) -> list:
    """Search tasks, one per first entry: a one-entry prefix as a kernel
    pair, with the index its candidates start from.

    A canonical cycle starts with its least entry, which has norm below 4
    (`bounds.find_two_small`: every quiddity cycle has two such entries),
    and no later entry is smaller.  So the first entry c1 = elems[i] ranges
    over the candidates of norm below 4, which lead the norm-first order,
    and every later choice, the second entry included, is made by the
    kernel from the suffix elems[i:].  The kernel skips a second entry with
    c1 * c2 = 1, as it skips every neighbour's inverse.
    """
    tasks = []
    for i, c1 in enumerate(elems):
        if ring.norm_sq(c1) >= 4:
            break
        tasks.append(((pairs[i],), i))
    return tasks


def _run_task(args):
    try:
        return _default.search_from_prefix(*args)
    except OverflowError:
        # the compiled kernel's int64 arithmetic overflowed; Python ints do not
        return _pure.search_from_prefix(*args)


def _orbit(key: tuple) -> set:
    """The distinct rotations and reflections of a tuple."""
    rev = key[::-1]
    return {v[s:] + v[:s] for v in (key, rev) for s in range(len(key))}


def _search_orbits(ring: Ring, n: int, jobs: int = 1):
    """The candidate entries and, for every orbit, its canonical cycle with
    the orbit's size.

    Cycles come back as tuples of indices into the candidate list, which
    holds every possible entry in the ring's total order, so comparing
    index tuples compares cycles.  A task starting at index i searches the
    suffix from i, and the kernel returns only the cycles whose entries all
    lie in it and that are the least of their rotations and reflections,
    with positions in the suffix; adding i gives the indices.  The result
    is sorted and independent of the number of workers, and no more workers
    start than there are tasks, one per first entry; `jobs` must be at
    least 1.
    """
    if not ring.is_discrete:
        raise UnsupportedRingError(f"{ring.tag} is not discrete")
    if _check_int(n, "height") < 1:
        raise UsageError(f"height must be at least 1, got {n}")
    if n > _pure.MAX_DEPTH:
        raise UsageError(f"height must be at most {_pure.MAX_DEPTH}, got {n}")
    if _check_int(jobs, "jobs") < 1:
        raise UsageError(f"jobs must be at least 1, got {jobs}")
    elems = candidate_entries(ring, n)
    pairs = [ring.to_pair(x) for x in elems]
    tasks = _canonical_tasks(ring, elems, pairs)
    argl = [(ring.t, n, prefix, pairs[i:]) for prefix, i in tasks]
    workers = min(jobs, len(argl))
    try:
        if workers <= 1:
            chunks = map(_run_task, argl)
        else:
            with get_context("fork").Pool(workers) as pool:
                chunks = pool.map(_run_task, argl, chunksize=1)
        canonical = sorted((tuple([i + k for k in key]), size)
                           for (_, i), chunk in zip(tasks, chunks) for key, size in chunk)
    finally:
        # the pure kernel's ball and memo serve this enumeration's tasks only
        _pure._factor_pairs.cache_clear()
    return elems, canonical


def enumerate_nonzero(ring: Ring, n: int, jobs: int = 1) -> list:
    """Every quiddity cycle of height n with a frieze free of zero entries.

    Cycles are based sequences: each rotation or reflection of a solution is
    listed separately.  The search finds one canonical cycle per orbit, and
    each orbit is expanded here.  The list is sorted by the entrywise total
    order of the ring, so repeated runs and different job counts agree
    exactly.
    """
    elems, canonical = _search_orbits(ring, n, jobs=jobs)
    keys = sorted(v for key, _ in canonical for v in _orbit(key))
    return [Cycle(ring, [elems[k] for k in key]) for key in keys]


def canonical_form(cycle: Cycle) -> Cycle:
    """Least representative of the cycle's orbit under rotation and reversal.

    "Least" is lexicographic in the ring's total order, so two cycles are
    related by a dihedral symmetry exactly when their canonical forms match.
    The order compares norms first, and a canonical form starts with the
    cycle's least entry.
    """
    ring = cycle.ring
    best = min(_orbit(cycle.entries), key=lambda v: tuple(ring.sort_key(x) for x in v))
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
        if self.orbit_count != len(self.representatives):
            raise UsageError(f"{self.orbit_count} orbits need as many representatives, "
                             f"got {len(self.representatives)}")
        if self.total < self.orbit_count:
            raise UsageError(f"{self.total} cycles cannot make {self.orbit_count} orbits")


def count_nonzero(ring: Ring, n: int, jobs: int = 1) -> EnumerationResult:
    """Totals, orbits and representatives under the dihedral symmetry.

    The representatives are the canonical cycles the search finds, one per
    orbit, sorted; the total adds up the orbit sizes the kernel reports
    with them (the distinct rotations and reflections of each), so no cycle
    outside them is ever built.
    """
    elems, canonical = _search_orbits(ring, n, jobs=jobs)
    total = sum(size for _, size in canonical)
    reps = tuple([Cycle(ring, [elems[k] for k in key]) for key, _ in canonical])
    return EnumerationResult(ring, n, total, len(reps), reps)


def unit_family_cycle(ring: Ring, n: int, t) -> Cycle:
    """The height-n cycle attached to a divisor t of 2.

    For n = 1 this is (t, 2/t, t, 2/t); from n = 2 on it is
    (t+n-1, 1, 2, ..., 2, 1+2/t, t, 2/t) with n-2 middle twos.
    """
    if _check_int(n, "height") < 1:
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

    Over a ring with finitely many divisors of 2 (Z, Z[i], Z[w]) the list
    may come up short.  Over the rest (Q, Q(i), and Z[zeta_d] for d not in
    {1, 2, 3, 4, 6}) `divisors_of_two` streams without end, so the list has
    exactly how_many members.  Each
    returned cycle is verified to be a quiddity cycle with a zero-free
    frieze, so callers can treat the family as certified.
    """
    if _check_int(n, "height") < 1:
        raise UsageError(f"height must be at least 1, got {n}")
    if _check_int(how_many, "how_many") < 0:
        raise UsageError(f"how_many must be nonnegative, got {how_many}")
    bad = _excluded_parameters(ring, n)
    out = []
    # 2n - 2 parameters are excluded, so this margin always suffices.
    for t in divisors_of_two(ring, how_many + 2 * n):
        if any(t == b for b in bad):
            continue
        cyc = unit_family_cycle(ring, n, t)
        if not is_nonzero(frieze_from_cycle(cyc)):
            raise RuntimeError(f"the frieze of {cyc} at parameter {t} has a zero")
        out.append((t, cyc))
        if len(out) == how_many:
            break
    return out
