"""Pure-Python search kernel for nonzero-frieze cycle enumeration.

Elements of the three discrete rings are integer pairs (a, b) meaning
a + b*omega with omega^2 = t*omega - 1: t = 0 for Z[i] and for Z (whose
pairs have b = 0), t = 1 for Z[w].  The encoding and its arithmetic are
stated once, in `quiddity.rings` (`pair_mul`, `pair_norm`, `pair_div`);
this module only searches.

The search walks cycle positions 1..m-3 depth first over a candidate list,
keeping the running eta-matrix product.  Extending by c sends the product
(P11, P12 / P21, P22) to (P11*c + P12, -P11 / P21*c + P22, -P21), so the new
top-left entry is a first-row frieze entry; any zero there, or any adjacent
product equal to 1, prunes the branch.  At depth m-3 the last three entries
are forced: position m-1 must be u = P11 and the outer two are (1 - P12)/u
and (1 + P21)/u, which must divide exactly and stay inside the candidate
norm bound.  Survivors get a full cyclic window check before being emitted.

`quiddity._speedups` is the compiled twin of this module; both expose the
same `search_from_prefix` and must return identical lists, except that the
twin raises OverflowError where its int64 arithmetic would overflow.
"""

from __future__ import annotations

from quiddity.rings import pair_div, pair_mul, pair_norm

KERNEL_KIND = "pure"

MAX_DEPTH = 16

ONE = (1, 0)


def _windows_nonzero(t, entries, m):
    # every cyclic continuant over 1..m-3 consecutive entries must be nonzero
    for start in range(m):
        k, prev = entries[start], ONE  # this window's continuant, the shorter one's
        if k == (0, 0):
            return False
        for step in range(1, m - 3):
            ka, kb = pair_mul(t, k, entries[(start + step) % m])
            prev, k = k, (ka - prev[0], kb - prev[1])
            if k == (0, 0):
                return False
    return True


def search_from_prefix(t, n, prefix, candidates, limit):
    """All cycles completing `prefix`, as tuples of element pairs.

    t: 0 or 1, the ring's omega^2 = t*omega - 1 (0 for Z);
    prefix: the first search entries (at least one), already chosen;
    candidates: allowed entries in search order; limit: max norm.
    Entries are (a, b) tuples.  Results follow the candidate order, so
    disjoint prefixes partition the full search deterministically.
    """
    if t not in (0, 1):
        raise ValueError(f"t must be 0 or 1, got {t!r}")
    m = n + 3
    free = m - 3
    if not (1 <= len(prefix) <= free <= MAX_DEPTH):
        raise ValueError("bad prefix length or height")

    results = []

    def solve_tail(u, p12, p21, entries):
        if pair_norm(t, u) > limit:
            return
        a = pair_div(t, (1 - p12[0], -p12[1]), u)
        if a is None or a == (0, 0) or pair_norm(t, a) > limit:
            return
        b = pair_div(t, (1 + p21[0], p21[1]), u)
        if b is None or b == (0, 0) or pair_norm(t, b) > limit:
            return
        if (pair_mul(t, entries[-1], a) == ONE or pair_mul(t, a, u) == ONE
                or pair_mul(t, u, b) == ONE or pair_mul(t, b, entries[0]) == ONE):
            return
        cycle = entries + (a, u, b)
        if _windows_nonzero(t, cycle, m):
            results.append(cycle)

    def extend(depth, p11, p12, p21, p22, entries):
        if depth == free:
            solve_tail(p11, p12, p21, entries)
            return
        # c * prev == 1 exactly when c is prev's inverse (None if it has none)
        inverse = pair_div(t, ONE, entries[-1])
        last = depth + 1 == free  # then q11 is the forced entry u
        for cand in candidates:
            if cand == inverse:
                continue
            ta, tb = pair_mul(t, p11, cand)
            q11 = (ta + p12[0], tb + p12[1])
            if q11 == (0, 0) or (last and pair_norm(t, q11) > limit):
                continue
            ta, tb = pair_mul(t, p21, cand)
            q21 = (ta + p22[0], tb + p22[1])
            extend(depth + 1, q11, (-p11[0], -p11[1]), q21,
                   (-p21[0], -p21[1]), entries + (cand,))

    # replay the prefix through the same pruning the search applies
    p11, p12, p21, p22 = (1, 0), (0, 0), (0, 0), (1, 0)
    entries = ()
    for cand in prefix:
        ca, cb = cand
        if (ca == 0 and cb == 0) or pair_norm(t, cand) > limit:
            return []
        if entries and pair_mul(t, entries[-1], cand) == ONE:
            return []
        ta, tb = pair_mul(t, p11, cand)
        q11 = (ta + p12[0], tb + p12[1])
        if q11 == (0, 0):
            return []
        ta, tb = pair_mul(t, p21, cand)
        q21 = (ta + p22[0], tb + p22[1])
        p11, p12, p21, p22 = q11, (-p11[0], -p11[1]), q21, (-p21[0], -p21[1])
        entries = entries + (cand,)
    extend(len(entries), p11, p12, p21, p22, entries)
    return results
