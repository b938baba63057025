"""Pure-Python search kernel for nonzero-frieze cycle enumeration.

Elements of the three discrete rings are integer pairs (a, b):

    ring 0   the integers, b = 0
    ring 1   a + b*i,      norm a^2 + b^2
    ring 2   a + b*w with w^2 = w - 1 (sixth root of unity),
             norm a^2 + a*b + b^2

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

KERNEL_KIND = "pure"

MAX_DEPTH = 16


def _mul(ring_id, a1, b1, a2, b2):
    if ring_id == 0:
        return a1 * a2, 0
    if ring_id == 1:
        return a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
    return a1 * a2 - b1 * b2, a1 * b2 + b1 * a2 + b1 * b2


def _norm(ring_id, a, b):
    if ring_id == 0:
        return a * a
    if ring_id == 1:
        return a * a + b * b
    return a * a + a * b + b * b


def _div(ring_id, a1, b1, a2, b2):
    """Exact quotient (a1,b1)/(a2,b2), or None."""
    if ring_id == 0:
        if a2 == 0 or a1 % a2 != 0:
            return None
        return a1 // a2, 0
    n = _norm(ring_id, a2, b2)
    if n == 0:
        return None
    if ring_id == 1:
        ca, cb = a2, -b2
    else:
        ca, cb = a2 + b2, -b2
    na, nb = _mul(ring_id, a1, b1, ca, cb)
    if na % n != 0 or nb % n != 0:
        return None
    return na // n, nb // n


def _windows_nonzero(ring_id, entries, m):
    # every cyclic continuant over 1..m-3 consecutive entries must be nonzero
    for start in range(m):
        ka, kb = entries[start]
        pa, pb = 1, 0  # continuant one window shorter
        if ka == 0 and kb == 0:
            return False
        for step in range(1, m - 3):
            ca, cb = entries[(start + step) % m]
            ta, tb = _mul(ring_id, ka, kb, ca, cb)
            ka, kb, pa, pb = ta - pa, tb - pb, ka, kb
            if ka == 0 and kb == 0:
                return False
    return True


def search_from_prefix(ring_id, n, prefix, candidates, limit):
    """All cycles completing `prefix`, as tuples of element pairs.

    prefix: the first search entries (at least one), already chosen;
    candidates: allowed entry pairs in search order; limit: max norm.
    Results follow the candidate order, so disjoint prefixes partition the
    full search deterministically.
    """
    m = n + 3
    free = m - 3
    if not (1 <= len(prefix) <= free <= MAX_DEPTH):
        raise ValueError("bad prefix length or height")

    results = []

    def solve_tail(p11, p12, p21, entries):
        ua, ub = p11
        if _norm(ring_id, ua, ub) > limit:
            return
        a = _div(ring_id, 1 - p12[0], -p12[1], ua, ub)
        if a is None or a == (0, 0) or _norm(ring_id, a[0], a[1]) > limit:
            return
        b = _div(ring_id, 1 + p21[0], p21[1], ua, ub)
        if b is None or b == (0, 0) or _norm(ring_id, b[0], b[1]) > limit:
            return
        prev = entries[-1]
        first = entries[0]
        one = (1, 0)
        if (_mul(ring_id, prev[0], prev[1], a[0], a[1]) == one
                or _mul(ring_id, a[0], a[1], ua, ub) == one
                or _mul(ring_id, ua, ub, b[0], b[1]) == one
                or _mul(ring_id, b[0], b[1], first[0], first[1]) == one):
            return
        cycle = entries + (a, (ua, ub), b)
        if _windows_nonzero(ring_id, cycle, m):
            results.append(cycle)

    def extend(depth, p11, p12, p21, p22, entries):
        if depth == free:
            solve_tail(p11, p12, p21, entries)
            return
        prev = entries[-1]
        for cand in candidates:
            ca, cb = cand
            if _mul(ring_id, prev[0], prev[1], ca, cb) == (1, 0):
                continue
            ta, tb = _mul(ring_id, p11[0], p11[1], ca, cb)
            q11 = (ta + p12[0], tb + p12[1])
            if q11 == (0, 0):
                continue
            ta, tb = _mul(ring_id, p21[0], p21[1], ca, cb)
            q21 = (ta + p22[0], tb + p22[1])
            extend(depth + 1, q11, (-p11[0], -p11[1]), q21,
                   (-p21[0], -p21[1]), entries + (cand,))

    # replay the prefix through the same pruning the search applies
    p11, p12, p21, p22 = (1, 0), (0, 0), (0, 0), (1, 0)
    entries = ()
    for cand in prefix:
        ca, cb = cand
        if (ca == 0 and cb == 0) or _norm(ring_id, ca, cb) > limit:
            return []
        if entries:
            prev = entries[-1]
            if _mul(ring_id, prev[0], prev[1], ca, cb) == (1, 0):
                return []
        ta, tb = _mul(ring_id, p11[0], p11[1], ca, cb)
        q11 = (ta + p12[0], tb + p12[1])
        if q11 == (0, 0):
            return []
        ta, tb = _mul(ring_id, p21[0], p21[1], ca, cb)
        q21 = (ta + p22[0], tb + p22[1])
        p11, p12, p21, p22 = q11, (-p11[0], -p11[1]), q21, (-p21[0], -p21[1])
        entries = entries + (cand,)
    if len(entries) == free:
        solve_tail(p11, p12, p21, entries)
    else:
        extend(len(entries), p11, p12, p21, p22, entries)
    return results
