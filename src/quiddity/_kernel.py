"""Pure-Python search kernel for nonzero-frieze cycle enumeration.

Ring elements are integer pairs (a, b) meaning a + b*omega with omega^2 =
t*omega - 1: t = 0 for Z[i] and for Z (whose pairs have b = 0), t = 1 for
Z[w].  The encoding and its arithmetic are stated once, in `quiddity.rings`
(`pair_mul`, `pair_norm`, `pair_div`); this module only searches.

The search walks cycle positions 1..m-3 depth first over a candidate list,
keeping the running eta-matrix product.  Extending by c sends the product
(P11, P12 / P21, P22) to (P11*c + P12, -P11 / P21*c + P22, -P21), so the new
top-left entry is a first-row frieze entry; any zero there, or any adjacent
product equal to 1, prunes the branch.  At depth m-3 the last three entries
are forced: position m-1 must be u = P11 and the outer two are (1 - P12)/u
and (1 + P21)/u, which must divide exactly and be candidates themselves.

Only canonical cycles are kept, as in orderly generation: an entry ranks
by its position in the candidate list, and a cycle survives when no
rotation or reflection of its ranks compares smaller.  It comes back as
its ranks with its orbit size, 2m over the number of rotations and
reflections that leave it unchanged.  The full cyclic window check runs
only on the canonical survivors.

Every entry has norm at most the limit (n + 1)^2, the square of the entry
bound n + 1 over a ring whose nonzero norms are at least 1
(`bounds.quiddity_bound`).  The candidates are distinct nonzero elements
of that ball and include the prefix entries, so a rank is the one test an
entry needs.  The prefix entries are placed by the same step as the
searched ones, each as the one choice at its position.

The last two free positions are solved, not scanned.  At the last one c
gives u = P11*c + P12 and the forced a = (1 + P11)/u, so a*u = x = 1 + P11
whatever c is: every surviving c comes from a factor pair (a, u) of x with
both norms within the limit, as c = (u - P12)/P11.  The pairs come from
the ball of norms up to the limit (`rings.ball_rows`), walked grouped by
norm; the ball holds only b = 0 elements when every candidate has b = 0,
since Z is closed under the product.  With D = N(P11), c = (u -
P12)*conj(P11)/D is exact exactly when u*conj(P11) and
P12*conj(P11) agree mod D in both coordinates.  So from the second query
of a P11 on, its cofactors are indexed by that residue and the solve
touches only the u that give an exact c; the first query scans them, as
an index used once costs more than the scan it saves.

At the last free position but one, c makes the next P11 equal to q = P11*c
+ P12, and the solve above finds a pair only when x = 1 + q has N(x) <=
limit^2, as x = a*u.  Since conj(P11)*x = D*c - W with W = -(1 + P12) *
conj(P11), and N(conj(P11)*x) = D*N(x), the c that can complete are the
lattice points of the ellipse N(D*c - W) <= limit^2 * D, centre W/D and
norm radius limit^2/D (`rings._disc_rows`).  It is smaller than the ball
exactly when D > limit; then its points are looked up among the
candidates, and otherwise every candidate is tried.

Either way the chosen c that are candidates, in candidate order, go
through the same step as a scanned one.

`quiddity._speedups` is the compiled twin of this module: the same
`search_from_prefix`, the same lists and the same ValueErrors, except that
the twin raises OverflowError where its int64 arithmetic would overflow.
`_Search` mirrors the twin's `search` struct and its methods are the C
functions of the same names, with four differences that measured faster
here:
- C's `step` is inline in `extend`'s loop (a call per node cost 5-20%);
- the factor pairs, memoised per x, are cached across the tasks of a cell
  (`enumeration` frees them when its tasks are done), where C walks its
  ball on every call;
- a P11's cofactors are indexed by residue from its second query on;
- `_Search` has `__slots__`.
The ranks are a dict built per task, as C's `prepare_ranks` fills its
table over a box around the ball.
"""

from __future__ import annotations

from functools import lru_cache

from quiddity.rings import _disc_rows, ball_rows, pair_conj, pair_div, pair_mul, pair_norm

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


class _FactorPairs:
    """The factor pairs (a, u) of x with a and u in the ball of norms up to
    `limit` (its b = 0 row alone when `real`), by the u of each pair.

    The ball is kept grouped by norm, largest first.  For x only the norms
    d with d | N(x) are tried, and the walk stops once N(a) = N(x)/d, which
    grows as d falls, passes the limit.  Each x's answer is memoised; the
    x with none, x = 0 and N(x) > limit^2, are answered without a walk.
    From the second query of x on, its cofactors are also indexed by the
    residue of u*conj(p11) mod N(p11), p11 = x - 1 (`congruent`); the index
    holds the memo's u tuples.
    """

    def __init__(self, t, limit, real):
        groups = {}
        for b, lo, hi in ball_rows(t, limit, real):
            for a in range(lo, hi + 1):
                if a or b:
                    groups.setdefault(pair_norm(t, (a, b)), []).append((a, b))
        self.t, self.limit, self.real = t, limit, real
        self.groups = sorted(((d, tuple(us)) for d, us in groups.items()), reverse=True)
        self.memo, self.index = {}, {}

    def cofactors(self, x):
        us = self.memo.get(x)
        if us is not None:
            return us
        nx = pair_norm(self.t, x)
        if not 0 < nx <= self.limit * self.limit:
            return ()
        found = []
        for d, group in self.groups:
            q, r = divmod(nx, d)
            if q > self.limit:
                break
            if not r:
                found += [u for u in group if pair_div(self.t, x, u) is not None]
        us = self.memo[x] = tuple(found)
        return us

    def congruent(self, p11, p12):
        """The cofactors u of x = 1 + p11 that may give an exact c = (u -
        p12)/p11: all of them on x's first query, as an index used once
        costs more than the scan it saves, and from the second query on
        only the u with u*conj(p11) = p12*conj(p11) mod N(p11)."""
        x = (p11[0] + 1, p11[1])
        index = self.index.get(x)
        if index is None and x not in self.memo:
            return self.cofactors(x)
        t = self.t
        d, conj = pair_norm(t, p11), pair_conj(t, p11)
        if index is None:
            index = self.index[x] = {}
            for u in self.memo[x]:
                ua, ub = pair_mul(t, u, conj)
                index.setdefault((ua % d, ub % d), []).append(u)
        ra, rb = pair_mul(t, p12, conj)
        return index.get((ra % d, rb % d), ())


# one ball at a time: every task of an enumeration shares (t, limit, real)
_factor_pairs = lru_cache(maxsize=1)(_FactorPairs)


def _orbit_size(key):
    # 2m over the number of rotations and reflections of `key` equal to it,
    # or 0 when one of them is smaller; only images that start with key[0]
    # can tie with it, and none can start lower
    m, first = len(key), key[0]
    if min(key) < first:
        return 0
    fixed = 0
    for twice in (key + key, key[::-1] * 2):
        for s in range(m):
            if twice[s] == first:
                image = twice[s:s + m]
                if image < key:
                    return 0
                fixed += image == key
    return 2 * m // fixed


class _Search:
    """One task's search state; `e` holds the cycle being built."""

    __slots__ = ("t", "m", "free", "npre", "limit", "pre", "cand", "e", "results",
                 "pairs", "rank")

    def __init__(self, t, n, prefix, candidates):
        self.t, self.m, self.free, self.npre, self.limit = t, n + 3, n, len(prefix), (n + 1) ** 2
        self.pre, self.cand, self.e, self.results = prefix, candidates, [None] * (n + 3), []
        self.prepare_ranks()
        if self.npre < n:
            self.pairs = _factor_pairs(t, self.limit, not any(b for _, b in candidates))

    def prepare_ranks(self):
        # each candidate's position, refusing the inputs outside the contract
        t, limit, rank = self.t, self.limit, {}
        for i, c in enumerate(self.cand):
            if c == (0, 0):
                raise ValueError("a candidate is zero")
            if pair_norm(t, c) > limit:
                raise ValueError("a candidate has norm above (n + 1)^2")
            if rank.setdefault(c, i) != i:
                raise ValueError("a candidate is repeated")
        if not all(c in rank for c in self.pre):
            raise ValueError("a prefix entry is not a candidate")
        self.rank = rank

    def solve_near(self, p11, p12):
        # the candidates c whose x = 1 + p11*c + p12 has norm within limit^2,
        # the only ones whose last position can be solved, in candidate order
        t, rank, d = self.t, self.rank, pair_norm(self.t, p11)
        w = pair_mul(t, (-1 - p12[0], -p12[1]), pair_conj(t, p11))
        rows = _disc_rows(t, w, d, self.limit * self.limit * d, self.pairs.real)
        hits = [(x, y) for y, lo, hi in rows for x in range(lo, hi + 1) if (x, y) in rank]
        return sorted(hits, key=rank.__getitem__)

    def solve_last(self, p11, p12):
        # the candidates c whose u = p11*c + p12 has a ball cofactor a with
        # a*u = 1 + p11, in candidate order; c = (u - p12) * conj(p11) / d
        # with d = norm(p11) must divide exactly
        us = self.pairs.congruent(p11, p12)
        if not us:
            return ()
        t, rank = self.t, self.rank
        d, conj = pair_norm(t, p11), pair_conj(t, p11)
        hits = []
        for ua, ub in us:
            ca, cb = pair_mul(t, (ua - p12[0], ub - p12[1]), conj)
            if not (ca % d or cb % d) and (ca // d, cb // d) in rank:
                hits.append((ca // d, cb // d))
        return sorted(hits, key=rank.__getitem__)

    def solve_tail(self, u, p12, p21):
        # a rank is the one test; pair_div's None (no exact quotient) has none
        t, e, free, rank = self.t, self.e, self.free, self.rank
        if u not in rank:
            return
        a = pair_div(t, (1 - p12[0], -p12[1]), u)
        if a not in rank:
            return
        b = pair_div(t, (1 + p21[0], p21[1]), u)
        if b not in rank:
            return
        if (pair_mul(t, e[free - 1], a) == ONE or pair_mul(t, a, u) == ONE
                or pair_mul(t, u, b) == ONE or pair_mul(t, b, e[0]) == ONE):
            return
        e[free:] = a, u, b
        key = tuple([rank[x] for x in e])
        size = _orbit_size(key)
        if size and _windows_nonzero(t, e, self.m):
            self.results.append((key, size))

    def extend(self, depth, p11, p12, p21, p22):
        if depth == self.free:
            return self.solve_tail(p11, p12, p21)
        t, e = self.t, self.e
        if depth < self.npre:
            choices = self.pre[depth:depth + 1]
        elif depth + 1 == self.free:
            choices = self.solve_last(p11, p12)
        elif depth + 2 == self.free and pair_norm(t, p11) > self.limit:
            choices = self.solve_near(p11, p12)
        else:
            choices = self.cand
        if not choices:
            return
        # c * prev == 1 exactly when c is prev's inverse (None if it has none)
        inverse = pair_div(t, ONE, e[depth - 1]) if depth else None
        for cand in choices:
            if cand == inverse:
                continue
            ta, tb = pair_mul(t, p11, cand)
            q11 = (ta + p12[0], tb + p12[1])
            if q11 == (0, 0):
                continue
            ta, tb = pair_mul(t, p21, cand)
            q21 = (ta + p22[0], tb + p22[1])
            e[depth] = cand
            self.extend(depth + 1, q11, (-p11[0], -p11[1]), q21, (-p21[0], -p21[1]))


def search_from_prefix(t, n, prefix, candidates):
    """The canonical cycles completing `prefix`, each as (ranks, orbit size).

    t: 0 or 1, the ring's omega^2 = t*omega - 1 (0 for Z);
    n: the height, so cycles have n + 3 entries of norm at most (n + 1)^2;
    prefix: the first search entries (at least one), already chosen;
    candidates: the allowed entries in search order, which may be any
    order, distinct, nonzero, of norm at most (n + 1)^2 and including
    every prefix entry.
    Entries are (a, b) tuples, and every entry of a cycle, prefix and
    forced entries included, is a candidate.  An entry's rank is its
    position in `candidates`; a cycle is kept when its tuple of ranks is
    the least of its 2m rotations and reflections, and its orbit size is
    2m over the number of them equal to it.  Results follow the candidate
    order, so disjoint prefixes partition the search deterministically.
    An input outside this contract raises ValueError before the search.
    """
    if t not in (0, 1):
        raise ValueError(f"t must be 0 or 1, got {t!r}")
    if not (1 <= len(prefix) <= n <= MAX_DEPTH):
        raise ValueError("bad prefix length or height")
    search = _Search(t, n, prefix, candidates)
    search.extend(0, ONE, (0, 0), (0, 0), ONE)
    return search.results
