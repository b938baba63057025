"""Triangulations of convex polygons with integer-labelled triangles.

A labelling assigns an integer to every triangle of a triangulation of an
m-gon (vertices 1..m counterclockwise).  It is admissible when

  (i)  the triangles whose label is not 1 or -1 can be split into pairs of
       edge-adjacent triangles carrying opposite labels (such a pair is
       called a square), and
  (ii) the number of negative labels plus half the number of zero labels is
       even.

Summing the labels of the triangles attached at each vertex then yields a
quiddity cycle, and every integer quiddity cycle arises this way: undoing
the steps of its reduction (`quiddity.reduction`) glues labelled building
blocks back onto the 2-gon.  Each contraction keeps the surviving entries
in order, so undoing one puts new vertices back at the positions it
removed and glues its block onto them, positions read cyclically in the
rebuilt polygon:

    ear s at k (a contracted 1 or -1, s = +-1): the triangle (k-1, k, k+1)
        labelled s; sums (..., a, b, ...) become (..., a+s, s, b+s, ...)

    square at window k (a contracted 0): the triangles (k-2, k-1, k)
        labelled x and (k-2, k, k+1) labelled -x, where x is the rebuilt
        entry k-1; sums (..., a, b, ...) become (..., a, x, 0, b-x, ...)

Steps that negated their cycle negate the labels first, and a step that
contracted a pair (j, k) at k first is undone at j first.
`_Polygon.glue_back` does this on vertex ids that never change, kept in
counterclockwise order in a `boundary` list with the vertex sums beside
them, so a glue is one or two list inserts and at most three sums.  Each
stage is checked from that running state, and the finished polygon becomes
a `Labelling` through one builder, `_from_triangles`.  A sorted triangle
(a, c, b) is the one triangle under its long side (a, b), so the labelled
triangles map each side to its apex, and one walk from the side (1, m)
over that map checks that they tile the polygon and records the
triangles, the dual tree and the diagonals (the walked sides that are not
polygon edges).  A `Triangulation` stores only m and its diagonals: its
triangles and dual tree come from the same walk over the map it reads off
its diagonals, made when first read, unless its builder has walked
already and passes the walk in.

The dual graph of a triangulation is a tree.  The walk records it, each
triangle with its parent, and the square pairing of (i) is read off that
walk children first, in O(m): it is forced whenever it exists.

The combinatorial reduction engine works in the other direction, removing
ears (vertices in a single triangle) and squares; its six cases mirror the
integer-cycle reduction cases one for one, chosen by the same rule.  A
square is removable at window k when its four corners are the consecutive
vertices k-1..k+2.

A `Labelling` cannot change: its labels are a read-only view of the dict
that was checked.  So it owns the facts of its admissibility, its square
partition and its numbers of negative and zero labels, as the cached
`_facts`, computed on first read.  A reduction step derives its result's
labels, diagonals and facts from its input's, at the cost of the step, so
a chain of steps checks each labelling in full at most once and walks no
triangulation.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

from quiddity.bounds import _first_separated_pair
from quiddity.cycles import Cycle, _prechecked, is_quiddity
from quiddity.errors import (
    InvalidCycleError,
    InvalidLabellingError,
    NotApplicableError,
    UnsupportedRingError,
    UsageError,
)
from quiddity.reduction import _ENTRY, _NEGATES, _choose_case, _reduce_entries
from quiddity.rings import Z, _check_int

__all__ = [
    "Triangulation",
    "Labelling",
    "LabellingStep",
    "enumerate_triangulations",
    "is_admissible",
    "labelling_sign",
    "cycle_from_labelling",
    "labelling_from_cycle",
    "cc_quiddity",
    "find_12_or_131",
    "reduce_labelling_step",
]


@dataclass(frozen=True)
class Triangulation:
    """A triangulation of a convex m-gon, stored as its diagonal set.

    Diagonals are sorted vertex pairs (i, j) with i < j, and `m` and
    `diagonals` are all it stores.  Its triangles and dual tree come from
    one walk, `_walk_sides`, kept as `_dual` and made when first read: it
    starts at the side (1, m) and cuts each sub-polygon a..b along its
    triangle (a, c, b), read from a map of each side (a, b) to the apex c
    of the triangle under it.  The map comes from the diagonals: the apex
    over (a, b) is the neighbour of a just below b
    (`_apexes_from_diagonals`).  This constructor walks at once, as the
    walk validates the m - 3 chords: it finishes only by cutting the
    polygon along m - 3 of them, all of the set, so none can cross.
    `_triangulation` walks a map from elsewhere, from labelled triangles
    (`_from_triangles`) or the cluster search (`quiddity.clusters`), and
    passes its walk in.  The 2-gon has no triangles at all; that
    degenerate case is allowed.
    """

    m: int
    diagonals: frozenset

    def __post_init__(self):
        m = self.m
        if type(m) is not int:
            raise UsageError(f"the vertex count is an integer, got {m!r}")
        if m < 2:
            raise UsageError("polygon needs at least 2 vertices")
        if not isinstance(self.diagonals, (list, tuple, set, frozenset)):
            raise UsageError(f"diagonals are a collection of pairs, got {self.diagonals!r}")
        for d in self.diagonals:
            if not (isinstance(d, (tuple, list)) and len(d) == 2
                    and type(d[0]) is int and type(d[1]) is int):
                raise UsageError(f"a diagonal is a pair of integer vertices, got {d!r}")
        diags = frozenset(tuple(sorted(d)) for d in self.diagonals)
        object.__setattr__(self, "diagonals", diags)
        for i, j in diags:
            if not (1 <= i < j <= m) or j - i < 2 or (i, j) == (1, m):
                raise UsageError(f"({i}, {j}) is not a chord of the {m}-gon")
        if len(diags) != max(m - 3, 0):
            raise UsageError(f"a triangulated {m}-gon has {max(m - 3, 0)} diagonals")
        self._dual  # the walk raises on crossing chords

    @cached_property
    def _dual(self) -> tuple:
        """The triangles in walk order from the side (1, m) and each one's
        parent: the dual tree."""
        walk, parent, _ = _walk_sides(self.m, _apexes_from_diagonals(self.m, self.diagonals))
        return walk, parent

    @cached_property
    def triangles(self) -> tuple:
        """The triangles, each a sorted vertex triple, in sorted order."""
        return tuple(sorted(self._dual[0]))


def _apexes_from_diagonals(m: int, diagonals: frozenset) -> dict:
    """The side -> apex map of the triangulation with these chords.

    Around vertex a, the neighbours above a in increasing order are the far
    corners of a's triangles in turn, so the triangle under a side (a, b)
    has its apex at the neighbour of a just below b: a + 1 or the chord
    from a before (a, b) in sorted order.  For a crossing set the map is
    still built, but the walk reaches a side that it lacks."""
    below = list(range(1, m + 1))  # below[a]: a's highest neighbour so far
    under = {}
    for a, b in sorted(diagonals):
        under[(a, b)] = below[a]
        below[a] = b
    if m > 2:
        under[(1, m)] = below[1]
    return under


def _walk_sides(m: int, under: dict) -> tuple:
    """The triangles in walk order from the side (1, m), each one's parent,
    and the diagonals, read from `under`, which maps each side (a, b) to
    the apex c of the triangle (a, c, b) under it, a < c < b.

    The parent of a triangle is the triangle across the side it hangs
    from, None for the triangle on (1, m): this is the dual tree.  Each
    triangle cuts its sub-polygon a..b in two, so a finished walk tiles the
    polygon with m - 2 triangles.  Raises `UsageError` when a side the walk
    reaches has no triangle.  Entries of `under` that the walk does not
    reach are ignored."""
    walk = []
    parent = {}
    diagonals = []
    stack = [(1, m, None)] if m > 2 else []
    while stack:
        a, b, up = stack.pop()
        c = under.get((a, b))
        if c is None:
            raise UsageError(f"not a triangulation of the {m}-gon: "
                             f"no triangle under the side ({a}, {b})")
        t = (a, c, b)
        walk.append(t)
        parent[t] = up
        if c - a >= 2:
            stack.append((a, c, t))
            diagonals.append((a, c))
        if b - c >= 2:
            stack.append((c, b, t))
            diagonals.append((c, b))
    if len(walk) != m - 2:
        raise UsageError(f"{len(walk)} triangles do not tile the {m}-gon")
    return tuple(walk), parent, diagonals


def _triangulation(m: int, under: dict) -> Triangulation:
    """The triangulation of the m-gon that `_walk_sides` walks from `under`,
    a side -> apex map, built from that one walk: its sides of length at
    least 2 are the diagonals, and the walk is kept as `_dual`."""
    walk, parent, diagonals = _walk_sides(m, under)
    return _prechecked(Triangulation, m=m, diagonals=frozenset(diagonals), _dual=(walk, parent))


def _diagonal_sets(a: int, b: int) -> list:
    """All diagonal sets triangulating the sub-polygon a..b, ordered by the
    apex c of the triangle over (a, b), then by those of a..c, then by
    those of c..b."""
    if b - a < 2:
        return [frozenset()]
    out = []
    for c in range(a + 1, b):
        sides = frozenset(d for d in ((a, c), (c, b)) if d[1] - d[0] >= 2)
        for ls in _diagonal_sets(a, c):
            for rs in _diagonal_sets(c, b):
                out.append(sides | ls | rs)
    return out


# Every triangulation is built and validated into one list: m = 13 gives
# 58,786 in about 2.5 s and 240 MB on one Xeon core, m = 14 gives 208,012.
_MAX_TRIANGULATIONS = 10 ** 5


def enumerate_triangulations(m: int) -> list:
    """All triangulations of the m-gon in a fixed recursive order.

    The count is the Catalan number C(m-2): 1, 1, 2, 5, 14, ... for
    m = 2, 3, 4, 5, 6, ...  The order is that of `_diagonal_sets`.  This
    is a reference enumeration for tests and small m: the whole list is
    built on every call, and nothing in the library relies on it.  A count
    past `_MAX_TRIANGULATIONS` (m >= 14) raises `UsageError` unbuilt.
    """
    if _check_int(m, "the vertex count") < 2:
        raise UsageError("polygon needs at least 2 vertices")
    count = 1
    for n in range(m - 2):  # C(n + 1) from C(n), up to C(m - 2)
        count = count * 2 * (2 * n + 1) // (n + 2)
        if count > _MAX_TRIANGULATIONS:
            raise UsageError(f"the {m}-gon has more than {_MAX_TRIANGULATIONS} triangulations")
    return [Triangulation(m, d) for d in _diagonal_sets(1, m)]


@dataclass(frozen=True)
class Labelling:
    triangulation: Triangulation
    labels: Mapping  # sorted triangle tuple -> int, read-only

    def __post_init__(self):
        if not isinstance(self.triangulation, Triangulation):
            raise UsageError(f"a labelling needs a Triangulation, got {self.triangulation!r}")
        if not isinstance(self.labels, Mapping):
            raise UsageError(f"labels map triangles to integers, got {self.labels!r}")
        tris = set(self.triangulation.triangles)
        keyed = {}
        for t, v in self.labels.items():
            try:
                key = tuple(sorted(t))
            except TypeError:
                key = None
            if key not in tris:
                raise InvalidLabellingError(f"{t!r} is not a triangle of the triangulation")
            if any(type(c) is not int for c in key):
                raise InvalidLabellingError(f"the corners of {t!r} are not all integers")
            if key in keyed:
                raise InvalidLabellingError(f"{t!r} labels the triangle {key} a second time")
            keyed[key] = v
        if set(keyed) != tris:
            raise InvalidLabellingError("labels must cover exactly the triangles")
        for v in keyed.values():
            if isinstance(v, bool) or not isinstance(v, int):
                raise InvalidLabellingError(f"labels must be integers, got {v!r}")
        object.__setattr__(self, "labels", MappingProxyType(keyed))

    def __reduce__(self):
        return Labelling, (self.triangulation, dict(self.labels))

    @cached_property
    def _facts(self) -> tuple:
        """The square partition, None if there is none, and the numbers of
        negative and of zero labels."""
        values = list(self.labels.values())
        return square_partition(self), sum(x < 0 for x in values), values.count(0)

    @property
    def m(self) -> int:
        return self.triangulation.m

    def vertex_sums(self) -> tuple:
        sums = [0] * self.m
        for t, v in self.labels.items():
            for vertex in t:
                sums[vertex - 1] += v
        return tuple(sums)


def square_partition(lab: Labelling):
    """The forced pairing of non-(+-1)-labelled triangles into adjacent
    opposite-label squares, as a sorted list of sorted triangle pairs, or
    None if no such pairing exists.

    The dual graph of a triangulation is a tree, and the triangle walk
    records it.  Visiting the triangles children first (the walk in
    reverse), a triangle that still needs a partner can only take its
    parent, so the pairing is unique when it exists and is read off in O(m).
    """
    walk, parent = lab.triangulation._dual
    labels = lab.labels
    taken = set()
    pairs = []
    for t in reversed(walk):
        x = labels[t]
        if x in (1, -1) or t in taken:
            continue
        up = parent[t]
        if up is None or up in taken or labels[up] != -x:
            return None
        taken.add(up)
        pairs.append((up, t) if up < t else (t, up))
    return sorted(pairs)


def labelling_sign(lab: Labelling) -> int:
    """(-1)^d with d = (number of negative labels) + (zero labels)/2.

    Raises if the number of zero labels is odd (then d is no integer and the
    sign is undefined).
    """
    _, negative, zero = lab._facts
    if zero % 2 != 0:
        raise InvalidLabellingError("sign undefined: odd number of zero labels")
    return -1 if (negative + zero // 2) % 2 else 1


def _sign_holds(negative: int, zero: int) -> bool:
    """Condition (ii), from the numbers of negative and zero labels."""
    return zero % 2 == 0 and (negative + zero // 2) % 2 == 0


def is_admissible(lab: Labelling) -> bool:
    partition, negative, zero = lab._facts
    return partition is not None and _sign_holds(negative, zero)


def cycle_from_labelling(lab: Labelling) -> Cycle:
    """Vertex sums of an admissible labelling, as an integer quiddity cycle.

    That the sums always form a quiddity cycle is a theorem; it is checked
    on every call rather than trusted, and a failure raises RuntimeError.
    """
    if not is_admissible(lab):
        raise InvalidLabellingError("labelling is not admissible")
    cycle = Cycle(Z, lab.vertex_sums())
    if not is_quiddity(cycle):
        raise RuntimeError(f"an admissible labelling gave {cycle}, not a quiddity cycle")
    return cycle


def cc_quiddity(tri: Triangulation) -> Cycle:
    """Per-vertex triangle counts: the all-ones labelling's quiddity cycle."""
    if not isinstance(tri, Triangulation):
        raise UsageError(f"cc_quiddity needs a Triangulation, got {tri!r}")
    cycle = Cycle(Z, Labelling(tri, dict.fromkeys(tri.triangles, 1)).vertex_sums())
    if not is_quiddity(cycle):
        raise RuntimeError(f"triangle counts {cycle} are not a quiddity cycle")
    return cycle


def _from_triangles(m: int, labels: dict) -> Labelling:
    """The labelling of the m-gon with these labelled triangles, each a
    sorted vertex triple (a, c, b), built in one walk.

    The triangle (a, c, b) is the one under its long side (a, b), so the
    triples give `_triangulation` its side -> apex map directly.  Nothing
    is derived a second time.  Every check raises, so it holds under
    `python -O`: each key is a tuple of ints with 1 <= a < c < b <= m, no
    two triangles share a long side, every side the walk reaches has a
    triangle, and after the walk, there are no triangles beyond the m - 2
    it visits: they tile the polygon.  Every label is an int and not a
    bool.
    """
    under = {}
    for t, x in labels.items():
        if type(t) is not tuple or len(t) != 3:
            raise UsageError(f"a triangle is a triple of vertices, got {t!r}")
        a, c, b = t
        if not (type(a) is type(c) is type(b) is int and 1 <= a < c < b <= m):
            raise UsageError(f"{t!r} is not a sorted triangle of the {m}-gon")
        if (a, b) in under:
            raise UsageError(f"two triangles under the side ({a}, {b})")
        under[(a, b)] = c
        if type(x) is not int:
            raise InvalidLabellingError(f"labels must be integers, got {x!r}")
    tri = _triangulation(m, under)
    if len(under) != len(tri._dual[0]):
        raise UsageError(f"{len(under)} triangles do not tile the {m}-gon")
    return _prechecked(Labelling, triangulation=tri, labels=MappingProxyType(dict(labels)))


# the cases whose steps negate their cycle, as step tags
_NEGATING_TAGS = frozenset(f"T{case}" for case in _NEGATES)


class _Polygon:
    """The labelled polygon that `labelling_from_cycle` glues blocks back
    onto, kept as one running state from the 2-gon on: its vertex ids in
    counterclockwise order (`boundary`), its labelled triangles as triples
    of ids (`labels`), its vertex sums in step with `boundary` (`sums`) and
    the numbers of its `negative` and `zero` labels.  Each glue changes
    what its block touches and no more; `labelling` builds the `Labelling`.
    """

    def __init__(self):
        self.boundary, self.sums, self.labels = [0, 1], [0, 0], {}
        self.negative = self.zero = 0

    def glue_back(self, case_tag: str, indices: tuple, before: tuple) -> None:
        """Undo the reduction step `case_tag` at `indices` on this polygon,
        a polygon of the step's output; it becomes a polygon of `before`,
        the entries of the step's input.

        Entry k of `before` is 0 where a square was contracted and the
        label of the ear otherwise.  No id ever leaves the boundary, so
        `len(boundary)` is always a fresh one.  An ear s adds s to the sums
        of its two neighbours and puts s at its new vertex; a square x puts
        x and 0 at its two new vertices u and v and subtracts x from the
        vertex b after them; a negating step negates every label and sum.
        In a pair of squares (j, k), entry j - 1 of `before` is still
        the x of the square at j: the square at k would change it only as
        its vertex k + 1, for (j, k) = (1, m - 1) or (2, m), and then the
        reduced cycle would hold a single entry in {-1, 0, 1}, against the
        small-entry corollary.
        """
        boundary, sums, labels = self.boundary, self.sums, self.labels
        if case_tag in _NEGATING_TAGS:
            for t in labels:
                labels[t] = -labels[t]
            sums[:] = [-x for x in sums]
            self.negative = len(labels) - self.zero - self.negative
        for k in indices:
            s = before[k - 1]
            n = len(boundary) + (1 if s else 2)
            for p in ([k - 1] if s else sorted(((k - 2) % n, k - 1))):
                boundary.insert(p, len(boundary))
                sums.insert(p, 0)
            a, u, v, b = (boundary[(k - 3 + i) % n] for i in range(4))
            if s:
                labels[(u, v, b)] = s
                sums[(k - 2) % n] += s
                sums[k - 1] = s
                sums[k % n] += s
                self.negative += s < 0
            else:
                x = before[(k - 2) % len(before)]
                labels[(a, u, v)] = x
                labels[(a, v, b)] = -x
                sums[(k - 2) % n] = x
                sums[k % n] -= x
                if x:
                    self.negative += 1
                else:
                    self.zero += 2

    def sign_holds(self) -> bool:
        """Condition (ii), from the running counts of negative and zero
        labels."""
        return _sign_holds(self.negative, self.zero)

    def labelling(self) -> Labelling:
        """This polygon as a `Labelling`, its vertices numbered 1..m along
        `boundary`, built and checked by `_from_triangles`."""
        pos = {v: i for i, v in enumerate(self.boundary, 1)}
        return _from_triangles(len(pos), {
            tuple(sorted((pos[a], pos[b], pos[c]))): x
            for (a, b, c), x in self.labels.items()})


def labelling_from_cycle(cycle: Cycle) -> Labelling:
    """An admissible labelling whose vertex sums are exactly `cycle`.

    Built by reducing the cycle's entries to (0,0) in the reduction loop
    `_reduce_entries` and undoing its steps backwards on the 2-gon, on one
    running `_Polygon`, from their raw tuples: no `Cycle` or step object is
    built on the way.  Every stage is checked with a raise from that state,
    at the cost of its step: its sums are the step's input, the labels of
    its ears are +-1 and the sign condition (ii) holds.  Condition (i)
    holds by construction, since each square is glued as one pair of
    adjacent opposite labels.  The one
    `Labelling` built at the end is checked: its triangles tile the
    polygon, its sums are `cycle` and its `_facts` show it admissible, so
    the first `reduce_labelling_step` on it checks nothing twice.  The
    result is one of possibly several admissible labellings for the cycle.
    """
    if cycle.ring is not Z:
        raise UnsupportedRingError("labellings model integer quiddity cycles")
    if not is_quiddity(cycle):
        raise InvalidCycleError(f"not a quiddity cycle: {cycle}")
    polygon = _Polygon()
    for case, indices, before, _after in reversed(list(_reduce_entries(cycle.entries))):
        tag = f"T{case}"
        polygon.glue_back(tag, indices, before)
        if (tuple(polygon.sums) != before or not polygon.sign_holds()
                or any(before[k - 1] not in (1, 0, -1) for k in indices)):
            raise RuntimeError(f"undoing {tag} at {indices} missed {before}")
    result = polygon.labelling()
    if result.vertex_sums() != cycle.entries or not is_admissible(result):
        raise RuntimeError(f"the labelling glued for {cycle} is inadmissible or has other sums")
    return result


def find_12_or_131(q: Cycle):
    """A guaranteed small-entry structure in a triangulation quiddity cycle:
    either ("pairs", (p1, p2)) with disjoint cyclic windows (1,2) or (2,1)
    at p1 and p2, or ("triple", (p,)) with window (1,3,1) at p.

    Defined for per-vertex triangle-count cycles (positive entries) of
    length above 3; for those, one of the two findings always exists.
    """
    if q.ring is not Z:
        raise UnsupportedRingError("triangle-count cycles are integer cycles")
    if q.m <= 3:
        raise NotApplicableError("need length > 3")
    if any(c < 1 for c in q.entries) or not is_quiddity(q):
        raise InvalidCycleError("not a triangle-count quiddity cycle")
    m = q.m
    windows = [p for p in range(1, m + 1)
               if (q.entry(p), q.entry(p + 1)) in ((1, 2), (2, 1))]
    # the windows at p1 < p2 cover entries {p1, p1+1} and {p2, p2+1}
    # cyclically; they overlap exactly when p2 = p1 + 1 or (p1, p2) = (1, m)
    pair = _first_separated_pair(windows, m)
    if pair:
        return ("pairs", pair)
    for p in range(1, m + 1):
        if (q.entry(p), q.entry(p + 1), q.entry(p + 2)) == (1, 3, 1):
            return ("triple", (p,))
    raise RuntimeError("neither finding exists; contradicts the window lemma")


@dataclass(frozen=True)
class LabellingStep:
    case_tag: str
    indices: tuple
    before: Labelling
    after: Labelling

    @property
    def terminal(self) -> bool:
        return self.case_tag == "TC0"


def _square_windows(partition: list, m: int) -> dict:
    """The removable squares of a square partition, keyed by window: the
    square at window k has the four corners a, u, v, b = k-1, k, k+1, k+2.

        a---u---v---b        a---u---v---b
         \\  |x /-x /          \\ -x\\ x| /
          \\ | /   /      or    \\   \\ |/
           \\|/   /              \\   \\|
            *----                 ----*

    Its two triangles split the quadrilateral a, u, v, b along one of its
    two diagonals.  Only pairs of the partition count; a coincidental
    opposite-label adjacency that the partition does not pair is not a
    removable square.  The square starts at the corner a whose predecessor
    among the sorted corners is a + 3, cyclically; in the 4-gon every
    corner is such a start, so its one square sits at all four windows.
    """
    windows = {}
    for pair in partition:
        corners = sorted(set(pair[0] + pair[1]))
        for i in range(4):
            if (corners[i - 1] - corners[i]) % m == 3:
                windows[corners[i] % m + 1] = pair
    return windows


def reduce_labelling_step(lab: Labelling) -> LabellingStep:
    """One combinatorial reduction case, chosen by fixed priority
    TC0 > TC1 > TC2 > TC3 > TC4 > TC5 with minimal indices.

    Cases mirror the integer-cycle reduction one for one, chosen by its
    rule: remove an ear labelled 1; remove a square and negate (m odd);
    remove an ear labelled -1 and negate (m even); remove two separated
    squares; remove two separated -1 ears.  One case always applies on
    admissible input.

    The input must be admissible by its `_facts`: computed on first read
    for a labelling built by hand, and known already for one that
    `labelling_from_cycle` or a step returned.  `after` is derived from the
    input: the surviving vertices are renumbered once, in order, so each
    triple and the sorted partition stay sorted; its diagonals are the
    input's less those that the removed triangles border.  Its square
    partition is the input's less the removed squares and its label counts
    are the input's less the removed labels, negated with the labels in
    cases 2 and 3.  The checks are local and raise, also under
    `python -O`: each removed block is an ear labelled as its case says or
    a partition pair at a window, the m' - 2 labelled triangles and m' - 3
    diagonals of an m'-gon are left, and condition (ii) holds from the
    counts.  `after` has its `_facts` set; like every `Triangulation`, its
    triangulation stores only its size and diagonals.
    """
    if not is_admissible(lab):
        raise InvalidLabellingError("labelling is not admissible")
    partition, negative, zero = lab._facts
    m = lab.m
    if m < 4:
        return LabellingStep("TC0", (), lab, lab)

    labels = lab.labels
    # an ear, a vertex in one triangle, is the middle corner of a triangle
    # over a side of length 2, or vertex 1 of (1, 2, m) or m of (1, m-1, m)
    ears = {}
    for t in labels:
        a, c, b = t
        if b - a == 2:
            ears[c] = t
        elif b - a == m - 1:
            if c == 2:
                ears[1] = t
            if c == m - 1:
                ears[m] = t
    windows = _square_windows(partition, m)
    # _first_separated_pair skips the pair (1, m), which admissible input
    # never holds: both ears, or both squares, would hold the one triangle
    # on the boundary edge (m, 1)
    chosen = _choose_case(m, sorted(k for k, t in ears.items() if labels[t] == 1),
                          sorted(windows),
                          sorted(k for k, t in ears.items() if labels[t] == -1))
    if chosen is None:
        raise RuntimeError("no case applies; contradicts the combinatorial theorem")
    case, indices = chosen
    # Cases 2 and 4 remove the squares at windows k, on vertices k-1 .. k+2:
    # both triangles and the two middle vertices.  The others remove ear k
    # and its triangle.
    removed, gone = set(), set()
    for k in indices:
        if case in (2, 4):
            block = windows.get(k, ())
            removed |= {k, k % m + 1}
        else:
            t = ears.get(k)
            block = (t,) if labels.get(t) == _ENTRY[case] else ()
            removed.add(k)
        if not block:
            raise RuntimeError(f"case TC{case} at {indices} finds no block at {k}")
        gone.update(block)

    # The input less the removed triangles and the chords they border: a
    # removed vertex lies in removed triangles only, and a kept chord whose
    # ends become neighbours is the outer side of a removed block.
    kept_labels = labels.copy()
    kept_diagonals = set(lab.triangulation.diagonals)
    for t in gone:
        x = kept_labels.pop(t)
        negative -= x < 0
        zero -= x == 0
        a, c, b = t
        kept_diagonals.difference_update(((a, c), (c, b), (a, b)))
    # new[v]: the number of surviving vertex v; None for a removed one
    new, start = [], 0
    for shift, v in enumerate(sorted(removed)):
        new += range(start - shift, v - shift)
        new.append(None)
        start = v + 1
    size = m - len(removed)
    new += range(start - len(removed), size + 1)

    sign = -1 if case in _NEGATES else 1
    after_labels = {(new[a], new[c], new[b]): sign * x for (a, c, b), x in kept_labels.items()}
    diagonals = frozenset([(new[i], new[j]) for i, j in kept_diagonals])
    pairs = [((new[a], new[c], new[b]), (new[d], new[e], new[f]))
             for (a, c, b), (d, e, f) in partition if (a, c, b) not in gone]
    if sign < 0:
        negative = size - 2 - zero - negative
    if (len(after_labels) != size - 2 or len(diagonals) != max(size - 3, 0)
            or not _sign_holds(negative, zero)):
        raise RuntimeError(f"case TC{case} at {indices} left an inadmissible labelling")
    tri = _prechecked(Triangulation, m=size, diagonals=diagonals)
    after = _prechecked(Labelling, triangulation=tri, labels=MappingProxyType(after_labels),
                        _facts=(pairs, negative, zero))
    return LabellingStep(f"TC{case}", indices, lab, after)
