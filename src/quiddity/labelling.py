"""Triangulations of convex polygons with integer-labelled triangles.

A labelling assigns an integer to every triangle of a triangulation of an
m-gon (vertices 1..m counterclockwise).  It is admissible when

  (i)  the triangles whose label is not 1 or -1 can be split into pairs of
       edge-adjacent triangles carrying opposite labels (such a pair is
       called a square), and
  (ii) the number of negative labels plus half the number of zero labels is
       even.

Summing the labels of the triangles attached at each vertex then yields a
quiddity cycle, and every integer quiddity cycle arises this way: replaying
an inverted reduction trace glues labelled building blocks onto the 2-gon.
The blocks act on vertex sums exactly like the glue instructions of
`quiddity.reduction`:

    triangle s at edge (p,q):      p---q      ->     p---n---q
                                                      \\  |s /
                                                       (new vertex n)
    sums (..., a, b, ...) become (..., a+s, s, b+s, ...)

    square x at edge (p,q):        p---q      ->   p--u--v--q
                                                    \\ x| -x /
                                                     (diagonal p-v)
    sums (..., a, b, ...) become (..., a, x, 0, b-x, ...)

The dual graph of a triangulation is a tree.  The walk that derives the
triangles from the edge (1, m) records it, each triangle with its parent,
and the square pairing of (i) is read off that walk children first, in
O(m): it is forced whenever it exists.

The combinatorial reduction engine works in the other direction, removing
ears (vertices in a single triangle) and squares; its six cases mirror the
integer-cycle reduction cases one for one.  A square is removable at window
k when its four corners are the consecutive vertices k-1..k+2.
"""

from __future__ import annotations

from dataclasses import dataclass

from quiddity.cycles import Cycle, is_quiddity
from quiddity.errors import (
    InvalidCycleError,
    InvalidLabellingError,
    NotApplicableError,
    UnsupportedRingError,
    UsageError,
)
from quiddity.reduction import _first_separated_pair, apply_glue_to_sums, reduce_to_base
from quiddity.rings import Z

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

    Diagonals are sorted vertex pairs (i, j) with i < j.  The triangle list
    is derived by splitting along the unique apex over each edge and cached,
    together with the walk's record of the dual tree.
    That walk also validates the m - 3 chords: it finishes only by cutting
    the polygon along m - 3 of them, all of the set, so none can cross.
    The 2-gon has no triangles at all; that degenerate case is allowed.
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
        walk, parent = self._derive_triangles()
        object.__setattr__(self, "triangles", tuple(sorted(walk)))
        object.__setattr__(self, "_walk", walk)
        object.__setattr__(self, "_parent", parent)

    def _derive_triangles(self) -> tuple:
        """The triangles in walk order from the edge (1, m), and each one's
        parent: the triangle across the side it hangs from, None for the
        triangle on (1, m).  This is the dual tree of the triangulation."""
        m = self.m
        if m == 2:
            return (), {}
        nbrs = {v: {v % m + 1, (v - 2) % m + 1} for v in range(1, m + 1)}
        for a, b in self.diagonals:
            nbrs[a].add(b)
            nbrs[b].add(a)
        out = []
        parent = {}
        stack = [(1, m, None)]
        while stack:
            # the triangle over edge (a, b) on the side of vertices a+1..b-1
            # has its apex among the common neighbours of a and b
            a, b, up = stack.pop()
            apex = [c for c in nbrs[a] & nbrs[b] if a < c < b]
            if len(apex) != 1:
                raise UsageError(f"diagonals cross: edge ({a}, {b}) has {len(apex)} apexes")
            c = apex[0]
            t = (a, c, b)
            out.append(t)
            parent[t] = up
            if c - a >= 2:
                stack.append((a, c, t))
            if b - c >= 2:
                stack.append((c, b, t))
        assert len(out) == m - 2
        return tuple(out), parent

    def incident_triangles(self, v: int) -> tuple:
        return tuple(t for t in self.triangles if v in t)

    def is_ear(self, v: int) -> bool:
        """True iff vertex v lies in exactly one triangle."""
        prev = (v - 2) % self.m + 1
        nxt = v % self.m + 1
        return tuple(sorted((prev, v, nxt))) in self._parent


def enumerate_triangulations(m: int) -> list:
    """All triangulations of the m-gon in a fixed recursive order.

    The count is the Catalan number C(m-2): 1, 1, 2, 5, 14, ... for
    m = 2, 3, 4, 5, 6, ...  The triangulations of the sub-polygon a..b come
    ordered by the apex c of the triangle over (a, b), then by those of
    a..c, then by those of c..b.  This is a reference enumeration for tests
    and small m: the whole list is built on every call, and nothing in the
    library relies on it.
    """
    if m < 2:
        raise UsageError("polygon needs at least 2 vertices")

    def fill(a: int, b: int) -> list:
        # all diagonal sets triangulating the sub-polygon a..b
        if b - a < 2:
            return [frozenset()]
        out = []
        for c in range(a + 1, b):
            sides = frozenset(d for d in ((a, c), (c, b)) if d[1] - d[0] >= 2)
            for ls in fill(a, c):
                for rs in fill(c, b):
                    out.append(sides | ls | rs)
        return out

    return [Triangulation(m, d) for d in fill(1, m)]


@dataclass(frozen=True)
class Labelling:
    triangulation: Triangulation
    labels: dict  # sorted triangle tuple -> int

    def __post_init__(self):
        if not isinstance(self.triangulation, Triangulation):
            raise UsageError(f"a labelling needs a Triangulation, got {self.triangulation!r}")
        if not isinstance(self.labels, dict):
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
            keyed[key] = v
        if set(keyed) != tris:
            raise InvalidLabellingError("labels must cover exactly the triangles")
        for v in keyed.values():
            if isinstance(v, bool) or not isinstance(v, int):
                raise InvalidLabellingError(f"labels must be integers, got {v!r}")
        object.__setattr__(self, "labels", keyed)

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
    tri = lab.triangulation
    labels = lab.labels
    taken = set()
    pairs = []
    for t in reversed(tri._walk):
        x = labels[t]
        if x in (1, -1) or t in taken:
            continue
        up = tri._parent[t]
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
    neg = sum(1 for v in lab.labels.values() if v < 0)
    zeros = sum(1 for v in lab.labels.values() if v == 0)
    if zeros % 2 != 0:
        raise InvalidLabellingError("sign undefined: odd number of zero labels")
    return -1 if (neg + zeros // 2) % 2 else 1


def is_admissible(lab: Labelling) -> bool:
    if square_partition(lab) is None:
        return False
    return labelling_sign(lab) == 1


def cycle_from_labelling(lab: Labelling) -> Cycle:
    """Vertex sums of an admissible labelling, as an integer quiddity cycle.

    That the sums always form a quiddity cycle is a theorem; it is asserted
    on every call rather than trusted.
    """
    if not is_admissible(lab):
        raise InvalidLabellingError("labelling is not admissible")
    cycle = Cycle(Z, lab.vertex_sums())
    assert is_quiddity(cycle), "admissible labelling must give a quiddity cycle"
    return cycle


def cc_quiddity(tri: Triangulation) -> Cycle:
    """Per-vertex triangle counts: the all-ones labelling's quiddity cycle."""
    if tri.m == 2:
        return Cycle(Z, (0, 0))
    counts = [0] * tri.m
    for t in tri.triangles:
        for v in t:
            counts[v - 1] += 1
    cycle = Cycle(Z, tuple(counts))
    assert is_quiddity(cycle)
    return cycle


def _renumbered(diagonals, labels: dict, ren) -> tuple:
    """The diagonals and the triangle labels with each vertex v renamed ren(v)."""
    return ({tuple(sorted((ren(a), ren(b)))) for a, b in diagonals},
            {tuple(sorted(ren(v) for v in t)): x for t, x in labels.items()})


class _PolygonBuilder:
    """Mutable polygon-with-labelling used to replay glue scripts."""

    def __init__(self):
        self.m = 2
        self.diagonals = set()
        self.labels = {}

    def _shift(self, threshold: int, by: int):
        def ren(v):
            return v + by if v > threshold else v

        self.diagonals, self.labels = _renumbered(self.diagonals, self.labels, ren)

    def _add_chord(self, a: int, b: int):
        a, b = sorted((a, b))
        if b - a >= 2 and (a, b) != (1, self.m):
            self.diagonals.add((a, b))

    def negate(self):
        self.labels = {t: -x for t, x in self.labels.items()}

    def glue_triangle(self, p: int, s: int):
        q = p % self.m + 1
        if p < self.m:
            self._shift(p, 1)
            new = p + 1
            q = p + 2
        else:
            new = self.m + 1
        self.m += 1
        self._add_chord(p, q)  # the glued-over edge becomes interior
        self.labels[tuple(sorted((p, new, q)))] = s

    def glue_square(self, p: int, x: int):
        q = p % self.m + 1
        if p < self.m:
            self._shift(p, 2)
            u, v, q = p + 1, p + 2, p + 3
        else:
            u, v = self.m + 1, self.m + 2
        self.m += 2
        self._add_chord(p, q)  # glued-over edge
        self._add_chord(p, v)  # internal diagonal of the square
        self.labels[tuple(sorted((p, u, v)))] = x
        self.labels[tuple(sorted((p, v, q)))] = -x

    def apply(self, instr: tuple):
        if instr[0] == "negate":
            self.negate()
        elif instr[0] == "triangle":
            self.glue_triangle(instr[1], instr[2])
        elif instr[0] == "square":
            self.glue_square(instr[1], instr[2])
        else:
            raise ValueError(f"unknown glue instruction {instr!r}")

    def sums(self) -> tuple:
        out = [0] * self.m
        for t, x in self.labels.items():
            for v in t:
                out[v - 1] += x
        return tuple(out)

    def rotate(self, r: int):
        """Renumber so that vertex r + 1 becomes vertex 1."""
        if r:
            def ren(v):
                return (v - 1 - r) % self.m + 1

            self.diagonals, self.labels = _renumbered(self.diagonals, self.labels, ren)

    def freeze(self) -> Labelling:
        return Labelling(Triangulation(self.m, frozenset(self.diagonals)),
                         dict(self.labels))


def labelling_from_cycle(cycle: Cycle) -> Labelling:
    """An admissible labelling whose vertex sums are exactly `cycle`.

    Built by reducing the cycle to (0,0) and replaying the reduction steps
    backwards as block gluings on the 2-gon, each followed by the step's
    recorded rotation.  The result is one of possibly several admissible
    labellings for the cycle.
    """
    if cycle.ring is not Z:
        raise UnsupportedRingError("labellings model integer quiddity cycles")
    # reduce_to_base raises InvalidCycleError unless the cycle is quiddity
    steps = reduce_to_base(cycle).steps
    builder = _PolygonBuilder()
    result = builder.freeze()
    assert is_admissible(result), "the 2-gon must be admissible"
    for step in reversed(steps):
        expected = builder.sums()
        for instr in step.glue_script:
            expected = apply_glue_to_sums(expected, instr)
            builder.apply(instr)
            assert builder.sums() == expected, "polygon and sum replay diverged"
        builder.rotate(step.rotation)
        assert builder.sums() == step.before.entries, "replay missed the step input"
        result = builder.freeze()
        assert is_admissible(result), "replay lost admissibility"
    assert result.vertex_sums() == cycle.entries
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
    for a in range(len(windows)):
        for b in range(a + 1, len(windows)):
            p1, p2 = windows[a], windows[b]
            used1 = {(p1 - 1) % m, p1 % m}
            used2 = {(p2 - 1) % m, p2 % m}
            if not (used1 & used2):
                return ("pairs", (p1, p2))
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


def _cyc(v: int, m: int) -> int:
    return (v - 1) % m + 1


def _remove_ear(lab: Labelling, k: int) -> Labelling:
    """Drop ear vertex k and its triangle; densely renumber.

        p---k---q          p---q
         \\  |  /     ->     (edge p-q now on the boundary)
          \\ | /
    """
    m = lab.m
    p, q = _cyc(k - 1, m), _cyc(k + 1, m)
    ear = tuple(sorted((p, k, q)))
    assert ear in lab.labels
    base = tuple(sorted((p, q)))
    diagonals = set(lab.triangulation.diagonals)
    diagonals.discard(base)

    def ren(v):
        return v - 1 if v > k else v

    labels = {t: x for t, x in lab.labels.items() if t != ear}
    diagonals, labels = _renumbered(diagonals, labels, ren)
    return Labelling(Triangulation(m - 1, diagonals), labels)


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
    removable square.
    """
    windows = {}
    for pair in partition:
        corners = set(pair[0] + pair[1])
        for a in corners:
            if corners == {_cyc(a + i, m) for i in range(4)}:
                windows[_cyc(a + 1, m)] = pair
    return windows


def _remove_square(lab: Labelling, k: int, square: tuple) -> Labelling:
    """Drop `square`, the matched square on vertices (k-1 .. k+2): both
    triangles and the two middle vertices; densely renumber."""
    m = lab.m
    a, u, v, b = (_cyc(k - 1 + i, m) for i in range(4))
    assert set(square[0] + square[1]) == {a, u, v, b}
    gone = set(square)
    diagonals = {d for d in lab.triangulation.diagonals
                 if u not in d and v not in d}
    diagonals.discard(tuple(sorted((a, b))))

    removed = sorted((u, v))

    def ren(x):
        return x - sum(1 for r in removed if r < x)

    labels = {t: val for t, val in lab.labels.items() if t not in gone}
    diagonals, labels = _renumbered(diagonals, labels, ren)
    return Labelling(Triangulation(m - 2, diagonals), labels)


def _negated(lab: Labelling) -> Labelling:
    return Labelling(lab.triangulation, {t: -x for t, x in lab.labels.items()})


def reduce_labelling_step(lab: Labelling) -> LabellingStep:
    """One combinatorial reduction case, chosen by fixed priority
    TC0 > TC1 > TC2 > TC3 > TC4 > TC5 with minimal indices.

    Cases mirror the integer-cycle reduction one for one: remove an ear
    labelled 1; remove a square and negate (m odd); remove an ear labelled
    -1 and negate (m even); remove two separated squares; remove two
    separated -1 ears.  The result is admissible (asserted); at least one
    case always applies on admissible input.
    """
    partition = square_partition(lab)
    if partition is None or labelling_sign(lab) != 1:
        raise InvalidLabellingError("labelling is not admissible")
    m = lab.m

    if m < 4:
        assert lab.labels == {} or list(lab.labels.values()) == [1]
        return LabellingStep("TC0", (), lab, lab)

    tri = lab.triangulation
    ears = [k for k in range(1, m + 1) if tri.is_ear(k)]
    ear_labels = [lab.labels[tuple(sorted((_cyc(k - 1, m), k, _cyc(k + 1, m))))]
                  for k in ears]
    ears_one = [k for k, x in zip(ears, ear_labels) if x == 1]
    if ears_one:
        k = ears_one[0]
        after = _remove_ear(lab, k)
        assert is_admissible(after)
        return LabellingStep("TC1", (k,), lab, after)

    windows = _square_windows(partition, m)
    squares = sorted(windows)
    if squares and m % 2 == 1:
        k = squares[0]
        after = _negated(_remove_square(lab, k, windows[k]))
        assert is_admissible(after)
        return LabellingStep("TC2", (k,), lab, after)

    ears_minus = [k for k, x in zip(ears, ear_labels) if x == -1]
    if ears_minus and m % 2 == 0:
        k = ears_minus[0]
        after = _negated(_remove_ear(lab, k))
        assert is_admissible(after)
        return LabellingStep("TC3", (k,), lab, after)

    # _first_separated_pair also skips the pair (1, m), which admissible
    # input never holds: both ears, or both squares, would hold the one
    # triangle on the boundary edge (m, 1)
    pair = _first_separated_pair(squares, m)
    if pair:
        j, k = pair
        mid = _remove_square(lab, k, windows[k])
        # the window at k removes vertices {k, k+1 cyclic}; only the wrapped
        # window k = m deletes vertex 1 and shifts j's window down by one
        j_mid = j - 1 if k == m else j
        after = _remove_square(mid, j_mid,
                               _square_windows(square_partition(mid), m - 2)[j_mid])
        assert is_admissible(after)
        return LabellingStep("TC4", (j, k), lab, after)

    pair = _first_separated_pair(ears_minus, m)
    if pair:
        j, k = pair
        mid = _remove_ear(lab, k)
        after = _remove_ear(mid, j)
        assert is_admissible(after)
        return LabellingStep("TC5", (j, k), lab, after)

    raise RuntimeError("no case applies; contradicts the combinatorial theorem")
