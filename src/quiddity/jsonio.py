"""JSON encodings for cycles, labellings, enumeration results and fixtures.

Every writer produces plain dicts whose json.dumps form is deterministic
(sorted keys), and every reader accepts exactly what the writer emits, so
emit -> read -> emit is the identity on the serialized text.  Ring elements
travel in the per-ring scalar encoding (int for Z, [re, im] for the
quadratic rings, strings for rationals, coefficient lists for cyclotomics).
The one exception is a rational: the writer emits "p/q", and the reader
also takes an int or any literal that `rings._rational_from_json` reads,
such as "1e3".
"""

from __future__ import annotations

import json

from quiddity.cycles import Cycle, is_quiddity
from quiddity.enumeration import EnumerationResult, _orbit, canonical_form
from quiddity.errors import UsageError
from quiddity.frieze import FriezePattern, frieze_from_cycle, is_nonzero
from quiddity.labelling import Labelling, Triangulation
from quiddity.rings import ring_from_tag

__all__ = [
    "cycle_to_json",
    "cycle_from_json",
    "labelling_to_json",
    "labelling_from_json",
    "result_to_json",
    "result_from_json",
    "frieze_to_json",
    "dumps",
]


def dumps(data) -> str:
    """The one serialized form used everywhere: sorted keys, stable spacing."""
    return json.dumps(data, sort_keys=True, indent=2)


def cycle_to_json(cycle: Cycle) -> dict:
    ring = cycle.ring
    return {
        "ring": ring.tag,
        "entries": [ring.element_to_json(x) for x in cycle.entries],
    }


def cycle_from_json(data) -> Cycle:
    if not isinstance(data, dict) or set(data) - {"ring", "entries"}:
        raise UsageError("cycle JSON needs exactly the keys 'ring' and 'entries'")
    try:
        tag = data["ring"]
        entries = data["entries"]
    except KeyError as exc:
        raise UsageError(f"cycle JSON is missing {exc}") from None
    ring = ring_from_tag(tag)
    if not isinstance(entries, list) or not entries:
        raise UsageError("'entries' must be a non-empty list")
    return Cycle(ring, [ring.element_from_json(e) for e in entries])


def labelling_to_json(lab: Labelling) -> dict:
    return {
        "m": lab.m,
        "diagonals": sorted([i, j] for i, j in lab.triangulation.diagonals),
        "labels": {
            ",".join(map(str, tri)): val for tri, val in sorted(lab.labels.items())
        },
    }


def labelling_from_json(data) -> Labelling:
    if not isinstance(data, dict) or set(data) - {"m", "diagonals", "labels"}:
        raise UsageError("labelling JSON needs the keys 'm', 'diagonals', 'labels'")
    try:
        m = data["m"]
        diagonals = data["diagonals"]
        labels = data["labels"]
    except KeyError as exc:
        raise UsageError(f"labelling JSON is missing {exc}") from None
    if isinstance(m, bool) or not isinstance(m, int):
        raise UsageError(f"'m' must be an integer, got {m!r}")
    if not isinstance(diagonals, list):
        raise UsageError("'diagonals' must be a list of [i, j] pairs")
    tri = Triangulation(m, diagonals)
    if not isinstance(labels, dict):
        raise UsageError("'labels' must map 'i,j,k' strings to integers")
    parsed = {}
    for key, val in labels.items():
        try:
            corners = tuple(int(part) for part in key.split(","))
        except (AttributeError, ValueError):  # a key that is no string, or no ints
            raise UsageError(f"bad triangle key {key!r}") from None
        # only the writer's form: three increasing ints, comma-separated
        if (len(corners) != 3 or ",".join(map(str, corners)) != key
                or not corners[0] < corners[1] < corners[2]):
            raise UsageError(f"bad triangle key {key!r}")
        parsed[corners] = val
    return Labelling(tri, parsed)


def result_to_json(result: EnumerationResult) -> dict:
    ring = result.ring
    return {
        "ring": ring.tag,
        "height": result.n,
        "total": result.total,
        "orbit_count": result.orbit_count,
        "representatives": [
            [ring.element_to_json(x) for x in c.entries] for c in result.representatives
        ],
    }


def result_from_json(data) -> EnumerationResult:
    """The result `result_to_json` wrote, checked: each representative is the
    canonical form of a zero-free quiddity cycle of length height + 3, they
    are sorted and distinct, and their orbit sizes add up to 'total'."""
    keys = {"ring", "height", "total", "orbit_count", "representatives"}
    if not isinstance(data, dict) or set(data) != keys:
        raise UsageError(f"enumeration JSON needs exactly the keys {sorted(keys)}")
    ring = ring_from_tag(data["ring"])
    if not ring.is_discrete:
        raise UsageError(f"no enumeration results exist over {ring.tag}")
    for key in ("height", "total", "orbit_count"):
        if isinstance(data[key], bool) or not isinstance(data[key], int):
            raise UsageError(f"'{key}' must be an integer, got {data[key]!r}")
    n = data["height"]
    if n < 1:
        raise UsageError(f"'height' must be at least 1, got {n}")
    entry_lists = data["representatives"]
    if not isinstance(entry_lists, list) or not all(isinstance(e, list) for e in entry_lists):
        raise UsageError("'representatives' must be a list of entry lists")
    if data["orbit_count"] != len(entry_lists):
        raise UsageError("'orbit_count' must equal the number of representatives")
    reps = tuple(
        Cycle(ring, [ring.element_from_json(e) for e in entries]) for entries in entry_lists
    )
    for rep in reps:
        if not (rep.m == n + 3 and is_quiddity(rep) and is_nonzero(frieze_from_cycle(rep))
                and canonical_form(rep) == rep):
            raise UsageError(f"representative {rep} is not the canonical form of a "
                             f"zero-free quiddity cycle of length {n + 3}")
    keys = [tuple(ring.sort_key(x) for x in rep.entries) for rep in reps]
    if any(k1 >= k2 for k1, k2 in zip(keys, keys[1:])):
        raise UsageError("'representatives' must be sorted and distinct")
    if data["total"] != sum(len(_orbit(rep.entries)) for rep in reps):
        raise UsageError("'total' must equal the sum of the representatives' orbit sizes")
    return EnumerationResult(ring, n, data["total"], data["orbit_count"], reps)


def frieze_to_json(f: FriezePattern) -> dict:
    """Quiddity plus the interior band of each row, for fixture comparison."""
    ring = f.ring
    m = f.m
    interiors = [
        [ring.element_to_json(f.rows[i - 1][k]) for k in range(2, m - 1)]
        for i in range(1, m + 1)
    ]
    return {
        "ring": ring.tag,
        "quiddity": [ring.element_to_json(x) for x in f.cycle.entries],
        "rows": interiors,
    }


def frieze_fixture_check(data) -> FriezePattern:
    """Rebuild the frieze from the fixture's quiddity and diff the rows.

    Returns the regenerated pattern; raises AssertionError with the first
    differing position if the stored rows do not match.
    """
    ring = ring_from_tag(data["ring"])
    cycle = Cycle(ring, [ring.element_from_json(e) for e in data["quiddity"]])
    f = frieze_from_cycle(cycle)
    if frieze_to_json(f)["rows"] != data["rows"]:
        # raised, not asserted, so that `python -O` still reports a mismatch
        raise AssertionError(f"regenerated rows disagree with fixture for quiddity {cycle}")
    return f
