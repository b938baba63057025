"""Every result type survives pickle and deepcopy.

Rings are singletons that the library compares by identity (`cycle.ring is
Z`), and a labelling's labels are a read-only view; a copy made for
`multiprocessing` or by `copy.deepcopy` must keep both.
"""

import copy
import dataclasses
import pickle
from collections.abc import Mapping
from types import MappingProxyType

import pytest

from quiddity.clusters import all_ones_cluster, find_zero_free_cluster
from quiddity.cycles import Cycle
from quiddity.enumeration import count_nonzero
from quiddity.frieze import frieze_from_cycle
from quiddity.labelling import (
    Labelling,
    Triangulation,
    labelling_from_cycle,
    reduce_labelling_step,
)
from quiddity.reduction import reduce_to_base
from quiddity.rings import Cyclotomic, Q, Qi, Ring, Z, Zi, Zzeta6

RINGS = (Z, Q, Zi, Zzeta6, Qi, Cyclotomic(5))
HEXAGON = Cycle(Z, (1, 4, 1, 2, 2, 2))
MIXED = Cycle(Z, (-1, 3, 0, -2, 2, 1, 3, 0))

RESULTS = {
    **{f"Cycle over {ring.tag}": (lambda ring=ring: Cycle(ring, [ring.from_int(1)] * 3))
       for ring in RINGS},
    "FriezePattern over Z": lambda: frieze_from_cycle(HEXAGON),
    "FriezePattern over Zi": lambda: frieze_from_cycle(count_nonzero(Zi, 2).representatives[-1]),
    "Triangulation": lambda: Triangulation(6, {(2, 4), (2, 5), (2, 6)}),
    "Labelling": lambda: labelling_from_cycle(MIXED),
    "LabellingStep": lambda: reduce_labelling_step(labelling_from_cycle(MIXED)),
    "ReductionTrace": lambda: reduce_to_base(MIXED),
    "EnumerationResult over Z": lambda: count_nonzero(Z, 2),
    "EnumerationResult over Zzeta6": lambda: count_nonzero(Zzeta6, 1),
    "Cluster": lambda: find_zero_free_cluster(HEXAGON),
    "Cluster of the all-ones cycle": lambda: all_ones_cluster(9),
}

COPIES = {
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
    "deepcopy": copy.deepcopy,
}


def reachable(obj):
    """`obj` and everything reachable from it through dataclass fields,
    tuples, lists, mappings and the ring of a ring element."""
    yield obj
    if dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            yield from reachable(getattr(obj, field.name))
    elif isinstance(obj, (tuple, list, frozenset)):
        for x in obj:
            yield from reachable(x)
    elif isinstance(obj, Mapping):
        for x in obj.values():
            yield from reachable(x)
    elif isinstance(getattr(obj, "ring", None), Ring):
        yield obj.ring


@pytest.mark.parametrize("how", sorted(COPIES))
@pytest.mark.parametrize("name", sorted(RESULTS))
def test_a_copied_result_equals_the_original(name, how):
    result = RESULTS[name]()
    again = COPIES[how](result)
    assert again == result
    rings = [x for x in reachable(again) if isinstance(x, Ring)]
    assert [id(r) for r in rings] == [id(r) for r in reachable(result) if isinstance(r, Ring)]
    assert all(any(r is s for s in RINGS) for r in rings)
    for lab in reachable(again):
        if isinstance(lab, Labelling):
            assert type(lab.labels) is MappingProxyType


@pytest.mark.parametrize("how", sorted(COPIES))
def test_a_stepped_labelling_copied_before_its_walk_reads_its_triangles(how):
    after = reduce_labelling_step(labelling_from_cycle(MIXED)).after
    assert "triangles" not in vars(after.triangulation)
    again = COPIES[how](after)
    tri = Triangulation(after.m, after.triangulation.diagonals)
    assert again.triangulation.triangles == tri.triangles == after.triangulation.triangles


@pytest.mark.parametrize("how", sorted(COPIES))
def test_a_copied_integer_cycle_reduces(how):
    cycle = COPIES[how](MIXED)
    assert cycle.ring is Z
    assert reduce_to_base(cycle) == reduce_to_base(MIXED)
    assert labelling_from_cycle(cycle) == labelling_from_cycle(MIXED)
