"""Self-tests for the benchmark's checkers: each must accept a real output
and refuse the same output with one deliberate corruption.

    python3 perfbench/selftest.py

Run from the root of a source checkout (the package is imported from src/).
"""

from __future__ import annotations

import json
import sys
import unittest
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from quiddity import (  # noqa: E402
    clusters, cycles, enumeration, jsonio, labelling, reduction, rings, transforms)

import checks  # noqa: E402
from checks import CheckError  # noqa: E402


def cycle(entries, ring=rings.Z):
    return cycles.Cycle(ring, entries)


class EnumerateChecker(unittest.TestCase):
    def text(self, tag, n):
        return jsonio.dumps(jsonio.result_to_json(
            enumeration.count_nonzero(rings.ring_from_tag(tag), n)))

    def test_accepts_real_cells(self):
        for tag, n in (("Z", 3), ("Zi", 2), ("Zzeta6", 2)):
            checks.check_enumerate(tag, n, self.text(tag, n))

    def test_refuses_a_changed_entry(self):
        for tag, n in (("Z", 3), ("Zi", 2), ("Z", 5)):
            data = json.loads(self.text(tag, n))
            rep = data["representatives"][len(data["representatives"]) // 2]
            if tag == "Z":
                rep[1] += 1
            else:
                rep[1][0] += 1
            with self.assertRaises(CheckError):
                checks.check_enumerate(tag, n, json.dumps(data))

    def test_refuses_a_wrong_total(self):
        data = json.loads(self.text("Zi", 1))
        data["total"] += 1
        with self.assertRaises(CheckError):
            checks.check_enumerate("Zi", 1, json.dumps(data))


class PolygonCheckers(unittest.TestCase):
    entries = (-1, 2, -3, -1, -1, 2, -3, -1)

    def test_accepts_real_outputs(self):
        c = cycle(self.entries)
        lab = labelling.labelling_from_cycle(c)
        checks.check_labelling(self.entries, lab)
        checks.check_trace(self.entries, reduction.reduce_to_base(c))

    def test_refuses_vertex_sums_off_by_one(self):
        lab = labelling.labelling_from_cycle(cycle(self.entries))
        labels = dict(lab.labels)
        tri = next(iter(labels))
        labels[tri] += 1
        bad = SimpleNamespace(m=lab.m, triangulation=lab.triangulation, labels=labels)
        with self.assertRaises(CheckError):
            checks.check_labelling(self.entries, bad)

    def test_refuses_an_invalid_triangulation(self):
        lab = labelling.labelling_from_cycle(cycle(self.entries))
        diagonals = sorted(lab.triangulation.diagonals)
        diagonals[0] = (1, lab.m)  # an edge, not a diagonal
        bad = SimpleNamespace(m=lab.m, triangulation=SimpleNamespace(diagonals=diagonals),
                              labels=lab.labels)
        with self.assertRaises(CheckError):
            checks.check_labelling(self.entries, bad)


class ClusterChecker(unittest.TestCase):
    entries = (7, 1, 2, 2, 2, 2, 2, 2, 1)  # the fan triangulation from vertex 1

    def found(self):
        return clusters.find_zero_free_cluster(cycle(self.entries))

    def test_accepts_real_cluster(self):
        checks.check_cluster(self.entries, self.found())
        checks.check_cluster((0,) * 10, clusters.find_zero_free_cluster(cycle((0,) * 10)))

    def test_refuses_a_zero_label(self):
        found = self.found()
        labels = dict(found.labels)
        labels[next(iter(labels))] = 0
        bad = SimpleNamespace(triangulation=found.triangulation, labels=labels)
        with self.assertRaises(CheckError):
            checks.check_cluster(self.entries, bad)

    def test_refuses_crossing_diagonals(self):
        found = self.found()
        m = len(self.entries)
        diagonals = set(found.triangulation.diagonals)
        # swap some other diagonal for a chord that crosses (i, j)
        i, j, chord = next(
            (i, j, tuple(sorted((a, b)))) for i, j in sorted(diagonals)
            for a in range(i + 1, j) for b in range(1, m + 1)
            if not i <= b <= j and abs(a - b) >= 2 and {a, b} != {1, m})
        diagonals.discard(next(d for d in sorted(diagonals) if d != (i, j)))
        diagonals.add(chord)
        f = clusters.frieze_from_cycle(cycle(self.entries))
        labels = {d: clusters.diagonal_label(f, *d) for d in diagonals}
        bad = SimpleNamespace(triangulation=SimpleNamespace(diagonals=frozenset(diagonals)),
                              labels=labels)
        with self.assertRaises(CheckError):
            checks.check_cluster(self.entries, bad)

    def test_refuses_a_cluster_for_the_all_zero_cycle(self):
        with self.assertRaises(CheckError):
            checks.check_cluster((0,) * 10, self.found())


class RuleChecker(unittest.TestCase):
    def setUp(self):
        self.entries = (Fraction(5, 2), Fraction(-3), Fraction(7, 3), Fraction(4), Fraction(-9, 4))
        self.c = cycle(self.entries, rings.Q)

    def test_accepts_real_results(self):
        for rule in ("expand_one", "expand_minus_one"):
            checks.check_rule(rule, self.entries, None, getattr(transforms, rule)(self.c, 2))
        checks.check_rule("contract_uv", self.entries, None, transforms.contract_uv(self.c, 2))

    def test_refuses_wrong_sign(self):
        for rule in ("expand_one", "expand_minus_one"):
            out = getattr(transforms, rule)(self.c, 2)
            flipped = SimpleNamespace(cycle=out.cycle, sign=-out.sign)
            with self.assertRaises(CheckError):
                checks.check_rule(rule, self.entries, None, flipped)

    def test_refuses_product_of_wrong_sign(self):
        # expand_one's cycle keeps the product, so as an expand_minus_one
        # result it has the wrong sign although the reported sign is right
        wrong = transforms.SignedCycle(transforms.expand_one(self.c, 2).cycle, -1)
        with self.assertRaises(CheckError):
            checks.check_rule("expand_minus_one", self.entries, None, wrong)

    def test_qi_scale_alternating(self):
        c = cycle([rings.GaussianRational(x, 1) for x in (2, 3, -1, 5)], rings.Qi)
        t = rings.GaussianRational(Fraction(1, 2), 2)
        own_t = checks.own(t)
        out = transforms.scale_alternating(c, t)
        checks.check_rule("scale_alternating", checks.own_entries(c), own_t, out)
        bad = cycle([-x for x in out.entries], rings.Qi)
        with self.assertRaises(CheckError):
            checks.check_rule("scale_alternating", checks.own_entries(c), own_t, bad)


if __name__ == "__main__":
    unittest.main()
