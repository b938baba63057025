"""Acceptance gate: ten exact criteria, one printed verdict line each.

Every check is exact (integer or rational arithmetic, no tolerances).  Each
test prints "[criterion NN] <name>: PASS" or ": FAIL" before asserting, so a
run with -s (or the captured output of a failure) shows the verdict list.
"""

import itertools
import os
import random
import time
from fractions import Fraction
from importlib import resources

import json

from conftest import ROW
from quiddity import transforms
from quiddity.cycles import Cycle, Mat2, eta, full_product, is_quiddity
from quiddity.clusters import check_ptolemy, find_zero_free_cluster
from quiddity.enumeration import (
    _excluded_parameters,
    count_nonzero,
    enumerate_nonzero,
    unit_family,
)
from quiddity.frieze import frieze_from_cycle, is_nonzero
from quiddity.jsonio import frieze_fixture_check
from quiddity.labelling import cycle_from_labelling, is_admissible, labelling_from_cycle
from quiddity.reduction import reduce_to_base
from quiddity.rings import (
    Cyclotomic,
    GaussianRational,
    Q,
    Qi,
    Z,
    Zi,
    Zzeta6,
    elements_norm_at_most,
    norm_sq,
)


def _verdict(number: int, name: str, failures: list):
    status = "FAIL" if failures else "PASS"
    print(f"[criterion {number:02d}] {name}: {status}")
    assert not failures, f"criterion {number}: {failures[:5]}"


def test_criterion_01_gaussian_and_eisenstein_tables():
    failures = []
    t0 = time.monotonic()
    results = [count_nonzero(ring, n, jobs=1) for ring in (Zi, Zzeta6) for n in (1, 2, 3)]
    small_elapsed = time.monotonic() - t0
    if small_elapsed >= 60:
        failures.append(("small cells too slow", small_elapsed))
    t0 = time.monotonic()
    workers = min(8, os.cpu_count() or 1)
    results += [count_nonzero(ring, 4, jobs=workers) for ring in (Zi, Zzeta6)]
    if time.monotonic() - t0 >= 45 * 60:
        failures.append(("height-4 cells too slow",))
    for r in results:
        row = ROW[r.ring.tag, r.n]
        if (r.total, r.orbit_count) != (row["total"], row["orbits"]):
            failures.append((r.ring.tag, r.n, r.total, r.orbit_count))
    _verdict(1, "gaussian and eisenstein count tables", failures)


def test_criterion_02_integer_table():
    failures = []
    for n in (1, 2, 3):
        total, want = count_nonzero(Z, n).total, ROW["Z", n]["total"]
        if total != want:
            failures.append((n, total, want))
    _verdict(2, "integer count table", failures)


def test_criterion_03_short_cycle_classification():
    failures = []
    for ring in (Z, Zi, Zzeta6):
        pool = [ring.zero] + elements_norm_at_most(ring, 9)
        twos = [t for t in itertools.product(pool, repeat=2)
                if is_quiddity(Cycle(ring, t))]
        if twos != [(ring.zero, ring.zero)]:
            failures.append((ring.tag, 2, twos))
        threes = [t for t in itertools.product(pool, repeat=3)
                  if is_quiddity(Cycle(ring, t))]
        if threes != [(ring.one, ring.one, ring.one)]:
            failures.append((ring.tag, 3, threes))
    fours = sorted(t for t in itertools.product(range(-3, 4), repeat=4)
                   if is_quiddity(Cycle(Z, t)))
    want = sorted({(c, 2 // c, c, 2 // c) for c in (-2, -1, 1, 2)})
    if fours != want:
        failures.append(("Z", 4, fours))
    _verdict(3, "length 2, 3 and 4 classification", failures)


def test_criterion_04_example_friezes_reproduced():
    failures = []
    root = resources.files("quiddity") / "fixtures"
    names = sorted(p.name for p in root.iterdir() if p.name.endswith(".json"))
    if len(names) != 5:
        failures.append(("fixture count", names))
    for name in names:
        try:
            frieze_fixture_check(json.loads((root / name).read_text()))
        except AssertionError as exc:
            failures.append((name, str(exc)))
    _verdict(4, "example friezes reproduced entry for entry", failures)


def test_criterion_05_reduction_total_on_corpus(z_corpus):
    failures = []
    t0 = time.monotonic()
    for cycle in z_corpus:
        trace = reduce_to_base(cycle)
        if trace.end.entries != (0, 0):
            failures.append((cycle.entries, "wrong terminal"))
            continue
        for step in trace.steps:
            if not is_quiddity(step.before):
                failures.append((cycle.entries, "non-quiddity intermediate"))
                break
    elapsed = time.monotonic() - t0
    if elapsed >= 60:
        failures.append(("too slow", elapsed))
    _verdict(5, "reduction reaches (0, 0) on the whole corpus", failures)


def test_criterion_06_labelling_round_trip(z_corpus):
    failures = []
    for cycle in z_corpus:
        lab = labelling_from_cycle(cycle)
        if not is_admissible(lab):
            failures.append((cycle.entries, "inadmissible"))
            continue
        if cycle_from_labelling(lab).entries != cycle.entries:
            failures.append((cycle.entries, "sums differ"))
    _verdict(6, "labelling round trip is the identity on the corpus", failures)


def test_criterion_07_entry_bounds_on_enumerated_cycles():
    failures = []
    for ring, n in ((Z, 1), (Z, 2), (Z, 3), (Z, 4),
                    (Zi, 1), (Zi, 2), (Zi, 3),
                    (Zzeta6, 1), (Zzeta6, 2), (Zzeta6, 3)):
        cap = (n + 1) ** 2
        for cycle in enumerate_nonzero(ring, n):
            norms = [norm_sq(ring, x) for x in cycle.entries]
            if any(v > cap for v in norms):
                failures.append((ring.tag, n, cycle.entries, "bound"))
                break
            if sum(1 for v in norms if v < 4) < 2:
                failures.append((ring.tag, n, cycle.entries, "small entries"))
                break
    _verdict(7, "norm bound and two small entries on every cycle", failures)


def test_criterion_08_clusters_and_ptolemy(z_corpus):
    failures = []
    for cycle in z_corpus:
        if cycle.m >= 4:
            cluster = find_zero_free_cluster(cycle)
            if all(c == 0 for c in cycle.entries):
                if cluster is not None or cycle.m % 4 != 2:
                    failures.append((cycle.entries, "all-zero case"))
            elif cluster is None or cluster.has_zero(Z):
                failures.append((cycle.entries, "no zero-free cluster"))
        if not check_ptolemy(frieze_from_cycle(cycle)):
            failures.append((cycle.entries, "ptolemy"))
    _verdict(8, "zero-free clusters exist and ptolemy holds", failures)


def _rand_q(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _rand_qi(rng):
    return GaussianRational(_rand_q(rng), _rand_q(rng))


def _scaled(mat, s):
    return Mat2(mat.a11 * s, mat.a12 * s, mat.a21 * s, mat.a22 * s)


def _check_rule(ring, sampler, rule, rng) -> bool:
    m = rng.randint(4, 7)
    k = rng.randint(2, m - 2)
    entries = [sampler(rng) for _ in range(m)]
    if rule == "contract_one":
        entries[k - 1] = ring.one
    elif rule == "contract_minus_one":
        entries[k - 1] = -ring.one
    elif rule in ("contract_zero", "shift_zero"):
        entries[k - 1] = ring.zero
    c = Cycle(ring, tuple(entries))
    before = full_product(c)
    if rule == "expand_one":
        out = transforms.expand_one(c, k)
        return full_product(out.cycle) == before and out.sign == 1
    if rule == "expand_minus_one":
        out = transforms.expand_minus_one(c, k)
        return full_product(out.cycle) == _scaled(before, -ring.one)
    if rule == "contract_one":
        return full_product(transforms.contract_one(c, k).cycle) == before
    if rule == "contract_minus_one":
        out = transforms.contract_minus_one(c, k)
        return full_product(out.cycle) == _scaled(before, -ring.one)
    if rule == "contract_zero":
        out = transforms.contract_zero(c, k)
        return full_product(out.cycle) == _scaled(before, -ring.one)
    if rule == "shift_zero":
        return full_product(transforms.shift_zero(c, k, sampler(rng))) == before
    if rule == "contract_uv":
        if c.entry(k) * c.entry(k + 1) == ring.one:
            return True
        return full_product(transforms.contract_uv(c, k)) == before
    if rule == "rescale_lambda":
        lam = sampler(rng)
        if lam == ring.zero or c.entry(k) * c.entry(k + 1) == ring.one:
            return True
        return full_product(transforms.rescale_lambda(c, k, lam)) == before
    if rule == "scale_alternating":
        t = sampler(rng)
        if t == ring.zero:
            return True
        even = Cycle(ring, tuple(entries[: 2 * (m // 2)]))
        left = Mat2(t, ring.zero, ring.zero, ring.one)
        right = Mat2(ring.exact_div(ring.one, t), ring.zero, ring.zero, ring.one)
        return (full_product(transforms.scale_alternating(even, t))
                == left * full_product(even) * right)
    if rule == "conjugate_diag":
        a, u, b, z = entries[0], entries[1], entries[2], sampler(rng)
        if u == ring.zero or z == ring.zero:
            return True
        a2, u2, b2 = transforms.conjugate_diag(ring, (a, u, b), z)
        zinv = ring.exact_div(ring.one, z)
        dz = Mat2(z, ring.zero, ring.zero, zinv)
        dzinv = Mat2(zinv, ring.zero, ring.zero, z)
        lhs = dzinv * (eta(ring, a) * eta(ring, u) * eta(ring, b)) * dz
        return lhs == eta(ring, a2) * eta(ring, u2) * eta(ring, b2)
    raise AssertionError(rule)


def test_criterion_09_transform_identities():
    rules = ["expand_one", "contract_one", "expand_minus_one",
             "contract_minus_one", "contract_uv", "rescale_lambda",
             "contract_zero", "shift_zero", "scale_alternating",
             "conjugate_diag"]
    failures = []
    for ring, sampler in ((Q, _rand_q), (Qi, _rand_qi)):
        for rule in rules:
            rng = random.Random(f"{ring.tag}:{rule}")
            bad = sum(1 for _ in range(500)
                      if not _check_rule(ring, sampler, rule, rng))
            if bad:
                failures.append((ring.tag, rule, bad))
        rng = random.Random(2025)
        for _ in range(500):
            c = Cycle(ring, tuple(sampler(rng) for _ in range(rng.randint(2, 6))))
            k = rng.randint(1, c.m - 1)
            if transforms.contract_one(transforms.expand_one(c, k).cycle,
                                       k + 1).cycle != c:
                failures.append((ring.tag, "expand/contract inverse", c.entries))
            if transforms.contract_minus_one(
                    transforms.expand_minus_one(c, k).cycle, k + 1).cycle != c:
                failures.append((ring.tag, "minus inverse", c.entries))
    _verdict(9, "500 exact instantiations per transform rule", failures)


def test_criterion_10_unit_families():
    failures = []
    ring5 = Cyclotomic(5)
    members = unit_family(ring5, 3, 10)
    if len(members) != 10:
        failures.append(("Zzeta5 count", len(members)))
    if len({cyc.entries for _, cyc in members}) != 10:
        failures.append(("Zzeta5 distinctness",))
    for t, cyc in members:
        if cyc.m != 6 or not is_quiddity(cyc):
            failures.append(("Zzeta5 member breaks", t))
        elif not is_nonzero(frieze_from_cycle(cyc)):
            failures.append(("Zzeta5 frieze has a zero", t))
    excluded = _excluded_parameters(Z, 3)
    if excluded != [-1, -2, -2, -4] or set(excluded) != {-1, -2, -4}:
        failures.append(("excluded parameters", excluded))
    allowed = [t for t, _ in unit_family(Z, 3, 99)]
    if allowed != [1, 2]:
        failures.append(("surviving integer parameters", allowed))
    for t in (-1, -2):
        cyc = Cycle(Z, (t + 2, 1, 2, 1 + 2 // t, t, 2 // t))
        if not is_quiddity(cyc) or is_nonzero(frieze_from_cycle(cyc)):
            failures.append(("excluded t should zero the frieze", t))
    _verdict(10, "divisor-of-2 families over Z[zeta5] and Z", failures)
