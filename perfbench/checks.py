"""Checkers for every output the workloads produce.

Each checker raises CheckError with a reason when the output is wrong.  The
checks recompute with the benchmark's own arithmetic (`exact`) or test
properties the method must have; none of them calls back into `quiddity`.
"""

from __future__ import annotations

import json
from fractions import Fraction

from exact import (
    Eis,
    Gauss,
    catalan,
    continuant,
    dihedral_orbit,
    eta_product,
    frieze_is_zero_free,
    frieze_rows,
    inverse,
    is_minus_identity,
    is_quiddity,
    norm,
    order_key,
    triangle_counts,
    triangulation_problem,
    triangulations,
)


class CheckError(Exception):
    """An output of the program failed a check."""


def require(condition, reason: str):
    if not condition:
        raise CheckError(reason)


def own(x):
    """A program ring element in the benchmark's own arithmetic."""
    if isinstance(x, (int, Fraction)):
        return x
    if hasattr(x, "re"):
        return Gauss(x.re, x.im)
    if hasattr(x, "a"):
        return Eis(x.a, x.b)
    raise CheckError(f"unknown element {x!r}")


def own_entries(cycle) -> tuple:
    return tuple(own(x) for x in cycle.entries)


# ---------------------------------------------------------------------------
# enumerate

def element_from_json(tag: str, data):
    if tag == "Z":
        require(isinstance(data, int) and not isinstance(data, bool), f"bad Z entry {data!r}")
        return data
    require(isinstance(data, list) and len(data) == 2
            and all(isinstance(c, int) for c in data), f"bad {tag} entry {data!r}")
    return Gauss(*data) if tag == "Zi" else Eis(*data)


def small_elements(tag: str, bound_sq: int) -> list:
    """Nonzero elements of norm at most bound_sq, by a plain box scan."""
    r = 2 * bound_sq
    if tag == "Z":
        cand = range(-r, r + 1)
    elif tag == "Zi":
        cand = (Gauss(a, b) for a in range(-r, r + 1) for b in range(-r, r + 1))
    else:
        cand = (Eis(a, b) for a in range(-r, r + 1) for b in range(-r, r + 1))
    return [x for x in cand if x != 0 and norm(x) <= bound_sq]


def brute_force(tag: str, n: int) -> set:
    """Every cycle of length m = n+3 over the norm-bounded elements whose
    product is -I and whose frieze is zero-free.

    Depth first over the entries.  A prefix is cut only by its own
    continuant, which is an entry of the frieze's first row
    0, 1, K_1, ..., K_{m-3}, 1, 0: K_k must be nonzero for k <= m-3, and
    K_{m-2} = 1, K_{m-1} = 0 close the row.  Full cycles are then checked
    in full.
    """
    m = n + 3
    elems = small_elements(tag, (n + 1) ** 2)
    found = set()

    def extend(prefix, k1, k0):
        if len(prefix) == m:
            if is_quiddity(prefix) and frieze_is_zero_free(prefix):
                found.add(prefix)
            return
        for c in elems:
            k2 = k1 * c - k0
            length = len(prefix) + 1
            if (length <= m - 3 and k2 == 0 or length == m - 2 and k2 != 1
                    or length == m - 1 and k2 != 0):
                continue
            extend(prefix + (c,), k2, k1)

    extend((), 1, 0)
    return found


BRUTE_FORCE_CELLS = {("Z", 1), ("Z", 2), ("Z", 3), ("Z", 4), ("Zi", 1), ("Zi", 2),
                     ("Zzeta6", 1), ("Zzeta6", 2)}


def check_enumerate(tag: str, n: int, text: str):
    """The JSON text the `enumerate` verb prints for one cell."""
    data = json.loads(text)
    require(set(data) == {"ring", "height", "total", "orbit_count", "representatives"},
            f"keys {sorted(data)}")
    require(data["ring"] == tag and data["height"] == n, "wrong cell")
    m = n + 3
    reps = [tuple(element_from_json(tag, e) for e in rep) for rep in data["representatives"]]
    require(len(reps) == data["orbit_count"], "orbit count differs from the list")
    members = set()
    for rep in reps:
        require(len(rep) == m, f"length {len(rep)} in a height-{n} cell")
        orbit = dihedral_orbit(rep)
        require(not orbit & members, f"{rep} shares an orbit with another representative")
        require(rep == min(orbit, key=lambda v: tuple(order_key(x) for x in v)),
                f"{rep} is not the least of its orbit")
        members |= orbit
    require(len(members) == data["total"],
            f"orbits hold {len(members)} cycles, total says {data['total']}")
    for cyc in members:
        require(is_quiddity(cyc), f"{cyc}: product is not -I")
        require(frieze_is_zero_free(cyc), f"{cyc}: frieze has a zero")
        require(all(norm(x) <= (n + 1) ** 2 for x in cyc), f"{cyc}: entry above the bound")
        require(sum(1 for x in cyc if norm(x) < 4) >= 2, f"{cyc}: fewer than two small entries")
    if tag == "Z":
        want = catalan(n + 1) * (2 if m % 2 == 0 else 1)
        require(data["total"] == want, f"Z total {data['total']}, want {want}")
        for tri in triangulations(m):
            cc = triangle_counts(m, tri)
            require(cc in members, f"Conway-Coxeter cycle {cc} missing")
            if m % 2 == 0:
                require(tuple(-c for c in cc) in members, f"negated {cc} missing")
    if (tag, n) in BRUTE_FORCE_CELLS:
        require(brute_force(tag, n) == members, "differs from the brute-force search")


# ---------------------------------------------------------------------------
# polygon

def check_trace(cycle: tuple, trace):
    require(trace.start.entries == cycle, "trace starts elsewhere")
    prev = cycle
    for step in trace.steps:
        require(step.before.entries == prev, "trace steps do not chain")
        after = step.after.entries
        require(len(after) < len(prev), f"{step.case_tag} did not shrink {prev}")
        require(is_quiddity(after), f"{after} after {step.case_tag} is no quiddity cycle")
        prev = after
    require(prev == (0, 0), f"trace ends at {prev}")


def labelling_sums(lab) -> tuple:
    sums = [0] * lab.m
    for tri, x in lab.labels.items():
        for v in tri:
            sums[v - 1] += x
    return tuple(sums)


def check_labelling(cycle: tuple, lab):
    m = len(cycle)
    require(lab.m == m, f"labelling of a {lab.m}-gon for a {m}-cycle")
    problem = triangulation_problem(m, lab.triangulation.diagonals, lab.labels)
    require(problem is None, f"not a triangulation: {problem}")
    require(all(isinstance(x, int) for x in lab.labels.values()), "non-integer label")
    require(labelling_sums(lab) == cycle, "vertex sums differ from the cycle")


def check_labelling_steps(lab, steps):
    require(steps and steps[0].before == lab, "reduction starts elsewhere")
    for i, step in enumerate(steps):
        if i:
            require(step.before == steps[i - 1].after, "labelling steps do not chain")
        if step.terminal:
            require(i == len(steps) - 1, "steps after the terminal case")
            require(labelling_sums(step.after) in ((0, 0), (1, 1, 1)),
                    f"ends at {labelling_sums(step.after)}")
            return
        after = step.after
        require(after.m < step.before.m, f"{step.case_tag} did not shrink the polygon")
        problem = triangulation_problem(after.m, after.triangulation.diagonals, after.labels)
        require(problem is None, f"{step.case_tag} left no triangulation: {problem}")
        require(is_quiddity(labelling_sums(after)),
                f"{step.case_tag} left sums that are no quiddity cycle")
    raise CheckError("labelling reduction never reached the terminal case")


# ---------------------------------------------------------------------------
# cluster

def check_cluster(cycle: tuple, found):
    m = len(cycle)
    if all(c == 0 for c in cycle):
        require(found is None, "all-zero cycle got a cluster")
        return
    require(found is not None, "no cluster for a cycle with a nonzero entry")
    diagonals = found.triangulation.diagonals
    problem = triangulation_problem(m, diagonals)
    require(problem is None, f"not a triangulation: {problem}")
    require(set(found.labels) == set(diagonals), "labels do not match the diagonals")
    for (i, j), value in found.labels.items():
        want = continuant(cycle[i:j - 1])
        require(own(value) == want, f"label on ({i}, {j}) is {value}, want {want}")
        require(want != 0, f"zero label on ({i}, {j})")


# ---------------------------------------------------------------------------
# fields

def _mat_mul(p, q):
    a, b, c, d = p
    e, f, g, h = q
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


RULE_SIGNS = {"expand_one": 1, "contract_one": 1, "expand_minus_one": -1,
              "contract_minus_one": -1, "contract_zero": -1}
LENGTH_CHANGE = {"expand_one": 1, "expand_minus_one": 1, "contract_one": -1,
                 "contract_minus_one": -1, "contract_zero": -2, "contract_uv": -1}


def check_rule(rule: str, before: tuple, param, result):
    """One transform step: `before` in own arithmetic, `result` as returned."""
    if rule == "conjugate_diag":
        a, u, b = before
        z = param
        got = tuple(own(x) for x in result)
        require(len(got) == 3 and got[1] == u, "conjugate_diag changed the middle entry")
        lhs = eta_product(got)
        rhs = _mat_mul(_mat_mul((inverse(z), 0, 0, z), eta_product((a, u, b))),
                       (z, 0, 0, inverse(z)))
        require(lhs == rhs, "conjugate_diag breaks its product identity")
        return
    if rule in RULE_SIGNS:
        require(result.sign == RULE_SIGNS[rule], f"{rule} reports sign {result.sign}")
        sign, cycle = result.sign, result.cycle
    else:
        sign, cycle = 1, result
    after = own_entries(cycle)
    require(len(after) == len(before) + LENGTH_CHANGE.get(rule, 0),
            f"{rule} gave length {len(after)} from {len(before)}")
    p_before, p_after = eta_product(before), eta_product(after)
    if rule == "scale_alternating":
        t = param
        want = _mat_mul(_mat_mul((t, 0, 0, 1), p_before), (inverse(t), 0, 0, 1))
    else:
        want = tuple(sign * x for x in p_before)
    require(p_after == want, f"{rule} breaks its product identity")


def check_frieze(entries: tuple, frieze, report):
    """frieze_from_cycle and verify(window) over Q(i)."""
    require(is_minus_identity(eta_product(entries)), "frieze input is no quiddity cycle")
    require(report.sl2_ok and report.tame_ok and not report.failures,
            f"verify reports {report.failures[:3]}")
    want = frieze_rows(entries)
    got = [[own(x) for x in row] for row in frieze.rows]
    require(got == want, "frieze rows differ from the continuants")


def check_unit_family(d: int, n: int, how_many: int, members):
    """Each member over Z[zeta_d], checked in sympy's Q[x]/(Phi_d)."""
    from sympy import Poly, QQ, cyclotomic_poly, symbols

    x = symbols("x")
    phi = Poly(cyclotomic_poly(d, x), x, domain=QQ)

    def poly(coeffs):
        return Poly(list(reversed(coeffs)), x, domain=QQ).rem(phi)

    def const(k):
        return Poly(k, x, domain=QQ)

    require(len(members) == how_many, f"{len(members)} members, want {how_many}")
    seen = set()
    for t, cycle in members:
        key = tuple(e.coeffs for e in cycle.entries)
        require(key not in seen, "repeated member")
        seen.add(key)
        tp = poly(t.coeffs)
        ent = [poly(e.coeffs) for e in cycle.entries]
        require(len(ent) == (4 if n == 1 else n + 3), "wrong length")
        quot = ent[-1]
        require((tp * quot).rem(phi) == const(2), "t * (2/t) is not 2")
        if n == 1:
            want = [tp, quot, tp, quot]
        else:
            want = ([tp + const(n - 1), const(1)] + [const(2)] * (n - 2)
                    + [const(1) + quot, tp, quot])
        require(all((e - w).rem(phi).is_zero for e, w in zip(ent, want)),
                "member differs from the family formula")

        def mul(p, q):
            return (p * q).rem(phi)

        p11, p12, p21, p22 = const(1), const(0), const(0), const(1)
        for c in ent:
            p11, p12 = mul(p11, c) + p12, -p11
            p21, p22 = mul(p21, c) + p22, -p21
        require((p11 + const(1)).is_zero and p12.is_zero and p21.is_zero
                and (p22 + const(1)).is_zero, "product is not -I")
        m = len(ent)
        for i in range(m):
            k0, k1 = const(0), const(1)
            for k in range(m - 3):
                k0, k1 = k1, mul(k1, ent[(i + k) % m]) - k0
                require(not k1.is_zero, "frieze has a zero")
