"""Seeded inputs.  Everything here is plain data (ints, Fractions, tuples),
made with the benchmark's own code: the program only ever sees the result.

Integer quiddity cycles are grown from the 2-gon (0, 0) by the gluing moves
that build admissible labellings, applied to vertex sums:

    triangle s on edge (p, p+1):  (..., a, b, ...) -> (..., a+s, s, b+s, ...)
    square x on edge (p, p+1):    (..., a, b, ...) -> (..., a, x, 0, b-x, ...)

Gluing only +1 triangles gives the Conway-Coxeter cycle of a random
triangulation.  Mixing in -1 triangles and squares gives cycles with zero
and negative entries.  Each -1 triangle and each square flips the sign of
the eta-product, so the last triangle is chosen to leave it at -I.
"""

from __future__ import annotations

import random
from fractions import Fraction

from exact import Gauss, is_quiddity


def glue_triangle(sums: list, p: int, s: int) -> list:
    mu = len(sums)
    out = list(sums)
    out[p - 1] += s
    out[p % mu] += s
    out.insert(p, s)
    return out


def glue_square(sums: list, p: int, x: int) -> list:
    mu = len(sums)
    out = list(sums)
    out[p % mu] -= x
    out[p:p] = [x, 0]
    return out


def cc_cycle(rng: random.Random, m: int) -> tuple:
    """Conway-Coxeter cycle of a random triangulation of the m-gon."""
    sums = [0, 0]
    while len(sums) < m:
        sums = glue_triangle(sums, rng.randint(1, len(sums)), 1)
    return tuple(sums)


def mixed_cycle(rng: random.Random, m: int, square_share=0.3, minus_share=0.3,
                square_values=(-2, -1, 0, 1, 2)) -> tuple:
    """Integer quiddity cycle of length m with zero and negative entries.

    Squares bring `square_share` of the m - 3 vertices glued before the
    last one, -1 triangles `minus_share` of the rest; only the order of the
    moves, their edges and the square labels are random, so cycles of one
    length cost about the same to reduce.
    """
    squares = round(square_share * (m - 3) / 2)
    triangles = m - 3 - 2 * squares
    minus = round(minus_share * triangles)
    moves = ["square"] * squares + [-1] * minus + [1] * (triangles - minus)
    rng.shuffle(moves)
    sums = [0, 0]
    flips = 0
    for move in moves:
        p = rng.randint(1, len(sums))
        if move == "square":
            sums = glue_square(sums, p, rng.choice(square_values))
        else:
            sums = glue_triangle(sums, p, move)
        flips += move != 1
    sums = glue_triangle(sums, rng.randint(1, len(sums)), -1 if flips % 2 else 1)
    cycle = tuple(sums)
    assert len(cycle) == m and is_quiddity(cycle), cycle
    return cycle


# ---------------------------------------------------------------------------
# Transform chains over Q and Q(i).
#
# A chain is a start cycle plus a list of steps (rule, k, parameter) that are
# applicable whatever the program computes: every start entry has absolute
# value at least 2 (so u*v - 1 is never 0 on two untouched entries), and the
# generator tracks which positions still hold an untouched start entry, an
# inserted 1 or -1, or a 0, as rules insert, remove and modify entries.

ORIG, ONE, MINUS, ZERO, DIRTY = "orig", "one", "minus", "zero", "dirty"


def _rational(rng: random.Random, lo=2) -> Fraction:
    """A random rational with |x| >= lo and small height."""
    while True:
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if abs(x) >= lo:
            return x


def _field_element(rng: random.Random, field: str, lo=2):
    if field == "Q":
        return _rational(rng, lo)
    while True:
        x = Gauss(Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
                  Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
        if x.norm() >= lo * lo:
            return x


def _nonzero_element(rng, field):
    return _field_element(rng, field, lo=Fraction(1, 3))


def _rules_applicable(kinds: list) -> list:
    """(rule, k) pairs whose window lies inside positions 1..m, so that the
    full eta-product changes exactly by the rule's sign (a window that
    wraps round the end changes it by a conjugation as well)."""
    m = len(kinds)
    out = [(rule, k) for rule in ("expand_one", "expand_minus_one") for k in range(1, m)]
    for k in range(2, m):
        kind = kinds[k - 1]
        if kind == ONE:
            out.append(("contract_one", k))
        if kind == MINUS:
            out.append(("contract_minus_one", k))
        if kind == ZERO:
            out += [("shift_zero", k), ("contract_zero", k)]
        if k <= m - 2 and kind == ORIG and kinds[k] == ORIG:
            out += [("contract_uv", k), ("rescale_lambda", k)]
    return out


def _apply_kinds(kinds: list, rule: str, k: int) -> list:
    """Position kinds after `rule` at `k` (an interior window): entries the
    rule rewrites become DIRTY, inserted and removed ones come and go."""
    out = list(kinds)
    if rule in ("expand_one", "expand_minus_one"):
        out[k - 1] = out[k] = DIRTY
        return out[:k] + [ONE if rule == "expand_one" else MINUS] + out[k:]
    if rule in ("contract_one", "contract_minus_one", "shift_zero"):
        out[k - 2] = out[k] = DIRTY
        return out if rule == "shift_zero" else out[:k - 1] + out[k:]
    if rule == "contract_zero":
        out[k] = DIRTY
        return out[:k - 2] + out[k:]
    if rule == "contract_uv":
        out[k - 2] = out[k] = out[k + 1] = DIRTY
        return out[:k - 1] + out[k:]
    if rule == "rescale_lambda":
        out[k - 2:k + 2] = [DIRTY] * 4
        return out
    raise ValueError(rule)


def transform_chain(rng: random.Random, field: str, steps: int) -> dict:
    """Random start entries and `steps` random applicable rules over
    `field`, then an alternating rescaling when the length is even and one
    diagonal conjugation of a window of fresh entries."""
    m = rng.randint(5, 7)
    entries = [_field_element(rng, field) for _ in range(m)]
    kinds = [ORIG] * m
    if rng.random() < 0.5:
        i = rng.randrange(m)
        entries[i], kinds[i] = 0, ZERO
    plan = []
    for _ in range(steps):
        rule, k = rng.choice(_rules_applicable(kinds))
        param = _nonzero_element(rng, field) if rule in ("rescale_lambda", "shift_zero") else None
        plan.append((rule, k, param))
        kinds = _apply_kinds(kinds, rule, k)
    if len(kinds) % 2 == 0:
        plan.append(("scale_alternating", None, _nonzero_element(rng, field)))
    window = tuple(_field_element(rng, field) for _ in range(3))
    plan.append(("conjugate_diag", window, _nonzero_element(rng, field)))
    return {"field": field, "start": tuple(entries), "plan": plan}


def quiddity_chain(rng: random.Random, m: int) -> dict:
    """An integer quiddity cycle of even length m taken into Q(i) by rules
    that keep the eta-product at -I, in a fixed order so that every seed
    does the same amount of work:

        rescale_lambda, expand_one, contract_one (of the inserted 1),
        rescale_lambda, scale_alternating

    The start cycle is drawn until it has two disjoint interior windows of
    entries with |c| >= 2, where rescaling can never divide by 0.
    """
    assert m % 2 == 0
    while True:
        start = mixed_cycle(rng, m)
        pairs = [k for k in range(2, m - 1) if abs(start[k - 1]) >= 2 and abs(start[k]) >= 2]
        k1 = rng.choice(pairs) if pairs else None
        pairs = [k for k in pairs if abs(k - k1) >= 4] if pairs else []
        if pairs:
            break
    k2 = rng.choice(pairs)
    e = rng.randint(1, m - 1)
    plan = [("rescale_lambda", k1, _nonzero_element(rng, "Qi")),
            ("expand_one", e, None),
            ("contract_one", e + 1, None),
            ("rescale_lambda", k2, _nonzero_element(rng, "Qi")),
            ("scale_alternating", None, _nonzero_element(rng, "Qi"))]
    return {"field": "Qi", "start": start, "plan": plan}
