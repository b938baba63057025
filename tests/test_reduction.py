"""Reduction engines: case selection, totality, and trace inversion."""

import random
from fractions import Fraction

import pytest

from quiddity.cycles import Cycle, is_quiddity
from quiddity.errors import InvalidCycleError, UnsupportedRingError, UsageError
from quiddity.reduction import (
    ReductionTrace,
    apply_glue_to_sums,
    invert_trace,
    reduce_step_Z,
    reduce_step_epsilon,
    reduce_to_base,
)
from quiddity.rings import Q, Z


def test_terminal_cases():
    for entries in ((0, 0), (1, 1, 1)):
        step = reduce_step_Z(Cycle(Z, entries))
        assert step.case_tag == "T0"
        assert step.terminal
        assert step.after == step.before


def test_case_priority_one_first():
    step = reduce_step_Z(Cycle(Z, (1, 4, 1, 2, 2, 2)))
    assert step.case_tag == "T1"
    assert step.indices == (1,)
    assert step.after.entries == (3, 1, 2, 2, 1)


def test_case_zero_odd_negates():
    step = reduce_step_Z(Cycle(Z, (-1, -1, 0, 0, -1)))
    assert step.case_tag == "T2"
    assert step.indices == (3,)
    assert step.after.entries == (1, 1, 1)


def test_case_minus_one_even_negates():
    step = reduce_step_Z(Cycle(Z, (-1, 2, -3, -1, -1, 2, -3, -1)))
    assert step.case_tag == "T3"
    assert step.indices == (1,)
    assert step.after.entries == (-3, 3, 1, 1, -2, 3, 0)


def test_case_separated_zeros():
    step = reduce_step_Z(Cycle(Z, (0, 2, -2, 0, 2, -2)))
    assert step.case_tag == "T4"
    assert step.indices == (1, 4)
    assert step.after.entries == (0, 0)


def test_case_separated_zeros_all_zero():
    step = reduce_step_Z(Cycle(Z, (0,) * 6))
    assert step.case_tag == "T4"
    assert step.indices == (1, 3)
    assert step.after.entries == (0, 0)


def test_case_separated_minus_ones():
    # odd length with no 0 or 1 entries, so cases T1 through T4 all pass
    c = Cycle(Z, (-1, -5, -1, -2, -1, 2, -1))
    assert is_quiddity(c)
    step = reduce_step_Z(c)
    assert step.case_tag == "T5"
    assert step.indices == (1, 3)
    assert step.after.entries == (-3, -1, -1, 2, 0)
    assert is_quiddity(step.after)


def test_worked_reductions_reach_base(worked_reductions):
    lengths = []
    for entries in worked_reductions:
        trace = reduce_to_base(Cycle(Z, entries))
        assert trace.end.entries == (0, 0)
        for step in trace.steps:
            assert is_quiddity(step.before)
            assert is_quiddity(step.after) or step.after.entries == (0, 0)
            assert step.after.m < step.before.m
        lengths.append(len(trace.steps))
    assert lengths[0] == 1  # the double-zero hexagon collapses in one move


def test_reduction_total_on_corpus(z_corpus):
    for cycle in z_corpus:
        trace = reduce_to_base(cycle)
        assert trace.end.entries == (0, 0)
        current = cycle
        for step in trace.steps:
            assert step.before == current
            assert is_quiddity(step.before)
            current = step.after
        assert current.entries == (0, 0)


def test_triangle_gets_extra_step():
    trace = reduce_to_base(Cycle(Z, (1, 1, 1)))
    assert [s.case_tag for s in trace.steps] == ["T1"]
    assert trace.end.entries == (0, 0)
    trace = reduce_to_base(Cycle(Z, (0, 0)))
    assert trace.steps == ()
    assert trace.end.entries == (0, 0)


def test_trace_end_property():
    c = Cycle(Z, (0, 0))
    assert ReductionTrace(c, ()).end == c


def test_epsilon_engine_cases():
    step = reduce_step_epsilon(Cycle(Z, (0, 0)), -1)
    assert step.case_tag == "I0" and step.terminal

    step = reduce_step_epsilon(Cycle(Z, (1, 1, 1)), -1)
    assert step.case_tag == "I1"
    assert step.after.entries == (0, 0)
    assert (step.eps_before, step.eps_after) == (-1, -1)

    step = reduce_step_epsilon(Cycle(Z, (0, 0, 0, 0)), 1)
    assert step.case_tag == "I2"
    assert step.after.entries == (0, 0)
    assert (step.eps_before, step.eps_after) == (1, -1)

    step = reduce_step_epsilon(Cycle(Z, (-1, -1, -1)), 1)
    assert step.case_tag == "I3"
    assert step.after.entries == (0, 0)
    assert (step.eps_before, step.eps_after) == (1, -1)


def test_epsilon_engine_rejects_wrong_scalar():
    with pytest.raises(InvalidCycleError):
        reduce_step_epsilon(Cycle(Z, (0, 0)), 1)
    with pytest.raises(InvalidCycleError):
        reduce_step_epsilon(Cycle(Z, (1, 2, 3)), -1)


def test_integer_only():
    c = Cycle(Q, (Fraction(0), Fraction(0)))
    with pytest.raises(UnsupportedRingError):
        reduce_step_Z(c)
    with pytest.raises(UnsupportedRingError):
        reduce_to_base(c)
    with pytest.raises(UnsupportedRingError):
        reduce_step_epsilon(c, -1)


def test_non_quiddity_rejected():
    with pytest.raises(InvalidCycleError):
        reduce_step_Z(Cycle(Z, (1, 2, 3)))
    with pytest.raises(InvalidCycleError):
        reduce_to_base(Cycle(Z, (2, 2)))


def _seeded_cycle(rng: random.Random, m: int) -> Cycle:
    """An integer quiddity cycle of length m glued from random blocks.

    Each square and each -1 triangle flips the sign of the labelling, and
    the last triangle's label sets it right, so the sums are quiddity.
    """
    sums, flips = (0, 0), 0
    while len(sums) < m - 1:
        p = rng.randint(1, len(sums))
        if len(sums) < m - 2 and rng.random() < 0.3:
            sums = apply_glue_to_sums(sums, ("square", p, rng.randint(-2, 2)))
            flips += 1
        else:
            s = rng.choice((1, -1))
            sums = apply_glue_to_sums(sums, ("triangle", p, s))
            flips += s < 0
    last = -1 if flips % 2 else 1
    sums = apply_glue_to_sums(sums, ("triangle", rng.randint(1, len(sums)), last))
    cycle = Cycle(Z, sums)
    assert is_quiddity(cycle)
    return cycle


def test_trace_checks_each_cycle_once():
    # reduce_to_base checks only its input: every step must still be the one
    # reduce_step_Z takes, bar the final T1 from (1, 1, 1), and one wrong
    # entry anywhere must still be caught
    rng = random.Random(14)
    for m in range(4, 41):
        cycle = _seeded_cycle(rng, m)
        *inner, last = reduce_to_base(cycle).steps
        for step in inner:
            assert reduce_step_Z(step.before) == step
        if last.before.entries == (1, 1, 1):
            assert (last.case_tag, last.indices, last.after.entries) == ("T1", (1,), (0, 0))
        else:
            assert reduce_step_Z(last.before) == last
        entries = list(cycle.entries)
        entries[rng.randrange(m)] += rng.choice((1, -1))
        with pytest.raises(InvalidCycleError):
            reduce_to_base(Cycle(Z, entries))


def test_glue_triangle_semantics():
    assert apply_glue_to_sums((0, 0), ("triangle", 1, 1)) == (1, 1, 1)
    assert apply_glue_to_sums((0, 0), ("triangle", 2, 1)) == (1, 1, 1)
    assert apply_glue_to_sums((3, 5, 7), ("triangle", 2, -1)) == (3, 4, -1, 6)


def test_glue_square_semantics():
    assert apply_glue_to_sums((4,), ("square", 1, 9)) == (4 - 9, 9, 0)
    assert apply_glue_to_sums((2, 3), ("square", 1, 5)) == (2, 5, 0, -2)
    assert apply_glue_to_sums((2, 3), ("square", 2, 5)) == (-3, 3, 5, 0)


def test_glue_negate_semantics():
    assert apply_glue_to_sums((1, -2, 0), ("negate",)) == (-1, 2, 0)
    with pytest.raises(UsageError):
        apply_glue_to_sums((1, 2), ("twist", 1, 1))


@pytest.mark.parametrize("instr", [
    ("bogus",), (), None, "negate", ["negate"], (1, 2, 3),
    ("negate", 1), ("triangle", 1), ("square", 1, 1, 1),
    ("triangle", 0, 1), ("triangle", 4, 1), ("square", -1, 1), ("square", 4, 1),
    ("triangle", 1.0, 1), ("square", True, 1), ("triangle", "1", 1),
])
def test_glue_rejects_malformed_instructions(instr):
    with pytest.raises(UsageError):
        apply_glue_to_sums((1, 2, 3), instr)


# one step each whose contraction window reaches vertex 1 or vertex m
WRAPPED_STEPS = (
    ((1, 2, 1, 2), "T1", (1,)),
    ((-1, -2, -1, -2), "T3", (1,)),
    ((0, 0, -1, -1, -1), "T2", (1,)),
    ((-1, 0, 0, -1, -1), "T2", (2,)),
    ((2, 2, 0, -2, -2, 0), "T4", (3, 6)),
    ((0, 0, 0, 0, 0, 0), "T4", (1, 3)),
    ((-2, 2, -1, -1, -4, -2, -1), "T5", (3, 7)),
    ((-1, -2, -1, -2, -1, -1, -1), "T5", (1, 3)),
)


def _rebuilds_exactly(step):
    rebuilt = step.after.entries
    for instr in step.glue_script:
        rebuilt = apply_glue_to_sums(rebuilt, instr)
    r = step.rotation
    return rebuilt[r:] + rebuilt[:r] == step.before.entries


def test_every_step_rebuilds_exactly(z_corpus):
    # the corpus holds the worked reductions too
    for cycle in z_corpus:
        for step in reduce_to_base(cycle).steps:
            assert _rebuilds_exactly(step)
    for entries, tag, indices in WRAPPED_STEPS:
        step = reduce_step_Z(Cycle(Z, entries))
        assert (step.case_tag, step.indices) == (tag, indices)
        assert _rebuilds_exactly(step)
    # the epsilon engine's windows at index 1
    for entries, eps in (((1, 1, 1), -1), ((0, 0, 0, 0), 1), ((-1, -1, -1), 1)):
        assert _rebuilds_exactly(reduce_step_epsilon(Cycle(Z, entries), eps))


def _rotations(entries):
    return [entries[i:] + entries[:i] for i in range(len(entries))]


def test_invert_trace_rebuilds_every_stage(z_corpus, worked_reductions):
    for cycle in z_corpus[:60] + [Cycle(Z, e) for e in worked_reductions]:
        trace = reduce_to_base(cycle)
        current = (0, 0)
        for target, script in invert_trace(trace):
            for instr in script:
                current = apply_glue_to_sums(current, instr)
            assert current in _rotations(target)
            current = target
        assert current == cycle.entries


def test_invert_trace_requires_full_trace():
    c = Cycle(Z, (1, 4, 1, 2, 2, 2))
    partial = ReductionTrace(c, (reduce_step_Z(c),))
    with pytest.raises(AssertionError):
        invert_trace(partial)
