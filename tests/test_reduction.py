"""Reduction engines: case selection, totality, and undoing each step."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

from quiddity import labelling, reduction
from quiddity.cycles import Cycle, is_quiddity
from quiddity.errors import InvalidCycleError, UnsupportedRingError
from quiddity.labelling import (
    _Polygon,
    cycle_from_labelling,
    labelling_from_cycle,
    labelling_sign,
)
from quiddity.reduction import (
    ReductionTrace,
    reduce_step_Z,
    reduce_step_epsilon,
    reduce_to_base,
)
from quiddity.rings import Q, Z
from quiddity.transforms import _drop_unit, _merge_zero


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


def test_trace_checks_each_cycle_once(glued_cycle):
    # reduce_to_base checks only its input: every step must still be the one
    # reduce_step_Z takes, bar the final T1 from (1, 1, 1), and one wrong
    # entry anywhere must still be caught
    rng = random.Random(14)
    for m in range(4, 41):
        cycle = Cycle(Z, glued_cycle(rng, m))
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


def test_first_three_positions_decide_the_case():
    # the reduction loop passes _choose_case only the first 1, or else the
    # first three positions of 0 and -1; the labelling reduction passes all
    # of them
    rng = random.Random(3)
    for _ in range(3000):
        m = rng.randint(2, 12)
        ones, zeros, minus = (sorted(rng.sample(range(1, m + 1), rng.randint(0, min(m, 6))))
                              for _ in range(3))
        want = reduction._choose_case(m, ones, zeros, minus)
        assert reduction._choose_case(m, ones[:3], zeros[:3], minus[:3]) == want
        if ones:
            assert reduction._choose_case(m, ones[:1], (), ()) == want


def _step_tuples(before, case, indices):
    # the tuples a step takes `before` through: one contraction per index,
    # a pair at k first, then the negation of cases 2 and 3
    entry = reduction._ENTRY[case]
    moves = [before]
    for k in reversed(indices):
        moves.append(_drop_unit(moves[-1], k, entry) if entry else _merge_zero(moves[-1], k))
    if case in reduction._NEGATES:
        moves.append(tuple(-e for e in moves[-1]))
    return moves


def test_local_step_check_agrees_with_the_whole_cycle(glued_cycle):
    # each step checks its output from local facts; their verdict must be
    # is_quiddity's, on the real output and on the output with one entry
    # off by one, anywhere
    rng = random.Random(222)
    tags = set()
    for kind in ("cc", "mixed", "zeros"):
        for m in list(range(3, 66, 3)) + [64, 65]:
            for step in reduce_to_base(Cycle(Z, glued_cycle(rng, m, kind))).steps:
                tags.add(step.case_tag)
                case, indices = int(step.case_tag[1:]), step.indices
                moves = _step_tuples(step.before.entries, case, indices)
                assert moves[-1] == step.after.entries
                assert reduction._step_holds(case, indices, moves) is is_quiddity(step.after) is True
                after = step.after.entries
                n = len(after)
                for p in (range(n) if n <= 12 else rng.sample(range(n), 6)):
                    wrong = after[:p] + (after[p] + rng.choice((1, -1)),) + after[p + 1:]
                    verdict = reduction._step_holds(case, indices, moves[:-1] + [wrong])
                    assert verdict is is_quiddity(Cycle(Z, wrong)) is False
    assert tags == {"T1", "T2", "T3", "T4", "T5"}


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


def test_every_step_rebuilds_exactly():
    # labelling_from_cycle undoes every step of the trace and checks each
    # stage's sums against the step's input; here the first step wraps
    for entries, tag, indices in WRAPPED_STEPS:
        step = reduce_step_Z(Cycle(Z, entries))
        assert (step.case_tag, step.indices) == (tag, indices)
        lab = labelling_from_cycle(Cycle(Z, entries))
        assert cycle_from_labelling(lab).entries == entries
    assert cycle_from_labelling(labelling_from_cycle(Cycle(Z, (1, 1, 1)))).entries == (1, 1, 1)
    # the epsilon engine's windows at index 1, undone on the 2-gon: the two
    # +1-cycles are no quiddity cycles, and their labellings have sign -1
    for entries, eps in (((1, 1, 1), -1), ((0, 0, 0, 0), 1), ((-1, -1, -1), 1)):
        step = reduce_step_epsilon(Cycle(Z, entries), eps)
        assert (step.indices, step.after.entries) == ((1,), (0, 0))
        polygon = _Polygon()
        polygon.glue_back(step.case_tag, step.indices, step.before.entries)
        lab = polygon.labelling()
        assert lab.vertex_sums() == tuple(polygon.sums) == entries
        assert labelling_sign(lab) == -eps


def test_reduction_engines_hold_no_assert():
    # an assert vanishes under python -O; every module of the package,
    # the reduction engines included, checks with raises
    modules = sorted(Path(reduction.__file__).parent.glob("*.py"))
    assert Path(reduction.__file__) in modules and Path(labelling.__file__) in modules
    for path in modules:
        tree = ast.parse(path.read_text())
        found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert found == [], path.name


# each child breaks one step of an engine and must stop on that step's check
BROKEN_UNDER_PYTHON_O = {
    "a contraction with a wrong entry": (
        "from quiddity import reduction\n"
        "from quiddity.cycles import Cycle\n"
        "from quiddity.rings import Z\n"
        "contract = reduction._drop_unit\n"
        "def wrong(entries, k, s):\n"
        "    out = contract(entries, k, s)\n"
        "    return (out[0] + 1,) + out[1:] if s == 1 else out\n"
        "reduction._drop_unit = wrong\n"
        "reduction.reduce_to_base(Cycle(Z, (1, 4, 1, 2, 2, 2)))\n",
        "RuntimeError: case T1 at (1,) gave (4, 1, 2, 2, 1), not a quiddity cycle"),
    "a 0-contraction with a wrong entry": (
        "from quiddity import reduction\n"
        "from quiddity.cycles import Cycle\n"
        "from quiddity.rings import Z\n"
        "contract = reduction._merge_zero\n"
        "def wrong(entries, k):\n"
        "    out = contract(entries, k)\n"
        "    return (out[0] + 1,) + out[1:]\n"
        "reduction._merge_zero = wrong\n"
        "reduction.reduce_to_base(Cycle(Z, (-1, 0, 0, -1, -1)))\n",
        "RuntimeError: case T2 at (2,) gave (0, 1, 1), not a quiddity cycle"),
    "a contraction with a wrong entry outside its window": (
        "from quiddity import reduction\n"
        "from quiddity.cycles import Cycle\n"
        "from quiddity.rings import Z\n"
        "contract = reduction._drop_unit\n"
        "def wrong(entries, k, s):\n"
        "    out = contract(entries, k, s)\n"
        "    return out[:2] + (out[2] + 1,) + out[3:] if s == 1 else out\n"
        "reduction._drop_unit = wrong\n"
        "reduction.reduce_to_base(Cycle(Z, (1, 4, 1, 2, 2, 2)))\n",
        "RuntimeError: case T1 at (1,) gave (3, 1, 3, 2, 1), not a quiddity cycle"),
    "a labelling stage that does not negate": (
        "from quiddity import labelling\n"
        "from quiddity.cycles import Cycle\n"
        "from quiddity.rings import Z\n"
        "labelling._NEGATING_TAGS = frozenset()\n"
        "labelling.labelling_from_cycle(Cycle(Z, (-1, -2, -1, -2)))\n",
        "RuntimeError: undoing T3 at (1,) missed (-1, -2, -1, -2)"),
    "a labelling step that does not negate": (
        "from quiddity import labelling\n"
        "from quiddity.labelling import Labelling, Triangulation, reduce_labelling_step\n"
        "labelling._NEGATES = ()\n"
        "lab = Labelling(Triangulation(4, {(1, 3)}), {(1, 2, 3): -1, (1, 3, 4): -1})\n"
        "reduce_labelling_step(lab)\n",
        "RuntimeError: case TC3 at (2,) left an inadmissible labelling"),
    "a chain step that does not negate": (
        "from quiddity import labelling\n"
        "from quiddity.cycles import Cycle\n"
        "from quiddity.rings import Z\n"
        "labelling._NEGATES = ()\n"
        "lab = labelling.labelling_from_cycle(Cycle(Z, (-1, -2, -1, -2)))\n"
        "labelling.reduce_labelling_step(lab)\n",
        "RuntimeError: case TC3 at (1,) left an inadmissible labelling"),
    "a chain step with a wrong carried count": (
        "from quiddity import labelling\n"
        "from quiddity.cycles import Cycle\n"
        "from quiddity.rings import Z\n"
        "lab = labelling.labelling_from_cycle(Cycle(Z, (1, 3, 1, 3, 1, 3)))\n"
        "after = labelling.reduce_labelling_step(lab).after\n"
        "partition, negative, zero = after._facts\n"
        "object.__setattr__(after, '_facts', (partition, negative + 1, zero))\n"
        "labelling.reduce_labelling_step(after)\n",
        "quiddity.errors.InvalidLabellingError: labelling is not admissible"),
}


@pytest.mark.parametrize("case", sorted(BROKEN_UNDER_PYTHON_O))
def test_step_checks_survive_python_O(child_python, case):
    code, error = BROKEN_UNDER_PYTHON_O[case]
    proc = child_python("-O", "-c", code)
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == error
