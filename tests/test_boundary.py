"""Bad input at the boundary: a seeded fuzz of every CLI verb, and the odd
plain arguments that once raised a raw error from the library.

The CLI contract is that every input exits 0, 1 or 2 and that no exception
escapes a verb.  The fuzz feeds malformed JSON, well-formed cycles over six
rings (quiddity or not), bad ring tags, heights, positions, parameters and
formats, all drawn from one fixed seed, so a failure replays exactly.
"""

import json
import random
from fractions import Fraction

import pytest
from click.testing import CliRunner

from quiddity.bounds import candidate_entries
from quiddity.cli import _RULES, main
from quiddity.cycles import Cycle, continuant
from quiddity.errors import UsageError
from quiddity.frieze import FriezeWindow, frieze_from_cycle
from quiddity.labelling import cc_quiddity, enumerate_triangulations
from quiddity.rings import (
    Cyclotomic,
    Q,
    Qi,
    Z,
    Zi,
    Zzeta6,
    count_norm_at_most,
    elements_norm_at_most,
    ring_from_tag,
)
from quiddity.transforms import conjugate_diag, rescale_lambda, scale_alternating

RINGS = ("Z", "Zi", "Zzeta6", "Q", "Qi", "Zzeta5")
BAD_TAGS = ("Moonstone", "zi", "Zzeta0", "Zzeta", "Zzeta05", "Zzeta-5", "Zzeta 5", "Zzeta201", "",
            5, None, ["Z"])
JUNK = ("", "{", "[]", "null", "true", "5", '"Z"', "{}", '{"ring": "Z"}',
        '{"entries": [1, 2]}', '{"ring": "Z", "entries": []}',
        '{"ring": "Z", "entries": [true, 1]}', '{"ring": "Z", "entries": 5}',
        '{"ring": "Zi", "entries": [[1]]}', '{"ring": "Q", "entries": ["1/0"]}',
        '{"ring": "Z", "entries": [1.5, 2]}', '{"ring": "Z", "entries": [1], "x": 0}',
        '{"ring": "Z", "entries": [' + "9" * 5000 + "]}", "[1, 2, 3]", "é")


def pick(rng, good, bad, p_bad=0.15):
    return rng.choice(bad if rng.random() < p_bad else good)


def element(rng, tag, a=None):
    """A JSON element of ring `tag`: the integer a embedded, or a small
    random element when a is None."""
    if a is None:
        a = rng.randint(-3, 3)
        b = rng.randint(-2, 2)
    else:
        b = 0
    if tag == "Z":
        return a
    if tag == "Q":
        return a if b == 0 else f"{a}/{abs(b) + 1}"
    if tag in ("Zi", "Zzeta6"):
        return [a, b]
    if tag == "Qi":
        return [a, f"{b}/{rng.randint(1, 3)}"]
    return [a, b, 0, rng.randint(-1, 1)][:rng.randint(1, 4)]


def cycle_json(rng, glued_cycle, tags=RINGS):
    """A cycle argument: mostly a well-formed cycle over one of `tags`, a
    quiddity one more than half of the time, else malformed JSON or a bad
    tag."""
    roll = rng.random()
    if roll < 0.1:
        return rng.choice(JUNK)
    if roll < 0.15:
        return json.dumps({"ring": rng.choice(BAD_TAGS), "entries": [1, 2]})
    tag = rng.choice(tags)
    if roll < 0.7:
        entries = [element(rng, tag, a) for a in glued_cycle(rng, rng.randint(3, 9))]
    else:
        entries = [element(rng, tag) for _ in range(rng.randint(1, 6))]
    return json.dumps({"ring": tag, "entries": entries})


def window_json(rng, glued_cycle):
    """A verify-frieze argument: the rows of an integer frieze over one of
    the rings, sometimes with an entry changed or the offsets moved."""
    if rng.random() < 0.15:
        return rng.choice(JUNK + ('{"ring": "Z", "rows": [1, 2]}',
                                  '{"ring": "Z", "rows": [[1]], "offsets": 1}',
                                  '{"ring": "Z", "rows": [[1]], "offsets": ["a"]}'))
    tag = rng.choice(RINGS)
    m = rng.randint(3, 7)
    rows = [[element(rng, tag, a) for a in row]
            for row in frieze_from_cycle(Cycle(Z, glued_cycle(rng, m))).rows]
    if rng.random() < 0.4:
        rows[rng.randrange(m)][rng.randrange(m + 1)] = element(rng, tag)
    data = {"ring": tag, "rows": rows}
    if rng.random() < 0.5:
        data["offsets"] = [rng.randint(-1, 1) + k for k in range(m)]
    return json.dumps(data)


def labelling_json(rng, runner, glued_cycle):
    """A label-to-cycle argument: the labelling cycle-to-label prints for an
    integer quiddity cycle, sometimes with a label, m or the diagonals
    spoilt."""
    out = runner.invoke(main, ["cycle-to-label", "--format", "json",
                               json.dumps({"ring": "Z", "entries":
                                           list(glued_cycle(rng, rng.randint(3, 8)))})])
    data = json.loads(out.output)
    roll = rng.random()
    if roll < 0.2:
        key = rng.choice(sorted(data["labels"]))
        data["labels"][key] = rng.choice([2, -1, 0, "1", None, 1.5])
    elif roll < 0.3:
        data["m"] = rng.choice([0, -1, "5", data["m"] + 1])
    elif roll < 0.4:
        data["diagonals"] = rng.choice([[[1, 1]], [[0, 2]], "x", [[1, 3, 4]]])
    elif roll < 0.5:
        return rng.choice(JUNK)
    return json.dumps(data)


VERBS = ("verify-cycle", "frieze", "verify-frieze", "transform", "bound", "reduce",
         "cycle-to-label", "label-to-cycle", "cluster", "enumerate", "unit-family")


def invocation(rng, runner, glued_cycle):
    """The arguments of one seeded CLI call."""
    verb = rng.choice(VERBS)
    fmt = ["--format", pick(rng, ("json", "pretty"), ("xml",))] if rng.random() < 0.5 else []
    height = pick(rng, ("1", "2"), ("-1", "0", "x", "2.5"))
    tag = pick(rng, RINGS, BAD_TAGS)
    if verb == "verify-cycle":
        return [verb, cycle_json(rng, glued_cycle)]
    if verb == "frieze":
        return [verb, "--cycle", cycle_json(rng, glued_cycle), *fmt]
    if verb in ("reduce", "cluster", "cycle-to-label"):
        # these take integer cycles; other rings are refused with exit 2
        cycle = cycle_json(rng, glued_cycle, ("Z",) * 5 + RINGS)
        if verb == "cycle-to-label":
            return [verb, *fmt, cycle]
        return [verb, "--cycle", cycle] + (fmt if verb == "cluster" else [])
    if verb == "verify-frieze":
        return [verb, window_json(rng, glued_cycle)]
    if verb == "label-to-cycle":
        return [verb, *fmt, labelling_json(rng, runner, glued_cycle)]
    if verb == "transform":
        args = [verb, "--cycle", cycle_json(rng, glued_cycle),
                "--rule", pick(rng, sorted(_RULES), ("flip",))]
        if rng.random() < 0.9:
            args += ["--at", pick(rng, ("1", "2", "3", "5"), ("-1", "0", "9", "x"))]
        if rng.random() < 0.6:
            args += ["--param", json.dumps(element(rng, rng.choice(RINGS)))
                     if rng.random() < 0.9 else rng.choice(JUNK)]
        return args + fmt
    if verb == "bound":
        return [verb, "--ring", str(tag), "--height", pick(rng, ("1", "2", "3", "4"), ("-1", "x")),
                "--norm-inf", pick(rng, ("1", "1/2", "2", "3/4"), ("0", "-1", "x", "1/0", "true"))]
    if verb == "enumerate":
        # one job only: the fuzz must never start worker processes
        return [verb, "--ring", str(tag), "--height", height,
                "--jobs", pick(rng, ("1",), ("0", "-1", "x")), *fmt]
    return [verb, "--ring", pick(rng, ("Zzeta5", "Zzeta7", "Q", "Qi") + RINGS[:3], BAD_TAGS[:5]),
            "--height", height, "--count", pick(rng, ("1", "2", "3"), ("0", "-1", "x")), *fmt]


@pytest.mark.parametrize("tag", BAD_TAGS, ids=repr)
def test_every_bad_tag_is_refused(tag):
    # so that the fuzz's bad-tag draws hold no good tag
    with pytest.raises(UsageError):
        ring_from_tag(tag)


def test_every_verb_exits_0_1_or_2_on_fuzzed_input(glued_cycle):
    rng = random.Random(2609)
    runner = CliRunner()
    codes = {}
    for _ in range(2500):
        args = invocation(rng, runner, glued_cycle)
        result = runner.invoke(main, args)
        assert result.exit_code in (0, 1, 2), (args, result.output)
        assert result.exception is None or isinstance(result.exception, SystemExit), \
            (args, result.exception)
        codes.setdefault(args[0], set()).add(result.exit_code)
    result = runner.invoke(main, ["examples"])
    assert result.exit_code == 0 and result.exception is None
    # the draw reaches every verb, and every verb both answers and refuses
    assert set(codes) == set(VERBS)
    assert all({0, 2} <= seen for seen in codes.values()), codes


def _empty_window_rows():
    return frieze_from_cycle(Cycle(Z, (1, 2, 2, 1, 3))).window(1, -1)


# Each call once raised a raw TypeError, ValueError or AttributeError.
USAGE_ERRORS = {
    "window row not a sequence": lambda: FriezeWindow(Z, (1, 2), (1, 2)),
    "window rows not a sequence": lambda: FriezeWindow(Z, 5, (1,)),
    "negative window row count": _empty_window_rows,
    "cc_quiddity of a tuple": lambda: cc_quiddity((1, 2)),
    # 208,012 triangulations, and a count past any memory, refused unbuilt
    "triangulations of a 14-gon": lambda: enumerate_triangulations(14),
    "triangulations of a 2000-gon": lambda: enumerate_triangulations(2000),
    "string ball bound": lambda: count_norm_at_most(Z, "3"),
    "bool ball bound": lambda: count_norm_at_most(Zi, True),
    "string ball bound, elements": lambda: elements_norm_at_most(Z, "x"),
    "nan ball bound": lambda: elements_norm_at_most(Zi, float("nan")),
    # the balls of 314,221,672 and 200,000,000 elements, refused unbuilt
    "candidates past the element cap": lambda: candidate_entries(Zi, 10 ** 4),
    "one-row ball past the element cap": lambda: elements_norm_at_most(Z, 10 ** 16),
    "cycle of an int": lambda: Cycle(Z, 5),
    "cycle of None": lambda: Cycle(Zi, None),
    "continuant of an int": lambda: continuant(Z, 5),
    "short conjugation window": lambda: conjugate_diag(Z, (1, 2), 1),
    "long conjugation window": lambda: conjugate_diag(Z, (1, 2, 3, 4), 1),
    "conjugation window of an int": lambda: conjugate_diag(Z, 5, 1),
    # exact_div takes two of the ring's elements as they are; Q once
    # returned the float 0.5 here and Z returned None for a float
    "exact_div of ints over Zi": lambda: Zi.exact_div(1, 2),
    "exact_div of ints over Qi": lambda: Qi.exact_div(1, 2),
    "exact_div across cyclotomic rings": lambda: Cyclotomic(5).exact_div(Cyclotomic(7).one,
                                                                         Cyclotomic(5).one),
    "exact_div of ints over Q": lambda: Q.exact_div(1, 2),
    "exact_div of a float over Z": lambda: Z.exact_div(1.5, 1),
}


@pytest.mark.parametrize("call", list(USAGE_ERRORS.values()), ids=list(USAGE_ERRORS))
def test_odd_plain_arguments_raise_usage_error(call):
    with pytest.raises(UsageError):
        call()


class SubInt(int):
    pass


class SubFraction(Fraction):
    pass


def test_subclass_elements_divide_like_their_base():
    # check_element passes a subclass of int or Fraction through unchanged,
    # so exact_div, and the transforms that divide, take it too
    assert Z.exact_div(SubInt(6), SubInt(-3)) == -2
    assert Q.exact_div(SubFraction(1), SubFraction(2)) == Fraction(1, 2)
    c = Cycle(Z, tuple(SubInt(x) for x in (1, 2, 1, 2)))
    assert scale_alternating(c, SubInt(-1)).entries == (-1, -2, -1, -2)
    c = Cycle(Q, tuple(SubFraction(x) for x in (1, 2, 1, 2)))
    assert scale_alternating(c, SubFraction(3)).entries == (3, Fraction(2, 3), 3, Fraction(2, 3))
    assert rescale_lambda(c, 2, SubFraction(2)) == rescale_lambda(
        Cycle(Q, tuple(Fraction(x) for x in (1, 2, 1, 2))), 2, Fraction(2))


@pytest.mark.parametrize("ring", [Z, Zi, Zzeta6], ids=lambda r: r.tag)
@pytest.mark.parametrize("bound", [-1, -5, Fraction(-1, 2), -0.5])
def test_a_negative_ball_bound_gives_the_empty_ball(ring, bound):
    assert count_norm_at_most(ring, bound) == 0
    assert elements_norm_at_most(ring, bound) == []
