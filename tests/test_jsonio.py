"""Serialization: emit -> read -> emit must be the identity on the text."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

import quiddity
from quiddity.cycles import Cycle
from quiddity.enumeration import count_nonzero
from quiddity.errors import UsageError
from quiddity.frieze import frieze_from_cycle
from quiddity.jsonio import (
    cycle_from_json,
    cycle_to_json,
    dumps,
    frieze_fixture_check,
    frieze_to_json,
    labelling_from_json,
    labelling_to_json,
    result_from_json,
    result_to_json,
)
from quiddity.labelling import labelling_from_cycle
from quiddity.rings import Cyclotomic, GaussianInt, Q, Z, Zi, Zzeta6


def roundtrip_text(data, reader, writer):
    text = dumps(data)
    again = dumps(writer(reader(json.loads(text))))
    assert again == text
    return text


@pytest.mark.parametrize("cycle", [
    Cycle(Z, (1, 4, 1, 2, 2, 2)),
    Cycle(Z, (0, 0)),
    Cycle(Zi, (GaussianInt(1, -1), GaussianInt(1, 1), GaussianInt(2),
               GaussianInt(1, -1), GaussianInt(1, 1), GaussianInt(2))),
    Cycle(Q, (Fraction(3), Fraction(2, 3), Fraction(3), Fraction(2, 3))),
])
def test_cycle_roundtrip(cycle):
    roundtrip_text(cycle_to_json(cycle), cycle_from_json, cycle_to_json)
    back = cycle_from_json(cycle_to_json(cycle))
    assert back == cycle


def test_cyclotomic_cycle_roundtrip():
    ring = Cyclotomic(5)
    t = ring.one + ring.zeta
    c = Cycle(ring, (t, ring.exact_div(ring.from_int(2), t)) * 2)
    back = cycle_from_json(cycle_to_json(c))
    assert back == c


def test_cycle_json_shape():
    data = cycle_to_json(Cycle(Zi, (GaussianInt(1, -2), GaussianInt(0, 1))))
    assert data == {"ring": "Zi", "entries": [[1, -2], [0, 1]]}
    data = cycle_to_json(Cycle(Q, (Fraction(3, 4),)))
    assert data == {"ring": "Q", "entries": ["3/4"]}


def test_cycle_json_errors():
    with pytest.raises(UsageError):
        cycle_from_json({"ring": "Z"})
    with pytest.raises(UsageError):
        cycle_from_json({"ring": "Z", "entries": [1], "extra": 0})
    with pytest.raises(UsageError):
        cycle_from_json({"ring": "Z", "entries": []})
    with pytest.raises(UsageError):
        cycle_from_json({"ring": "Z", "entries": ["one"]})
    with pytest.raises(UsageError):
        cycle_from_json({"ring": "Zi", "entries": [3]})
    with pytest.raises(UsageError):
        cycle_from_json({"ring": "Elevenses", "entries": [1]})
    with pytest.raises(UsageError):
        cycle_from_json([1, 2, 3])


def test_labelling_roundtrip():
    lab = labelling_from_cycle(Cycle(Z, (1, 4, 1, 2, 2, 2)))
    text = roundtrip_text(labelling_to_json(lab), labelling_from_json,
                          labelling_to_json)
    back = labelling_from_json(json.loads(text))
    assert back.vertex_sums() == lab.vertex_sums()
    assert back.triangulation.diagonals == lab.triangulation.diagonals


def test_labelling_json_shape():
    lab = labelling_from_cycle(Cycle(Z, (1, 1, 1)))
    data = labelling_to_json(lab)
    assert data["m"] == 3
    assert data["diagonals"] == []
    assert list(data["labels"].values()) == [1]
    key = next(iter(data["labels"]))
    assert [int(p) for p in key.split(",")] == [1, 2, 3]


def test_labelling_json_errors():
    good = labelling_to_json(labelling_from_cycle(Cycle(Z, (1, 1, 1))))
    for mutate in (
        lambda d: d.pop("m"),
        lambda d: d.update(m=True),
        lambda d: d.update(extra=1),
        lambda d: d.update(diagonals="none"),
        lambda d: d.update(labels=[1]),
        lambda d: d.update(labels={"1,2": 1}),
        lambda d: d.update(labels={"a,b,c": 1}),
        # one triangle named twice, and keys that are not the writer's form
        lambda d: d.update(labels={"1,2,3": 5, "2,1,3": 1}),
        lambda d: d.update(labels={" 1,2,3": 1}),
        lambda d: d.update(labels={"+1,2,3": 1}),
        lambda d: d.update(labels={"1,2,0_3": 1}),
        lambda d: d.update(labels={"\uff11,\uff12,\uff13": 1}),
        lambda d: d.update(labels={"3,2,1": 1}),
        lambda d: d.update(labels={5: 1}),
    ):
        data = json.loads(dumps(good))
        mutate(data)
        with pytest.raises(UsageError):
            labelling_from_json(data)


def test_result_roundtrip():
    result = count_nonzero(Zi, 1)
    text = roundtrip_text(result_to_json(result), result_from_json,
                          result_to_json)
    back = result_from_json(json.loads(text))
    assert (back.ring, back.n, back.total) == (Zi, 1, result.total)
    assert [c.entries for c in back.representatives] == \
        [c.entries for c in result.representatives]


def test_result_json_errors():
    data = result_to_json(count_nonzero(Z, 1))
    broken = dict(data)
    del broken["total"]
    with pytest.raises(UsageError):
        result_from_json(broken)
    broken = dict(data)
    broken["extra"] = 1
    with pytest.raises(UsageError):
        result_from_json(broken)
    for bad in ({"representatives": 5}, {"representatives": [5]},
                {"height": "x", "total": 1, "orbit_count": 2}, {"height": True},
                {"total": 1.0}, {"orbit_count": 3}, {"total": 1}):
        with pytest.raises(UsageError):
            result_from_json({**data, **bad})
    # the representatives themselves: (1, 1) is no height-1 quiddity cycle;
    # the orbit of (1, 2, 1, 2) has 2 members, not 4; (2, 1, 2, 1) is not
    # canonical; (1, 1, 1, 1) is not a quiddity cycle; the zero hexagon is a
    # quiddity cycle whose frieze has zeros; then unsorted and repeated lists;
    # and Q has no enumeration
    z_cells = [
        (1, 4, [[1, 1]]), (1, 4, [[1, 2, 1, 2]]), (1, 2, [[2, 1, 2, 1]]),
        (1, 1, [[1, 1, 1, 1]]), (3, 1, [[0] * 6]),
        (1, 4, [[1, 2, 1, 2], [-1, -2, -1, -2]]), (1, 4, [[1, 2, 1, 2], [1, 2, 1, 2]]),
    ]
    for height, total, reps in z_cells:
        bad = {"ring": "Z", "height": height, "total": total,
               "orbit_count": len(reps), "representatives": reps}
        with pytest.raises(UsageError):
            result_from_json(bad)
    for bad in ({"ring": "Q"}, {"height": 0}):
        with pytest.raises(UsageError):
            result_from_json({**data, **bad})
    # what count_nonzero writes still loads, on every discrete ring
    for ring, n in ((Z, 3), (Zi, 2), (Zzeta6, 2)):
        result = count_nonzero(ring, n)
        assert result_from_json(result_to_json(result)) == result


def test_frieze_json_rows_are_interiors():
    f = frieze_from_cycle(Cycle(Z, (1, 4, 1, 2, 2, 2)))
    data = frieze_to_json(f)
    assert data["quiddity"] == [1, 4, 1, 2, 2, 2]
    assert data["rows"][0] == [1, 3, 2]
    assert len(data["rows"]) == 6


def test_stored_fixtures_regenerate():
    root = resources.files("quiddity") / "fixtures"
    names = sorted(p.name for p in root.iterdir() if p.name.endswith(".json"))
    assert names == ["all_zero_hexagon.json", "cc_hexagon.json",
                     "gaussian_period6.json", "octagon_mixed.json",
                     "octagon_positive.json"]
    for name in names:
        data = json.loads((root / name).read_text())
        f = frieze_fixture_check(data)
        assert dumps(frieze_to_json(f)) == dumps(data)


def test_fixture_check_catches_tampering():
    root = resources.files("quiddity") / "fixtures"
    data = json.loads((root / "cc_hexagon.json").read_text())
    data["rows"][0][0] = 99
    with pytest.raises(AssertionError):
        frieze_fixture_check(data)


def test_fixture_check_catches_tampering_under_python_O():
    # -O strips assert statements; the mismatch must raise all the same
    root = resources.files("quiddity") / "fixtures"
    data = json.loads((root / "cc_hexagon.json").read_text())
    data["rows"][0][0] = 999
    src = str(Path(quiddity.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    code = ("import json, sys\n"
            "from quiddity.jsonio import frieze_fixture_check\n"
            "frieze_fixture_check(json.loads(sys.argv[1]))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code, json.dumps(data)],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 1
    assert "AssertionError: regenerated rows disagree" in proc.stderr


def _entries_with(ring: str, n: int) -> list:
    """A two-entry cycle of `ring` in JSON with n as one integer coordinate."""
    return {"Z": [n, 1], "Zi": [[n, 0], [1, 0]], "Zzeta6": [[0, -n], [1, 0]],
            "Zzeta5": [[1, 0, n], [1]]}[ring]


@pytest.mark.parametrize("ring", ["Z", "Zi", "Zzeta6", "Zzeta5"])
def test_integer_past_the_digit_limit_is_a_usage_error(ring):
    # such an int cannot be formatted into a later error message, so the
    # reader refuses it; one digit fewer still reads
    limit = sys.get_int_max_str_digits()
    too_long = {"ring": ring, "entries": _entries_with(ring, 10 ** limit)}
    with pytest.raises(UsageError, match="digits"):
        frieze_from_cycle(cycle_from_json(too_long))
    longest = {"ring": ring, "entries": _entries_with(ring, 10 ** limit - 1)}
    assert cycle_from_json(longest).m == 2
