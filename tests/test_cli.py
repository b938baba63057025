"""End-to-end runs of every CLI verb through click's test runner."""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from conftest import ROW

import quiddity
from quiddity.cli import main
from quiddity.clusters import diagonal_label
from quiddity.cycles import Cycle
from quiddity.frieze import frieze_from_cycle
from quiddity.jsonio import dumps, result_from_json, result_to_json
from quiddity.rings import Z, Zi, Zzeta6, elements_norm_at_most


HEXAGON_JSON = '{"ring": "Z", "entries": [1, 4, 1, 2, 2, 2]}'
ZEROS_JSON = '{"ring": "Z", "entries": [0, 0, 0, 0, 0, 0]}'


@pytest.fixture()
def runner():
    return CliRunner()


def test_verify_cycle_yes(runner):
    result = runner.invoke(main, ["verify-cycle", HEXAGON_JSON])
    assert result.exit_code == 0
    assert result.output == "QUIDDITY: yes\n"


def test_verify_cycle_no(runner):
    result = runner.invoke(main, ["verify-cycle", '{"ring": "Z", "entries": [1, 2, 3]}'])
    assert result.exit_code == 1
    assert result.output == "QUIDDITY: no\n"


def test_verify_cycle_usage_errors(runner):
    result = runner.invoke(main, ["verify-cycle", "not json"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["verify-cycle", '{"ring": "Moonstone", "entries": [1]}'])
    assert result.exit_code == 2


@pytest.mark.parametrize("args", [
    ["verify-cycle", '{"ring": 5, "entries": [1]}'],
    ["verify-cycle", '{"ring": "Zzeta 5", "entries": [1]}'],
    ["verify-frieze", '{"ring": ["Z"], "rows": []}'],
    ["verify-frieze", '{"ring": "Zzeta1_0", "rows": []}'],
])
def test_a_bad_ring_tag_exits_2(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "unknown ring tag" in result.output or "a ring tag is a string" in result.output


def test_frieze_pretty(runner):
    result = runner.invoke(main, ["frieze", "--cycle", HEXAGON_JSON])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert len(lines) == 6
    assert lines[0].split() == ["0", "1", "1", "3", "2", "1", "0"]
    assert lines[1].split() == ["0", "1", "4", "3", "2", "1", "0"]


def test_frieze_json(runner):
    result = runner.invoke(main, ["frieze", "--cycle", HEXAGON_JSON, "--format", "json"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["rows"][0] == [1, 3, 2]


def test_frieze_rejects_non_quiddity(runner):
    result = runner.invoke(main, ["frieze", "--cycle", '{"ring": "Z", "entries": [5, 5]}'])
    assert result.exit_code == 1
    assert "error:" in result.stderr


def test_verify_frieze_ok(runner):
    from quiddity.frieze import frieze_from_cycle

    f = frieze_from_cycle(Cycle(Z, (1, 4, 1, 2, 2, 2)))
    window = {"ring": "Z", "rows": [list(r) for r in f.rows]}
    result = runner.invoke(main, ["verify-frieze", json.dumps(window)])
    assert result.exit_code == 0
    assert result.output == "FRIEZE: ok\n"


def test_verify_frieze_flags_violations(runner):
    from quiddity.frieze import frieze_from_cycle

    f = frieze_from_cycle(Cycle(Z, (1, 4, 1, 2, 2, 2)))
    rows = [list(r) for r in f.rows]
    rows[2][3] = 99
    window = {"ring": "Z", "rows": rows}
    result = runner.invoke(main, ["verify-frieze", json.dumps(window)])
    assert result.exit_code == 1
    assert "sl2 violation" in result.output


def test_verify_frieze_needs_keys(runner):
    result = runner.invoke(main, ["verify-frieze", '{"ring": "Z"}'])
    assert result.exit_code == 2


@pytest.mark.parametrize("window", [
    '{"ring": "Z", "rows": [[1, 2], 3]}',
    '{"ring": "Z", "rows": 5}',
    '{"ring": "Z", "rows": [[1], [1]], "offsets": ["a", 2]}',
    '{"ring": "Z", "rows": [[1], [1]], "offsets": [1, true]}',
    '{"ring": "Z", "rows": [[1], [1]], "offsets": [1]}',
    '{"ring": "Z", "rows": [[1], [1]], "offsets": 1}',
])
def test_verify_frieze_rejects_malformed_window(runner, window):
    result = runner.invoke(main, ["verify-frieze", window])
    assert result.exit_code == 2
    assert "error:" in result.output


def test_transform_expand_one(runner):
    result = runner.invoke(main, [
        "transform", "--cycle", '{"ring": "Z", "entries": [0, 0]}',
        "--rule", "expand-one", "--at", "1"])
    assert result.exit_code == 0
    assert result.output == "cycle=(1, 1, 1)\nsign=+1\n"


def test_transform_contract_zero(runner):
    result = runner.invoke(main, [
        "transform", "--cycle", '{"ring": "Z", "entries": [3, 0, -5]}',
        "--rule", "contract-zero", "--at", "2"])
    assert result.exit_code == 0
    assert result.output == "cycle=(-2)\nsign=-1\n"


def test_transform_shift_zero_with_param(runner):
    result = runner.invoke(main, [
        "transform", "--cycle", '{"ring": "Z", "entries": [0, 2, -2, 0, 2, -2]}',
        "--rule", "shift-zero", "--at", "1", "--param", "5"])
    assert result.exit_code == 0
    assert result.output == "cycle=(0, -3, -2, 0, 2, 3)\n"


def test_transform_scale_alternating_needs_no_position(runner):
    cycle = '{"ring": "Q", "entries": ["3", "2/3", "3", "2/3"]}'
    result = runner.invoke(main, [
        "transform", "--cycle", cycle, "--rule", "scale-alternating",
        "--param", '"1/3"'])
    assert result.exit_code == 0
    assert result.output == "cycle=(1, 2, 1, 2)\n"


def test_transform_json_format_carries_sign(runner):
    result = runner.invoke(main, [
        "transform", "--cycle", '{"ring": "Z", "entries": [0, 0]}',
        "--rule", "expand-minus-one", "--at", "2", "--format", "json"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["entries"] == [-1, -1, -1]
    assert data["sign"] == -1


def test_transform_argument_validation(runner):
    result = runner.invoke(main, [
        "transform", "--cycle", HEXAGON_JSON, "--rule", "expand-one"])
    assert result.exit_code == 2
    result = runner.invoke(main, [
        "transform", "--cycle", HEXAGON_JSON, "--rule", "rescale", "--at", "2"])
    assert result.exit_code == 2
    result = runner.invoke(main, [
        "transform", "--cycle", HEXAGON_JSON, "--rule", "no-such-rule", "--at", "1"])
    assert result.exit_code == 2


def test_transform_inapplicable_rule_is_mathematical_no(runner):
    # entry 1 of the hexagon cycle is 1, not -1
    result = runner.invoke(main, [
        "transform", "--cycle", HEXAGON_JSON,
        "--rule", "contract-minus-one", "--at", "1"])
    assert result.exit_code == 2


def test_transform_errors_print_elements_as_the_cli_does(runner):
    result = runner.invoke(main, [
        "transform", "--rule", "contract-uv", "--at", "2",
        "--cycle", '{"ring": "Zzeta5", "entries": [[1], [2], [3], [4]]}'])
    assert result.exit_code == 2
    assert result.output == "error: -2 / 5 is not exact in Zzeta5\n"


def test_bound_discrete(runner):
    result = runner.invoke(main, ["bound", "--ring", "Zi", "--height", "2"])
    assert result.exit_code == 0
    assert result.output == "B=3 B_sq=9 candidates=28\n"


def test_bound_counts_the_candidate_list(runner):
    # the count is summed from the ball's rows, never built element by element
    for ring in (Z, Zi, Zzeta6):
        for n in range(1, 9):
            result = runner.invoke(main, ["bound", "--ring", ring.tag, "--height", str(n)])
            count = len(elements_norm_at_most(ring, (n + 1) ** 2))
            assert result.output.endswith(f" candidates={count}\n"), (ring, n)
    # Gaussian integers of norm at most 601^2, counted column by column
    result = runner.invoke(main, ["bound", "--ring", "Zi", "--height", "600"])
    assert result.output == "B=601 B_sq=361201 candidates=1134596\n"


def test_bound_field_and_fraction(runner):
    result = runner.invoke(main, ["bound", "--ring", "Q", "--height", "3"])
    assert result.exit_code == 0
    assert result.output == "B=4 B_sq=16\n"
    result = runner.invoke(main, [
        "bound", "--ring", "Z", "--height", "3", "--norm-inf", "2"])
    assert result.output == "B=3/2 B_sq=9/4 candidates=2\n"
    result = runner.invoke(main, [
        "bound", "--ring", "Z", "--height", "1", "--norm-inf", "bogus"])
    assert result.exit_code == 2


@pytest.mark.parametrize("norm_inf", ["1e3000", "1e-3000", "1e-2200"])
def test_bound_past_the_digit_limit_is_a_usage_error(runner, norm_inf):
    # 1e-2200 itself prints, but its B_sq has more than 4300 digits
    result = runner.invoke(main, [
        "bound", "--ring", "Z", "--height", "2", "--norm-inf", norm_inf])
    assert result.exit_code == 2
    assert result.output.startswith("error: number with more than")


def test_bound_refuses_a_ball_of_too_many_rows(child_python):
    # B = 2e9 gives 4e9 + 1 rows over Z[i]; walking them took minutes
    proc = child_python("-m", "quiddity", "bound", "--ring", "Zi", "--height", "1",
                        "--norm-inf", "1e-9", timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: the ball of norm at most B_sq=4000000000000000000 ")


def test_reduce_trace(runner):
    result = runner.invoke(main, [
        "reduce", "--cycle", '{"ring": "Z", "entries": [0, 2, -2, 0, 2, -2]}'])
    assert result.exit_code == 0
    assert result.output == (
        "T4 at (1, 4): (0, 2, -2, 0, 2, -2) -> (0, 0)\n"
        "end: (0, 0)\n")


def test_reduce_rejects_certify(runner):
    # reduce_to_base checks every step with a raise, so there is no flag
    result = runner.invoke(main, [
        "reduce", "--cycle", '{"ring": "Z", "entries": [-1, -1, 0, 0, -1]}',
        "--certify"])
    assert result.exit_code == 2
    assert "--certify" in result.output


def test_reduce_rejects_non_quiddity(runner):
    result = runner.invoke(main, [
        "reduce", "--cycle", '{"ring": "Z", "entries": [4, 4]}'])
    assert result.exit_code == 1


def test_cycle_to_label_pretty(runner):
    result = runner.invoke(main, ["cycle-to-label", '{"ring": "Z", "entries": [1, 1, 1]}'])
    assert result.exit_code == 0
    assert result.output == (
        "m=3\n"
        "diagonals: (none)\n"
        "triangle (1, 2, 3): 1\n")


def test_label_round_trip_through_cli(runner):
    result = runner.invoke(main, ["cycle-to-label", HEXAGON_JSON, "--format", "json"])
    assert result.exit_code == 0
    back = runner.invoke(main, ["label-to-cycle", result.output.strip()])
    assert back.exit_code == 0
    assert back.output == "cycle=(1, 4, 1, 2, 2, 2)\n"


@pytest.mark.parametrize("diagonals", [[[1, 3, 4], [1, 4]], [5, [1, 4]], [["a", "b"], [1, 4]]])
def test_label_to_cycle_rejects_malformed_diagonals(runner, diagonals):
    lab = {"m": 5, "diagonals": diagonals, "labels": {}}
    result = runner.invoke(main, ["label-to-cycle", json.dumps(lab)])
    assert result.exit_code == 2
    assert "a diagonal is a pair of integer vertices" in result.output


@pytest.mark.parametrize("verb, text", [
    ("verify-cycle", '{"ring": "Z", "entries": [5], "entries": [1, 1, 1]}'),
    ("verify-frieze", '{"ring": "Z", "rows": [[1, 1]], "rows": [[1]]}'),
    ("label-to-cycle", '{"m": 3, "diagonals": [], "labels": {"1,2,3": 5, "1,2,3": 1}}'),
])
def test_a_repeated_json_key_exits_2(runner, verb, text):
    result = runner.invoke(main, [verb, text])
    assert result.exit_code == 2
    assert "repeats the key" in result.output


def test_label_to_cycle_inadmissible(runner):
    lab = {"m": 4, "diagonals": [[1, 3]], "labels": {"1,2,3": 5, "1,3,4": -5}}
    result = runner.invoke(main, ["label-to-cycle", json.dumps(lab)])
    assert result.exit_code == 1
    assert result.output == "ADMISSIBLE: no\n"


def test_cluster_pretty(runner):
    result = runner.invoke(main, ["cluster", "--cycle", HEXAGON_JSON])
    assert result.exit_code == 0
    for line in result.output.splitlines():
        assert " = " in line and line.startswith("(")


def test_cluster_none_for_all_zero(runner):
    result = runner.invoke(main, ["cluster", "--cycle", ZEROS_JSON])
    assert result.exit_code == 1
    assert result.output == "NONE\n"


def test_cluster_json(runner):
    result = runner.invoke(main, ["cluster", "--cycle", HEXAGON_JSON, "--format", "json"])
    data = json.loads(result.output)
    assert set(data) == {"diagonals", "labels"}
    assert len(data["diagonals"]) == 3


def _conway_coxeter(m: int, seed: int) -> list:
    # triangle counts at the vertices of a random triangulation, built by
    # gluing m - 3 ears onto a triangle
    rng = random.Random(seed)
    entries = [1, 1, 1]
    while len(entries) < m:
        p = rng.randrange(len(entries))
        entries[p] += 1
        entries[(p + 1) % len(entries)] += 1
        entries.insert(p + 1, 1)
    return entries


@pytest.mark.parametrize("entries", [_conway_coxeter(200, 1), [1] * 201],
                         ids=["conway_coxeter_200", "all_ones_201"])
def test_cluster_json_at_large_m(runner, entries):
    m = len(entries)
    cycle_json = json.dumps({"ring": "Z", "entries": entries})
    result = runner.invoke(main, ["cluster", "--cycle", cycle_json, "--format", "json"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    f = frieze_from_cycle(Cycle(Z, tuple(entries)))
    diagonals = [tuple(d) for d in data["diagonals"]]
    assert len(set(diagonals)) == m - 3
    assert set(data["labels"]) == {f"{i},{j}" for i, j in diagonals}
    for i, j in diagonals:
        label = data["labels"][f"{i},{j}"]
        assert label != 0
        assert label == diagonal_label(f, i, j)
    if entries == [1] * 201:
        # the all-ones frieze vanishes on gaps divisible by 3
        assert all((j - i) % 3 != 0 for i, j in diagonals)


def test_enumerate_table(runner):
    result = runner.invoke(main, ["enumerate", "--ring", "Zi", "--height", "2"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    total, orbits = str(ROW["Zi", 2]["total"]), str(ROW["Zi", 2]["orbits"])
    assert lines[0] == f"total={total} orbits={orbits}"
    assert lines[1] == ""
    assert lines[2].split() == ["ring", "height", "cycles", "orbits"]
    assert lines[3].split() == ["Zi", "2", total, orbits]


def test_enumerate_without_orbit_flag(runner):
    # the first line always carries the orbit count, so no flag asks for it
    result = runner.invoke(main, ["enumerate", "--ring", "Z", "--height", "1"])
    row = ROW["Z", 1]
    assert result.output.splitlines()[0] == f"total={row['total']} orbits={row['orbits']}"
    result = runner.invoke(main, ["enumerate", "--ring", "Z", "--height", "1", "--orbits"])
    assert result.exit_code == 2


def test_enumerate_json_round_trip(runner):
    result = runner.invoke(main, [
        "enumerate", "--ring", "Z", "--height", "3", "--format", "json"])
    assert result.exit_code == 0
    text = dumps(result_to_json(result_from_json(json.loads(result.output))))
    assert text + "\n" == result.output
    # the cell table hashes exactly this text
    assert hashlib.sha256(text.encode()).hexdigest() == ROW["Z", 3]["sha256"]


def test_enumerate_out_file(runner, tmp_path):
    out = tmp_path / "result.json"
    result = runner.invoke(main, [
        "enumerate", "--ring", "Z", "--height", "2", "--out", str(out)])
    assert result.exit_code == 0
    parsed = result_from_json(json.loads(out.read_text()))
    assert parsed.total == ROW["Z", 2]["total"]


def test_enumerate_kernel_choice_and_jobs(runner):
    one = runner.invoke(main, [
        "enumerate", "--ring", "Z", "--height", "3", "--jobs", "1"])
    two = runner.invoke(main, [
        "enumerate", "--ring", "Z", "--height", "3", "--jobs", "2"])
    assert one.exit_code == 0
    assert one.output == two.output
    gone = runner.invoke(main, [
        "enumerate", "--ring", "Z", "--height", "3", "--kernel", "pure"])
    assert gone.exit_code == 2
    assert "No such option" in gone.output


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_enumerate_jobs_below_one_exits_2(runner, jobs):
    result = runner.invoke(main, ["enumerate", "--ring", "Z", "--height", "2", "--jobs", jobs])
    assert result.exit_code == 2
    assert "jobs must be at least 1" in result.output


def test_enumerate_height_above_kernel_depth_exits_2(runner):
    result = runner.invoke(main, ["enumerate", "--ring", "Z", "--height", "17"])
    assert result.exit_code == 2
    assert "height must be at most 16" in result.output


def test_enumerate_rejects_bad_ring(runner):
    result = runner.invoke(main, ["enumerate", "--ring", "Q", "--height", "1"])
    assert result.exit_code == 2


def test_unit_family_listing(runner):
    result = runner.invoke(main, [
        "unit-family", "--ring", "Z", "--height", "3", "--count", "5"])
    assert result.exit_code == 0
    assert result.output == (
        "t=1 cycle=(3, 1, 2, 3, 1, 2)\n"
        "t=2 cycle=(4, 1, 2, 2, 2, 1)\n")


@pytest.mark.parametrize("ring, height", [("Zzeta10", 3), ("Zzeta14", 5)])
def test_unit_family_has_count_members_over_cyclotomic_rings(runner, ring, height):
    result = runner.invoke(main, ["unit-family", "--ring", ring, "--height", str(height)])
    assert result.exit_code == 0
    assert len(result.output.splitlines()) == 5


def test_unit_family_json(runner):
    result = runner.invoke(main, [
        "unit-family", "--ring", "Zzeta5", "--height", "1", "--count", "3",
        "--format", "json"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert len(data) == 3
    assert all(set(item) == {"t", "cycle"} for item in data)


def test_examples_all_ok(runner):
    result = runner.invoke(main, ["examples"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert len(lines) == 5
    assert all(line.endswith(": OK") for line in lines)


def test_module_entry_point():
    # the child imports the same quiddity as this process, wherever pytest
    # found it, so its src directory goes first on the child's path
    src = str(Path(quiddity.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-m", "quiddity", "--help"],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0
    assert "frieze" in proc.stdout


def test_integer_past_the_digit_limit_is_a_usage_error(runner):
    big = "7" * (sys.get_int_max_str_digits() + 700)
    result = runner.invoke(main, ["verify-cycle", f'{{"ring": "Z", "entries": [{big}, 1]}}'])
    assert result.exit_code == 2
    assert result.output.startswith("error: bad cycle JSON")


def test_rational_past_the_digit_limit_is_a_usage_error(runner):
    # Fraction("1e5000") parses, but its numerator has too many digits to print
    exponent = sys.get_int_max_str_digits() + 700
    for entries in (f'["1e{exponent}", "1"]', f'[["1", "1e-{exponent}"], ["0", "1"]]'):
        ring = "Q" if entries.startswith('["') else "Qi"
        result = runner.invoke(main, [
            "frieze", "--cycle", f'{{"ring": "{ring}", "entries": {entries}}}'])
        assert result.exit_code == 2, (ring, result.exception)
        assert "digits" in result.output
