"""Command-line front end.

Every verb is a pure mapping from its inputs to a deterministic output
stream.  Exit codes: 0 for success, 1 for a mathematical negative (the
input is well-formed but the answer is "no" or "none"), 2 for usage
errors such as malformed JSON or unknown ring tags.
"""

from __future__ import annotations

import functools
import importlib.resources
import json
import sys

import click

from quiddity import enumeration, jsonio
from quiddity.bounds import quiddity_bound
from quiddity.clusters import find_zero_free_cluster
from quiddity.cycles import Cycle, is_quiddity
from quiddity.errors import InvalidCycleError, QuiddityError, UsageError
from quiddity.frieze import FriezeWindow, frieze_from_cycle, verify
from quiddity.labelling import cycle_from_labelling, is_admissible, labelling_from_cycle
from quiddity.reduction import reduce_to_base
from quiddity.rings import _printable, _rational_from_json, count_norm_at_most, ring_from_tag
from quiddity import transforms

__all__ = ["main"]


def _guard(fn):
    """Map library errors onto the documented exit codes."""

    @functools.wraps(fn)
    def inner(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except InvalidCycleError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
        except QuiddityError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)

    return inner


def _load_json(text: str, what: str):
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # malformed, or an int past the digit limit
        raise UsageError(f"bad {what} JSON: {exc}") from None


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict, refusing a repeated key, which `json.loads`
    would silently resolve to its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise UsageError(f"a JSON object repeats the key {key!r}")
        obj[key] = value
    return obj


def _cycle_from_arg(text: str) -> Cycle:
    return jsonio.cycle_from_json(_load_json(text, "cycle"))


_format_option = click.option(
    "--format", "fmt", type=click.Choice(["pretty", "json"]), default="pretty",
    help="Output style.", show_default=True,
)


@click.group()
def main():
    """Frieze patterns and quiddity cycles over exact subrings of C."""


@main.command("verify-cycle")
@click.argument("cycle_json")
@_guard
def verify_cycle(cycle_json):
    """Check whether CYCLE_JSON is a quiddity cycle."""
    cycle = _cycle_from_arg(cycle_json)
    if is_quiddity(cycle):
        click.echo("QUIDDITY: yes")
    else:
        click.echo("QUIDDITY: no")
        sys.exit(1)


@main.command("frieze")
@click.option("--cycle", "cycle_json", required=True, help="Cycle as JSON.")
@_format_option
@_guard
def frieze_cmd(cycle_json, fmt):
    """Print one period of the frieze pattern of a quiddity cycle."""
    f = frieze_from_cycle(_cycle_from_arg(cycle_json))
    if fmt == "json":
        click.echo(jsonio.dumps(jsonio.frieze_to_json(f)))
    else:
        click.echo(f.window().render())


@main.command("verify-frieze")
@click.argument("window_json")
@_guard
def verify_frieze(window_json):
    """Check the determinant conditions on a staircase array.

    Input: {"ring": tag, "rows": [[...], ...], "offsets": [...]} where
    offsets give each row's starting column; omitted offsets default to
    the staircase 1, 2, 3, ...
    """
    data = _load_json(window_json, "window")
    if not isinstance(data, dict) or "ring" not in data or "rows" not in data:
        raise UsageError("window JSON needs 'ring' and 'rows'")
    ring = ring_from_tag(data["ring"])
    if not isinstance(data["rows"], list) or not all(isinstance(r, list) for r in data["rows"]):
        raise UsageError("'rows' must be a list of lists")
    rows = tuple(
        tuple(ring.element_from_json(x) for x in row) for row in data["rows"]
    )
    offsets = data.get("offsets", list(range(1, len(rows) + 1)))
    if not isinstance(offsets, list):
        raise UsageError("'offsets' must be a list of integers, one per row")
    report = verify(FriezeWindow(ring, rows, tuple(offsets)))
    if report.sl2_ok and report.tame_ok:
        click.echo("FRIEZE: ok")
    else:
        for kind, r, c in report.failures:
            click.echo(f"FRIEZE: {kind} violation at row {r}, column {c}")
        sys.exit(1)


_RULES = {
    "expand-one": (transforms.expand_one, False),
    "contract-one": (transforms.contract_one, False),
    "expand-minus-one": (transforms.expand_minus_one, False),
    "contract-minus-one": (transforms.contract_minus_one, False),
    "contract-zero": (transforms.contract_zero, False),
    "contract-uv": (transforms.contract_uv, False),
    "rescale": (transforms.rescale_lambda, True),
    "shift-zero": (transforms.shift_zero, True),
    "scale-alternating": (transforms.scale_alternating, True),
}


@main.command("transform")
@click.option("--cycle", "cycle_json", required=True, help="Cycle as JSON.")
@click.option("--rule", required=True, type=click.Choice(sorted(_RULES)))
@click.option("--at", "position", type=int, help="1-based position.")
@click.option("--param", help="Ring element as JSON, for rules that take one.")
@_format_option
@_guard
def transform_cmd(cycle_json, rule, position, param, fmt):
    """Apply one local rewriting rule to a cycle."""
    cycle = _cycle_from_arg(cycle_json)
    fn, needs_param = _RULES[rule]
    args = [cycle]
    if rule != "scale-alternating":
        if position is None:
            raise UsageError(f"rule {rule} needs --at")
        args.append(position)
    if needs_param:
        if param is None:
            raise UsageError(f"rule {rule} needs --param")
        args.append(cycle.ring.element_from_json(_load_json(param, "param")))
    result = fn(*args)
    sign = None
    if isinstance(result, transforms.SignedCycle):
        sign = result.sign
        result = result.cycle
    if fmt == "json":
        data = jsonio.cycle_to_json(result)
        if sign is not None:
            data["sign"] = sign
        click.echo(jsonio.dumps(data))
    else:
        click.echo(f"cycle={result}")
        if sign is not None:
            click.echo(f"sign={sign:+d}")


@main.command("bound")
@click.option("--ring", "tag", required=True, help="Ring tag, e.g. Z, Zi, Zzeta6.")
@click.option("--height", "n", required=True, type=int)
@click.option("--norm-inf", "m_inf", default="1", show_default=True,
              help="Lower bound M for nonzero norms, as a rational.")
@_guard
def bound_cmd(tag, n, m_inf):
    """Print the entry bound and the size of the candidate entry set."""
    ring = ring_from_tag(tag)
    B = quiddity_bound(_rational_from_json(m_inf), n)
    B_sq = B * B
    # B_sq's numerator and denominator are B's squared: if they print, B does
    _printable(B_sq.numerator)
    _printable(B_sq.denominator)
    line = f"B={B} B_sq={B_sq}"
    if ring.is_discrete:
        line += f" candidates={count_norm_at_most(ring, B_sq)}"
    click.echo(line)


@main.command("reduce")
@click.option("--cycle", "cycle_json", required=True, help="Cycle as JSON.")
@_guard
def reduce_cmd(cycle_json):
    """Reduce an integer quiddity cycle to (0, 0), printing the trace."""
    cycle = _cycle_from_arg(cycle_json)
    trace = reduce_to_base(cycle)
    for step in trace.steps:
        click.echo(f"{step.case_tag} at {step.indices}: {step.before} -> {step.after}")
    click.echo(f"end: {trace.end}")


@main.command("cycle-to-label")
@click.argument("cycle_json")
@_format_option
@_guard
def cycle_to_label(cycle_json, fmt):
    """Build an admissible triangle labelling realizing an integer cycle."""
    lab = labelling_from_cycle(_cycle_from_arg(cycle_json))
    if fmt == "json":
        click.echo(jsonio.dumps(jsonio.labelling_to_json(lab)))
    else:
        diags = " ".join(f"({i},{j})" for i, j in sorted(lab.triangulation.diagonals))
        click.echo(f"m={lab.m}")
        click.echo(f"diagonals: {diags or '(none)'}")
        for tri, val in sorted(lab.labels.items()):
            click.echo(f"triangle {tri}: {val}")


@main.command("label-to-cycle")
@click.argument("labelling_json")
@_format_option
@_guard
def label_to_cycle(labelling_json, fmt):
    """Vertex sums of an admissible labelling, as a quiddity cycle."""
    lab = jsonio.labelling_from_json(_load_json(labelling_json, "labelling"))
    if not is_admissible(lab):
        click.echo("ADMISSIBLE: no")
        sys.exit(1)
    cycle = cycle_from_labelling(lab)
    if fmt == "json":
        click.echo(jsonio.dumps(jsonio.cycle_to_json(cycle)))
    else:
        click.echo(f"cycle={cycle}")


@main.command("cluster")
@click.option("--cycle", "cycle_json", required=True, help="Cycle as JSON.")
@_format_option
@_guard
def cluster_cmd(cycle_json, fmt):
    """Find a triangulation whose diagonals all carry nonzero frieze entries."""
    cycle = _cycle_from_arg(cycle_json)
    found = find_zero_free_cluster(cycle)
    if found is None:
        click.echo("NONE")
        sys.exit(1)
    ring = cycle.ring
    if fmt == "json":
        data = {
            "diagonals": sorted([i, j] for i, j in found.triangulation.diagonals),
            "labels": {
                f"{i},{j}": ring.element_to_json(found.labels[(i, j)])
                for i, j in sorted(found.labels)
            },
        }
        click.echo(jsonio.dumps(data))
    else:
        for i, j in sorted(found.labels):
            click.echo(f"({i},{j}) = {found.labels[(i, j)]}")


@main.command("enumerate")
@click.option("--ring", "tag", required=True, help="Ring tag, e.g. Z, Zi, Zzeta6.")
@click.option("--height", "n", required=True, type=int)
@click.option("--jobs", default=1, show_default=True, type=int)
@click.option("--out", "out_path", type=click.Path(dir_okay=False, writable=True),
              help="Also write the full result as JSON to this file.")
@_format_option
@_guard
def enumerate_cmd(tag, n, jobs, out_path, fmt):
    """Count all quiddity cycles of one height with zero-free friezes."""
    ring = ring_from_tag(tag)
    result = enumeration.count_nonzero(ring, n, jobs=jobs)
    if fmt == "json":
        click.echo(jsonio.dumps(jsonio.result_to_json(result)))
    else:
        click.echo(f"total={result.total} orbits={result.orbit_count}")
        click.echo()
        click.echo(f"{'ring':<8}{'height':>7}{'cycles':>8}{'orbits':>8}")
        click.echo(f"{ring.tag:<8}{n:>7}{result.total:>8}{result.orbit_count:>8}")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(jsonio.dumps(jsonio.result_to_json(result)) + "\n")


@main.command("unit-family")
@click.option("--ring", "tag", required=True, help="Ring tag, e.g. Zzeta5.")
@click.option("--height", "n", required=True, type=int)
@click.option("--count", "how_many", default=5, show_default=True, type=int)
@_format_option
@_guard
def unit_family_cmd(tag, n, how_many, fmt):
    """List members of the divisor-of-2 family of quiddity cycles."""
    ring = ring_from_tag(tag)
    members = enumeration.unit_family(ring, n, how_many)
    if fmt == "json":
        data = [
            {"t": ring.element_to_json(t), "cycle": jsonio.cycle_to_json(c)["entries"]}
            for t, c in members
        ]
        click.echo(jsonio.dumps(data))
    else:
        for t, c in members:
            click.echo(f"t={t} cycle={c}")


@main.command("examples")
@_guard
def examples_cmd():
    """Regenerate every stored example frieze and diff against its fixture."""
    root = importlib.resources.files("quiddity") / "fixtures"
    names = sorted(p.name for p in root.iterdir() if p.name.endswith(".json"))
    failed = False
    for name in names:
        data = json.loads((root / name).read_text())
        try:
            jsonio.frieze_fixture_check(data)
        except AssertionError:
            click.echo(f"{name}: DIFF")
            failed = True
        else:
            click.echo(f"{name}: OK")
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
