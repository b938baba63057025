"""README's examples run as written: the Python tour as a doctest, and each
`$ quiddity ...` line of its console blocks through the command, whose
output must be the text shown under it."""

import doctest
import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from quiddity.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced_blocks(lang: str) -> list:
    """The bodies of README's ```lang blocks, fences left out, so a closing
    fence right after an expected output is not read as part of it."""
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.S | re.M)


def console_examples() -> list:
    """(command, shown output) for each `$ ` line of the console blocks."""
    out = []
    for block in fenced_blocks("console"):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, shown = chunk.partition("\n")
            out.append((command, shown.rstrip("\n")))
    return out


def test_python_tour():
    (block,) = fenced_blocks("python")
    test = doctest.DocTestParser().get_doctest(block, {}, "README", "README.md", 0)
    report = []
    runner = doctest.DocTestRunner()
    runner.run(test, out=report.append)
    assert test.examples
    assert runner.failures == 0, "".join(report)


EXAMPLES = console_examples()


@pytest.mark.parametrize("command, shown", EXAMPLES,
                         ids=[command.split()[1] for command, _ in EXAMPLES])
def test_console_example(command, shown):
    argv = shlex.split(command)
    assert argv[0] == "quiddity"
    result = CliRunner().invoke(main, argv[1:])
    assert result.exit_code == 0, result.output
    assert result.stdout.rstrip("\n") == shown
