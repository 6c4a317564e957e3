"""The README's examples, run as written.

Each `$ tanglekit ...` line of a README code block runs through
cli.main, must exit 0, and its stdout must match the lines printed
under it; a `...` line ends the comparison there.  The Python block of the
Library section runs as it stands.
"""

import pathlib
import shlex

import pytest

from tanglekit import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def code_blocks():
    """(section heading, info string, lines) of each fenced block."""
    blocks, heading, block = [], None, None
    for line in README.read_text().splitlines():
        if block is not None:
            if line.startswith("```"):
                blocks.append(block)
                block = None
            else:
                block[2].append(line)
        elif line.startswith("```"):
            block = (heading, line[3:].strip(), [])
        elif line.startswith("## "):
            heading = line[3:].strip()
    return blocks


def cli_examples():
    """(command, expected stdout lines) of each `$ tanglekit` line."""
    examples = []
    for _, _, lines in code_blocks():
        for i, line in enumerate(lines):
            if line.startswith("$ tanglekit "):
                expected = []
                for out in lines[i + 1:]:
                    if not out or out.startswith("$ "):
                        break
                    expected.append(out)
                examples.append((line[2:], expected))
    return examples


def test_the_readme_has_examples():
    assert len(cli_examples()) == 6
    assert [info for heading, info, _ in code_blocks() if heading == "Library"] == ["python"]


@pytest.mark.parametrize("command, expected", cli_examples(), ids=[c for c, _ in cli_examples()])
def test_cli_example(command, expected, capsys):
    assert cli.main(shlex.split(command)[1:]) == cli.EXIT_OK
    printed = capsys.readouterr().out.splitlines()
    if "..." in expected:
        expected = expected[:expected.index("...")]
        printed = printed[:len(expected)]
    assert printed == expected


def test_library_example():
    [lines] = [lines for heading, info, lines in code_blocks() if heading == "Library"]
    exec("\n".join(lines), {})
