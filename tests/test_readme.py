"""The README's `qsalign run` examples print the records the README shows.

Each example is a shell block of `$ ` command lines, each followed by the
output it prints. File-writing `printf` lines run in a shell in a scratch
directory; `qsalign` lines run through the CLI's `main` there. A record
the README wraps over several lines is one stdout line, so the wrapped
lines are joined back. Any drift in a seeded output, or in the docs,
fails here.
"""
import re
import shlex
import subprocess
from pathlib import Path

import pytest

from qsalign.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _run_examples():
    """(commands, expected stdout) for each README shell block with a `qsalign run`."""
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        if "$ qsalign run" not in block:
            continue
        steps = []
        for line in block.splitlines():
            if line.startswith("$ "):
                steps.append([line[2:], ""])
            else:
                # a wrapped record breaks after ", " and indents by the space
                steps[-1][1] += line
        examples.append(steps)
    return examples


EXAMPLES = _run_examples()


def test_readme_shows_both_run_examples():
    assert len(EXAMPLES) == 2


@pytest.mark.parametrize("steps", EXAMPLES, ids=["bits", "alphabet"])
def test_readme_run_example_prints_the_shown_record(steps, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for command, shown in steps:
        if command.startswith("qsalign "):
            assert main(shlex.split(command)[1:]) == 0
            assert capsys.readouterr().out == shown + "\n"
        else:
            subprocess.run(command, shell=True, cwd=tmp_path, check=True)
            assert not shown
