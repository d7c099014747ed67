"""The README's examples run.

Every ```python block is executed, and every ``orthoentropy ...`` line of
its shell blocks goes through ``cli.main`` with its output sent to a file
under ``tmp_path``; each must exit 0.  A public name that is deleted or
renamed without a README edit fails here.
"""

import re
import shlex
from pathlib import Path

import pytest

from orthoentropy.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCK = re.compile(r"^```(\w*)\n(.*?)^```", re.MULTILINE | re.DOTALL)


def blocks(lang):
    text = README.read_text(encoding="utf-8")
    return [body for kind, body in BLOCK.findall(text) if kind == lang]


PYTHON_BLOCKS = blocks("python")
COMMANDS = [
    shlex.split(line, comments=True)[1:]
    for body in blocks("sh")
    for line in body.splitlines()
    if line.startswith("orthoentropy ")
]


def test_readme_has_examples():
    assert PYTHON_BLOCKS
    assert {argv[0] for argv in COMMANDS} == {"entropy", "scan", "limit", "zeros", "verify"}


@pytest.mark.parametrize("index", range(len(PYTHON_BLOCKS)))
def test_python_block_runs(index, capsys):
    exec(PYTHON_BLOCKS[index], {"__name__": "readme"})
    assert capsys.readouterr().out


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_command_line_example_exits_0(argv, tmp_path):
    if "--out" in argv:
        i = argv.index("--out")
        argv = argv[:i] + argv[i + 2:]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8")
