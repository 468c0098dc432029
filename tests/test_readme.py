"""The library examples of README.md run as written: its ``python`` blocks,
executed in order in one namespace, print what their comments say.  Its
``coarsekit`` commands are the ones ``freeze_golden.py`` freezes."""

import contextlib
import io
import pathlib
import re
import shlex

import freeze_golden

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples_print_their_comments():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        expected = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(block, namespace)
        assert out.getvalue().splitlines() == expected


def test_readme_commands_are_frozen():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("coarsekit ")]
    assert commands
    frozen = list(freeze_golden.COMMANDS.values())
    for argv in commands:
        assert argv in frozen, argv
