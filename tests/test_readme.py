"""The library examples of README.md run as written: its ``python`` blocks,
executed in order in one namespace, print what their comments say."""

import contextlib
import io
import pathlib
import re

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
