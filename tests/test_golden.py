"""Byte identity of the command reports against the frozen corpus.

The corpus in tests/golden/ holds the JSON stdout of each command in
freeze_golden.COMMANDS; regenerate it with freeze_golden.py only when a
report is meant to change.
"""

import pytest
from freeze_golden import COMMANDS, GOLDEN_DIR, render


@pytest.mark.parametrize("stem", sorted(COMMANDS))
def test_report_bytes_match_golden(stem):
    expected = (GOLDEN_DIR / f"{stem}.json").read_text()
    assert render(COMMANDS[stem]) == expected
