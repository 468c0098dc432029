"""Byte identity of the command reports against the frozen corpus.

The corpus in tests/golden/ holds the JSON stdout of each command in
freeze_golden.COMMANDS; regenerate it with freeze_golden.py only when a
report is meant to change.  Every trace stored next to a verdict must read,
with ``families.Reading``, to that verdict.
"""

import json

import pytest
from freeze_golden import COMMANDS, GOLDEN_DIR, render

from coarsekit.families import Reading


@pytest.mark.parametrize("stem", sorted(COMMANDS))
def test_report_bytes_match_golden(stem):
    expected = (GOLDEN_DIR / f"{stem}.json").read_text()
    assert render(COMMANDS[stem]) == expected


# traces that carry no verdict: the ball's sizes and the demo's conjugacy windows
DATA_ONLY = {"sizes", "conjugacy_window_x", "conjugacy_window_t"}


def _reading(stored: dict, radius: int | None = None) -> Reading:
    """A stored trace read at ``radius``, or at its last radius."""
    trace = {int(r): n for r, n in stored.items()}
    return Reading(trace, max(trace, default=0) if radius is None else radius)


def _reread(node, cert=None) -> int:
    """Assert that every trace under ``node`` reads, with ``Reading``, as the
    report says; ``cert`` is the certificate whose data ``node`` is.  Returns
    how many traces were read."""
    if isinstance(node, list):
        return sum(_reread(item) for item in node)
    if not isinstance(node, dict):
        return 0
    if "check" in node and "data" in node:
        return _reread(node["data"], node)
    read = 0
    if "trace" in node:
        if "verdict" in node:  # a membership, read at its last radius
            assert _reading(node["trace"]).verdict == node["verdict"], node
        else:
            assert _reading(node["trace"], cert["radius"]).verdict == cert["verdict"], cert
        read += 1
    if "growing_trace" in node:
        assert not _reading(node["growing_trace"]).stable, node
        read += 1
    for stored in node.get("traces", {}).values():
        assert _reading(stored).stable, node
        read += 1
    if "stabilizer_trace" in node:
        stable = node.get("stabilizer_stabilizes", cert and cert["verdict"] == "PASS")
        assert _reading(node["stabilizer_trace"]).stable == stable, node
        read += 1
    return read + sum(_reread(v) for k, v in node.items() if k not in ("traces", *DATA_ONLY))


def _radius_keyed(node) -> int:
    """How many dicts under ``node`` map radius strings to sizes, outside DATA_ONLY."""
    if isinstance(node, list):
        return sum(map(_radius_keyed, node))
    if not isinstance(node, dict):
        return 0
    keyed = bool(node) and all(isinstance(k, str) and k.isdigit() and isinstance(v, int) for k, v in node.items())
    return keyed + sum(_radius_keyed(v) for k, v in node.items() if k not in DATA_ONLY)


def test_golden_evidence_rereads_to_its_verdict():
    read = keyed = 0
    for stem in sorted(COMMANDS):
        report = json.loads((GOLDEN_DIR / f"{stem}.json").read_text())
        read += _reread(report["checks"])
        keyed += _radius_keyed(report["checks"])
    assert read == keyed > 0
