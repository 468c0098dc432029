"""The Z map catalog swept against the truth (``truth.py``): no run PASSes a
map that is not a coarse equivalence, and the false FAILs of the true
equivalences, window-edge readings, do not grow past today's count."""

from truth import RADII, false_verdicts, sweep

# the false FAILs of the sweep: identity, negate, translate-left:3 and
# inclusion at R = 3; floor-div:2 at 3-9, floor-div:3 at 3-15, floor-div:4 at 3-16
FALSE_FAILS = 38


def test_sweep_finds_no_false_pass_and_no_new_false_fail():
    codes = sweep()
    assert all(sorted(runs) == list(RADII) for runs in codes.values())
    passes, fails = false_verdicts(codes)
    assert passes == []
    assert len(fails) <= FALSE_FAILS, fails
