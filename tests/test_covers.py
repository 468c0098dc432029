"""The cover index against the ball scans it replaced, and its sharing.

Every "which h puts y in h.U" question of the action engine reads one index
per (action, U), ``action.covers(U)``, grown one sphere of the acting group
at a time; every check that asks about U, the orbit map's fibres included,
reads that same index.  oracles.py keeps the scans: apply the acting ball to
U afresh for each question.  Both must give the same cobounded and orbit
cover constants, stabilizers and traces, bounded-sets gaps and selections
(or the same error).
"""

import contextlib
import io
import itertools

import pytest

import oracles
from coarsekit import cli, groups, spaces
from coarsekit.actions import (
    _OrbitMap,
    _reach_excess,
    _selection,
    identity_hom,
    inclusion_hom,
    induced_structure_second,
    left_translation,
    point_finite_check,
    power_hom,
    right_translation,
    stabilizer_window,
)
from coarsekit.errors import SearchFailureError
from coarsekit.structures import LeftGroupStructure
from test_deltas import _rotation

RADIUS = 5
Z2 = groups.free_abelian(2)

ACTIONS = {
    "left(Z)": lambda: left_translation(identity_hom(groups.Z)),
    "right(Z)": lambda: right_translation(identity_hom(groups.Z)),
    "left(DihInf)": lambda: left_translation(identity_hom(groups.DIH)),
    "right(DihInf)": lambda: right_translation(identity_hom(groups.DIH)),
    "left(Z^2)": lambda: left_translation(identity_hom(Z2)),
    "right(Z^2)": lambda: right_translation(identity_hom(Z2)),
    "left(Z->DihInf via x^n)": lambda: left_translation(inclusion_hom()),
    "left(Z via 2n)": lambda: left_translation(power_hom(2)),
    "table(Z on seven)": _rotation,
}

# ordered pairs of actions on one space, each action with itself included
SPACES = {name: make().space for name, make in ACTIONS.items()}
PAIRS = [(a, b) for a, b in itertools.product(ACTIONS, repeat=2) if SPACES[a] == SPACES[b]]


def cover_constant(space, covers, cap: int):
    """The cover constant at RADIUS: the excess reach over window(RADIUS)
    past each point's extent."""
    return _reach_excess(covers, [(y, space.extent(y)) for y in space.window(RADIUS)], cap)


def sets_of(action) -> list:
    """One, two and three points of window(1), in canonical order."""
    pts = action.space.window(1)
    return [pts[:k] for k in (1, 2, 3)]


@pytest.mark.parametrize("name", list(ACTIONS))
def test_cover_constant_matches_scan(name):
    action = ACTIONS[name]()
    for U in sets_of(action):
        for cap in range(5):
            expect = oracles.scan_cobounded_constant(action, U, RADIUS, cap)
            assert cover_constant(action.space, action.covers(U), cap) == expect, (U, cap)


@pytest.mark.parametrize("name", list(ACTIONS))
def test_orbit_constant_and_point_stabilizer_match_scan(name):
    action = ACTIONS[name]()
    for x0 in action.space.window(1)[:3]:
        orbit = action.covers((x0,))
        stab, trace = oracles.scan_point_stabilizer(action, x0, RADIUS)
        assert orbit.get(x0, RADIUS) == stab, x0
        assert orbit.trace((x0,), RADIUS) == trace, x0
        for cap in range(5):
            expect = oracles.scan_orbit_constant(action, x0, RADIUS, cap)
            assert cover_constant(action.space, orbit, cap) == expect, (x0, cap)


@pytest.mark.parametrize("name", list(ACTIONS))
def test_stabilizer_and_point_finite_traces_match_scan(name):
    action = ACTIONS[name]()
    for U in sets_of(action):
        hits, trace = oracles.scan_stabilizer_window(action, U, RADIUS)
        assert stabilizer_window(action, U, RADIUS).trace == trace, U
        assert trace[RADIUS] == len(hits), U  # the size action-check reports
        for x in action.space.window(2):
            trace = point_finite_check(action, U, x, RADIUS).data["trace"]
            expect = oracles.scan_point_finite_trace(action, U, x, RADIUS)
            assert trace == {str(r): n for r, n in expect.items()}, (U, x)


@pytest.mark.parametrize("first,second", PAIRS)
def test_cover_gap_matches_scan(first, second):
    action, other = ACTIONS[first](), ACTIONS[second]()
    for U in sets_of(action):
        # one pair of indexes serves every scale and cap, as in commuting_equivalence
        covers, other_covers = action.covers(U), other.covers(U)
        for s in range(RADIUS + 1):
            for gap_cap in (0, 3):
                expect = oracles.scan_cover_gap(action, other, U, s, gap_cap)
                gap = _reach_excess(other_covers, [(y, s) for y in covers.image(s)], gap_cap)
                assert gap == expect, (U, s, gap_cap)


def _outcome(select):
    try:
        return select()
    except SearchFailureError as e:
        return str(e)


@pytest.mark.parametrize("first,second", PAIRS)
def test_selection_matches_scan(first, second):
    action_from, action_to = ACTIONS[first](), ACTIONS[second]()
    x0 = action_from.space.window(0)[0]
    for U in sets_of(action_from):
        covers = action_to.covers(U)
        for slack in (1, 3):
            expect = _outcome(
                lambda: oracles.scan_selection(action_from, action_to, U, x0, RADIUS, slack)
            )
            assert _outcome(lambda: _selection(action_from, covers, x0, RADIUS, slack)) == expect


def test_selection_names_the_uncovered_point():
    # 2n + 0 misses every odd integer
    to_even = ACTIONS["left(Z via 2n)"]()
    with pytest.raises(SearchFailureError, match="reaches -1 within radius 2"):
        _selection(ACTIONS["left(Z)"](), to_even.covers((0,)), 0, RADIUS, 1)


def test_one_index_per_set_in_any_order():
    action = ACTIONS["left(DihInf)"]()
    one, t = action.space.window(1)[:2]
    assert action.covers((one, t)) is action.covers([t, one, t])
    assert action.covers((one,)) is not action.covers((one, t))
    assert ACTIONS["left(DihInf)"]().covers((one,)) is not action.covers((one,))


def test_induced_structure_and_orbit_map_read_the_action_index():
    action = ACTIONS["left(DihInf)"]()
    one, t = action.space.window(1)[:2]
    struct, _ = induced_structure_second(action, (t, one), 8)
    assert struct.index is action.covers((one, t))
    orbit_map = _OrbitMap(action, t, LeftGroupStructure(groups.DIH), 2)
    assert orbit_map.fibres is action.covers((t,))


# command -> (most cover indexes grown, most points indexed over them): one
# index per distinct (action, set) the command asks about
INDEX_WORK = {
    ("commuting", "--radius", "16"): (6, 432),
    ("svarc-milnor", "--action", "left(Z->DihInf via x^n)", "--radius", "10"): (5, 103),
    (
        "commuting", "--action1", "left(F(2))", "--action2", "right(F(2))", "--set", "1",
        "--radius", "4",
    ): (4, 3236),
}


@pytest.mark.parametrize("argv", list(INDEX_WORK), ids=" ".join)
def test_commands_grow_one_index_per_action_and_set(argv, monkeypatch):
    grow = spaces.Preimages._grow
    indexed: dict = {}  # index -> points it has reached

    def counting(self, radius):
        before = self.radius
        grow(self, radius)
        reached = sum(len(self.space.sphere(r)) for r in range(before + 1, self.radius + 1))
        if reached:
            indexed[self] = indexed.get(self, 0) + reached

    monkeypatch.setattr(spaces.Preimages, "_grow", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0
    most_indexes, most_points = INDEX_WORK[argv]
    assert len(indexed) <= most_indexes
    assert sum(indexed.values()) <= most_points
