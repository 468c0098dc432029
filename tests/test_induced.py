"""Induced contributions (bounded translates) against the scan engine.

The package finds the covers of a point in an index grown one sphere of the
acting group at a time, and picks each member's centre from the ball
neighbourhoods h.Ball(c) of its covers, trying c = 0, 1, 2, ...
oracles.py keeps the scan engine: apply every element of the acting ball to
U, try every pool element as the centre.  Both must give the same
contribution for every member of every default-battery family, the same
bounded neighbourhoods, and the same error for an uncovered point.
"""

import pytest

import oracles
from coarsekit import groups
from coarsekit.actions import (
    ActionInducedStructure,
    TranslationAction,
    identity_hom,
    inclusion_hom,
    induced_structure_second,
    left_translation,
    power_hom,
    right_translation,
)
from coarsekit.errors import WindowOverflowError

RADIUS = 6
ONE, X, T = (0, 0), (1, 0), (0, 1)
F2 = groups.free_group(2)
Z2 = groups.free_abelian(2)

# (action, U, radius): the commuting pair's Z-action on DihInf, DihInf on
# itself from both sides, Z acting on Z by even steps, and the two groups of
# faster growth at the radii the scan engine can afford.  The U of the
# DihInf, Z and Z^2 cases overlap their translates, so most points have
# several covers.  The F(2) action is built without the action-law check,
# which takes longer on F(2) than the tests that use it.
CASES = {
    "left(Z->DihInf via x^n)": (lambda: left_translation(inclusion_hom()), (ONE, T), RADIUS),
    "left(DihInf)": (lambda: left_translation(identity_hom(groups.DIH)), (ONE, X), RADIUS),
    "right(DihInf)": (lambda: right_translation(identity_hom(groups.DIH)), (ONE, X, T), RADIUS),
    "left(Z via 2n)": (lambda: left_translation(power_hom(2)), (0, 1, 2), RADIUS),
    "left(F(2))": (lambda: TranslationAction(identity_hom(F2)), ((),), 2),
    "left(Z^2)": (lambda: left_translation(identity_hom(Z2)), ((0, 0), (1, 0)), 4),
}


def induced_case(name):
    make, U, radius = CASES[name]
    struct, _ = induced_structure_second(make(), U, radius)
    return struct, radius


def battery_members(struct, radius) -> list:
    return [m for pf in struct.default_battery(seed=0, n_random=8) for m in pf.at(radius).members]


@pytest.mark.parametrize("name", list(CASES))
@pytest.mark.parametrize("order", ["canonical", "reversed"])
def test_member_contribution_matches_scan(name, order):
    struct, radius = induced_case(name)
    members = battery_members(struct, radius)
    if order == "reversed":
        # largest acting radius first: later members read kept neighbourhoods
        members.reverse()
    for m in members:
        assert struct.member_contribution(m) == oracles.scan_contribution(struct, m), m


@pytest.mark.parametrize("name", list(CASES))
def test_kept_neighbourhoods_are_ball_translates(name):
    struct, radius = induced_case(name)
    members = battery_members(struct, radius)
    for m in members:
        struct.member_contribution(m)
    G = struct.action.group
    asked = set()
    for m in members:
        for y in m:
            asked.update(struct.index.get(y, oracles._acting_radius(struct, m)))
    # neighbourhoods are kept only for covers of the members asked about
    assert struct._nears and set(struct._nears) <= asked
    for h, levels in struct._nears.items():
        for c, near in enumerate(levels):
            expect = {groups.multiply(G, h, s) for s in groups.ball(G, c).elements}
            assert near == expect, (h, c)


def test_battery_contributions_count_few_multiplications():
    G = groups.Free(2)  # a private instance, so counting its mul counts this structure only
    struct, _ = induced_structure_second(TranslationAction(identity_hom(G)), ((),), 3)
    members = battery_members(struct, 3)
    mul = G.mul
    calls = 0

    def counted(a, b):
        nonlocal calls
        calls += 1
        return mul(a, b)

    G.mul = counted
    for m in members:
        struct.member_contribution(m)
    # a scan of the pool per cover needs 233,439 products here; this search needs 4,690
    assert calls < 50_000


def test_covers_past_the_acting_ball():
    # every h covers the points of U under the trivial action 0n, so a point's
    # covers are a prefix of its index list, whichever radius grew the index
    struct = ActionInducedStructure(left_translation(power_hom(0)), (0, 1, -2), slack=1)
    members = [(0,), (0, 1), (-2,), (0, 1, -2), (1,), (1, -2)]
    for m in members + members[::-1]:
        assert struct.member_contribution(m) == oracles.scan_contribution(struct, m), m
        for mesh in (0, 1):
            expect = oracles.scan_bounded_neighborhood(struct, m[0], mesh)
            assert struct.bounded_neighborhood(m[0], mesh) == expect
    top = RADIUS + 2
    struct.index.get(0, top)
    for y in struct.space.window(2):
        for r in range(top + 1):
            assert struct.index.get(y, r) == oracles.scan_covers(struct, y, r), (y, r)


@pytest.mark.parametrize("name", list(CASES))
def test_covers_are_the_scan_prefix(name):
    struct, radius = induced_case(name)
    struct.index.get(struct.space.window(0)[0], radius + 2)  # grow the index past every radius below
    for y in struct.space.window(radius):
        for r in range(radius + 3):
            assert struct.index.get(y, r) == oracles.scan_covers(struct, y, r), (y, r)


@pytest.mark.parametrize("name", list(CASES))
def test_ties_go_to_the_first_pool_element(name):
    struct, radius = induced_case(name)
    G = struct.action.group
    tied = 0
    for m in dict.fromkeys(battery_members(struct, radius)):
        pool, costs, covers = oracles.scan_centre_costs(struct, m)
        least = min(costs)
        if costs.count(least) < 2:
            continue
        tied += 1
        ig = groups.invert(G, pool[costs.index(least)])
        expect = {
            min((groups.multiply(G, ig, h) for h in covers[y]), key=lambda e: groups.sort_key(G, e))
            for y in m
        }
        assert struct.member_contribution(m) == expect, m
    assert tied, "no member with several centres of least cost"


@pytest.mark.parametrize("name", list(CASES))
def test_bounded_neighborhood_matches_scan(name):
    struct, radius = induced_case(name)
    points = {y for m in battery_members(struct, radius) for y in m}
    for y in sorted(points, key=struct.space.sort_key):
        for mesh in (0, 1, 2):
            expect = oracles.scan_bounded_neighborhood(struct, y, mesh)
            assert struct.bounded_neighborhood(y, mesh) == expect, (y, mesh)


def test_uncovered_point_raises_the_same_error():
    # 2n + 0 misses every odd integer
    struct = ActionInducedStructure(left_translation(power_hom(2)), (0,), slack=2)
    for member in ((1,), (0, 3), (2, 4, 5)):
        with pytest.raises(WindowOverflowError) as scanned:
            oracles.scan_contribution(struct, member)
        with pytest.raises(WindowOverflowError) as indexed:
            struct.member_contribution(member)
        assert str(indexed.value) == str(scanned.value)
    with pytest.raises(WindowOverflowError) as scanned:
        oracles.scan_bounded_neighborhood(struct, 3, 1)
    with pytest.raises(WindowOverflowError) as indexed:
        struct.bounded_neighborhood(3, 1)
    assert str(indexed.value) == str(scanned.value)


HOMS = [
    identity_hom(groups.Z),
    identity_hom(groups.free_abelian(2)),
    identity_hom(groups.DIH),
    identity_hom(groups.free_group(2)),
    inclusion_hom(),
    power_hom(2),
    power_hom(-3),
    power_hom(0),
]


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("hom", HOMS, ids=lambda h: f"{h.source.label()}-{h.label}")
def test_translation_apply_set_is_pointwise_apply(hom, side):
    action = TranslationAction(hom, side=side)
    S = action.space.window(4)
    for g in groups.ball(action.group, 4).elements:
        assert action.apply_set(g, S) == frozenset(action.apply(g, x) for x in S)
