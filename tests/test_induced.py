"""Induced contributions (bounded translates) against the scan engine.

The package finds the covers of a point in an index grown one sphere of the
acting group at a time, and picks each member's centre from the ball
neighbourhoods h.Ball(c) of its covers, trying c = 0, 1, 2, ...
oracles.py keeps the scan engine: apply every element of the acting ball to
U, try every pool element as the centre.  Both must give the same
contribution for every member of every default-battery family, the same
bounded neighbourhoods, and the same error for an uncovered point.
"""

import contextlib
import io
import random

import pytest

import oracles
from coarsekit import cli, groups
from coarsekit.actions import (
    ActionInducedStructure,
    TranslationAction,
    _Orbit,
    _OrbitMap,
    identity_hom,
    inclusion_hom,
    induced_structure_second,
    left_translation,
    power_hom,
    right_translation,
)
from coarsekit.errors import WindowOverflowError
from coarsekit.families import ParamFamily, shape_translate_family
from coarsekit.maps import MapWindow, check_bornologous
from coarsekit.structures import membership_window

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


@pytest.mark.parametrize("name", ["left(Z->DihInf via x^n)", "right(DihInf)"])
def test_memo_computes_each_distinct_member_once(name):
    # the contribution memo is the only record of members met: a family that
    # yields every member twice costs one computation per distinct member
    once, radius = induced_case(name)
    twice, _ = induced_case(name)
    computed = []
    compute = twice._compute_contribution

    def counted(member):
        computed.append(frozenset(member))
        return compute(member)

    twice._compute_contribution = counted
    distinct = set()
    for pf in once.default_battery(seed=0, n_random=8):
        doubled = ParamFamily(pf.tag, pf.space, grow=lambda r, pf=pf: [*pf.grow(r)] * 2)
        plain, got = membership_window(once, pf, radius), membership_window(twice, doubled, radius)
        assert (got.trace, got.elements) == (plain.trace, plain.elements), pf.tag
        distinct |= {frozenset(m) for r in range(radius + 1) for m in pf.grow(r)}
    assert len(computed) == len(set(computed))
    assert set(computed) == distinct


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


# ---------------------------------------------------------------------------
# centre tables: the translates of a seed read off one search of the seed

TABLE_SPECS = [
    groups.Z,
    Z2,
    groups.DIH,
    F2,
    groups.product(groups.Z, groups.DIH),
    groups.cyclic(6),
    groups.product(groups.Z, groups.cyclic(3)),
]
TABLE_BALL = 2  # the acting elements g whose translates g.S are compared


def _table_pool(spec) -> list:
    # U and the seeds are drawn from Ball(2); F(2) grows its cover index
    # past Ball(9) from there, so it draws from Ball(1)
    return list(groups.ball(spec, 1 if spec == F2 else 2).elements)


def _assert_table_reads_the_search(struct, S) -> bool:
    """Every translate g.S, g in Ball(TABLE_BALL), gets from the reader of
    S what a search of g.S gives; True when S has a centre table."""
    action = struct.action
    read = struct._translate_reader(S)
    for g in groups.ball(action.group, TABLE_BALL).elements:
        assert read(g) == struct._compute_contribution(action.apply_set(g, S)), (S, g)
    return struct._tables[S] is not None


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("spec", TABLE_SPECS, ids=lambda s: s.label())
def test_centre_table_reads_what_the_search_gives(spec, side):
    rng = random.Random(f"{spec.label()}-{side}")
    pool = _table_pool(spec)
    action = TranslationAction(identity_hom(spec), side=side)
    tabled = 0
    for _ in range(2):
        U = rng.sample(pool, rng.randint(1, 3))
        seeds = [frozenset(rng.sample(pool, rng.randint(1, 3))) for _ in range(3)]
        for slack in range(4):
            struct = ActionInducedStructure(action, U, slack=slack)
            assert struct._equivariant
            for S in seeds:
                has_table = _assert_table_reads_the_search(struct, S)
                # a seed has a table exactly when its least cost is within the slack
                assert has_table == (struct._centres(S)[1] <= slack), (U, slack, S)
                tabled += has_table
    assert tabled


def _searched_per_translate(struct, S):
    """Read the orbit layers of S, and check that each translate walked was
    searched through the memo."""
    action = struct.action
    struct.read_off(_Orbit(action, (S,), 1), TABLE_BALL)
    translates = {action.apply_set(g, S) for g in groups.ball(action.group, TABLE_BALL).elements}
    assert translates <= set(struct._contributions)
    assert _assert_table_reads_the_search(struct, S) is False


def test_seed_of_cost_above_the_slack_is_searched_per_translate():
    # the centre of {0, 2} under U = {0} is 1, at cost 1 > slack 0
    struct = ActionInducedStructure(left_translation(identity_hom(groups.Z)), (0,), slack=0)
    assert struct._centres(frozenset({0, 2}))[1] == 1
    _searched_per_translate(struct, frozenset({0, 2}))


def test_other_homomorphisms_and_table_actions_search_per_translate():
    from test_deltas import _rotation

    for action, U, S in (
        (left_translation(inclusion_hom()), (ONE, T), frozenset({ONE, X})),
        (_rotation(), (0, 1), frozenset({0, 1})),
    ):
        struct = ActionInducedStructure(action, U, slack=2)
        assert not struct._equivariant
        _searched_per_translate(struct, S)


@pytest.mark.parametrize("side", ["left", "right"])
def test_shape_translates_on_the_action_side_are_read_as_its_orbit(side):
    action = TranslationAction(identity_hom(groups.DIH), side=side)
    struct, _ = induced_structure_second(action, (ONE, X, T), RADIUS)
    for shape in ((ONE,), (ONE, T), (X, T, (2, 1))):
        for family_side in ("left", "right"):
            pf = shape_translate_family(action.space, shape, family_side)
            read = ActionInducedStructure(action, struct.U, slack=struct.slack)
            assert (read.read_off(pf.grow, RADIUS) is not None) == (family_side == side)
            plain = ParamFamily(pf.tag, pf.space, grow=lambda r, grow=pf.grow: grow(r))
            got, want = membership_window(read, pf, RADIUS), membership_window(struct, plain, RADIUS)
            assert got.to_json() == want.to_json(), (shape, family_side)
    # an inclusion's acting group is Z, so a family of DihInf translates is folded
    inclusion = ActionInducedStructure(TranslationAction(inclusion_hom(), side=side), (ONE, T))
    assert inclusion.read_off(shape_translate_family(inclusion.space, (ONE, T), side).grow, RADIUS) is None


def _contributions_computed(monkeypatch, argv) -> int:
    calls = 0
    compute = ActionInducedStructure._compute_contribution

    def counted(self, member):
        nonlocal calls
        calls += 1
        return compute(self, member)

    monkeypatch.setattr(ActionInducedStructure, "_compute_contribution", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    return calls


def test_commuting_searches_few_contributions(monkeypatch):
    # a search per translate computes 772 contributions here
    assert _contributions_computed(monkeypatch, ["commuting", "--radius", "8"]) <= 100


def test_an_inclusion_keeps_its_searches(monkeypatch):
    argv = ["svarc-milnor", "--action", "left(Z->DihInf via x^n)", "--radius", "10"]
    assert _contributions_computed(monkeypatch, argv) == 307


@pytest.mark.parametrize("side", ["left", "right"])
def test_orbit_map_images_into_their_own_structure_fold_no_member(monkeypatch, side):
    action = TranslationAction(identity_hom(groups.DIH), side=side)
    struct, _ = induced_structure_second(action, (ONE, X, T), RADIUS)
    orbit_map = _OrbitMap(action, X, struct, slack=4)
    plain = MapWindow(orbit_map.name, orbit_map.source, struct, orbit_map.rule)
    expect = check_bornologous(plain, RADIUS, n_random=8).to_json()
    folded = []
    fold = ActionInducedStructure.fold
    monkeypatch.setattr(ActionInducedStructure, "fold", lambda s, w, ms: folded.append(s) or fold(s, w, ms))
    read = ActionInducedStructure(action, struct.U, slack=struct.slack)
    orbit_map.target = read
    assert check_bornologous(orbit_map, RADIUS, n_random=8).to_json() == expect
    assert not [s for s in folded if s is read]
