"""Stock families grown one sphere at a time against brute-force snapshots.

Each stock family hands membership_window only the members that appear at
radius r.  The union of those deltas over 0..r must be the family rebuilt
from scratch on groups.ball(spec, r), and the family must give the same
verdict, trace and witness elements as those snapshots read whole by
``oracles.ref_snapshot_window``.  The translates of an orbit family {g.V}
(or of its pieces) under its own action are grown as one orbit at double
scale; they must be the brute-force set {g.M : g in Ball(r), M a member at
r}, and an orbit of any other action object must take the generic route to
the same set.  An induced structure reads an orbit of its own action off
orbit layers; that must give what the generic fold of the same family gives.
"""

import functools

import pytest

import oracles
from oracles import _pieces_family
from coarsekit import groups
from coarsekit.errors import CoarseKitError, WindowOverflowError
from coarsekit.actions import (
    ActionInducedStructure,
    _Orbit,
    action_translate_family,
    identity_hom,
    inclusion_hom,
    left_translation,
    power_hom,
    right_translation,
    table_action,
    translates_family,
)
from coarsekit.families import (
    ParamFamily,
    image_family,
    shape_translate_family,
    translate_pair_family,
)
from coarsekit.maps import MapWindow, _preimage_family
from coarsekit.spaces import FiniteSpace, GroupSpace
from coarsekit.structures import LeftGroupStructure, RightGroupStructure, membership_window
from test_fold import _Passthrough

SPECS = [groups.Z, groups.free_abelian(2), groups.DIH, groups.free_group(2)]
KINDS = ["translate-pair", "shape-translate", "action-translate", "image", "preimage", "translates"]
RADIUS = 6
# a translates family has |B_r| x |F_r| members; F(2) keeps that small at r <= 3
TRANSLATES_RADIUS_F2 = 3
PREIMAGE_SLACK = 2


def _square(spec):
    return lambda g: groups.multiply(spec, g, g)


# building an action checks the action law on a window, so build each once
@functools.lru_cache(maxsize=None)
def _translation(spec, side):
    return (left_translation if side == "left" else right_translation)(identity_hom(spec))


def _setup(spec, kind):
    """The stock family of one kind on spec, and its brute-force snapshot
    at radius r as a set of member sets."""
    space = GroupSpace(spec)
    a = groups.sphere(spec, 2)[0]
    shape = groups.ball(spec, 1).elements[:3]
    mul = lambda x, y: groups.multiply(spec, x, y)

    def shape_snapshot(r):
        return {frozenset(mul(s, g) for s in shape) for g in groups.ball(spec, r).elements}

    if kind == "translate-pair":
        pf = translate_pair_family(space, a, "left")
        return pf, lambda r: {frozenset({g, mul(a, g)}) for g in groups.ball(spec, r).elements}
    if kind == "shape-translate":
        return shape_translate_family(space, shape, "right"), shape_snapshot
    if kind == "action-translate":
        action = _translation(spec, "right")
        pf = action_translate_family(action, shape)
        return pf, lambda r: {
            frozenset(action.apply(g, v) for v in shape) for g in groups.ball(spec, r).elements
        }
    if kind == "image":
        rule = _square(spec)
        pf = image_family(shape_translate_family(space, shape, "right"), rule, space)
        return pf, lambda r: {frozenset(rule(x) for x in m) for m in shape_snapshot(r)}
    if kind == "preimage":
        struct = LeftGroupStructure(spec)
        m = MapWindow("square", struct, struct, _square(spec))
        source_radius = RADIUS + PREIMAGE_SLACK
        pf = _preimage_family(
            m, shape_translate_family(space, shape, "right"), lambda y: m.fibres.get(y, source_radius)
        )
        preimages: dict = {}
        for x in groups.ball(spec, source_radius).elements:
            preimages.setdefault(m.rule(x), []).append(x)

        def snapshot(r):
            return {frozenset(x for y in mem for x in preimages.get(y, ())) for mem in shape_snapshot(r)}

        return pf, snapshot
    action = _translation(spec, "left")
    pf = translates_family(action, shape_translate_family(space, shape, "right"), "translates")
    return pf, lambda r: {
        frozenset(action.apply(g, x) for x in mem)
        for g in groups.ball(spec, r).elements
        for mem in shape_snapshot(r)
    }


def _radius(spec, kind):
    return TRANSLATES_RADIUS_F2 if kind == "translates" and spec.kind == "free" else RADIUS


CASES = [(spec, kind) for spec in SPECS for kind in KINDS]
IDS = [f"{spec.label()}-{kind}" for spec, kind in CASES]


@pytest.mark.parametrize("spec,kind", CASES, ids=IDS)
def test_deltas_union_to_snapshot(spec, kind):
    pf, snapshot = _setup(spec, kind)
    grown: set = set()
    for r in range(_radius(spec, kind) + 1):
        grown |= {frozenset(m) for m in pf.grow(r)}
        expected = snapshot(r)
        assert grown == expected, f"radius {r}"
        assert {frozenset(m) for m in pf.at(r).members} == expected, f"radius {r}"


@pytest.mark.parametrize("spec,kind", CASES, ids=IDS)
def test_snapshot_copy_gives_same_result(spec, kind):
    pf, snapshot = _setup(spec, kind)
    radius = _radius(spec, kind)
    for struct in (LeftGroupStructure(spec), RightGroupStructure(spec)):
        grown = membership_window(struct, pf, radius)
        snap = oracles.ref_snapshot_window(struct.side, spec, snapshot, radius)
        assert (grown.verdict, grown.trace, grown.elements) == snap


class _RefusesFarPoints(_Passthrough):
    """The generic memo fold of left witnesses, refusing every member with a
    point beyond length 1."""

    def _compute_contribution(self, member):
        for x in member:
            if groups.word_length(self.spec, x) > 1:
                raise WindowOverflowError(f"{x} not covered")
        return super()._compute_contribution(member)


@pytest.mark.parametrize("order", ["sphere-order", "reversed", "with-older-member"])
def test_error_names_least_member_whatever_the_delta_order(order):
    # at radius 1 both {1, 2} and {-1, -2} are refused; {1, 2} is the least.
    # The third order yields the radius-0 member {0} again first at every
    # radius: it contributed without error, so it is no candidate
    def grow(r):
        sphere = groups.sphere(groups.Z, r)
        older = [(0, 0)] if order == "with-older-member" else []
        return older + [(g, 2 * g) for g in (sphere[::-1] if order == "reversed" else sphere)]

    pf = ParamFamily(tag="{g, 2g}", space=GroupSpace(groups.Z), grow=grow)
    with pytest.raises(WindowOverflowError, match=r"^2 not covered"):
        membership_window(_RefusesFarPoints(groups.Z), pf, 4)


# ---------------------------------------------------------------------------
# translates of an orbit family: read as one orbit at double scale

ONE, X, T = (0, 0), (1, 0), (0, 1)
SEVEN = FiniteSpace("seven", tuple(range(7)))


def _rotation():
    # Z turning a 7-cycle: generator 1 steps forward, generator -1 back
    perms = {0: {p: (p + 1) % 7 for p in range(7)}, 1: {p: (p - 1) % 7 for p in range(7)}}
    return table_action(groups.Z, SEVEN, perms)


# (action, V): the four actions of test_induced.py, the trivial action of Z
# on itself, and a table action on a finite space
ORBIT_CASES = {
    "left(Z->DihInf via x^n)": (lambda: left_translation(inclusion_hom()), (ONE, T)),
    "left(DihInf)": (lambda: left_translation(identity_hom(groups.DIH)), (ONE, X)),
    "right(DihInf)": (lambda: right_translation(identity_hom(groups.DIH)), (ONE, X, T)),
    "left(Z via 2n)": (lambda: left_translation(power_hom(2)), (0, 1, 2)),
    "left(Z via 0n)": (lambda: left_translation(power_hom(0)), (0, 1, -2)),
    "table(Z on seven)": (_rotation, (0, 1)),
}
ORBIT_ROUTES = ["translates", "pieces"]


def _orbit_case(route, action, base_action, V):
    """translates_family of one route over the orbit of V under base_action,
    and its brute-force snapshot {g.M : g in Ball(r), M a member at r}."""

    def base(r):
        return {
            frozenset(base_action.apply(h, v) for v in V) for h in groups.ball(base_action.group, r).elements
        }

    pf = action_translate_family(base_action, V)
    members = base
    if route == "pieces":
        pf = _pieces_family(pf)
        members = lambda r: {frozenset((u, v)) for M in base(r) for u in M for v in M}
    tf = translates_family(action, pf, route)
    return tf, lambda r: {
        frozenset(action.apply(g, x) for x in M) for g in groups.ball(action.group, r).elements for M in members(r)
    }


def _assert_grows_to(tf, snapshot):
    grown: set = set()
    for r in range(RADIUS + 1):
        grown |= {frozenset(m) for m in tf.grow(r)}
        expected = snapshot(r)
        assert grown == expected, f"radius {r}"
        assert {frozenset(m) for m in tf.at(r).members} == expected, f"radius {r}"


@pytest.mark.parametrize("route", ORBIT_ROUTES)
@pytest.mark.parametrize("name", list(ORBIT_CASES))
def test_translates_of_an_orbit_are_an_orbit(name, route):
    make, V = ORBIT_CASES[name]
    action = make()
    tf, snapshot = _orbit_case(route, action, action, V)
    assert isinstance(tf.grow, _Orbit)
    _assert_grows_to(tf, snapshot)


@pytest.mark.parametrize("route", ORBIT_ROUTES)
@pytest.mark.parametrize("name", list(ORBIT_CASES))
def test_orbit_of_another_action_object_grows_generically(name, route):
    # an equal action built twice is two objects: only the same object is
    # known to satisfy g.(h.S) = (gh).S with the orbit's own h
    make, V = ORBIT_CASES[name]
    action = make()
    tf, snapshot = _orbit_case(route, action, make(), V)
    assert not isinstance(tf.grow, _Orbit)
    _assert_grows_to(tf, snapshot)


@pytest.mark.parametrize("route", ORBIT_ROUTES)
def test_orbit_of_the_opposite_side_grows_generically(route):
    left = _translation(groups.DIH, "left")
    right = _translation(groups.DIH, "right")
    tf, snapshot = _orbit_case(route, left, right, (ONE, X))
    assert not isinstance(tf.grow, _Orbit)
    _assert_grows_to(tf, snapshot)


# ---------------------------------------------------------------------------
# orbits of an induced structure's own action: read off its orbit layers

LAYER_SLACK = 2  # the 7-cycle then leaves 4 uncovered: {3, 4} = 3.{0, 1} is refused at sphere 3


def _window_or_error(struct, pf, radius):
    try:
        res = membership_window(struct, pf, radius)
    except CoarseKitError as err:
        return type(err), str(err)
    return res.trace, res.elements, res.bounded


def _folded(orbit):
    """The same growth behind a plain function, which no structure reads off."""
    return lambda r: orbit(r)


def _assert_layers_read_the_fold(read, folded, V):
    """Seeds V, V twice (in two orders) and the pieces of V, at scales 1-3,
    read at falling and rising radii on one structure, so that later reads
    reuse earlier layers."""
    action = read.action
    pieces = _pieces_family(action_translate_family(action, V)).grow.seeds
    for seeds in ((V,), (V, V[::-1]), pieces):
        for scale in (1, 2, 3):
            orbit = _Orbit(action, seeds, scale)
            plain = ParamFamily("plain", action.space, grow=_folded(orbit))
            assert folded.read_off(plain.grow, RADIUS) is None
            for radius in (RADIUS, 2, RADIUS - 1):
                got = _window_or_error(read, ParamFamily("orbit", action.space, grow=orbit), radius)
                assert got == _window_or_error(folded, plain, radius), (seeds, scale, radius)
    assert read._layers and not folded._layers
    if not read._equivariant:
        assert set(read._contributions) == set(folded._contributions)
        return
    # translates read off a centre table are not searched, so not memoized:
    # each one must still be what the fold's search gives
    assert set(read._contributions) <= set(folded._contributions)
    for S, (walked, _) in read._layers.items():
        contribution = read._translate_reader(S)
        for g in groups.ball(action.group, walked - 1).elements:
            assert contribution(g) == folded.member_contribution(action.apply_set(g, S)), (S, g)


@pytest.mark.parametrize("name", list(ORBIT_CASES))
def test_orbit_layers_read_what_the_fold_gives(name):
    # U = V covers every translate of V
    make, V = ORBIT_CASES[name]
    action = make()
    read, folded = (ActionInducedStructure(action, V, slack=LAYER_SLACK) for _ in range(2))
    _assert_layers_read_the_fold(read, folded, V)


class _PointsAsWitness(ActionInducedStructure):
    """A member's own points as its contribution, for an action of a group
    on itself: an orbit's witness then grows with every sphere, so each
    radius of the trace counts."""

    def _compute_contribution(self, member):
        return member


@pytest.mark.parametrize("name", ["left(DihInf)", "right(DihInf)"])
def test_orbit_layers_read_a_growing_trace(name):
    make, V = ORBIT_CASES[name]
    action = make()
    read, folded = (_PointsAsWitness(action, V) for _ in range(2))
    _assert_layers_read_the_fold(read, folded, V)
    # an orbit of the other side's action is folded, not read off these layers
    other = _translation(groups.DIH, "right" if name == "left(DihInf)" else "left")
    orbit = _Orbit(other, (V,), 1)
    assert read.read_off(orbit, RADIUS) is None
    assert membership_window(read, ParamFamily("other", action.space, grow=orbit), RADIUS).trace == (
        membership_window(folded, ParamFamily("plain", action.space, grow=_folded(orbit)), RADIUS).trace
    )


@pytest.mark.parametrize(
    "make, U, seeds, walked, inside",
    [
        # 2n + 0 misses every odd integer: the seed itself is refused
        (lambda: left_translation(power_hom(2)), (0,), [(0, 1)], {(0, 1): 0}, None),
        # 4 has no cover h.{0, 1} with |h| <= 2: the translates by sphere 3 are refused
        (_rotation, (0, 1), [(0, 1)], {(0, 1): 3}, 2),
        # h.{0} with |h| <= 2 misses 3 and 4.  The layers of {0} are refused
        # at sphere 3 (on 3), before {6} is walked; the fold meets {4} = -2.{6}
        # at radius 2 first, so only the fold names the least refused member
        (_rotation, (0,), [(0,), (6,)], {(0,): 3}, 1),
    ],
)
def test_refused_orbit_raises_what_the_fold_raises(make, U, seeds, walked, inside):
    action = make()
    read = ActionInducedStructure(action, U, slack=LAYER_SLACK)
    folded = ActionInducedStructure(action, U, slack=LAYER_SLACK)
    orbit = _Orbit(action, tuple(seeds), 1)
    pf, plain = ParamFamily("orbit", action.space, grow=orbit), ParamFamily("plain", action.space, grow=_folded(orbit))
    got = _window_or_error(read, pf, RADIUS)
    assert got[0] is WindowOverflowError
    assert got == _window_or_error(folded, plain, RADIUS)
    # each layer keeps only the spheres walked whole
    assert {S: done for S, (done, _) in read._layers.items()} == {frozenset(S): n for S, n in walked.items()}
    assert all(s < done for done, firsts in read._layers.values() for s in firsts.values())
    if inside is not None:
        assert _window_or_error(read, pf, inside) == _window_or_error(folded, plain, inside)
