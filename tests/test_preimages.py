"""The preimage index against the window scans it replaced.

Every "which x map to y" question about a map reads one index of its fibres,
grown one sphere of the source at a time: the preimage families and least
preimages of the equivalence check, the coarsely-proper traces and the
displacement sets d(F).  oracles.py keeps the scans, which apply the rule to a
whole window afresh.  Both must give the same fibres, traces, members and
tables at every radius.

The orbit map of a group translating itself through the identity reads the
preimage of an orbit {h.V} as the left translate family {h*P} of its fibre
set P, when every point of V has one fibre point and every h*P with
|h| <= radius lies in the source window; the generic family of fibres, which
``_preimage_family`` grows, must give the same members, reports and verdicts.
"""

from collections import Counter

import pytest

import oracles
from coarsekit import groups
from coarsekit.actions import (
    ActionInducedStructure,
    TranslationAction,
    _OrbitMap,
    action_translate_family,
    identity_hom,
    power_hom,
)
from coarsekit.cli import parse_map_dsl
from coarsekit.families import ParamFamily, Reading, ShapeTranslates, entry_trace, shape_translate_family
from coarsekit.maps import (
    MapWindow,
    _preimage_family,
    check_coarsely_proper,
    surjective_equivalence_check,
    table_map,
)
from coarsekit.structures import GroupStructure, LeftGroupStructure
from coarsekit.transfer import _c_singletons, _d_singletons, _union, default_key_battery

Z2 = groups.free_abelian(2)
F2 = groups.free_group(2)
GROUPS = {"Z": groups.Z, "Z^2": Z2, "DihInf": groups.DIH, "F(2)": F2}
RADIUS = {"Z": 6, "Z^2": 4, "DihInf": 5, "F(2)": 3}


def _far(spec):
    """An element of length 2, the last of the 2-ball."""
    return spec.serialize(groups.ball(spec, 2).elements[-1])


def _maps():
    """name -> (source group, a constructor of the MapWindow)."""
    out = {}
    for gname, spec in GROUPS.items():
        s = LeftGroupStructure(spec)
        g = _far(spec)
        for text in ("identity", "negate", f"translate-left:{g}", f"translate-right:{g}",
                     f"constant:{g}"):
            out[f"{text} on {gname}"] = (gname, lambda s=s, text=text: parse_map_dsl(text, s, s))
    z = LeftGroupStructure(groups.Z)
    targets = {"mod:6": LeftGroupStructure(groups.cyclic(6)), "inclusion": LeftGroupStructure(groups.DIH)}
    for text in ("power:2", "power:3", "floor-div:2", "floor-div:3", "mod:6", "inclusion"):
        tgt = targets.get(text, z)
        out[f"{text} on Z"] = ("Z", lambda text=text, tgt=tgt: parse_map_dsl(text, z, tgt))
    # a table rule raises outside Ball(6), so no question may grow the index past it
    table = {x: x // 2 for x in groups.ball(groups.Z, RADIUS["Z"]).elements}
    out["table on Z"] = ("Z", lambda: table_map("half", z, z, table))
    return out


MAPS = _maps()


@pytest.mark.parametrize("name", list(MAPS))
@pytest.mark.parametrize("order", ["up", "down"])
def test_fibres_match_scan(name, order):
    gname, make = MAPS[name]
    m = make()
    top = RADIUS[gname]
    radii = range(top + 1) if order == "up" else range(top, -1, -1)
    for r in radii:
        index = oracles.scan_full_index(m, r)
        assert m.fibres.image(r) == list(index), r
        for y, xs in index.items():
            assert m.fibres.get(y, r) == tuple(xs), (r, y)
    assert m.fibres.radius == top


@pytest.mark.parametrize("name", list(MAPS))
def test_reach_is_the_extent_of_the_least_preimage(name):
    gname, make = MAPS[name]
    m = make()
    top = RADIUS[gname]
    for y, xs in oracles.scan_full_index(m, top).items():
        least = m.source.space.extent(xs[0])
        assert m.fibres.reach(y, top) == least, y
        assert m.fibres.reach(y, least - 1) is None, y


@pytest.mark.parametrize("name", list(MAPS))
def test_coarsely_proper_traces_match_scan(name):
    gname, make = MAPS[name]
    m = make()
    radius = min(RADIUS[gname], 4)
    cert = check_coarsely_proper(m, radius)
    expect, failed = {}, None
    for y in dict.fromkeys(m.rule(x) for x in m.source.space.window(1)):
        for mesh in (0, 1, 2):
            U = m.target.bounded_neighborhood(y, mesh)
            trace = oracles.scan_proper_trace(m, U, radius)
            tag = f"nbhd({m.target.space.serialize(y)},{mesh})"
            expect[tag] = {str(r): n for r, n in trace.items()}
            if failed is None and not Reading(trace, radius).stable:
                failed = tag
    if failed is None:
        assert cert.passed
        assert cert.data["traces"] == expect
    else:
        assert not cert.passed
        assert (cert.data["test_set"], cert.data["trace"]) == (failed, expect[failed])


@pytest.mark.parametrize("gname", ["Z", "DihInf", "F(2)"])
def test_coarsely_proper_applies_the_rule_once_per_point(gname):
    spec = GROUPS[gname]
    s = LeftGroupStructure(spec)
    calls = Counter()

    def rule(x):
        calls[x] += 1
        return x

    radius = 4
    assert check_coarsely_proper(MapWindow("counted", s, s, rule, source_factor=1), radius).passed
    assert max(calls.values()) == 1
    assert set(calls) <= set(groups.ball(spec, radius).elements)


def _members(space) -> list:
    """Every one and two point subset of window(2), and some three point ones."""
    pts = space.window(2)
    out = [(p,) for p in pts] + [(p, q) for i, p in enumerate(pts) for q in pts[i + 1:]]
    out += [pts[i:i + 3] for i in range(len(pts) - 2)]
    return out


@pytest.mark.parametrize("name", list(MAPS))
@pytest.mark.parametrize("order", ["canonical", "reversed"])
def test_preimage_member_matches_scan(name, order):
    _, make = MAPS[name]
    m = make()
    members = _members(m.target.space)
    if order == "reversed":
        members.reverse()
    for mem in members:
        # each member asks the shared index for the window 2 past its extent
        source_radius = max(m.target.space.extent(y) for y in mem) + 2
        single = ParamFamily("member", m.target.space, lambda r, mem=mem: [mem] if r == 0 else [])
        [got] = _preimage_family(m, single, lambda y: m.fibres.get(y, source_radius)).grow(0)
        assert set(got) == set(oracles.scan_preimage_member(m, mem, source_radius)), mem


def test_selection_takes_the_least_preimage():
    z = LeftGroupStructure(groups.Z)
    m = parse_map_dsl("floor-div:2", z, z)
    radius = 12
    cert = surjective_equivalence_check(m, radius)
    assert cert.passed
    index = oracles.scan_full_index(m, m.source_radius(radius))
    assert cert.data["selection"] == {
        str(y): str(index[y][0]) for y in groups.ball(groups.Z, radius).elements
    }


# (map, source group, radius): the gromov maps on Z with the extended key
# battery, and the isometries of the other groups with the generator battery
TRANSFER = [
    ("power:2", "Z", 6), ("power:3", "Z", 6), ("negate", "Z", 6), ("identity", "Z", 6),
    ("inclusion", "Z", 6),
    ("identity", "Z^2", 3), ("negate", "Z^2", 3),
    ("identity", "DihInf", 3), ("negate", "DihInf", 3),
    ("identity", "F(2)", 2), ("negate", "F(2)", 2),
]


@pytest.mark.parametrize("text,gname,radius", TRANSFER)
def test_transfer_sets_match_all_pairs(text, gname, radius):
    src = LeftGroupStructure(GROUPS[gname])
    tgt = LeftGroupStructure(groups.DIH) if text == "inclusion" else src
    alpha = parse_map_dsl(text, src, tgt)
    src_radius = alpha.source_radius(radius)
    G, H = src.space.spec, tgt.space.spec
    extended = gname == "Z"
    # (group of the keys, group of the values, singleton tables, reference)
    for keyed, valued, singletons, ref in (
        (H, G, _d_singletons, oracles.ref_d_set),
        (G, H, _c_singletons, oracles.ref_c_set),
    ):
        keys = default_key_battery(keyed, extended=extended)
        tables = singletons(alpha, {f for F in keys for f in F}, src_radius)
        for F in keys:
            enters = _union(tables, F)
            got = groups.canonical_sorted(valued, enters), entry_trace(enters.values(), src_radius)
            assert got == ref(alpha, groups.canonical_sorted(keyed, F), src_radius), F


# ---------------------------------------------------------------------------
# preimages of orbits under the orbit map, read off the fibre set

ORBIT_GROUPS = {**GROUPS, "product(Z,DihInf)": groups.parse_group_spec("product(Z,DihInf)")}
ORBIT_SLACK = 2


def _generic_preimages(monkeypatch):
    monkeypatch.setattr(_OrbitMap, "preimage", lambda m, pf, fibre, radius: _preimage_family(m, pf, fibre))


def _grown(grow, radius: int) -> list:
    return [{frozenset(m) for m in grow(r)} for r in range(radius + 1)]


@pytest.mark.parametrize("structure", ["induced", "own side"])
@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("gname", list(ORBIT_GROUPS))
def test_orbit_map_preimages_match_the_generic_family(monkeypatch, gname, side, structure):
    spec = ORBIT_GROUPS[gname]
    action = TranslationAction(identity_hom(spec), side)
    e = spec.identity()
    if structure == "induced":
        target = ActionInducedStructure(action, (e,), slack=ORBIT_SLACK)
    else:
        target = GroupStructure(spec, side)
    radius = 4  # at 3 the properness traces fill the window, and no preimage is read
    reports, read = [], []
    preimage = _OrbitMap.preimage
    monkeypatch.setattr(_OrbitMap, "preimage", lambda m, *a: read.append(preimage(m, *a)) or read[-1])
    for x0 in (e, spec.generators()[0]):
        m = _OrbitMap(action, x0, target, ORBIT_SLACK)
        reports.append(surjective_equivalence_check(m, radius, n_random=8).to_json())
    assert reports[0]["verdict"] == "PASS" and reports[0]["data"]["preimage_families"]
    assert any(isinstance(pf.grow, ShapeTranslates) for pf in read)
    _generic_preimages(monkeypatch)
    for x0, report in zip((e, spec.generators()[0]), reports):
        m = _OrbitMap(action, x0, target, ORBIT_SLACK)
        assert report == surjective_equivalence_check(m, radius, n_random=8).to_json()


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("gname", ["Z", "DihInf", "F(2)"])
def test_orbit_map_preimage_reads_off_up_to_the_window_edge(gname, side):
    """P at max|p| = slack fills the source window at |h| = radius and is
    read off; one step further, h*P leaves the window, the generic member is
    cut there, and the generic family is kept."""
    spec = GROUPS[gname]
    action = TranslationAction(identity_hom(spec), side)
    radius = 3
    x0 = spec.generators()[0]
    m = _OrbitMap(action, x0, GroupStructure(spec, side), ORBIT_SLACK)
    source_radius = m.source_radius(radius)
    fibre = lambda y: m.fibres.get(y, source_radius)
    e = spec.identity()
    for reach in (ORBIT_SLACK, ORBIT_SLACK + 1):
        P = (e, groups.sphere(spec, reach)[-1])
        V = tuple(action.apply(p, x0) for p in P)
        for pf in (action_translate_family(action, V), shape_translate_family(action.space, V, side)):
            got = m.preimage(pf, fibre, radius)
            generic = _preimage_family(m, pf, fibre)
            assert got.tag == generic.tag == f"pre({pf.tag})"
            if reach == ORBIT_SLACK:
                assert isinstance(got.grow, ShapeTranslates) and set(got.grow.shape) == set(P)
                assert _grown(got.grow, radius) == _grown(generic.grow, radius)
            else:
                assert not isinstance(got.grow, ShapeTranslates)
                assert _grown(ShapeTranslates(spec, P, "left"), radius) != _grown(generic.grow, radius)


def test_orbit_map_through_another_homomorphism_keeps_the_generic_family(monkeypatch):
    action = TranslationAction(power_hom(2), "left")  # left(Z via 2n)
    m = _OrbitMap(action, 0, GroupStructure(groups.Z, "left"), ORBIT_SLACK)
    fibre = lambda y: m.fibres.get(y, m.source_radius(4))
    for pf in (action_translate_family(action, (0, 2)), shape_translate_family(action.space, (0, 2), "left")):
        assert not isinstance(m.preimage(pf, fibre, 4).grow, ShapeTranslates)
    report = surjective_equivalence_check(m, 4, n_random=8).to_json()
    _generic_preimages(monkeypatch)
    assert report == surjective_equivalence_check(m, 4, n_random=8).to_json()
