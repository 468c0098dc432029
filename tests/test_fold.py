"""The group-side fold of membership_window against the per-member loop.

``GroupStructure.fold`` runs one kernel over a whole delta: the identity once
for the diagonal, and each pair (u, v) with u before v multiplied once, its
mirror (v, u) read off as the inverse.  Whatever the family (pairs, shapes,
wide columns, members that repeat across radii or repeat a point, members
given as sets), the verdict, trace and elements must be those of
``oracles.ref_membership_window``, which multiplies every ordered pair of
every distinct member.

A translate family of a shape whose translations are isometries of the
structure (``GroupStructure.translations_isometric``: its own side, or either
side of an abelian group) is read off the shape and never folded (L6); its
verdict, trace and elements must be the reference's too.  So is the image of
such a family through a catalog homomorphism, read off the image shape, and
the orbit of a translation action through the identity, x^n or 2n, read off
its seed.
"""

import contextlib
import io
import json
import random

import pytest

from coarsekit import cli, groups, maps, structures
from coarsekit.actions import (
    ActionInducedStructure,
    _OrbitMap,
    _orbit_seed,
    action_translate_family,
    coarse_action_certificate,
    identity_hom,
    inclusion_hom,
    left_translation,
    power_hom,
    right_translation,
)
from coarsekit.families import (
    ParamFamily,
    ShapeTranslates,
    finite_family,
    fold_witness,
    image_family,
    member_witness,
    shape_translate_family,
    side_witness,
    translate_pair_family,
)
from coarsekit.maps import identity_map, inclusion_z_to_dih, mod_map, power_map
from coarsekit.spaces import GroupSpace
from coarsekit.structures import (
    CoarseStructure,
    GroupStructure,
    LeftGroupStructure,
    RightGroupStructure,
    membership_window,
    random_shapes,
)

import oracles

SPECS = ["Z", "Z^2", "DihInf", "F(2)", "product(Z,DihInf)", "Zmod(6)"]
SIDES = ["left", "right"]
RADIUS = 6


def _spec(text):
    return groups.parse_group_spec(text)


def _translate_pairs(spec):
    space = GroupSpace(spec)
    return [translate_pair_family(space, a, s) for a in spec.generators() for s in SIDES]


def _shape_translates(spec):
    space = GroupSpace(spec)
    shapes = random_shapes(spec, seed=11, count=6)
    assert {len(s) for s in shapes} >= {1, 2} and max(map(len, shapes)) <= 3
    return [shape_translate_family(space, shape, s) for shape in shapes for s in SIDES]


def _columns(spec):
    """multiplication_bornologous_check's columns F x {g} over the square,
    for F of 2 points, Ball(1) and Ball(2) (2, 5 and 13 points on Z^2)."""
    square = groups.product(spec, spec)
    ball2 = groups.ball(spec, 2).elements
    fams = []
    for F in (ball2[:2], groups.ball(spec, 1).elements, ball2):
        def grow(r, F=F):
            return (tuple((f, g) for f in F) for g in groups.sphere(spec, r))

        fams.append(ParamFamily(tag=f"column{len(F)}", space=GroupSpace(square), grow=grow))
    return fams


def _repeating_images(spec):
    """Images that land on the same member at many radii, and members with a
    repeated point: every point beyond length 2 is sent to the identity."""
    space = GroupSpace(spec)
    e = spec.identity()

    def rule(g):
        return g if spec.length(g) <= 2 else e

    bases = _translate_pairs(spec)[:2] + _shape_translates(spec)[:4]
    return [image_family(pf, rule, space) for pf in bases]


def _repeated_points_and_sets(spec):
    space = GroupSpace(spec)
    a = spec.generators()[0]
    mul = spec.mul

    def doubled(r):
        return [(g, g, mul(a, g), g) for g in groups.sphere(spec, r)]

    def as_sets(r):
        return [frozenset((g, mul(g, a))) for g in groups.sphere(spec, r)] + [
            {g, mul(a, g), mul(mul(a, g), a)} for g in groups.sphere(spec, r)
        ]

    return [ParamFamily(tag="doubled", space=space, grow=doubled),
            ParamFamily(tag="sets", space=space, grow=as_sets)]


KINDS = {
    "translate-pairs": _translate_pairs,
    "shape-translates": _shape_translates,
    "columns": _columns,
    "repeating-images": _repeating_images,
    "repeated-points-and-sets": _repeated_points_and_sets,
}


@pytest.mark.parametrize("kind", list(KINDS))
@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("text", SPECS)
def test_fold_matches_per_member_loop(text, side, kind):
    spec = _spec(text)
    radius = 4 if text == "F(2)" else RADIUS
    for pf in KINDS[kind](spec):
        group = pf.space.spec
        got = membership_window(GroupStructure(group, side), pf, radius)
        expected = oracles.ref_membership_window(side, group, pf, radius)
        assert (got.verdict, got.trace, got.elements) == expected, pf.tag


def test_cases_repeat_members_and_reach_both_verdicts():
    spec = _spec("Z^2")
    for pf in _repeating_images(spec):
        firsts = [{frozenset(m) for m in pf.grow(r)} for r in range(RADIUS + 1)]
        assert any(firsts[r] & firsts[r + 1] for r in range(RADIUS)), pf.tag
    dih = _spec("DihInf")
    verdicts = {
        oracles.ref_membership_window(side, dih, pf, RADIUS)[0]
        for side in SIDES for pf in _translate_pairs(dih)
    }
    assert verdicts == {"PASS", "FAIL"}


def test_columns_have_two_five_and_thirteen_points_on_z2():
    sizes = [len(next(iter(pf.grow(1)))) for pf in _columns(_spec("Z^2"))]
    assert sizes == [2, 5, 13]


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("text", SPECS)
def test_member_witness_matches_every_ordered_pair(text, side):
    spec = _spec(text)
    rng = random.Random(f"{text}-{side}")
    pool = groups.ball(spec, 3).elements
    for _ in range(300):
        member = tuple(rng.choices(pool, k=rng.randint(0, 4)))
        assert member_witness(side, spec, member) == oracles.ref_member_witness(side, spec, member), member


@pytest.mark.parametrize("side", SIDES)
def test_one_kernel_behind_every_entry_point(side):
    spec = _spec("DihInf")
    members = [m for pf in _shape_translates(spec) for m in pf.at(3).members]
    expected = set().union(*(oracles.ref_member_witness(side, spec, m) for m in members))
    folded: set = set()
    fold_witness(folded, side, spec, members)
    assert folded == expected
    assert set(side_witness(side, spec, finite_family(GroupSpace(spec), members)).elements) == expected
    struct = GroupStructure(spec, side)
    assert set().union(*(struct.member_contribution(m) for m in members)) == expected


def test_no_member_and_empty_members_add_nothing():
    spec = _spec("Z")
    out: set = set()
    fold_witness(out, "left", spec, [])
    fold_witness(out, "left", spec, [(), frozenset()])
    assert out == set()
    fold_witness(out, "left", spec, [(), (5,)])
    assert out == {0}


class _Passthrough(CoarseStructure):
    """The left witness of each member, through the generic memo fold."""

    def __init__(self, spec):
        super().__init__()
        self.spec, self.space, self.label = spec, GroupSpace(spec), f"passthrough({spec.label()})"

    def witness_group(self):
        return self.spec

    def _compute_contribution(self, member):
        return member_witness("left", self.spec, member)


def test_overriding_a_contribution_restores_the_generic_fold():
    assert GroupStructure.fold is not CoarseStructure.fold
    assert LeftGroupStructure.fold is GroupStructure.fold
    assert _Passthrough.fold is CoarseStructure.fold
    spec = _spec("Z^2")
    for pf in (_repeating_images(spec)[0], shape_translate_family(GroupSpace(spec), ((0, 0), (1, 0)), "left")):
        assert _Passthrough(spec).read_off(pf.grow, RADIUS) is None
        got = membership_window(_Passthrough(spec), pf, RADIUS)
        expected = oracles.ref_membership_window("left", spec, pf, RADIUS)
        assert (got.verdict, got.trace, got.elements) == expected, pf.tag


# ---------------------------------------------------------------------------
# translate families read off their shape (L6)

ABELIAN = ["Z^2", "Zmod(6)", "product(Z,Zmod(3))"]
NON_ABELIAN = ["DihInf", "F(2)", "product(Z,DihInf)"]


def _read_off_shapes(spec):
    """Shapes of 1, 2 and 3 points, one with a repeated point, and the empty
    shape."""
    e, a = spec.identity(), spec.generators()[0]
    ball2 = groups.ball(spec, 2).elements
    return [(a,), (e, a), (a, e, a), (ball2[1], e, ball2[-1]), ()]


def _translations_onto(spec):
    """The left and right translations of spec through the identity, and of
    Z through x^n onto DihInf or through 2n onto Z."""
    homs = [identity_hom(spec)]
    homs += [inclusion_hom()] if spec == groups.DIH else [power_hom(2)] if spec == groups.Z else []
    return [make(hom) for hom in homs for make in (left_translation, right_translation)]


def _read_off_cases(texts):
    """Shape translate families on both sides, and the orbits of the
    translations onto the group, each in both structures of the group."""
    for text in texts:
        spec = _spec(text)
        space = GroupSpace(spec)
        actions = _translations_onto(spec)
        for shape in _read_off_shapes(spec):
            for side in SIDES:
                for family_side in SIDES:
                    yield spec, side, shape_translate_family(space, shape, family_side)
                for action in actions:
                    orbit = action_translate_family(action, shape)
                    assert _orbit_seed(action, orbit.grow) == shape
                    yield spec, side, orbit


@pytest.mark.parametrize("text", sorted(set(SPECS) | set(ABELIAN) | set(NON_ABELIAN)))
def test_translate_family_read_off_matches_the_reference(text):
    # radii 0..8; F(2) stops at 6, where the reference already walks 1,457
    # elements per radius (radii 7 and 8 would add about 5 s)
    fired = set()
    for spec, side, pf in _read_off_cases([text]):
        struct = GroupStructure(spec, side)
        read = struct.read_off(pf.grow, 8)
        assert (read is not None) == struct.translations_isometric(pf.grow.side), (pf.tag, side)
        fired.add((pf.grow.side == side, read is not None))
        if read is not None:
            witness = oracles.ref_member_witness(side, spec, pf.grow.shape)
            assert read == (witness, dict.fromkeys(range(9), len(witness))), (pf.tag, side)
        for radius in range(7 if text == "F(2)" else 9):
            got = membership_window(struct, pf, radius)
            expected = oracles.ref_membership_window(side, spec, pf, radius)
            assert (got.verdict, got.trace, got.elements) == expected, (pf.tag, side, radius)
    # the own side is always read off; the opposite side only when abelian
    assert fired == {(True, True), (False, text in ABELIAN + ["Z"])}


@pytest.mark.parametrize("text", ABELIAN + NON_ABELIAN)
def test_opposite_side_is_read_off_exactly_when_abelian(text):
    spec = _spec(text)
    verdicts = set()
    for _, side, pf in _read_off_cases([text]):
        if pf.grow.side != side:
            read = GroupStructure(spec, side).read_off(pf.grow, 6)
            assert (read is not None) == (text in ABELIAN), pf.tag
            if read is not None:
                witness = oracles.ref_member_witness(side, spec, pf.grow.shape)
                assert read == (witness, dict.fromkeys(range(7), len(witness))), pf.tag
            verdicts.add(membership_window(GroupStructure(spec, side), pf, 6).verdict)
    # a non-abelian group has an unbounded opposite-side translate family
    assert verdicts == ({"PASS"} if text in ABELIAN else {"PASS", "FAIL"})


def test_a_translate_family_of_another_group_is_folded():
    other = shape_translate_family(GroupSpace(_spec("Z^3")), ((0, 0, 0), (1, 0, 0)), "left")
    assert LeftGroupStructure(_spec("Z^2")).read_off(other.grow, RADIUS) is None


def test_witness_reads_a_translate_family_without_a_ball(monkeypatch):
    Z2 = _spec("Z^2")
    folds = []

    def counted(*args):
        folds.append(args)
        return fold_witness(*args)

    monkeypatch.setattr(structures, "fold_witness", counted)
    monkeypatch.setattr(groups, "_BALL_CACHES", {})
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["witness", "--group", "Z^2", "--family", "shape-right:(0,1);(0,2)", "--radius", "24"])
    data = json.loads(buf.getvalue())["checks"][0]["data"]
    assert (code, data["witness"]) == (0, ["(0,0)", "(0,1)", "(0,-1)"])
    assert data["trace"] == {str(r): 3 for r in range(25)}
    assert folds == []
    cache = groups._BALL_CACHES.get(Z2)
    assert cache is None or len(cache.layers) == 1


def test_fold_inverts_only_new_products(monkeypatch):
    spec = _spec("Z^2")
    members = [m for pf in _shape_translates(spec) for m in pf.at(2).members]
    pairs = sum(len(m) * (len(m) - 1) // 2 for m in members)
    inversions = []
    inv = spec.inv
    monkeypatch.setattr(spec, "inv", lambda g: inversions.append(g) or inv(g))
    out: set = set()
    fold_witness(out, "right", spec, members)
    first = len(inversions)
    fold_witness(out, "right", spec, members)
    # one inversion per pair inside the products, and one per new product:
    # every element of the witness but the identity, then none
    assert first == pairs + len(out) - 1
    assert len(inversions) - first == pairs


# ---------------------------------------------------------------------------
# images of translate families through a homomorphism, read off f(S)

def _homomorphisms():
    """name -> (the MapWindow, the radii read, whether its target reads the
    images off): every catalog homomorphism.  Each battery family lies on
    its structure's side, so a map onto the other side of DihInf folds every
    image.  F(2) is read at radii 3..5, where the reference already walks
    485 elements per radius."""
    z = LeftGroupStructure(groups.Z)
    out = {}
    for text in ("Z", "Z^2", "DihInf", "F(2)"):
        spec = _spec(text)
        radii = range(3, 6 if text == "F(2)" else 9)
        for side in SIDES:
            out[f"identity on {text}, C_{side[0]}"] = (identity_map(GroupStructure(spec, side)), radii, True)
    out["identity C_l -> C_r on DihInf"] = (
        identity_map(LeftGroupStructure(groups.DIH), RightGroupStructure(groups.DIH)), range(3, 9), False
    )
    for k in (-2, 0, 2, 3):
        out[f"power:{k}"] = (power_map(z, z, k), range(3, 9), True)
    out["inclusion into C_l"] = (inclusion_z_to_dih(z, LeftGroupStructure(groups.DIH)), range(3, 9), True)
    out["inclusion into C_r"] = (inclusion_z_to_dih(z, RightGroupStructure(groups.DIH)), range(3, 9), False)
    out["mod:3"] = (mod_map(z, LeftGroupStructure(groups.cyclic(3)), 3), range(3, 9), True)
    return out


HOMOMORPHISMS = _homomorphisms()


def _members(grow, radius):
    return [{frozenset(m) for m in grow(r)} for r in range(radius + 1)]


@pytest.mark.parametrize("name", list(HOMOMORPHISMS))
def test_image_of_a_translate_family_reads_what_the_fold_gives(name):
    m, radii, read_off = HOMOMORPHISMS[name]
    assert m.homomorphism
    tgt = m.target
    verdicts = set()
    for pf in m.source.default_battery(seed=0, n_random=8):
        img = m.image(pf)
        plain = image_family(pf, m.rule, tgt.space, tag=img.tag)
        assert isinstance(img.grow, ShapeTranslates) and img.grow.shape == tuple(map(m.rule, pf.grow.shape))
        assert (img.grow.source, img.grow.f) == (m.source.spec, m.rule)
        # the true members f(g)*f(S), over the source spheres
        assert _members(img.grow, radii[-1]) == _members(plain.grow, radii[-1]), pf.tag
        for radius in radii:
            assert (tgt.read_off(img.grow, radius) is not None) == read_off
            got = membership_window(tgt, img, radius)
            expected = oracles.ref_membership_window(tgt.side, tgt.spec, plain, radius)
            assert (got.verdict, got.trace, got.elements) == expected, (pf.tag, radius)
            verdicts.add(got.verdict)
    assert verdicts == ({"PASS", "FAIL"} if name == "identity C_l -> C_r on DihInf" else {"PASS"})


def test_inclusion_into_c_r_folds_the_true_members():
    """The image of a left shape family of Z is not the translate family of
    its image shape in DihInf: that one holds t*x^S too."""
    m = HOMOMORPHISMS["inclusion into C_r"][0]
    pf = m.source.default_battery(seed=0, n_random=8)[1]
    img = m.image(pf)
    assert m.target.read_off(img.grow, 8) is None
    wide = shape_translate_family(m.target.space, img.grow.shape, "left")
    assert _members(img.grow, 1) != _members(wide.grow, 1)
    got = membership_window(m.target, img, 8)
    assert got.verdict == "PASS"
    assert (got.verdict, got.trace, got.elements) == oracles.ref_membership_window(
        "right", groups.DIH, image_family(pf, m.rule, m.target.space), 8
    )


def test_image_is_no_translate_family_of_the_target():
    """An induced structure of the target group's own translation, and the
    orbit map of that translation, take the image of Z's left shapes under
    the inclusion as no orbit: its members come one per element of Z."""
    m = HOMOMORPHISMS["inclusion into C_l"][0]
    action = left_translation(identity_hom(groups.DIH))
    induced = ActionInducedStructure(action, ((0, 0),))
    orbit_map = _OrbitMap(action, (0, 0), induced, 2)
    for pf in m.source.default_battery(seed=0, n_random=8):
        img = m.image(pf)
        assert img.grow.side == action.side and img.grow.spec == action.group
        assert induced.read_off(img.grow, 6) is None
        assert _orbit_seed(action, img.grow) is None
        assert _orbit_seed(action, orbit_map.image(img).grow) is None
        plain = ParamFamily("plain", img.space, grow=lambda r, g=img.grow: g(r))
        assert membership_window(induced, img, 6).trace == membership_window(induced, plain, 6).trace


def test_maps_that_are_no_homomorphism_keep_the_image_family():
    z = LeftGroupStructure(groups.Z)
    for text in ("negate", "square", "floor-div:2", "translate-left:1", "constant:0"):
        m = cli.parse_map_dsl(text, z, z)
        assert not m.homomorphism
        pf = shape_translate_family(z.space, (0, 1), "left")
        assert not isinstance(m.image(pf).grow, ShapeTranslates), text


def test_gromov_folds_no_image_family(monkeypatch):
    """``gromov --map power:2`` probes the map's bornologous check, whose
    images of Z's battery are all read off their image shapes."""
    folds = []
    fold = GroupStructure.fold
    monkeypatch.setattr(GroupStructure, "fold", lambda s, w, members: folds.append(s) or fold(s, w, members))
    reads = []
    window = maps.membership_window

    def counted(struct, pf, radius):
        before = len(folds)
        res = window(struct, pf, radius)
        reads.append((pf.tag, len(folds) - before))
        return res

    monkeypatch.setattr(maps, "membership_window", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["gromov", "--map", "power:2", "--radius", "8", "--enum-radius", "2"]) == 0
    images = [n for tag, n in reads if tag.startswith("power:2(")]
    assert len(images) == len(LeftGroupStructure(groups.Z).default_battery(seed=0, n_random=32))
    assert images == [0] * len(images)


def test_orbit_map_folds_only_the_families_that_are_no_translates(monkeypatch):
    """``coarse_action_certificate`` for left(F(2)) on C_l(F(2)) at R = 6 (what
    ``svarc-milnor --action 'left(F(2))'`` certifies) reads every translate
    family off its shape, the orbit map's images and preimages included, and
    folds on a group structure only the closeness families of its selection;
    the report is the one that folding every family gives."""
    F2 = groups.free_group(2)

    def report():
        action = left_translation(identity_hom(F2))
        cert = coarse_action_certificate(action, LeftGroupStructure(F2), F2.identity(), 6)
        return json.dumps(cert.to_json(), sort_keys=True)

    folded = []
    read_off = GroupStructure.read_off

    def counted(struct, grow, radius):
        read = read_off(struct, grow, radius)
        if read is None:
            folded.append(grow)
        return read

    monkeypatch.setattr(GroupStructure, "read_off", counted)
    got = report()
    assert len(folded) == 2
    assert not any(isinstance(grow, ShapeTranslates) for grow in folded)
    monkeypatch.setattr(GroupStructure, "read_off", lambda struct, grow, radius: None)
    assert report() == got
