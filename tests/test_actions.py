"""Action checks: stabilizers, uniform bornologousness, coboundedness, the
induced structure, action certificates, and commuting pairs."""

import sys

import pytest

import oracles
from freeze_golden import COMMANDS, GOLDEN_DIR, render
from coarsekit import actions, cli, groups, structures
from coarsekit.actions import (
    ActionInducedStructure,
    Hom,
    TranslationAction,
    cb_elements,
    coarse_action_certificate,
    cobounded_check,
    commuting_equivalence,
    identity_hom,
    inclusion_hom,
    induced_structure_second,
    left_translation,
    point_finite_check,
    power_hom,
    right_translation,
    stabilizer_window,
    table_action,
    trivial_action,
    uniformly_bornologous_action_check,
)
from coarsekit.errors import (
    CommutativityError,
    PreconditionError,
    WindowTooSmallError,
)
from coarsekit.families import translate_pair_family
from coarsekit.maps import check_bornologous, table_map
from coarsekit.spaces import FiniteSpace, GroupSpace
from coarsekit.structures import (
    GroupStructure,
    LeftGroupStructure,
    RightGroupStructure,
    membership_window,
)

Z = groups.Z
DIH = groups.DIH
X = (1, 0)
T = (0, 1)
ONE = (0, 0)
DS = GroupSpace(DIH)


def z_on_dih_left():
    return left_translation(inclusion_hom())


def z_on_dih_right():
    return right_translation(inclusion_hom())


class TestValidation:
    def test_table_action_round(self):
        space = FiniteSpace("four", (0, 1, 2, 3))
        z4 = groups.cyclic(4)
        # generator order is (1, n-1); both permutations must match
        perms = {
            0: {p: (p + 1) % 4 for p in range(4)},
            1: {p: (p + 3) % 4 for p in range(4)},
        }
        action = table_action(z4, space, perms)
        assert action.apply(2, 1) == 3

    def test_inconsistent_table_rejected(self):
        space = FiniteSpace("four", (0, 1, 2, 3))
        z4 = groups.cyclic(4)
        perms = {
            0: {p: (p + 1) % 4 for p in range(4)},
            1: {p: (p + 1) % 4 for p in range(4)},  # 3 and 1 cannot both shift by one
        }
        with pytest.raises(PreconditionError):
            table_action(z4, space, perms)

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("hom", [
        Hom("n^2", Z, Z, lambda n: n * n),
        Hom("n+1", Z, Z, lambda n: n + 1),
        Hom("t^n", Z, DIH, lambda n: (0, n % 2)),  # a homomorphism: t is an involution
        Hom("x^|n|", Z, DIH, lambda n: (abs(n), 0)),
        inclusion_hom(),
    ], ids=lambda hom: hom.label)
    def test_translation_law_matches_check_at_every_point(self, hom, side):
        """Checking the law at the identity point alone raises the error that
        checking it at every point of window(3) raises first, or none."""
        action = TranslationAction(hom, side)
        expected = oracles.ref_action_law_error(action)
        if expected is None:
            action.validate()
        else:
            with pytest.raises(PreconditionError) as err:
                action.validate()
            assert str(err.value) == expected

    @pytest.mark.parametrize("make", [left_translation, right_translation])
    def test_non_homomorphism_rejected(self, make):
        with pytest.raises(PreconditionError, match="action law fails at g1=1, g2=1, x=0"):
            make(Hom("n^2", Z, Z, lambda n: n * n))

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_translation_law_applies_at_one_point(self, side, monkeypatch):
        """One application per identity check and three per pair of Ball(3)
        of F(2), not three per pair and point of window(3)."""
        calls = []
        apply = TranslationAction.apply

        def counting(self, g, x):
            calls.append(g)
            return apply(self, g, x)

        monkeypatch.setattr(TranslationAction, "apply", counting)
        F2 = groups.free_group(2)
        TranslationAction(identity_hom(F2), side).validate()
        n = len(groups.ball(F2, 3).elements)
        assert len(calls) == 1 + 3 * n * n

    def test_hom_labels(self):
        assert left_translation(power_hom(3)).name == "left(Z via 3n)"
        assert z_on_dih_left().name == "left(Z->DihInf via x^n)"


class TestStabilizerWindow:
    def test_free_action_has_trivial_stabilizer(self):
        stab = stabilizer_window(left_translation(identity_hom(DIH)), (ONE,), 6)
        assert stab.trace[6] == 1
        assert set(stab.trace.values()) == {1}
        assert stab.stable

    def test_reflection_pair_under_rotation_subgroup(self):
        stab = stabilizer_window(z_on_dih_left(), (ONE, T), 6)
        assert stab.trace[6] == 1
        assert set(stab.trace.values()) == {1}
        assert stab.stable

    def test_trivial_action_stabilizes_nothing_out(self):
        stab = stabilizer_window(trivial_action(Z, GroupSpace(Z)), (0,), 6)
        assert [stab.trace[r] for r in range(7)] == [2 * r + 1 for r in range(7)]
        assert stab.verdict == "FAIL"


class TestPointFinite:
    def test_translation(self):
        cert = point_finite_check(left_translation(identity_hom(Z)), (0, 1), 0, 8)
        assert cert.verdict == "PASS"
        assert cert.data["trace"]["8"] == 2

    def test_trivial_fails(self):
        cert = point_finite_check(trivial_action(Z, GroupSpace(Z)), (0,), 0, 8)
        assert cert.verdict == "FAIL"

    def test_rotation_subgroup_hits_reflection_once(self):
        cert = point_finite_check(z_on_dih_left(), (ONE, T), T, 8)
        assert cert.verdict == "PASS"
        assert cert.data["trace"]["8"] == 1


# (inducing action, acting action or None for the inducing one, radii,
# seeds); the other side of a non-abelian group FAILs
SEEDS = (0, 1, 2)
INDUCED_REFERENCE = {
    "left-Z-DihInf": (z_on_dih_left, None, (3, 4, 6), SEEDS),
    "right-DihInf": (lambda: right_translation(identity_hom(DIH)), None, (3, 4, 6), SEEDS),
    "left-Z-2n": (lambda: left_translation(power_hom(2)), None, (3, 4, 6), SEEDS),
    "left-Z^2": (lambda: left_translation(identity_hom(groups.free_abelian(2))), None, (3, 4, 6), SEEDS),
    "left-DihInf-on-right-induced": (
        lambda: right_translation(identity_hom(DIH)), lambda: left_translation(identity_hom(DIH)), (3, 4, 6), SEEDS
    ),
    "right-DihInf-on-left-induced": (
        lambda: left_translation(identity_hom(DIH)), lambda: right_translation(identity_hom(DIH)), (3, 4, 6), SEEDS
    ),
    # non-abelian groups on their own induced structures: the reference walks
    # every translate, so the larger groups are read at small radii, seed 0
    "left-DihInf": (lambda: left_translation(identity_hom(DIH)), None, (3, 4, 6), (0,)),
    "left-product(Z,DihInf)": (
        lambda: left_translation(identity_hom(groups.parse_group_spec("product(Z,DihInf)"))), None, (3,), (0,)
    ),
    "left-F(2)": (lambda: left_translation(identity_hom(groups.free_group(2))), None, (3,), (0,)),
}
INDUCED_REFERENCE_CASES = [
    pytest.param(inducing, other, radius, seed, id=f"{name}-{radius}" + (f"-seed{seed}" if seed else ""))
    for name, (inducing, other, radii, seeds) in INDUCED_REFERENCE.items()
    for radius in radii
    for seed in seeds
]


@pytest.fixture
def applied(monkeypatch):
    """The acting elements of every ``TranslationAction.apply_set`` call."""
    seen = []
    apply_set = TranslationAction.apply_set
    monkeypatch.setattr(TranslationAction, "apply_set", lambda a, g, S: seen.append(g) or apply_set(a, g, S))
    return seen


class TestUniformlyBornologous:
    def test_left_translations_preserve_left_structure(self):
        cert = uniformly_bornologous_action_check(
            left_translation(identity_hom(DIH)), LeftGroupStructure(DIH), 6
        )
        assert cert.verdict == "PASS"
        edge = cert.data["families"]["{{g, g*x}}"]
        assert set(edge["direct"]["witness"]) == {"1", "x", "x^-1"}

    def test_left_translations_break_right_structure(self):
        cert = uniformly_bornologous_action_check(
            left_translation(identity_hom(DIH)), RightGroupStructure(DIH), 6
        )
        assert cert.verdict == "FAIL"
        counter = cert.data["counterexample"]
        assert counter["family"] == "translates({{g, t*g}})"
        assert counter["trace"] == {str(r): 2 * r + 2 for r in range(7)}

    def test_right_translations_preserve_right_structure(self):
        cert = uniformly_bornologous_action_check(
            right_translation(identity_hom(DIH)), RightGroupStructure(DIH), 6
        )
        assert cert.verdict == "PASS"

    @pytest.mark.parametrize(
        "hom,side,struct_side,radius",
        [
            (identity_hom(groups.free_abelian(2)), "left", "left", 6),
            (identity_hom(groups.free_abelian(2)), "right", "right", 6),
            (identity_hom(DIH), "left", "left", 8),
            (identity_hom(DIH), "right", "right", 8),
            (inclusion_hom(), "left", "left", 8),
            (inclusion_hom(), "right", "right", 8),
            (power_hom(3), "right", "right", 8),
            (identity_hom(groups.free_group(2)), "left", "left", 3),
            (identity_hom(groups.parse_group_spec("product(Z,DihInf)")), "right", "right", 4),
            # abelian groups: translations on the other side are isometries too
            (identity_hom(groups.free_abelian(2)), "right", "left", 6),
            (power_hom(3), "right", "left", 8),
            (identity_hom(groups.parse_group_spec("Zmod(6)")), "left", "right", 6),
            (identity_hom(groups.parse_group_spec("product(Z,Zmod(3))")), "right", "left", 6),
        ],
        ids=["left-Z^2", "right-Z^2", "left-DihInf", "right-DihInf", "left-Z-DihInf",
             "right-Z-DihInf", "right-Z-3n", "left-F(2)", "right-product(Z,DihInf)",
             "right-Z^2-on-C_l", "right-Z-3n-on-C_l", "left-Zmod(6)-on-C_r",
             "right-product(Z,Zmod(3))-on-C_l"],
    )
    def test_translations_on_their_own_side_read_the_family(self, applied, hom, side, struct_side, radius):
        """L5: the report equals the generic route's, and no translate is built."""
        action = TranslationAction(hom, side)
        struct = GroupStructure(hom.target, struct_side)
        expected = oracles.ref_uniformly_bornologous_action_check(action, struct, radius)
        assert applied  # the generic route builds translates
        applied.clear()
        cert = uniformly_bornologous_action_check(action, struct, radius)
        assert cert.to_json() == expected.to_json()
        assert cert.verdict == "PASS" and applied == []

    @pytest.mark.parametrize("text", ["DihInf", "F(2)", "product(Z,DihInf)"])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_non_abelian_translations_on_the_other_side_build_translates(self, applied, text, side):
        spec = groups.parse_group_spec(text)
        other = "right" if side == "left" else "left"
        action = TranslationAction(identity_hom(spec), side)
        struct = GroupStructure(spec, other)
        assert not struct.translations_isometric(side)
        cert = uniformly_bornologous_action_check(action, struct, 3)
        assert applied
        assert cert.to_json() == oracles.ref_uniformly_bornologous_action_check(action, struct, 3).to_json()

    @pytest.mark.parametrize("make_inducing,make_other,radius,seed", INDUCED_REFERENCE_CASES)
    def test_induced_structures_match_the_reference(self, monkeypatch, make_inducing, make_other, radius, seed):
        """The reference also reads the translated one and two point pieces
        and writes whether the two routes agree, where the check writes a
        fixed ``true``: the reports are equal only while the routes agree.
        On its own induced structure the check folds no family (L9); the
        reference folds every translate, so it reads none off."""
        inducing = make_inducing()
        action = make_other() if make_other else inducing
        U = cb_elements(cobounded_check(inducing, radius), inducing)
        struct, _ = induced_structure_second(inducing, U, radius)
        read = []  # per family read, whether its grow was read off
        read_off = struct.read_off
        monkeypatch.setattr(struct, "read_off", lambda grow, r: read.append(read_off(grow, r)) or read[-1])
        cert = uniformly_bornologous_action_check(action, struct, radius, seed=seed)
        assert cert.verdict == ("FAIL" if make_other else "PASS")
        assert all(got is not None for got in read) == (make_other is None)
        read.clear()
        expected = oracles.ref_uniformly_bornologous_action_check(action, struct, radius, seed=seed)
        assert read and all(got is None for got in read)
        assert cert.to_json() == expected.to_json()

    @pytest.mark.parametrize(
        "action,struct,route",
        [
            (left_translation(identity_hom(DIH)), RightGroupStructure(DIH), "translates"),
            (z_on_dih_right(), None, "own"),
            (left_translation(identity_hom(DIH)), LeftGroupStructure(DIH), "isometric"),
        ],
        ids=["left-DihInf-on-C_r", "right-Z-DihInf-on-own-induced", "left-DihInf-on-C_l"],
    )
    def test_each_family_and_its_translates_are_read_once(self, monkeypatch, applied, action, struct, route):
        """One read of each battery family, and one of its translates unless
        the translations are isometries (L5) or the structure is the
        action's own (L9); nothing else is read."""
        radius = 4
        if struct is None:
            struct, _ = induced_structure_second(action, (ONE, T), radius)
        read = []
        window = structures.membership_window

        def counted(structure, pf, r):
            read.append(pf.tag)
            return window(structure, pf, r)

        monkeypatch.setattr(structures, "membership_window", counted)
        monkeypatch.setattr(actions, "membership_window", counted)
        applied.clear()
        cert = uniformly_bornologous_action_check(action, struct, radius)
        battery = [pf.tag for pf in struct.default_battery(seed=0, n_random=8)]
        if route != "translates":
            assert cert.verdict == "PASS" and read == battery
            assert route == "own" or applied == []
            return
        assert read == [tag for t in battery[: len(read) // 2] for tag in (t, f"translates({t})")]
        if cert.verdict == "PASS":
            assert len(read) == 2 * len(battery)
        else:
            assert cert.data["counterexample"]["family"] == read[-1]

    def test_right_translations_on_abelian_left_structure(self):
        cert = uniformly_bornologous_action_check(
            right_translation(identity_hom(Z)), LeftGroupStructure(Z), 6
        )
        assert cert.verdict == "PASS"


class TestCobounded:
    def test_group_on_itself(self):
        cert = cobounded_check(left_translation(identity_hom(Z)), 8)
        assert cert.verdict == "PASS"
        assert cert.data["U"] == ["0"]
        assert cert.data["constant"] == 0

    def test_rotation_subgroup_covers_with_reflection(self):
        action = z_on_dih_left()
        cert = cobounded_check(action, 8)
        assert cert.verdict == "PASS"
        assert cb_elements(cert, action) == (ONE, T)
        assert cert.data["constant"] <= 1

    def test_trivial_action_is_not_cobounded(self):
        assert cobounded_check(trivial_action(Z, GroupSpace(Z)), 8).verdict == "FAIL"

    def test_u_of_mesh_above_half_the_radius_is_refused(self):
        # at radius 1 the mesh 1 ball covers the window under the trivial action
        with pytest.raises(WindowTooSmallError):
            cobounded_check(trivial_action(Z, GroupSpace(Z)), 1)

    def test_u_of_mesh_half_the_radius_passes(self):
        cert = cobounded_check(left_translation(power_hom(2)), 2)
        assert (cert.verdict, cert.data["mesh"]) == ("PASS", 1)


class TestInducedSecond:
    def test_two_structures_from_one_bounded_set(self):
        left_ind, cert_l = induced_structure_second(z_on_dih_left(), (ONE, T), 8)
        right_ind, cert_r = induced_structure_second(z_on_dih_right(), (ONE, T), 8)
        assert cert_l.verdict == "PASS"
        assert cert_r.verdict == "PASS"

        reflect_left = translate_pair_family(DS, T, "left")    # {g, t.g}
        reflect_right = translate_pair_family(DS, T, "right")  # {g, g.t}
        assert membership_window(left_ind, reflect_left, 8).verdict == "FAIL"
        assert membership_window(right_ind, reflect_left, 8).verdict == "PASS"
        assert membership_window(left_ind, reflect_right, 8).verdict == "PASS"
        assert membership_window(right_ind, reflect_right, 8).verdict == "FAIL"

    def test_orbit_layers_walk_each_sphere_once(self, applied):
        # the battery of the commuting pair's induced structure, read at
        # radius 6 twice and then at 7; the cover index is grown past every
        # acting radius first, so that only translates of seeds are counted
        radius = 6
        action = z_on_dih_left()
        struct, _ = induced_structure_second(action, (ONE, T), radius)
        struct.index.get(ONE, 4 * radius)
        battery = struct.default_battery(seed=0, n_random=8)
        seeds = {frozenset(pf.grow.seed) for pf in battery}
        assert len(seeds) < len(battery)  # some F_i.U repeat
        for r, spheres in ((radius, range(radius + 1)), (radius, ()), (radius + 1, (radius + 1,))):
            applied.clear()
            for pf in battery:
                membership_window(struct, pf, r)
            walked = [g for s in spheres for g in groups.sphere(Z, s)]
            assert sorted(applied) == sorted(walked * len(seeds)), r

    @pytest.mark.parametrize("make", [left_translation, right_translation])
    def test_free_group_orbit_layers_stop_at_the_radius(self, make):
        """The coarse action certificate of F(2) on the structure it induces
        from U = {1} walks no seed's orbit layers past sphere R: its translate
        check reads each battery family off (L9), not its translates."""
        radius = 4
        F2 = groups.free_group(2)
        action = make(identity_hom(F2))
        one = F2.identity()
        struct, _ = induced_structure_second(action, (one,), radius)
        cert = coarse_action_certificate(action, struct, one, radius)
        assert cert.verdict == "PASS"
        assert struct._layers
        assert all(walked <= radius + 1 for walked, _ in struct._layers.values())

    def test_translate_unions_agree_at_every_scale(self):
        # both orbits sweep out the same sets even though the structures differ
        for s in range(9):
            left_union = set()
            right_union = set()
            for n in range(-s, s + 1):
                g = (n, 0)
                for u in (ONE, T):
                    left_union.add(groups.multiply(DIH, g, u))
                    right_union.add(groups.multiply(DIH, u, groups.invert(DIH, g)))
            assert left_union == right_union


class TestCoarseActionCertificate:
    def test_group_on_itself(self):
        cert = coarse_action_certificate(
            left_translation(identity_hom(Z)), LeftGroupStructure(Z), 0, 8
        )
        assert cert.verdict == "PASS"
        for part in ("uniformly_bornologous", "cobounded", "orbit_map", "refines_translates"):
            assert cert.data[part]["verdict"] == "PASS", part
        assert cert.data["coarsely_proper"]["verdict"] == "PASS"

    def test_rotation_subgroup_on_dihedral(self):
        cert = coarse_action_certificate(z_on_dih_left(), LeftGroupStructure(DIH), ONE, 8)
        assert cert.verdict == "PASS"

    def test_trivial_action_fails_properness_and_coboundedness(self):
        cert = coarse_action_certificate(
            trivial_action(Z, GroupSpace(Z)), LeftGroupStructure(Z), 0, 6
        )
        assert cert.verdict == "FAIL"
        assert cert.data["coarsely_proper"]["verdict"] == "FAIL"
        assert cert.data["cobounded"]["verdict"] == "FAIL"

    def test_orbit_window_is_read_from_the_orbit_map(self, monkeypatch):
        """The orbit map's target window comes from the fibre index it has
        built, not from applying the action to Ball(r) once more per radius
        (2,826 applications at radius 16 when it did)."""
        action = left_translation(identity_hom(DIH))
        calls = []
        apply = TranslationAction.apply

        def counting(self, g, x):
            calls.append(g)
            return apply(self, g, x)

        monkeypatch.setattr(TranslationAction, "apply", counting)
        cert = coarse_action_certificate(action, LeftGroupStructure(DIH), ONE, 16)
        assert cert.verdict == "PASS"
        assert len(calls) < 2000

    def test_properness_matches_stabilizer_behaviour(self):
        """Coarse properness, stabilizer stabilization, and point-finiteness
        are three readings of the same condition."""
        cases = [
            (left_translation(identity_hom(Z)), LeftGroupStructure(Z), (0,), 0),
            (z_on_dih_left(), LeftGroupStructure(DIH), (ONE, T), T),
            (trivial_action(Z, GroupSpace(Z)), LeftGroupStructure(Z), (0,), 0),
        ]
        for action, struct, U, x in cases:
            cert = coarse_action_certificate(action, struct, U[0], 6)
            proper = cert.data["coarsely_proper"]["verdict"] == "PASS"
            trace = stabilizer_window(action, U, 6).trace
            stab_finite = trace[6] == trace[3]
            point = point_finite_check(action, U, x, 6).verdict == "PASS"
            assert proper == stab_finite == point, action.name


class TestCommuting:
    def test_rotation_with_right_translations(self):
        cert = commuting_equivalence(
            z_on_dih_left(), right_translation(identity_hom(DIH)), (ONE, T), ONE, 8
        )
        assert cert.verdict == "PASS"
        assert cert.data["orbit_closeness_refines_star"] == {"psi.phi": True, "phi.psi": True}
        assert any("g.x = x.g^-1" in note for note in cert.notes)

    def test_translations_of_line_invert_each_other(self):
        cert = commuting_equivalence(
            left_translation(identity_hom(Z)), right_translation(identity_hom(Z)), (0,), 0, 8
        )
        assert cert.verdict == "PASS"
        psi, phi = cert.data["psi"], cert.data["phi"]
        assert all(phi[psi[k]] == k for k in psi)

    def test_two_left_actions_do_not_commute(self):
        with pytest.raises(CommutativityError):
            commuting_equivalence(
                z_on_dih_left(), left_translation(identity_hom(DIH)), (ONE, T), ONE, 6
            )

    def test_translation_pair_checks_commutation_at_the_identity(self, monkeypatch):
        action1, action2 = left_translation(identity_hom(DIH)), right_translation(identity_hom(DIH))
        calls = []
        apply = TranslationAction.apply
        monkeypatch.setattr(
            TranslationAction, "apply", lambda self, g, x: calls.append(x) or apply(self, g, x)
        )
        commuting_equivalence(action1, action2, (ONE, T), ONE, 8)
        # the points of window(3) would take 8,872 applications
        assert len(calls) < 3000

    @pytest.mark.parametrize("trivial,depth", [(True, 3), (False, 0)], ids=["trivial", "translation"])
    def test_commutation_points_come_from_the_deeper_law(self, monkeypatch, trivial, depth):
        # a trivial action checks its law on window(3), so the pair is checked there too
        first = trivial_action(Z, GroupSpace(Z)) if trivial else right_translation(identity_hom(Z))
        second = left_translation(identity_hom(Z))
        radii = []
        window = GroupSpace.window
        monkeypatch.setattr(GroupSpace, "window", lambda self, r: radii.append(r) or window(self, r))
        try:
            commuting_equivalence(first, second, (0,), 0, 8)
        except PreconditionError:
            assert trivial  # the trivial action is not cobounded
        assert radii[0] == depth

    def test_trivial_group_is_vacuous(self):
        one = groups.cyclic(1)
        action = trivial_action(one, GroupSpace(one))
        cert = commuting_equivalence(action, action, (0,), 0, 4)
        assert cert.verdict == "PASS"

    def test_star_refinement_builds_no_family(self, monkeypatch):
        """The star refinement reads the cover index: with every family
        builder refused, the reports keep their bytes and exit codes."""

        def refused(*args, **kwargs):
            raise AssertionError("a family was built")

        modules = [m for name, m in sys.modules.items() if name.startswith("coarsekit.")]
        for module in modules:
            for name in ("finite_family", "star_family", "refines"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refused)
        assert render(COMMANDS["commuting-8"]) == (GOLDEN_DIR / "commuting-8.json").read_text()
        probe = ["commuting", "--action1", "left(F(2))", "--action2", "right(F(2))", "--set", "1"]
        assert cli.main(probe + ["--radius", "3"]) == 1


# action, U: translations through the identity on both sides, the rotation
# subgroup on DihInf and the even translations of Z
STAR_CASES = [
    *[
        (TranslationAction(identity_hom(groups.parse_group_spec(text)), side), None)
        for text in ("Z", "Z^2", "DihInf", "product(Z,DihInf)", "F(2)")
        for side in ("left", "right")
    ],
    (z_on_dih_left(), (ONE, T)),
    (left_translation(power_hom(2)), (0, 1)),
]


class TestStarRefinement:
    @pytest.mark.parametrize("action,U", STAR_CASES, ids=[a.name for a, _ in STAR_CASES])
    def test_stars_meet_exactly_when_the_family_route_refines(self, action, U):
        """A pair sits in one star of the translates of U over Ball(3)
        exactly when the stars of its points meet.  Near pairs (a, a*s) and
        far ones (a in window(1), b in window(4)) give both answers."""
        space, G = action.space, action.space.spec
        U = U or space.window(1)[:2]  # the identity and a generator
        struct, refined = ActionInducedStructure(action, U), oracles.ref_refines_star(action, U, 3)
        pairs = [(a, G.mul(a, s)) for a in space.window(2) for s in G.generators()]
        pairs += [(a, b) for a in space.window(1) for b in space.window(4)]
        answers = [bool(struct.stars(a, 3) & struct.stars(b, 3)) for a, b in pairs]
        assert answers == [refined([pair]) for pair in pairs]
        assert True in answers and False in answers


class TestTranslateMapsAreBornologous:
    def test_each_translate_of_a_uniform_action(self):
        """A uniformly bornologous translation action restricts, element by
        element, to bornologous maps."""
        cases = [
            (left_translation(identity_hom(DIH)), LeftGroupStructure(DIH)),
            (right_translation(identity_hom(DIH)), RightGroupStructure(DIH)),
        ]
        radius = 4
        for action, struct in cases:
            assert uniformly_bornologous_action_check(action, struct, radius).verdict == "PASS"
            for g in groups.ball(DIH, 2).elements:
                window = groups.ball(DIH, radius + 3).elements
                m = table_map(
                    f"translate[{DIH.serialize(g)}]",
                    struct,
                    struct,
                    {x: action.apply(g, x) for x in window},
                )
                assert check_bornologous(m, radius, n_random=4).verdict == "PASS"
