import pytest

from coarsekit import groups
from coarsekit.actions import (
    ActionInducedStructure,
    identity_hom,
    inclusion_hom,
    left_translation,
    point_finite_check,
    right_translation,
    uniformly_bornologous_action_check,
)
from coarsekit.errors import InvalidRadiusError, PreconditionError
from coarsekit.families import ParamFamily, shape_translate_family, translate_pair_family
from coarsekit.spaces import GroupSpace
from coarsekit.maps import (
    check_bornologous,
    check_close,
    check_coarsely_proper,
    identity_map,
    pullback_structure_equality,
    surjective_equivalence_check,
)
from coarsekit.structures import (
    GroupStructure,
    LeftGroupStructure,
    RightGroupStructure,
    membership_window,
    random_shapes,
)

DIH = groups.DIH
ZS = GroupSpace(groups.Z)
DS = GroupSpace(DIH)
T = (0, 1)
X = (1, 0)


class TestMembershipWindow:
    def test_consecutive_pairs_bounded(self):
        res = membership_window(LeftGroupStructure(groups.Z), translate_pair_family(ZS, 1, "right"), 8)
        assert res.bounded and res.verdict == "PASS"
        assert set(res.elements) == {-1, 0, 1}
        assert set(res.trace.values()) == {3}

    def test_reflection_pairs_split_by_side(self):
        pf = translate_pair_family(DS, T, "left")  # members {g, t.g}
        left = membership_window(LeftGroupStructure(DIH), pf, 8)
        right = membership_window(RightGroupStructure(DIH), pf, 8)
        assert not left.bounded and left.verdict == "FAIL"
        assert right.bounded
        assert set(right.elements) == {(0, 0), T}

    def test_counterexample_trace_grows(self):
        pf = translate_pair_family(DS, T, "left")
        res = membership_window(LeftGroupStructure(DIH), pf, 8)
        values = [res.trace[r] for r in sorted(res.trace)]
        assert values == sorted(values)
        assert values[-1] > values[0]
        # the left witness of {g, t.g} collects conjugates g^-1 t g
        assert all(g in res.elements for g in groups.conjugacy_window(DIH, T, 4))

    def test_constant_family_passes(self):
        constant = ParamFamily("{[0,5]}", ZS, grow=lambda r: () if r else [(0, 5)])
        res = membership_window(LeftGroupStructure(groups.Z), constant, 6)
        assert res.verdict == "PASS"
        assert set(res.elements) == {-5, 0, 5}


class DoublingBattery(GroupStructure):
    """C_l(Z) with a broken battery: its one family {g, 2g} has the witness
    {±g}, which grows with the window."""

    def __init__(self):
        super().__init__(groups.Z, "left")

    def default_battery(self, seed, n_random):
        def grow(r):
            return ((g, 2 * g) for g in groups.sphere(groups.Z, r))

        return [ParamFamily("{g, 2g}", self.space, grow)]


CL_Z = LeftGroupStructure(groups.Z)
DOUBLING = DoublingBattery()


class TestBatteryGuard:
    """Every check that reads a structure's battery refuses one whose family
    is unbounded in that structure."""

    CALLS = {
        "bornologous": lambda: check_bornologous(identity_map(DOUBLING), 8),
        "equivalence": lambda: surjective_equivalence_check(identity_map(CL_Z, DOUBLING), 8),
        "action": lambda: uniformly_bornologous_action_check(
            left_translation(identity_hom(groups.Z)), DOUBLING, 8
        ),
        "pullback": lambda: pullback_structure_equality(identity_map(CL_Z), DOUBLING, CL_Z, 8),
    }

    @pytest.mark.parametrize("name", list(CALLS))
    def test_unbounded_battery_family_is_refused(self, name):
        with pytest.raises(PreconditionError) as err:
            self.CALLS[name]()
        assert str(err.value) == "battery family {g, 2g} is not bounded in C_l(Z)"


class TestStructureHelpers:
    def test_bounded_neighborhood_left(self):
        struct = LeftGroupStructure(DIH)
        nbhd = struct.bounded_neighborhood((0, 0), 1)
        assert set(nbhd) == set(groups.ball(DIH, 1).elements)

    def test_bounded_neighborhood_right(self):
        struct = RightGroupStructure(DIH)
        x = (1, 0)
        nbhd = set(struct.bounded_neighborhood(x, 1))
        # right neighborhoods multiply the mesh on the left
        for g in groups.ball(DIH, 1).elements:
            assert groups.multiply(DIH, g, x) in nbhd

    def test_default_battery_is_bounded(self):
        struct = LeftGroupStructure(DIH)
        for pf in struct.default_battery(seed=3, n_random=6):
            res = membership_window(struct, pf, 6)
            assert res.verdict == "PASS", pf.tag


class TestMemberOrder:
    """A member's contribution does not depend on how its points are given."""

    STRUCTURES = {
        "left": lambda: LeftGroupStructure(DIH),
        "right": lambda: RightGroupStructure(DIH),
        "induced": lambda: ActionInducedStructure(left_translation(inclusion_hom()), ((0, 0), T)),
    }

    @pytest.mark.parametrize("name", list(STRUCTURES))
    def test_tuple_reversed_and_frozenset_agree(self, name):
        pf = shape_translate_family(DS, ((0, 0), X, T), "left")
        members = pf.at(4).members
        # a fresh structure per form, so no memo answers for another form
        forms = (tuple, lambda m: tuple(reversed(m)), frozenset)
        results = []
        for form in forms:
            struct = self.STRUCTURES[name]()
            results.append([struct.member_contribution(form(m)) for m in members])
        assert results[0] == results[1] == results[2]
        assert any(len(c) > 1 for c in results[0])


class TestRandomShapes:
    def test_deterministic(self):
        a = random_shapes(DIH, seed=7, count=5)
        b = random_shapes(DIH, seed=7, count=5)
        assert a == b

    def test_seed_matters(self):
        a = random_shapes(DIH, seed=1, count=8)
        b = random_shapes(DIH, seed=2, count=8)
        assert a != b

    def test_mesh_bound(self):
        # shapes draw from Ball(mesh), so diameters stay within 2*mesh
        for shape in random_shapes(DIH, seed=0, count=10, mesh=2):
            assert 1 <= len(shape) <= 3
            for u in shape:
                assert groups.word_length(DIH, u) <= 2
                for v in shape:
                    diff = groups.multiply(DIH, groups.invert(DIH, u), v)
                    assert groups.word_length(DIH, diff) <= 4


# every window verdict is a families.Reading, which refuses a negative
# radius: the empty window there would read as a vacuous PASS
NEGATIVE_RADIUS_CALLS = {
    "membership_window": lambda r: membership_window(
        LeftGroupStructure(groups.Z), translate_pair_family(ZS, 1, "right"), r
    ),
    "check_bornologous": lambda r: check_bornologous(identity_map(LeftGroupStructure(groups.Z)), r),
    "check_coarsely_proper": lambda r: check_coarsely_proper(identity_map(LeftGroupStructure(groups.Z)), r),
    "check_close": lambda r: check_close(
        identity_map(LeftGroupStructure(groups.Z)), identity_map(LeftGroupStructure(groups.Z)), r
    ),
    "point_finite_check": lambda r: point_finite_check(left_translation(identity_hom(groups.Z)), (0,), 0, r),
    # a FAIL at radius 8
    "uniformly_bornologous_action_check": lambda r: uniformly_bornologous_action_check(
        right_translation(identity_hom(DIH)), LeftGroupStructure(DIH), r
    ),
}


@pytest.mark.parametrize("name", list(NEGATIVE_RADIUS_CALLS))
def test_a_negative_radius_is_refused(name):
    call = NEGATIVE_RADIUS_CALLS[name]
    assert call(0).verdict == "PASS"
    with pytest.raises(InvalidRadiusError):
        call(-1)
