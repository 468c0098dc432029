import pytest

import oracles
from coarsekit import groups
from coarsekit.families import (
    MIN_VERDICT_RADIUS,
    ControlledSet,
    ParamFamily,
    Reading,
    ceil_half,
    compose_controlled,
    controlled_to_family,
    family_to_controlled,
    finite_family,
    image_family,
    member_witness,
    refines,
    shape_translate_family,
    side_witness,
    star,
    star_family,
    strictly_growing_suffix,
    translate_pair_family,
)
from coarsekit.spaces import GroupSpace

DIH = groups.DIH
ZS = GroupSpace(groups.Z)
DS = GroupSpace(DIH)
X = (1, 0)
T = (0, 1)
ONE = (0, 0)


class TestStar:
    def test_basic(self):
        fam = finite_family(ZS, [(1, 2), (5, 6)])
        assert star((0, 1), fam) == (0, 1, 2)

    def test_disjoint_members_leave_block_alone(self):
        fam = finite_family(ZS, [(5, 6), (9,)])
        assert star((0, 1), fam) == (0, 1)

    def test_block_always_contained(self):
        fam = finite_family(ZS, [(1, 2), (2, 3), (7, 8)])
        for block in [(0,), (2,), (1, 7), (4,)]:
            assert set(block) <= set(star(block, fam))

    def test_dihedral_three_point_members(self):
        # members g*{1, t, x} over the radius-one ball; three of the four
        # meet {1, t}, so the star picks up five elements in all
        members = []
        for g in groups.ball(DIH, 1).elements:
            members.append((
                g,
                groups.multiply(DIH, g, T),
                groups.multiply(DIH, g, X),
            ))
        fam = finite_family(DS, members)
        result = star((ONE, T), fam)
        assert set(result) == oracles.naive_star({ONE, T}, members)
        expected = {"1", "t", "x", "x^-1", "x^-1 t"}
        assert {DIH.serialize(g) for g in result} == expected

    def test_star_family_memberwise(self):
        f1 = finite_family(ZS, [(0, 1), (10, 11)])
        f2 = finite_family(ZS, [(1, 2), (11, 12), (40, 41)])
        out = star_family(f1, f2)
        assert set(out.members) == {(0, 1, 2), (10, 11, 12)}


class TestWitnesses:
    def test_left_right_on_reflection_pairs(self):
        # {g, t.g}: the left witness collects the conjugates of t and grows,
        # the right witness stays at {1, t}
        fam = translate_pair_family(DS, T, "left").at(2)
        assert all(len(m) == 2 for m in fam.members)
        wl = side_witness("left", DIH, fam)
        wr = side_witness("right", DIH, fam)
        assert set(wr.elements) == {ONE, T}
        assert set(wl.elements) == oracles.naive_witness(
            "left", oracles.dih_mul, oracles.dih_inv, fam.members
        )
        assert len(wl.elements) == 6  # 1, t, and four conjugates of t

    def test_pair_family_sides(self):
        left = translate_pair_family(DS, T, "left").at(1)
        right = translate_pair_family(DS, T, "right").at(1)
        for g in groups.ball(DIH, 1).elements:
            assert tuple(sorted((g, groups.multiply(DIH, T, g)))) in {
                tuple(sorted(m)) for m in left.members
            }
            assert tuple(sorted((g, groups.multiply(DIH, g, T)))) in {
                tuple(sorted(m)) for m in right.members
            }

    def test_shape_family_sides(self):
        left = shape_translate_family(DS, (ONE, T), "left").at(1)
        right = shape_translate_family(DS, (ONE, T), "right").at(1)
        xt = groups.multiply(DIH, X, T)
        tx = groups.multiply(DIH, T, X)
        assert tuple(sorted((X, xt))) in {tuple(sorted(m)) for m in left.members}
        assert tuple(sorted((X, tx))) in {tuple(sorted(m)) for m in right.members}

    def test_member_witness_matches_oracle(self):
        member = (3, 5, 6)
        got = member_witness("left", groups.Z, member)
        assert got == oracles.naive_witness(
            "left", lambda a, b: a + b, lambda a: -a, [member]
        )

    def test_witness_json_shape(self):
        fam = translate_pair_family(ZS, 1, "right").at(3)
        w = side_witness("left", groups.Z, fam)
        body = w.to_json()
        assert body["verdict"] == "PASS"
        assert set(body["witness"]) == {"0", "1", "-1"}
        assert list(body) == ["structure", "verdict", "witness", "trace"]


class TestControlledSets:
    def test_round_trip_contains_original(self):
        fam = finite_family(ZS, [(0, 1), (5, 6, 7)])
        E = family_to_controlled(fam)
        back = controlled_to_family(E)
        again = family_to_controlled(back)
        assert set(E.pairs) <= set(again.pairs)

    def test_round_trip_refines_star(self):
        fam = finite_family(ZS, [(0, 1), (5, 6, 7)])
        back = controlled_to_family(family_to_controlled(fam))
        assert refines(back, star_family(fam, fam))

    def test_symmetry_and_diagonal(self):
        E = family_to_controlled(finite_family(ZS, [(2, 4)]))
        assert (2, 2) in E.pairs and (4, 4) in E.pairs
        assert (2, 4) in E.pairs and (4, 2) in E.pairs

    def test_compose(self):
        E = family_to_controlled(finite_family(ZS, [(0, 1), (1, 2)]))
        composed = set(compose_controlled(E, E).pairs)
        reference = {
            (a, c)
            for a, b in E.pairs
            for b2, c in E.pairs
            if b == b2
        }
        assert composed == reference
        assert (0, 2) in composed

    def test_controlled_to_family_members_are_pairs(self):
        cs = ControlledSet(ZS, frozenset({(0, 1), (1, 0), (4, 4)}))
        members = controlled_to_family(cs).members
        assert (0, 1) in members
        assert all(len(m) <= 2 for m in members)


class TestRefines:
    def test_positive_and_negative(self):
        small = finite_family(ZS, [(0, 1), (5, 6)])
        big = finite_family(ZS, [(0, 1, 2), (4, 5, 6, 7)])
        assert refines(small, big) is True
        assert refines(big, small) is False


class TestTraces:
    def test_ceil_half(self):
        assert [ceil_half(r) for r in range(6)] == [0, 1, 1, 2, 2, 3]

    def test_stabilizes_needs_constant_tail(self):
        assert Reading({0: 1, 1: 2, 2: 2, 3: 2, 4: 2}, 4).stable
        assert not Reading({0: 1, 1: 2, 2: 2, 3: 2, 4: 3}, 4).stable

    def test_growing_suffix(self):
        assert strictly_growing_suffix({0: 1, 1: 2, 2: 3, 3: 4, 4: 5}, 4)
        assert not strictly_growing_suffix({0: 1, 1: 2, 2: 3, 3: 3, 4: 3}, 4)
        assert not strictly_growing_suffix({0: 1}, 0)  # one radius shows no growth
        # at R = 4 both read the tail 5, 6: it grows, so it is not stable
        trace = {0: 1, 1: 3, 2: 5, 3: 5, 4: 6}
        assert strictly_growing_suffix(trace, 4) and not Reading(trace, 4).stable

    def test_min_verdict_radius_is_the_first_tail_of_two_values(self):
        tails = [Reading(dict.fromkeys(range(R + 1), 0), R).tail for R in range(MIN_VERDICT_RADIUS + 1)]
        assert all(len(tail) <= 1 for tail in tails[:-1])
        assert len(tails[-1]) == 2


class TestParamFamilies:
    def test_image_family(self):
        pf = shape_translate_family(ZS, (0, 1), "right")
        img = image_family(pf, lambda n: (n, 0), DS, tag="into-dih")
        for m in img.at(2).members:
            assert all(f == 0 for _n, f in m)

    def test_constant_family_ignores_radius(self):
        cf = ParamFamily("{[0,3]}", ZS, grow=lambda r: () if r else [(0, 3)])
        assert cf.at(0).members == cf.at(6).members == ((0, 3),)
