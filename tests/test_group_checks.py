import pytest

import oracles
from coarsekit import group_checks, groups
from coarsekit.errors import InvalidRadiusError, WindowTooSmallError
from coarsekit.families import fold_witness, translate_pair_family
from coarsekit.group_checks import (
    compare_left_right,
    dihedral_demo,
    fc_test,
    multiplication_bornologous_check,
)
from coarsekit.structures import LeftGroupStructure, RightGroupStructure, membership_window

Z = groups.Z
Z2 = groups.free_abelian(2)
DIH = groups.DIH
F2 = groups.free_group(2)
Z6 = groups.cyclic(6)

CATALOG = [(Z, 8), (Z2, 8), (Z6, 8), (DIH, 8), (F2, 6)]


class TestFiniteConjugacyTest:
    @pytest.mark.parametrize("spec", [Z, Z2, Z6])
    def test_passes_on_abelian(self, spec):
        cert = fc_test(spec, 8)
        assert cert.verdict == "PASS"
        assert cert.data["largest_class"] == 1

    def test_fails_on_dihedral_with_reflection_witness(self):
        cert = fc_test(DIH, 8)
        assert cert.verdict == "FAIL"
        assert cert.data["witness"] == "t"
        trace = cert.data["trace"]
        for r in range(1, 5):
            assert trace[str(r)] == 2 * r + 1

    def test_fails_on_free_group(self):
        cert = fc_test(F2, 6)
        assert cert.verdict == "FAIL"
        assert cert.data["witness"] == "a"


class TestCompareLeftRight:
    @pytest.mark.parametrize("spec", [Z, Z2, Z6])
    def test_equal_on_abelian(self, spec):
        assert compare_left_right(spec, 8).verdict == "EQUAL"

    def test_differ_on_dihedral(self):
        cert = compare_left_right(DIH, 8)
        assert cert.verdict == "DIFFER"
        assert cert.data["witness"] == "t"
        assert cert.data["failing_structure"] == "C_l(DihInf)"
        assert cert.data["bounded_structure"] == "C_r(DihInf)"
        assert set(cert.data["bounded_witness"]) == {"1", "t"}
        trace = cert.data["growing_trace"]
        values = [trace[str(r)] for r in range(9)]
        assert values == [2 * r + 2 for r in range(9)]

    def test_differ_on_free_group(self):
        assert compare_left_right(F2, 6).verdict == "DIFFER"


class TestMultiplicationBornologous:
    def test_passes_on_abelian(self):
        cert = multiplication_bornologous_check(Z, 8)
        assert cert.verdict == "PASS"
        assert all(entry["bounded"] for entry in cert.data["checked"])

    def test_fails_on_dihedral(self):
        cert = multiplication_bornologous_check(DIH, 8)
        assert cert.verdict == "FAIL"
        assert cert.data["cross_check_agrees"] is True
        assert cert.data["left_right_verdict"] == "DIFFER"
        trace = cert.data["growing_trace"]
        assert trace["8"] > trace["0"]

    def test_cross_check_always_agrees(self):
        for spec, radius in CATALOG:
            cert = multiplication_bornologous_check(spec, radius)
            assert cert.data["cross_check_agrees"] is True, spec.label()


class TestVerdictConsistency:
    def test_three_checks_agree_on_catalog(self):
        """FC-ness, structure equality, and bornologous multiplication are
        three windows onto the same dichotomy."""
        for spec, radius in CATALOG:
            fc = fc_test(spec, radius).verdict
            lr = compare_left_right(spec, radius).verdict
            mb = multiplication_bornologous_check(spec, radius).verdict
            assert (fc == "PASS") == (lr == "EQUAL") == (mb == "PASS"), spec.label()


class TestDihedralDemo:
    def test_demo_passes(self):
        cert = dihedral_demo(8)
        assert cert.verdict == "PASS"

    def test_demo_pieces(self):
        cert = dihedral_demo(8)
        data = cert.data
        assert data["equivalence_onto_left"]["verdict"] == "PASS"
        assert data["equivalence_onto_right"]["verdict"] == "PASS"
        assert data["left_vs_right"]["verdict"] == "DIFFER"
        assert data["conjugacy_window_t"]["4"] == 9
        assert data["conjugacy_window_x"]["4"] == 2
        assert all(entry["agree"] for entry in data["pullback_agreement"])
        assert data["exact_pullback"].startswith("not applicable")

    @pytest.mark.parametrize("radius", range(1, 7))
    def test_exact_pullback_is_not_applicable_at_every_radius(self, radius):
        # the inclusion misses t, which lies in window(1)
        cert = dihedral_demo(radius)
        assert cert.data["exact_pullback"] == "not applicable: the inclusion misses the reflections"
        assert cert.notes == [
            "conjugates of x stabilize at {x, x^-1}; conjugates of t grow as 2r+1,"
            " so t separates the left and right structures",
            "exact pullback comparison needs an onto map; the distance-1 cover"
            " stands in for it",
        ]

    def test_radius_zero_is_refused(self):
        with pytest.raises(WindowTooSmallError):
            dihedral_demo(0)

    def test_negative_radius_is_invalid(self):
        with pytest.raises(InvalidRadiusError):
            dihedral_demo(-1)


# ---------------------------------------------------------------------------
# symmetry reduction: each check against its every-window reference, and the
# four identities that let it skip windows

ORACLE_GROUPS = ["Z", "Z^2", "Z^3", "DihInf", "F(2)", "Zmod(1)", "Zmod(2)", "Zmod(5)", "Zmod(6)",
                 "product(Z,DihInf)"]
ORACLE_CASES = [(name, r) for name in ORACLE_GROUPS
                for r in range(3, (5 if name == "F(2)" else 8) + 1)]
LEMMA_GROUPS = ["Z", "Z^2", "DihInf", "F(2)", "Zmod(5)", "product(Z,DihInf)"]


@pytest.mark.parametrize("name,radius", ORACLE_CASES)
def test_checks_match_every_window_reference(name, radius):
    spec = groups.parse_group_spec(name)
    assert fc_test(spec, radius).to_json() == oracles.ref_fc_test(spec, radius).to_json()
    expected = oracles.ref_compare_left_right(spec, radius).to_json()
    assert compare_left_right(spec, radius).to_json() == expected


# Z^3 only at radius 3: its image windows, the same code on both sides, take
# seconds at radius 8
@pytest.mark.parametrize("name,radius", [case for case in ORACLE_CASES
                                         if case[0] != "Z^3" or case[1] == 3])
def test_multiplication_matches_column_reference(name, radius):
    """Equal to the reference that evaluates every column upstairs, once
    the reference's repeated batteries (Zmod(n) for n <= 3) are dropped."""
    spec = groups.parse_group_spec(name)
    expected = oracles.ref_multiplication_bornologous_check(spec, radius).to_json()
    checked = expected["data"]["checked"]
    expected["data"]["checked"] = [c for i, c in enumerate(checked) if c not in checked[:i]]
    assert multiplication_bornologous_check(spec, radius).to_json() == expected


def _lemma_cases():
    for name in LEMMA_GROUPS:
        spec = groups.parse_group_spec(name)
        for a in groups.ball(spec, 3).elements:
            yield spec, a


def _sphere_witness(side, spec, members) -> set:
    out: set = set()
    fold_witness(out, side, spec, members)
    return out


def test_l1_right_window_is_left_window_of_inverse_translate():
    """The right witness of {g, g*a} over S_n is the left witness of
    {h, a^-1*h} over S_n, h = g^-1, sphere by sphere and trace by trace."""
    for spec, a in _lemma_cases():
        mul, ia = spec.mul, spec.inv(a)
        for n in range(4):
            sphere = groups.sphere(spec, n)
            right = _sphere_witness("right", spec, [(g, mul(g, a)) for g in sphere])
            left = _sphere_witness("left", spec, [(h, mul(ia, h)) for h in sphere])
            assert right == left, (spec.label(), a, n)
        space = LeftGroupStructure(spec).space
        right_trace = membership_window(RightGroupStructure(spec),
                                        translate_pair_family(space, a, "right"), 3).trace
        left_trace = membership_window(LeftGroupStructure(spec),
                                       translate_pair_family(space, ia, "left"), 3).trace
        assert right_trace == left_trace, (spec.label(), a)


def test_l2_translate_and_inverse_translate_share_left_witness():
    for spec, a in _lemma_cases():
        mul, inv = spec.mul, spec.inv
        ia = inv(a)
        for g in groups.ball(spec, 3).elements:
            expected = {spec.identity(), mul(mul(inv(g), a), g), mul(mul(inv(g), ia), g)}
            assert oracles.ref_member_witness("left", spec, (g, mul(a, g))) == expected
            assert oracles.ref_member_witness("left", spec, (g, mul(ia, g))) == expected


def test_l3_conjugates_of_inverse_are_inverses_of_conjugates():
    for spec, a in _lemma_cases():
        for r in range(4):
            inverses = {spec.inv(c) for c in groups.conjugacy_window(spec, a, r)}
            assert set(groups.conjugacy_window(spec, spec.inv(a), r)) == inverses


def test_l4_column_witness_is_fixed():
    """The left witness of F x {g} in G x G is (F^-1*F) x {1} for every g,
    so the column family is bounded with that witness at every radius."""
    for name in LEMMA_GROUPS:
        spec = groups.parse_group_spec(name)
        one = spec.identity()
        square = groups.product(spec, spec)
        shapes = [(one, s) for s in groups.ball(spec, 2).elements if s != one]
        for F in shapes + [groups.ball(spec, 1).elements, groups.ball(spec, 2).elements]:
            fixed = {(spec.mul(spec.inv(f), f2), one) for f in F for f2 in F}
            for g in groups.ball(spec, 3).elements:
                column = [(f, g) for f in F]
                assert oracles.ref_member_witness("left", square, column) == fixed
            window = oracles.ref_column_window(spec, F, 3)
            assert window.bounded
            assert set(window.elements) == fixed
            assert set(window.trace.values()) == {len(fixed)}


def test_compare_evaluates_one_window_per_inverse_pair(monkeypatch):
    """Z^2 at radius 8 has 40 battery elements in 20 inverse pairs: one left
    window each, against 80 windows when both sides of every element ran."""
    calls = []

    def counting(structure, pf, radius):
        calls.append(pf.tag)
        return membership_window(structure, pf, radius)

    monkeypatch.setattr(group_checks, "membership_window", counting)
    cert = compare_left_right(Z2, 8)
    assert cert.data["elements_tested"] == 40
    assert len(calls) <= 20


@pytest.mark.parametrize("n,expected", [
    (1, ["[0]"]),
    (2, ["[0,1]"]),
    (3, ["[0,1]", "[0,2]", "[0,1,2]"]),
    (4, ["[0,1]", "[0,3]", "[0,2]", "[0,1,3]", "[0,1,3,2]"]),
])
def test_multiplication_lists_each_battery_once(n, expected):
    """Ball(1) = Ball(2) in Zmod(n) for n <= 3, and in Zmod(2) both are the
    shape [0,1]: each battery is checked and listed once.  Zmod(4) has no
    repeat and keeps all five."""
    cert = multiplication_bornologous_check(groups.cyclic(n), 8)
    assert [entry["F"] for entry in cert.data["checked"]] == expected
