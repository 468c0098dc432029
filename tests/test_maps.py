"""Checks for the map catalog: bornologous, proper, close, equivalence."""

import math

import pytest

from coarsekit import groups
from coarsekit.errors import (
    InvalidRadiusError,
    PreconditionError,
    SpaceMismatchError,
    SurjectivityError,
)
from coarsekit.maps import (
    MapWindow,
    check_bornologous,
    check_close,
    check_coarsely_proper,
    constant_map,
    floor_div_map,
    identity_map,
    inclusion_z_to_dih,
    mod_map,
    negation_map,
    power_map,
    pullback_structure_equality,
    selection_map,
    squaring_map,
    surjective_equivalence_check,
    table_map,
    translation_map,
)
from coarsekit.structures import LeftGroupStructure, RightGroupStructure

Z = groups.Z
DIH = groups.DIH
Z6 = groups.cyclic(6)
CL_Z = LeftGroupStructure(Z)
CL_DIH = LeftGroupStructure(DIH)
CR_DIH = RightGroupStructure(DIH)
CL_Z6 = LeftGroupStructure(Z6)
T = (0, 1)


class TestBornologous:
    def test_identity(self):
        assert check_bornologous(identity_map(CL_Z), 8).verdict == "PASS"

    def test_inclusion(self):
        cert = check_bornologous(inclusion_z_to_dih(CL_Z, CL_DIH), 8)
        assert cert.verdict == "PASS"
        # the consecutive-pair family maps to witness {1, x, x^-1}
        edge = cert.data["witnesses"]["{{g, g*1}}"]
        assert set(edge["witness"]) == {"1", "x", "x^-1"}

    def test_squaring_fails(self):
        cert = check_bornologous(squaring_map(CL_Z), 8)
        assert cert.verdict == "FAIL"
        assert "counterexample" in cert.data

    def test_doubling(self):
        assert check_bornologous(power_map(CL_Z, CL_Z, 2), 8).verdict == "PASS"


class TestCoarselyProper:
    def test_doubling(self):
        assert check_coarsely_proper(power_map(CL_Z, CL_Z, 2), 8).verdict == "PASS"

    def test_constant_fails_with_linear_trace(self):
        cert = check_coarsely_proper(constant_map(CL_Z, CL_Z, 0), 8)
        assert cert.verdict == "FAIL"
        trace = cert.data["trace"]
        assert [trace[str(r)] for r in range(9)] == [2 * r + 1 for r in range(9)]

    def test_inclusion(self):
        assert check_coarsely_proper(inclusion_z_to_dih(CL_Z, CL_DIH), 8).verdict == "PASS"


class TestClose:
    def test_identity_and_shift(self):
        cert = check_close(identity_map(CL_Z), translation_map(CL_Z, 5, "left"), 8)
        assert cert.verdict == "PASS"
        assert set(cert.data["result"]["witness"]) <= {"0", "5", "-5"}
        assert cert.data["displacement"] == 5

    def test_identity_and_negation_differ(self):
        cert = check_close(identity_map(CL_Z), negation_map(CL_Z), 8)
        assert cert.verdict == "FAIL"
        trace = cert.data["result"]["trace"]
        assert trace["8"] > trace["1"]

    def test_right_shift_by_reflection(self):
        cert = check_close(identity_map(CL_DIH), translation_map(CL_DIH, T, "right"), 8)
        assert cert.verdict == "PASS"
        assert set(cert.data["result"]["witness"]) == {"1", "t"}

    def test_symmetry(self):
        m1 = identity_map(CL_Z)
        m2 = translation_map(CL_Z, 3, "left")
        a = check_close(m1, m2, 8)
        b = check_close(m2, m1, 8)
        assert a.verdict == b.verdict == "PASS"
        assert set(a.data["result"]["witness"]) == set(b.data["result"]["witness"])

    def test_space_mismatch(self):
        with pytest.raises(SpaceMismatchError):
            check_close(identity_map(CL_Z), identity_map(CL_DIH), 4)


class TestSurjectiveEquivalence:
    def test_identity(self):
        cert = surjective_equivalence_check(identity_map(CL_Z), 8)
        assert cert.verdict == "PASS"
        assert all(v == k for k, v in cert.data["selection"].items())

    def test_halving(self):
        cert = surjective_equivalence_check(floor_div_map(CL_Z, CL_Z, 2), 12)
        assert cert.verdict == "PASS"
        sel = cert.data["selection"]
        # canonical selection takes the shorter preimage of {2y, 2y+1}
        for y in range(-12, 13):
            assert int(sel[str(y)]) == (2 * y if y >= 0 else 2 * y + 1)
        assert cert.data["displacement_m_g"] == 0
        assert cert.data["displacement_g_m"] == 1

    def test_mod_reduction_fails_properness(self):
        cert = surjective_equivalence_check(mod_map(CL_Z, CL_Z6, 6), 8)
        assert cert.verdict == "FAIL"
        assert [f["check"] for f in cert.data["failures"]] == ["coarsely-proper"]

    def test_parity_flip_fails_bornologous(self):
        # n -> -n on odd n sends the pair {n, n+1} to points about 2n apart
        flip = {n: n if n % 2 == 0 else -n for n in groups.ball(Z, 40).elements}
        cert = surjective_equivalence_check(table_map("flip-odd", CL_Z, CL_Z, flip), 8)
        assert cert.verdict == "FAIL"
        assert [f["check"] for f in cert.data["failures"]] == ["bornologous"]
        assert cert.data["coarsely_proper"]["verdict"] == "PASS"

    def test_isqrt_fails_bounded_preimages(self):
        # the fibre over n has about 2n points, so the preimages of {n, n+1}
        # grow; Ball(38*R) holds every preimage of Ball(R) at R = 36, and at
        # R = 8 the properness traces still grow at the window edge
        isqrt = MapWindow(
            "isqrt",
            CL_Z,
            CL_Z,
            lambda n: ((n > 0) - (n < 0)) * math.isqrt(abs(n)),
            source_factor=38,
            source_slack=0,
        )
        cert = surjective_equivalence_check(isqrt, 36)
        assert cert.verdict == "FAIL"
        [failure] = cert.data["failures"]
        assert failure["check"] == "preimage-bounded"
        assert failure["data"]["family"] == "{{g, g*1}}"
        assert cert.data["bornologous"]["verdict"] == "PASS"
        assert cert.data["coarsely_proper"]["verdict"] == "PASS"

    @pytest.mark.parametrize("target", [LeftGroupStructure(groups.cyclic(5)), CL_Z])
    def test_mod_k_needs_target_zmod_k(self, target):
        with pytest.raises(PreconditionError):
            mod_map(CL_Z, target, 6)

    def test_negative_cover_distance_is_refused(self):
        with pytest.raises(InvalidRadiusError):
            surjective_equivalence_check(identity_map(CL_Z), 4, cover_distance=-3)

    def test_inclusion_needs_cover_distance(self):
        with pytest.raises(SurjectivityError):
            surjective_equivalence_check(inclusion_z_to_dih(CL_Z, CL_DIH), 8)

    @pytest.mark.parametrize("target", [CL_DIH, CR_DIH])
    def test_inclusion_with_unit_cover(self, target):
        cert = surjective_equivalence_check(
            inclusion_z_to_dih(CL_Z, target), 16, cover_distance=1
        )
        assert cert.verdict == "PASS"
        assert cert.data["displacement_m_g"] <= 1
        assert cert.data["displacement_g_m"] == 0
        assert set(cert.data["close_m_g"]["witness"]) == {"1", "t"}
        assert set(cert.data["close_g_m"]["witness"]) == {"0"}

    def test_selection_is_bornologous(self):
        m = floor_div_map(CL_Z, CL_Z, 2)
        cert = surjective_equivalence_check(m, 12)
        inverse = selection_map(m, cert)
        assert check_bornologous(inverse, 6).verdict == "PASS"

    def test_composition_of_bornologous_maps(self):
        double = power_map(CL_Z, CL_Z, 2)
        halve = floor_div_map(CL_Z, CL_Z, 2)
        composed = table_map(
            "halve-after-double",
            CL_Z,
            CL_Z,
            {n: (2 * n) // 2 for n in groups.ball(Z, 20).elements},
        )
        assert check_bornologous(double, 8).verdict == "PASS"
        assert check_bornologous(halve, 8).verdict == "PASS"
        assert check_bornologous(composed, 8).verdict == "PASS"


class TestPullbackEquality:
    def test_identity_map_same_structure(self):
        cert = pullback_structure_equality(identity_map(CL_Z), CL_Z, LeftGroupStructure(Z), 8)
        assert cert.verdict == "EQUAL"

    def test_halving_map(self):
        cert = pullback_structure_equality(
            floor_div_map(CL_Z, CL_Z, 2), CL_Z, LeftGroupStructure(Z), 8
        )
        assert cert.verdict == "EQUAL"

    def test_non_surjective_inclusion_rejected(self):
        with pytest.raises(SurjectivityError):
            pullback_structure_equality(
                inclusion_z_to_dih(CL_Z, CL_DIH), CL_DIH, CR_DIH, 8
            )


class TestSelfMapTargets:
    def test_default_target_is_the_source(self):
        for m in (identity_map(CL_DIH), negation_map(CL_DIH), translation_map(CL_DIH, T, "right")):
            assert m.target is CL_DIH

    def test_target_on_the_same_group_is_used(self):
        assert identity_map(CL_DIH, CR_DIH).target is CR_DIH
        assert negation_map(CL_DIH, CR_DIH).target is CR_DIH
        assert translation_map(CL_DIH, T, "left", target=CR_DIH).target is CR_DIH
        assert squaring_map(CL_Z, RightGroupStructure(Z)).target.label == "C_r(Z)"

    def test_identity_left_to_right_is_not_bornologous_on_dihinf(self):
        assert check_bornologous(identity_map(CL_DIH, CR_DIH), 8).verdict == "FAIL"
        assert check_bornologous(identity_map(CL_DIH, CL_DIH), 8).verdict == "PASS"

    @pytest.mark.parametrize("build", [
        lambda: identity_map(CL_Z, CL_DIH),
        lambda: negation_map(CL_Z, CL_Z6),
        lambda: squaring_map(CL_Z, CL_DIH),
        lambda: translation_map(CL_Z, 1, "left", target=CL_DIH),
        lambda: translation_map(CL_DIH, T, "right", target=CL_Z),
    ])
    def test_target_on_another_group_is_refused(self, build):
        with pytest.raises(PreconditionError, match="maps a space to itself"):
            build()
