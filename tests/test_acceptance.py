"""One test per acceptance criterion; each prints a summary line at the end.

Expected values were computed by the brute-force references in oracles.py
before the package was built, then frozen here.
"""

import time

import oracles
from conftest import note_reproducibility
from test_cli import run_cli
from test_properties import (
    run_inversion_duality_suite,
    run_orbit_star_suite,
    run_round_trip_suite,
    run_translation_invariance_suite,
)

from coarsekit import groups
from coarsekit.actions import (
    commuting_equivalence,
    identity_hom,
    inclusion_hom,
    induced_structure_second,
    left_translation,
    right_translation,
)
from coarsekit.families import translate_pair_family
from coarsekit.group_checks import (
    compare_left_right,
    dihedral_demo,
    fc_test,
    multiplication_bornologous_check,
)
from coarsekit.maps import identity_map, power_map
from coarsekit.spaces import GroupSpace
from coarsekit.structures import LeftGroupStructure, membership_window
from coarsekit.transfer import (
    actions_commute_check,
    build_transfer_data,
    compute_cover_constant,
    compute_transfer_sets,
    enumerate_beta_windows,
)

Z = groups.Z
DIH = groups.DIH
Z2 = groups.free_abelian(2)
Z6 = groups.cyclic(6)
F2 = groups.free_group(2)
DS = GroupSpace(DIH)
ONE = (0, 0)
T = (0, 1)


def test_criterion_1_ball_counts(criterion):
    cases = [
        (Z, 10, lambda r: 2 * r + 1),
        (DIH, 10, lambda r: 4 * r),
        (F2, 6, lambda r: 2 * 3**r - 1),
    ]
    parts = []
    times = []
    for spec, rmax, formula in cases:
        groups._BALL_CACHES.clear()
        t0 = time.perf_counter()
        b = groups.ball(spec, rmax)
        dt = time.perf_counter() - t0
        times.append(f"{spec.label()} {dt * 1000:.0f}ms")
        sizes = {r: sum(1 for g in b.elements if spec.length(g) <= r) for r in range(1, rmax + 1)}
        parts.append(dt < 1.0)
        parts.append(all(sizes[r] == formula(r) for r in range(1, rmax + 1)))
    # independent BFS as a spot check
    parts.append(len(oracles.naive_ball("DIH", 6)) == 24)
    parts.append(len(oracles.naive_ball("F2", 5)) == 2 * 3**5 - 1)
    criterion(1, "ball sizes match closed forms", all(parts), ", ".join(times))


def test_criterion_2_fc_dichotomy(criterion):
    parts = [fc_test(spec, 8).verdict == "PASS" for spec in (Z, Z2, Z6)]

    dih = fc_test(DIH, 8)
    parts.append(dih.verdict == "FAIL")
    parts.append(dih.data["witness"] == "t")
    parts.append(all(dih.data["trace"][str(r)] == 2 * r + 1 for r in range(1, 5)))

    free = fc_test(F2, 6)
    parts.append(free.verdict == "FAIL")
    criterion(2, "FC dichotomy across the catalog", all(parts),
              "witness t, window sizes 3,5,7,9")


def test_criterion_3_verdicts_agree(criterion):
    parts = []
    for spec in (Z, Z2, Z6, DIH, F2):
        fc = fc_test(spec, 8).verdict == "PASS"
        lr = compare_left_right(spec, 8).verdict == "EQUAL"
        mb = multiplication_bornologous_check(spec, 8)
        parts.append(fc == lr == (mb.verdict == "PASS"))
        parts.append(mb.data["cross_check_agrees"] is True)
    criterion(3, "three verdicts agree on every catalog group", all(parts),
              "Z, Z^2, Zmod(6), DihInf, F(2) at R=8")


def test_criterion_4_dihedral_inclusion(criterion):
    t0 = time.perf_counter()
    cert = dihedral_demo(16)
    dt = time.perf_counter() - t0
    parts = [cert.verdict == "PASS", dt < 10.0]
    for side in ("equivalence_onto_left", "equivalence_onto_right"):
        eq = cert.data[side]
        parts.append(eq["verdict"] == "PASS")
        parts.append(eq["data"]["displacement_m_g"] <= 1)
        parts.append(eq["data"]["displacement_g_m"] <= 1)
        parts.append(len(eq["data"]["close_m_g"]["witness"]) <= 3)
        parts.append(len(eq["data"]["close_g_m"]["witness"]) <= 3)
    parts.append(cert.data["left_vs_right"]["verdict"] == "DIFFER")
    criterion(4, "index-two inclusion is a coarse equivalence both ways",
              all(parts), f"R=16 in {dt:.2f}s")


def test_criterion_5_two_structures_one_bounded_set(criterion):
    left_ind, cert_l = induced_structure_second(
        left_translation(inclusion_hom()), (ONE, T), 8
    )
    right_ind, cert_r = induced_structure_second(
        right_translation(inclusion_hom()), (ONE, T), 8
    )
    parts = [cert_l.verdict == "PASS", cert_r.verdict == "PASS"]

    # the two orbits sweep out identical bounded sets at every scale
    for s in range(9):
        left_union = set()
        right_union = set()
        for n in range(-s, s + 1):
            g = (n, 0)
            for u in (ONE, T):
                left_union.add(groups.multiply(DIH, g, u))
                right_union.add(groups.multiply(DIH, u, groups.invert(DIH, g)))
        parts.append(left_union == right_union)

    reflect = translate_pair_family(DS, T, "left")
    parts.append(membership_window(left_ind, reflect, 8).verdict == "FAIL")
    parts.append(membership_window(right_ind, reflect, 8).verdict == "PASS")
    criterion(5, "one bounded set, two structures on the dihedral group",
              all(parts), "verdicts on {{g, t*g}}: FAIL left, PASS right")


def test_criterion_6_commuting_actions(criterion):
    t0 = time.perf_counter()
    parts = []
    for radius in (8, 16):
        cert = commuting_equivalence(
            left_translation(inclusion_hom()),
            right_translation(identity_hom(DIH)),
            (ONE, T), ONE, radius,
        )
        parts.append(cert.verdict == "PASS")
        parts.append(
            cert.data["orbit_closeness_refines_star"]
            == {"psi.phi": True, "phi.psi": True}
        )
    dt = time.perf_counter() - t0
    parts.append(dt < 30.0)
    criterion(6, "commuting translations give a coarse inverse", all(parts),
              f"R=8 and R=16 in {dt:.2f}s")


def test_criterion_7_transfer_windows(criterion):
    cl = LeftGroupStructure(Z)
    doubling = power_map(cl, cl, 2)
    sets = compute_transfer_sets(doubling, frozenset({-1, 0, 1}), 8)
    parts = [set(sets["c"]) == {-2, 0, 2}]
    parts.append(set(compute_transfer_sets(doubling, frozenset({0}), 8)["d"]) == {0})
    parts.append(set(compute_cover_constant(doubling, 8)) == {0, 1})

    td = build_transfer_data(doubling, 8)
    parts.append(len(enumerate_beta_windows(td, 2, pin=0)) == 1)

    # a second battery whose widened step sets admit many legal tables
    padded = build_transfer_data(identity_map(cl), 8).padded(
        c_extra={frozenset({1}): {2}, frozenset({-1}): {-2}}
    )
    tables = 0
    for data in (td, padded):
        for radius in (1, 2, 3):
            for beta in enumerate_beta_windows(data, radius, pin=0):
                parts.append(actions_commute_check(data, beta, radius).verdict == "PASS")
                tables += 1
    criterion(7, "doubling transfer windows and commuting tables", all(parts),
              f"{tables} tables commute exactly")


def test_criterion_8_property_suites(criterion):
    counts = [
        run_translation_invariance_suite(),
        run_inversion_duality_suite(),
        run_orbit_star_suite(),
        run_round_trip_suite(),
    ]
    criterion(8, "randomized witness and star identities",
              all(n >= 1000 for n in counts),
              f"{' + '.join(str(n) for n in counts)} cases")


def test_criterion_9_reports_reproduce():
    battery = [
        ["fc", "--group", "DihInf"],
        ["compare-lr", "--group", "DihInf"],
        ["ball", "--group", "F(2)", "--radius", "5"],
        ["map-check", "--group", "Z", "--map", "floor-div:2", "--radius", "12",
         "--equivalence"],
        ["svarc-milnor", "--action", "left(Z->DihInf via x^n)", "--radius", "8"],
        ["gromov", "--enum-radius", "2"],
        ["demo-dihedral", "--radius", "8"],
    ]
    ok = all(run_cli(argv) == run_cli(argv) for argv in battery)
    note_reproducibility(ok)
    assert ok
