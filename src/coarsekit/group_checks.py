"""Window dichotomies for the two translation structures on a group.

The left structure bounds a family of left-translate pairs {g, a*g} exactly
when the conjugates g^-1*a*g stop accumulating, so the comparison between
the left and right structures reduces, member by member, to conjugacy
windows.  A group passes the window when every tested class stabilizes;
one growing class is a counterexample and names the separating family.
"""

from __future__ import annotations

from . import groups
from .errors import SurjectivityError
from .families import (
    ParamFamily,
    ceil_half,
    image_family,
    shape_translate_family,
    trace_stabilizes,
    translate_pair_family,
)
from .maps import (
    Certificate,
    inclusion_z_to_dih,
    pullback_structure_equality,
    surjective_equivalence_check,
)
from .structures import LeftGroupStructure, RightGroupStructure, membership_window


def fc_test(spec: groups.GroupSpec, radius: int) -> Certificate:
    """Do all conjugacy classes met by the half-ball stop growing?

    Walks Ball(radius/2) in canonical order and traces each conjugacy
    window out to the full radius, stopping at the first class that keeps
    growing."""
    battery = [a for a in groups.ball(spec, ceil_half(radius)).elements
               if a != spec.identity()]
    mul, inv = spec.mul, spec.inv
    b = groups.ball(spec, radius)
    spheres = [[(inv(g), g) for g in b.sphere(r)] for r in range(radius + 1)]
    bound = 0
    for a in battery:
        seen: set = set()
        trace = {}
        for r, pairs in enumerate(spheres):
            seen.update([mul(mul(ig, a), g) for ig, g in pairs])
            trace[r] = len(seen)
        if not trace_stabilizes(trace, radius):
            return Certificate(
                check="fc",
                verdict="FAIL",
                radius=radius,
                data={
                    "group": spec.label(),
                    "witness": spec.serialize(a),
                    "trace": {str(r): n for r, n in trace.items()},
                },
                notes=[f"conjugacy window of {spec.serialize(a)} keeps growing"],
            )
        bound = max(bound, trace[radius])
    return Certificate(
        check="fc",
        verdict="PASS",
        radius=radius,
        data={
            "group": spec.label(),
            "classes_tested": len(battery),
            "largest_class": bound,
        },
    )


def compare_left_right(spec: groups.GroupSpec, radius: int) -> Certificate:
    """EQUAL or DIFFER for the left and right structures on the window.

    For each a in the half-ball, the family {g, a*g} is always bounded on
    the right (witness a^-1); it is bounded on the left exactly when the
    conjugacy window of a stabilizes.  The mirrored family {g, g*a} swaps
    the roles.  The first element separating the structures is returned
    with both sides' evidence."""
    left = LeftGroupStructure(spec)
    right = RightGroupStructure(spec)
    space = left.space
    battery = [a for a in groups.ball(spec, ceil_half(radius)).elements
               if a != spec.identity()]
    tested = 0
    for a in battery:
        fam_left_pairs = translate_pair_family(space, a, "left")
        res_l = membership_window(left, fam_left_pairs, radius)
        fam_right_pairs = translate_pair_family(space, a, "right")
        res_r = membership_window(right, fam_right_pairs, radius)
        tested += 1
        if not res_l.bounded or not res_r.bounded:
            if not res_l.bounded:
                failing, fail_pf, other_struct = res_l, fam_left_pairs, right
            else:
                failing, fail_pf, other_struct = res_r, fam_right_pairs, left
            other = membership_window(other_struct, fail_pf, radius)
            return Certificate(
                check="compare-left-right",
                verdict="DIFFER",
                radius=radius,
                data={
                    "group": spec.label(),
                    "witness": spec.serialize(a),
                    "family": fail_pf.tag,
                    "failing_structure": failing.structure,
                    "growing_trace": {str(r): n for r, n in failing.trace.items()},
                    "bounded_structure": other.structure,
                    "bounded_witness": [
                        spec.serialize(g) for g in groups.canonical_sorted(spec, other.elements)
                    ],
                },
                notes=[
                    f"family {fail_pf.tag} grows in {failing.structure} "
                    f"but is bounded in {other.structure}"
                ],
            )
    return Certificate(
        check="compare-left-right",
        verdict="EQUAL",
        radius=radius,
        data={"group": spec.label(), "elements_tested": tested},
    )


def multiplication_bornologous_check(spec: groups.GroupSpec, radius: int) -> Certificate:
    """Is multiplication bornologous from the product's left structure?

    Test families are columns F x {g} over the window; such a column is
    always bounded upstairs, and its image is the right translate F*g.
    The image family is bounded on the left exactly when conjugation by
    the window leaves F^-1*F finite, so the verdict must match the
    left-right comparison."""
    product_spec = groups.product(spec, spec)
    upstairs = LeftGroupStructure(product_spec)
    downstairs = LeftGroupStructure(spec)
    space = downstairs.space

    shapes = [(spec.identity(), s) for s in groups.ball(spec, 2).elements
              if s != spec.identity()]
    batteries = [tuple(pair) for pair in shapes]
    batteries.append(groups.ball(spec, 1).elements)
    batteries.append(groups.ball(spec, 2).elements)

    first_failure = None
    checked = []
    for F in batteries:
        Ftag = "[" + ",".join(spec.serialize(f) for f in F) + "]"

        def column_grow(r: int, F=F):
            return (tuple((f, g) for f in F) for g in groups.sphere(spec, r))

        columns = ParamFamily(tag=f"{{{Ftag} x {{g}}}}", space=upstairs.space, grow=column_grow)
        up = membership_window(upstairs, columns, radius)
        if not up.bounded:
            return Certificate(
                check="multiplication-bornologous",
                verdict="FAIL",
                radius=radius,
                data={"group": spec.label(), "note": "test column family is not bounded upstairs",
                      "family": columns.tag},
            )

        images = shape_translate_family(space, F, "right")
        down = membership_window(downstairs, images, radius)
        checked.append({"F": Ftag, "bounded": down.bounded})
        if not down.bounded and first_failure is None:
            first_failure = down
            break

    comparison = compare_left_right(spec, radius)
    agreement = (first_failure is None) == (comparison.verdict == "EQUAL")

    if first_failure is not None:
        return Certificate(
            check="multiplication-bornologous",
            verdict="FAIL",
            radius=radius,
            data={
                "group": spec.label(),
                "family": first_failure.family,
                "growing_trace": {str(r): n for r, n in first_failure.trace.items()},
                "checked": checked,
                "left_right_verdict": comparison.verdict,
                "cross_check_agrees": agreement,
            },
            notes=["image family of a bounded column keeps growing"],
        )
    return Certificate(
        check="multiplication-bornologous",
        verdict="PASS",
        radius=radius,
        data={
            "group": spec.label(),
            "checked": checked,
            "left_right_verdict": comparison.verdict,
            "cross_check_agrees": agreement,
        },
    )


def dihedral_demo(radius: int = 16, seed: int = 0, n_random: int = 32) -> Certificate:
    """The index-two copy of Z inside the infinite dihedral group.

    The inclusion n -> x^n is a coarse equivalence onto either translation
    structure (every point is within one letter of the copy), yet the two
    structures on the big group differ: the family {g, t*g} is bounded on
    the right with witness t and grows without bound on the left, because
    the conjugates of t form an infinite class while those of x stay at
    {x, x^-1}.  Pulling either structure back along the inclusion lands in
    the same structure on Z at this window."""
    dih = groups.DIH
    left = LeftGroupStructure(dih)
    right = RightGroupStructure(dih)
    z_left = LeftGroupStructure(groups.Z)

    incl_l = inclusion_z_to_dih(z_left, left)
    incl_r = inclusion_z_to_dih(z_left, right)

    cert_l = surjective_equivalence_check(incl_l, radius, cover_distance=1,
                                          seed=seed, n_random=n_random)
    cert_r = surjective_equivalence_check(incl_r, radius, cover_distance=1,
                                          seed=seed, n_random=n_random)

    comparison = compare_left_right(dih, radius)

    x = (1, 0)
    t = (0, 1)
    conj_x = {r: len(groups.conjugacy_window(dih, x, r)) for r in range(5)}
    conj_t = {r: len(groups.conjugacy_window(dih, t, r)) for r in range(5)}

    agreement = []
    agree_ok = True
    for pf in z_left.default_battery(seed=seed, n_random=n_random):
        img = image_family(pf, incl_l.rule, left.space, tag=f"{incl_l.name}({pf.tag})")
        in_left = membership_window(left, img, radius)
        in_right = membership_window(right, img, radius)
        same = in_left.bounded == in_right.bounded
        agreement.append({"family": img.tag, "left": in_left.bounded,
                          "right": in_right.bounded, "agree": same})
        if not (same and in_left.bounded):
            agree_ok = False

    notes = [
        "conjugates of x stabilize at {x, x^-1}; conjugates of t grow as 2r+1,"
        " so t separates the left and right structures",
    ]
    exact = None
    try:
        pullback_structure_equality(incl_l, left, right, min(radius, 4),
                                    seed=seed, n_random=4)
    except SurjectivityError:
        exact = "not applicable: the inclusion misses the reflections"
        notes.append(
            "exact pullback comparison needs an onto map; the distance-1 cover"
            " stands in for it"
        )

    ok = (
        cert_l.passed
        and cert_r.passed
        and comparison.verdict == "DIFFER"
        and agree_ok
    )
    return Certificate(
        check="dihedral-demo",
        verdict="PASS" if ok else "FAIL",
        radius=radius,
        data={
            "group": dih.label(),
            "equivalence_onto_left": cert_l.to_json(),
            "equivalence_onto_right": cert_r.to_json(),
            "left_vs_right": comparison.to_json(),
            "conjugacy_window_x": {str(r): n for r, n in conj_x.items()},
            "conjugacy_window_t": {str(r): n for r, n in conj_t.items()},
            "pullback_agreement": agreement,
            "exact_pullback": exact,
        },
        notes=notes,
    )
