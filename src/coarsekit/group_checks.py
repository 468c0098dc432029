"""Window dichotomies for the two translation structures on a group.

The left structure bounds a family of left-translate pairs {g, a*g} exactly
when the conjugates g^-1*a*g stop accumulating, so the comparison between
the left and right structures reduces, member by member, to conjugacy
windows.  A group passes the window when every tested class stabilizes;
one growing class is a counterexample and names the separating family.
"""

from __future__ import annotations

from . import groups
from .errors import WindowTooSmallError
from .families import (
    ceil_half,
    image_family,
    shape_translate_family,
    trace_stabilizes,
    translate_pair_family,
)
from .maps import Certificate, inclusion_z_to_dih, surjective_equivalence_check
from .structures import LeftGroupStructure, RightGroupStructure, membership_window


def _battery(spec: groups.GroupSpec, radius: int) -> tuple[list, list]:
    """The non-identity elements of Ball(radius/2) in canonical order, and
    those of them whose inverse does not come earlier.  Every catalog
    generating set is symmetric, so inversion maps each sphere onto itself
    and a^-1 is in the battery whenever a is."""
    battery = [a for a in groups.ball(spec, ceil_half(radius)).elements if a != spec.identity()]
    index = {a: i for i, a in enumerate(battery)}
    return battery, [a for i, a in enumerate(battery) if index[spec.inv(a)] >= i]


def fc_test(spec: groups.GroupSpec, radius: int) -> Certificate:
    """Do all conjugacy classes met by the half-ball stop growing?

    Walks Ball(radius/2) in canonical order and traces each conjugacy
    window out to the full radius, stopping at the first class that keeps
    growing.  (L3) The conjugates of a^-1 are the inverses of the conjugates
    of a, so a^-1 has the trace of a and is not traced again when a came
    first; ``classes_tested`` still counts it."""
    battery, firsts = _battery(spec, radius)
    mul, inv = spec.mul, spec.inv
    b = groups.ball(spec, radius)
    spheres = [[(inv(g), g) for g in b.sphere(r)] for r in range(radius + 1)]
    bound = 0
    for a in firsts:
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
    the right (witness {1, a, a^-1}); it is bounded on the left exactly when
    the conjugacy window of a stabilizes.  Only that left window is
    evaluated, because two identities fix the others:

    (L1) the right witness of {g, g*a} over a sphere S_n is the left witness
         of {h, a^-1*h} over S_n, where h = g^-1 (inversion maps S_n onto
         itself);
    (L2) the left witnesses of {g, a*g} and {g, a^-1*g} are the same set
         {1, g^-1*a*g, g^-1*a^-1*g} for each g.

    So {g, g*a} has the same trace on the right as {g, a*g} on the left, and
    a^-1 has the trace of a: it is not evaluated again when a came first, and
    the first separating element in canonical order is still the one
    returned, with both sides' evidence."""
    left = LeftGroupStructure(spec)
    space = left.space
    battery, firsts = _battery(spec, radius)
    for a in firsts:
        pairs = translate_pair_family(space, a, "left")
        failing = membership_window(left, pairs, radius)
        if failing.bounded:
            continue
        other = membership_window(RightGroupStructure(spec), pairs, radius)
        return Certificate(
            check="compare-left-right",
            verdict="DIFFER",
            radius=radius,
            data={
                "group": spec.label(),
                "witness": spec.serialize(a),
                "family": pairs.tag,
                "failing_structure": failing.structure,
                "growing_trace": {str(r): n for r, n in failing.trace.items()},
                "bounded_structure": other.structure,
                "bounded_witness": [
                    spec.serialize(g) for g in groups.canonical_sorted(spec, other.elements)
                ],
            },
            notes=[
                f"family {pairs.tag} grows in {failing.structure} "
                f"but is bounded in {other.structure}"
            ],
        )
    return Certificate(
        check="compare-left-right",
        verdict="EQUAL",
        radius=radius,
        data={"group": spec.label(), "elements_tested": len(battery)},
    )


def multiplication_bornologous_check(spec: groups.GroupSpec, radius: int) -> Certificate:
    """Is multiplication bornologous from the product's left structure?

    Test families are columns F x {g} over the window.  (L4) The left
    witness of a column in G x G is (F^-1*F) x {1} for every g, so the column
    family is bounded upstairs at every radius and is not evaluated.  Its
    image is the right translate F*g, which is bounded on the left exactly
    when conjugation by the window leaves F^-1*F finite, so the verdict must
    match the left-right comparison.  Each F is tested once, even where
    Ball(1) and Ball(2) coincide."""
    downstairs = LeftGroupStructure(spec)
    space = downstairs.space

    shapes = [(spec.identity(), s) for s in groups.ball(spec, 2).elements
              if s != spec.identity()]
    batteries = list(dict.fromkeys(
        [*shapes, groups.ball(spec, 1).elements, groups.ball(spec, 2).elements]
    ))

    failure = None
    checked = []
    for F in batteries:
        Ftag = "[" + ",".join(spec.serialize(f) for f in F) + "]"
        images = shape_translate_family(space, F, "right")
        down = membership_window(downstairs, images, radius)
        checked.append({"F": Ftag, "bounded": down.bounded})
        if not down.bounded:
            failure = down
            break

    comparison = compare_left_right(spec, radius)
    data = {"group": spec.label()}
    if failure is not None:
        data["family"] = failure.family
        data["growing_trace"] = {str(r): n for r, n in failure.trace.items()}
    data.update(checked=checked, left_right_verdict=comparison.verdict,
                cross_check_agrees=(failure is None) == (comparison.verdict == "EQUAL"))
    return Certificate(
        check="multiplication-bornologous",
        verdict="PASS" if failure is None else "FAIL",
        radius=radius,
        data=data,
        notes=[] if failure is None else ["image family of a bounded column keeps growing"],
    )


def dihedral_demo(radius: int = 16, seed: int = 0) -> Certificate:
    """The index-two copy of Z inside the infinite dihedral group.

    The inclusion n -> x^n is a coarse equivalence onto either translation
    structure (every point is within one letter of the copy), yet the two
    structures on the big group differ: the family {g, t*g} is bounded on
    the right with witness t and grows without bound on the left, because
    the conjugates of t form an infinite class while those of x stay at
    {x, x^-1}.  Pulling either structure back along the inclusion lands in
    the same structure on Z at this window.  The exact pullback comparison
    needs a map onto the window, and the inclusion misses t, which lies in
    window(1): it is reported not applicable, and radius 0 is refused."""
    if radius == 0:
        raise WindowTooSmallError(f"the dihedral demo needs radius 1 or more, got {radius}")
    dih = groups.DIH
    left = LeftGroupStructure(dih)
    right = RightGroupStructure(dih)
    z_left = LeftGroupStructure(groups.Z)

    incl_l = inclusion_z_to_dih(z_left, left)
    incl_r = inclusion_z_to_dih(z_left, right)

    cert_l = surjective_equivalence_check(incl_l, radius, cover_distance=1, seed=seed)
    cert_r = surjective_equivalence_check(incl_r, radius, cover_distance=1, seed=seed)

    comparison = compare_left_right(dih, radius)

    x = (1, 0)
    t = (0, 1)
    conj_x = {r: len(groups.conjugacy_window(dih, x, r)) for r in range(5)}
    conj_t = {r: len(groups.conjugacy_window(dih, t, r)) for r in range(5)}

    agreement = []
    agree_ok = True
    for pf in z_left.default_battery(seed=seed, n_random=32):
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
        "exact pullback comparison needs an onto map; the distance-1 cover"
        " stands in for it",
    ]

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
            "exact_pullback": "not applicable: the inclusion misses the reflections",
        },
        notes=notes,
    )
