"""Window dichotomies for the two translation structures on a group.

The left structure bounds a family of left-translate pairs {g, a*g} exactly
when the conjugates g^-1*a*g stop accumulating, so the comparison between
the left and right structures reduces, member by member, to conjugacy
windows.  A group passes the window when every tested class stabilizes;
one growing class is a counterexample and names the separating family.

Every catalog generating set is symmetric, so inversion maps each sphere
S_n onto itself.  Write C_D(r) = {g^-1*d*g : d in D, |g| <= r}.  These
identities fix the windows the checks read:

(L1) the right witness of {g, g*a} over S_n is the left witness of
     {h, a^-1*h} over S_n, where h = g^-1;
(L2) the left witnesses of {g, a*g} and {g, a^-1*g} are the same set
     {1, g^-1*a*g, g^-1*a^-1*g} for each g;
(L3) C_{a^-1}(r) holds the inverses of C_a(r);
(L4) the left witness of a column F x {g} in G x G is (F^-1*F) x {1} for
     every g;
(L6) the left witness of the right translates {F*g : |g| <= r} is
     C_{F^-1*F}(r), since (f*g)^-1*(f'*g) = g^-1*(f^-1*f')*g; F^-1*F holds
     1 when F is nonempty;
(L7) C_D(r) is C_D(r-1) together with s^-1*c*s for the c new at r-1 and
     the generators s, since every g of S_r is g'*s with g' in S_{r-1}.

By L6 and L7 each check grows the classes it needs one generator step at a
time (``groups.conjugacy_layers``): a class costs its own size, not the ball.
A class is read until its first empty layer, where it is closed: by L7 no
later layer adds a conjugate, so its size holds out to the radius.
"""

from __future__ import annotations

from . import groups
from .errors import InvalidRadiusError, WindowTooSmallError
from .families import Reading, ceil_half, shape_translate_family, translate_pair_family
from .maps import Certificate, inclusion_z_to_dih, surjective_equivalence_check
from .spaces import GroupSpace
from .structures import LeftGroupStructure, RightGroupStructure


def _battery(spec: groups.GroupSpec, radius: int) -> tuple[list, list]:
    """The non-identity elements of Ball(radius/2) in canonical order, and
    those of them whose inverse does not come earlier.  Every catalog
    generating set is symmetric, so inversion maps each sphere onto itself
    and a^-1 is in the battery whenever a is."""
    if radius < 0:
        raise InvalidRadiusError(f"radius must be >= 0, got {radius}")
    battery = [a for a in groups.ball(spec, ceil_half(radius)).elements if a != spec.identity()]
    index = {a: i for i, a in enumerate(battery)}
    return battery, [a for i, a in enumerate(battery) if index[spec.inv(a)] >= i]


def _class_trace(spec: groups.GroupSpec, seeds, radius: int) -> Reading:
    """The Reading of r -> |C_D(r)| for r <= radius, D the seeds (L7).

    The layers are read up to the first empty one, where the class closes:
    by L7 every later layer is empty too, so the size reached there holds
    out to radius."""
    trace, size = {}, 0
    for r, new in zip(range(radius + 1), groups.conjugacy_layers(spec, seeds)):
        size = trace[r] = size + len(new)
        if not new:
            break
    trace |= dict.fromkeys(range(len(trace), radius + 1), size)
    return Reading(trace, radius)


def fc_test(spec: groups.GroupSpec, radius: int) -> Certificate:
    """Do all conjugacy classes met by the half-ball stop growing?

    Walks Ball(radius/2) in canonical order and traces each class C_a(r) out
    to the full radius, one generator step per radius (L7) until the class
    closes, stopping at the first class that keeps growing.  (L3) a^-1 has
    the trace of a and is not traced again when a came first;
    ``classes_tested`` still counts it."""
    battery, firsts = _battery(spec, radius)
    bound = 0
    for a in firsts:
        reading = _class_trace(spec, (a,), radius)
        if not reading.stable:
            return Certificate(
                check="fc",
                verdict=reading.verdict,
                radius=radius,
                data={
                    "group": spec.label(),
                    "witness": spec.serialize(a),
                    "trace": reading.to_json(),
                },
                notes=[f"conjugacy window of {spec.serialize(a)} keeps growing"],
            )
        bound = max(bound, reading.trace[radius])
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

    For each a in the half-ball, the family {g, a*g} is bounded on the right
    with witness {1, a, a^-1}, since g*(a*g)^-1 = a^-1.  On the left its
    witness at radius r is C_{1,a,a^-1}(r) (L6 with F = {1, a}), grown by
    generator steps (L7), and the family is bounded exactly when that trace
    stabilizes.  By L1 the right trace of {g, g*a} is the left trace of
    {h, a^-1*h}, and by L2 that is the trace of a, so no other window is
    read: a^-1 is not traced again when a came first, and the first
    separating element in canonical order is still the one returned, with
    both sides' evidence."""
    one, inv = spec.identity(), spec.inv
    battery, firsts = _battery(spec, radius)
    for a in firsts:
        seeds = (one, a, inv(a))
        reading = _class_trace(spec, seeds, radius)
        if reading.stable:
            continue
        left, right = LeftGroupStructure(spec), RightGroupStructure(spec)
        tag = translate_pair_family(left.space, a, "left").tag
        return Certificate(
            check="compare-left-right",
            verdict="DIFFER",
            radius=radius,
            data={
                "group": spec.label(),
                "witness": spec.serialize(a),
                "family": tag,
                "failing_structure": left.label,
                "growing_trace": reading.to_json(),
                "bounded_structure": right.label,
                "bounded_witness": [
                    spec.serialize(g) for g in groups.canonical_sorted(spec, seeds)
                ],
            },
            notes=[f"family {tag} grows in {left.label} but is bounded in {right.label}"],
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
    image is the right translate F*g, whose left witness at radius r is
    C_{F^-1*F}(r) (L6), grown by generator steps (L7); so it is bounded
    exactly when conjugation leaves F^-1*F finite, and the verdict must
    match the left-right comparison.  Each F is tested once, even where
    Ball(1) and Ball(2) coincide."""
    one, mul, inv = spec.identity(), spec.mul, spec.inv
    shapes = [(one, s) for s in groups.ball(spec, 2).elements if s != one]
    batteries = list(dict.fromkeys(
        [*shapes, groups.ball(spec, 1).elements, groups.ball(spec, 2).elements]
    ))

    failure = None
    checked = []
    for F in batteries:
        Ftag = "[" + ",".join(spec.serialize(f) for f in F) + "]"
        reading = _class_trace(spec, {mul(inv(f), f2) for f in F for f2 in F}, radius)
        checked.append({"F": Ftag, "bounded": reading.stable})
        if not reading.stable:
            failure = (F, reading)
            break

    comparison = compare_left_right(spec, radius)
    data = {"group": spec.label()}
    if failure is not None:
        F, reading = failure
        data["family"] = shape_translate_family(GroupSpace(spec), F, "right").tag
        data["growing_trace"] = reading.to_json()
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

    # each equivalence check's bornologous part has read every battery
    # family's image in its target; a family past a counterexample reads
    # as unbounded, and the demo fails with that check either way
    bounded_l = cert_l.data["bornologous"]["data"].get("witnesses", {})
    bounded_r = cert_r.data["bornologous"]["data"].get("witnesses", {})
    agreement = []
    agree_ok = True
    for pf in z_left.default_battery(seed=seed, n_random=32):
        in_left, in_right = pf.tag in bounded_l, pf.tag in bounded_r
        same = in_left == in_right
        agreement.append({"family": f"{incl_l.name}({pf.tag})", "left": in_left,
                          "right": in_right, "agree": same})
        if not (same and in_left):
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
