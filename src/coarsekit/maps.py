"""Window checks for maps between spaces carrying coarse structures.

A map window is a rule together with a structure on its source and one on
its target.  Checks evaluate finite batteries of bounded families:

* bornologous          image families stay bounded
* coarsely proper      preimages of bounded test sets stop growing
* closeness            the pair family of two maps is bounded in the target
* equivalence          the surjective criterion: bornologous + proper +
                       bounded preimage families, plus a canonical coarse
                       inverse selected from least preimages

Exact surjectivity can be relaxed through ``cover_distance``: a target
element counts as covered when the image meets its metric neighborhood of
that radius (used for finite-index style embeddings).
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cache

from . import groups
from .errors import (
    InvalidRadiusError,
    PreconditionError,
    SpaceMismatchError,
    SurjectivityError,
    WindowOverflowError,
)
from .families import ParamFamily, Reading, ShapeTranslates, identity, image_family
from .spaces import GroupSpace, Preimages
from .structures import CoarseStructure, bounded_battery, first_unbounded, membership_window

DEFAULT_SOURCE_FACTOR = 2
DEFAULT_SOURCE_SLACK = 2
# the metric neighborhoods nbhd(y, mesh) whose preimages the properness check reads
PROPER_TEST_MESHES = (0, 1, 2)


class MapWindow:
    def __init__(
        self,
        name: str,
        source: CoarseStructure,
        target: CoarseStructure,
        rule: Callable,
        source_factor: int = DEFAULT_SOURCE_FACTOR,
        source_slack: int = DEFAULT_SOURCE_SLACK,
        homomorphism: bool = False,
    ):
        self.name = name
        self.source = source
        self.target = target
        self.rule = rule
        self.source_factor = source_factor
        self.source_slack = source_slack
        # the rule is a group homomorphism of the source group into the target's
        self.homomorphism = homomorphism
        # each image value's preimages, in window order; grown on demand
        self.fibres = Preimages(source.space, lambda x: (rule(x),))

    def source_radius(self, radius: int) -> int:
        return self.source_factor * radius + self.source_slack

    def __call__(self, x):
        return self.rule(x)

    def image(self, pf: ParamFamily) -> ParamFamily:
        """The image family r -> {rule(m)} of pf, tagged ``name(pf.tag)``,
        that the bornologous check reads.  A map that knows its images as
        another growth of the same members may return that instead (the
        orbit map of ``actions.coarse_action_certificate`` does).

        A homomorphism f sends g*S to f(g)*f(S) and S*g to f(S)*f(g).  So
        the image of a ``ShapeTranslates`` of the source group through the
        identity is the ``ShapeTranslates`` of f(S) through f: the same
        members, over the same source spheres, which a group structure on
        the target reads off f(S) wherever translations on the family's
        side are isometries (``GroupStructure.read_off``), and folds
        elsewhere."""
        tag = f"{self.name}({pf.tag})"
        grow, f, space = pf.grow, self.rule, self.target.space
        if self.homomorphism and isinstance(grow, ShapeTranslates) and grow.f is identity:
            shape = tuple([f(s) for s in grow.shape])
            return ParamFamily(tag, space, ShapeTranslates(space.spec, shape, grow.side, grow.source, f))
        return image_family(pf, f, space, tag=tag)

    def preimage(self, pf: ParamFamily, fibre: Callable, radius: int) -> ParamFamily:
        """The preimage family r -> {fibre(m)} of pf, tagged ``pre(pf.tag)``,
        that the equivalence check reads at ``radius``, a point y read as
        ``fibre(y)``: its fibre in the source window of
        ``source_radius(radius)``.  A map that knows the preimages as
        another growth of the same members may return that instead (the
        orbit map of ``actions.coarse_action_certificate`` does)."""
        return _preimage_family(self, pf, fibre)

    def window(self, r: int):
        """The target window the equivalence check covers at radius r: the
        target space's window(r).  A map whose image is known to be smaller
        may cover its image instead (the orbit map of
        ``actions.coarse_action_certificate`` covers its orbit).  Either
        lists the points of window(r - 1) first."""
        return self.target.space.window(r)


class Certificate:
    def __init__(
        self,
        check: str,
        verdict: str,
        radius: int,
        data: dict | None = None,
        notes: list | None = None,
    ):
        self.check = check
        self.verdict = verdict
        self.radius = radius
        self.data = {} if data is None else data
        self.notes = [] if notes is None else notes

    @property
    def passed(self) -> bool:
        return self.verdict in ("PASS", "EQUAL")

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "verdict": self.verdict,
            "radius": self.radius,
            "data": self.data,
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# catalog constructors

def _onto_own_space(name: str, source: CoarseStructure, target: CoarseStructure | None) -> CoarseStructure:
    """The target of a map from a space to itself: ``source`` when none is
    given, else ``target``, which must be a structure on the same space."""
    if target is None:
        return source
    if target.space != source.space:
        raise PreconditionError(
            f"{name} maps a space to itself; the source is {source.label}, the target {target.label}"
        )
    return target


def identity_map(source: CoarseStructure, target: CoarseStructure | None = None) -> MapWindow:
    target = _onto_own_space("identity", source, target)
    return MapWindow("identity", source, target, lambda x: x, source_factor=1, homomorphism=True)


def translation_map(
    source: CoarseStructure, g, side: str = "left", target: CoarseStructure | None = None
) -> MapWindow:
    spec = source.space.spec
    spec.validate(g)
    gs = spec.serialize(g)
    name = f"translate-{side}:{gs}"
    target = _onto_own_space(name, source, target)
    if side == "left":
        rule = lambda x: spec.mul(g, x)
    else:
        rule = lambda x: spec.mul(x, g)
    return MapWindow(name, source, target, rule, source_factor=1,
                     source_slack=spec.length(g) + 1)


def negation_map(source: CoarseStructure, target: CoarseStructure | None = None) -> MapWindow:
    spec = source.space.spec
    target = _onto_own_space("negate", source, target)
    return MapWindow("negate", source, target, spec.inv, source_factor=1)


def squaring_map(source: CoarseStructure, target: CoarseStructure | None = None) -> MapWindow:
    if source.space.spec != groups.Z:
        raise PreconditionError("squaring map is defined on Z")
    target = _onto_own_space("square", source, target)
    return MapWindow("square", source, target, lambda n: n * n)


def power_map(source: CoarseStructure, target: CoarseStructure, k: int) -> MapWindow:
    if source.space.spec != groups.Z or target.space.spec != groups.Z:
        raise PreconditionError("power map is defined on Z")
    return MapWindow(f"power:{k}", source, target, lambda n: k * n, homomorphism=True)


def floor_div_map(source: CoarseStructure, target: CoarseStructure, k: int) -> MapWindow:
    if k < 1:
        raise PreconditionError("floor divisor must be >= 1")
    if source.space.spec != groups.Z or target.space.spec != groups.Z:
        raise PreconditionError("floor-division map is defined on Z")
    # the source window must scale with k to stay onto the target window,
    # with slack for the mesh of battery families pulled back through it
    return MapWindow(f"floor-div:{k}", source, target, lambda n: n // k, source_factor=k,
                     source_slack=2 * k)


def inclusion_z_to_dih(source: CoarseStructure, target: CoarseStructure) -> MapWindow:
    if source.space.spec != groups.Z or target.space.spec != groups.DIH:
        raise PreconditionError("inclusion is defined from Z into DihInf")
    return MapWindow("inclusion", source, target, lambda n: (n, 0), source_factor=1,
                     source_slack=2, homomorphism=True)


def mod_map(source: CoarseStructure, target: CoarseStructure, k: int) -> MapWindow:
    tspec = target.space.spec
    if source.space.spec != groups.Z or not isinstance(tspec, groups.Cyclic) or tspec.modulus != k:
        raise PreconditionError(f"mod:{k} is defined from Z onto Zmod({k})")
    return MapWindow(f"mod:{k}", source, target, lambda x: x % k, homomorphism=True)


def constant_map(source: CoarseStructure, target: CoarseStructure, value) -> MapWindow:
    target.space.validate(value)
    vs = target.space.serialize(value)
    return MapWindow(f"constant:{vs}", source, target, lambda x: value, source_factor=1)


def table_map(name: str, source: CoarseStructure, target: CoarseStructure, table: dict) -> MapWindow:
    def rule(x):
        if x not in table:
            raise WindowOverflowError(f"{name}: {x!r} outside the tabulated window")
        return table[x]

    return MapWindow(name, source, target, rule, source_factor=1, source_slack=0)


# ---------------------------------------------------------------------------
# checks

def check_bornologous(
    m: MapWindow,
    radius: int,
    seed: int = 0,
    n_random: int = 32,
) -> Certificate:
    """Do images of bounded families stay bounded in the target?"""
    taken, bad = first_unbounded(
        (pf.tag, membership_window(m.target, m.image(pf), radius))
        for pf, _ in bounded_battery(m.source, radius, seed, n_random)
    )
    if bad is not None:
        data = {"map": m.name, "counterexample": taken[-1][1].to_json()}
    else:
        data = {"map": m.name, "witnesses": {tag: res.to_json() for tag, res in taken}}
    return Certificate("bornologous", "PASS" if bad is None else "FAIL", radius, data)


def check_coarsely_proper(m: MapWindow, radius: int) -> Certificate:
    """Do preimages of bounded target test sets stop growing with the window?"""
    fibres = m.fibres
    readings = {}
    for y in fibres.image(1):
        for mesh in PROPER_TEST_MESHES:
            U = set(m.target.bounded_neighborhood(y, mesh))
            tag = f"nbhd({m.target.space.serialize(y)},{mesh})"
            readings[tag] = reading = Reading(fibres.trace(U, radius), radius)
            if not reading.stable:
                return Certificate(
                    check="coarsely-proper",
                    verdict=reading.verdict,
                    radius=radius,
                    data={"map": m.name, "test_set": tag, "trace": reading.to_json()},
                )
    return Certificate(
        check="coarsely-proper",
        verdict="PASS",
        radius=radius,
        data={"map": m.name, "traces": {t: rd.to_json() for t, rd in readings.items()}},
    )


def check_close(m1: MapWindow, m2: MapWindow, radius: int) -> Certificate:
    """Is the pair family {{m1(s), m2(s)}} bounded in the shared target?"""
    if m1.source.space != m2.source.space:
        raise SpaceMismatchError("close maps need a common source space")
    if m1.target.label != m2.target.label or m1.target.space != m2.target.space:
        raise SpaceMismatchError("close maps need a common target structure")

    def grow(r: int):
        return ((m1.rule(s), m2.rule(s)) for s in m1.source.space.sphere(r))

    pf = ParamFamily(tag=f"close({m1.name},{m2.name})", space=m1.target.space, grow=grow)
    res = membership_window(m1.target, pf, radius)
    data = {"maps": [m1.name, m2.name], "result": res.to_json()}
    if res.bounded and isinstance(m1.target.space, GroupSpace):
        spec = m1.target.space.spec
        data["displacement"] = max(map(spec.length, res.elements), default=0)
    return Certificate(
        check="close",
        verdict="PASS" if res.bounded else "FAIL",
        radius=radius,
        data=data,
    )


def _preimage_family(m: MapWindow, pf: ParamFamily, fibre: Callable) -> ParamFamily:
    """r -> the preimages of the members of pf at r, a point y read as ``fibre(y)``."""

    def grow(r: int):
        return ([x for y in mem for x in fibre(y)] for mem in pf.grow(r))

    return ParamFamily(tag=f"pre({pf.tag})", space=m.source.space, grow=grow)


def _neighborhood(struct: CoarseStructure, y, distance: int) -> tuple:
    if distance == 0:
        return (y,)
    return struct.bounded_neighborhood(y, distance)


def surjective_equivalence_check(
    m: MapWindow,
    radius: int,
    cover_distance: int = 0,
    seed: int = 0,
    n_random: int = 32,
) -> Certificate:
    """Certify a coarse equivalence through the surjective criterion.

    The map's window at the top radius (``MapWindow.window``: the target
    space's window, or the orbit for an orbit map) must be covered by the
    image up to ``cover_distance`` (0 demands genuine surjectivity on the
    window and raises otherwise).  Bornologous, coarsely proper, then the
    preimages of the target battery are read, each battery up to its first
    unbounded family.  On success the certificate stores the canonical
    coarse inverse: every window element is sent to the least preimage of
    the nearest covered point.

    The preimage families come from the map, ``m.preimage``: the generic
    family of fibres, or the same members grown as a translate family the
    source structure reads off (the orbit map's, when its exactness
    conditions hold; see ``actions._OrbitMap``).
    """
    if cover_distance < 0:
        raise InvalidRadiusError(f"cover distance must be >= 0, got {cover_distance}")
    source_radius = m.source_radius(radius)
    # a fibre is a pure function of (y, source_radius), so each one is read
    # once per check; the memo ends with the check, not with the map
    get = m.fibres.get
    fibre = cache(lambda y: get(y, source_radius))
    window = m.window(radius)

    selection: dict = {}
    src_key = m.source.space.sort_key
    for y in window:
        cands = []
        # nearer covered points win; canonical order only breaks ties
        for d in range(cover_distance + 1):
            for z in _neighborhood(m.target, y, d):
                xs = fibre(z)
                if xs:
                    cands.append(xs[0])
            if cands:
                break
        if not cands:
            raise SurjectivityError(
                m.target.space.serialize(y),
                f"{m.name}: {m.target.space.serialize(y)} not covered within distance {cover_distance}",
            )
        selection[y] = min(cands, key=src_key)

    born = check_bornologous(m, radius, seed=seed, n_random=n_random)
    proper = check_coarsely_proper(m, radius)
    failures = []
    if not born.passed:
        failures.append(born)
    if not proper.passed:
        failures.append(proper)

    taken = []
    if not failures:
        taken, bad = first_unbounded(
            (pf.tag, membership_window(m.source, m.preimage(pf, fibre, radius), radius))
            for pf, _ in bounded_battery(m.target, radius, seed, n_random)
        )
        if bad is not None:
            failures.append(Certificate("preimage-bounded", "FAIL", radius,
                                        {"family": bad, "result": taken[-1][1].to_json()}))

    data: dict = {
        "map": m.name,
        "cover_distance": cover_distance,
        "bornologous": born.to_json(),
        "coarsely_proper": proper.to_json(),
        "preimage_families": {tag: res.to_json() for tag, res in taken},
    }

    if failures:
        data["failures"] = [c.to_json() for c in failures]
        return Certificate("surjective-equivalence", "FAIL", radius, data)

    # quality of the canonical selection
    tspace = m.target.space
    sspace = m.source.space

    def mg_grow(r: int):
        # window(r) lists window(r - 1) first: the points new at r are its suffix
        inner = len(m.window(r - 1)) if r else 0
        return ((m.rule(selection[y]), y) for y in m.window(r)[inner:])

    mg_pf = ParamFamily(tag="m.g vs id", space=tspace, grow=mg_grow)
    mg_res = membership_window(m.target, mg_pf, radius)

    def gm_grow(r: int):
        for x in sspace.sphere(r):
            y = m.rule(x)
            if y in selection:
                yield (selection[y], x)

    gm_pf = ParamFamily(tag="g.m vs id", space=sspace, grow=gm_grow)
    gm_res = membership_window(m.source, gm_pf, radius)

    data["selection"] = {
        tspace.serialize(y): sspace.serialize(x) for y, x in selection.items()
    }
    data["close_m_g"] = mg_res.to_json()
    data["close_g_m"] = gm_res.to_json()
    # witness elements live in the structure's witness group, which for
    # induced structures is the acting group rather than the space itself
    data["displacement_m_g"] = max(map(mg_res.group.length, mg_res.elements), default=0)
    data["displacement_g_m"] = max(map(gm_res.group.length, gm_res.elements), default=0)

    verdict = "PASS" if (mg_res.bounded and gm_res.bounded) else "FAIL"
    return Certificate("surjective-equivalence", verdict, radius, data)


def selection_map(m: MapWindow, cert: Certificate) -> MapWindow:
    """The stored coarse inverse of a passed equivalence check, as a map."""
    if "selection" not in cert.data:
        raise PreconditionError("certificate carries no selection table")
    table = {
        m.target.space.parse(ys): m.source.space.parse(xs)
        for ys, xs in cert.data["selection"].items()
    }
    return table_map(f"inverse({m.name})", m.target, m.source, table)


def pullback_structure_equality(
    m: MapWindow,
    spec1: CoarseStructure,
    spec2: CoarseStructure,
    radius: int,
) -> Certificate:
    """Compare two structures on the target of a surjective map by pulling
    battery families back and pushing them forward again."""
    if spec1.space != m.target.space or spec2.space != m.target.space:
        raise SpaceMismatchError("both structures must live on the map target")
    source_radius = m.source_radius(radius)
    covered = m.fibres.reach
    for y in m.target.space.window(radius):
        if covered(y, source_radius) is None:
            raise SurjectivityError(
                m.target.space.serialize(y),
                f"{m.name} is not onto the window: {m.target.space.serialize(y)} uncovered",
            )

    def reads(a: CoarseStructure, b: CoarseStructure):
        for pf, _ in bounded_battery(a, radius, 0, 32):
            # round trip through preimages: f(f^-1(B)) must reproduce B
            fam = pf.at(radius)
            for mem in fam.members:
                if any(covered(y, source_radius) is None for y in mem):
                    raise WindowOverflowError(
                        f"member of {pf.tag} leaves the covered window at radius {radius}"
                    )
            yield pf.tag, membership_window(b, pf, radius)

    taken, tag = first_unbounded(reads(spec1, spec2))
    direction = f"bounded in {spec1.label}, unbounded in {spec2.label}"
    if tag is None:
        taken, tag = first_unbounded(reads(spec2, spec1))
        direction = f"bounded in {spec2.label}, unbounded in {spec1.label}"
    if tag is None:
        return Certificate(
            "pullback-equality",
            "EQUAL",
            radius,
            data={"map": m.name, "structures": [spec1.label, spec2.label]},
        )
    return Certificate(
        "pullback-equality",
        "DIFFER",
        radius,
        data={
            "map": m.name,
            "structures": [spec1.label, spec2.label],
            "separating_family": tag,
            "direction": direction,
            "result": taken[-1][1].to_json(),
        },
    )
