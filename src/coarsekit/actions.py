"""Group actions on windows and the structures they induce.

Actions are left actions by construction; a right translation action is
encoded as the left action g.x := x * h(g)^-1.  Translation actions go
through a catalog homomorphism (identity, the inclusion of Z into DihInf
as powers of x, or an integer scaling on Z).  Table actions carry explicit
generator permutations of a finite point set and extend along geodesic
words.

One window construction produces a coarse structure from an action, the
bounded translates: a family is bounded when it refines translates
{g.(F.U)} of a fixed bounded set U; the witness is the finite F needed, and
its growth is the trace.  The orbit map g -> g.x0 into a structure given on
the space is certified by ``coarse_action_certificate``.

One index per set, ``action.covers(U)``, answers every "which h of length
<= r puts y in h.U" question, and every check of the action that asks it
about U reads that one index: the stabilizer, point-finite and cobounded
checks, an induced structure's cover constant and contributions, the gap,
selections and star refinement of ``commuting_equivalence``, and the orbit
map, whose fibres are the covers of {x0}.

A translation action by isometries of a group structure (its own side, or
either side of an abelian group: ``GroupStructure.translations_isometric``)
moves no family's witness, so the translate check reads it off (L5).  So
does any action on the structure it induces (L9): a translate h.(g.(F.U)) =
(hg).(F.U) is bounded with the same F.
"""

from __future__ import annotations

from collections.abc import Callable

from . import groups
from .errors import (
    CoarseKitError,
    CommutativityError,
    PreconditionError,
    SearchFailureError,
    SpaceMismatchError,
    WindowOverflowError,
    WindowTooSmallError,
)
from .families import (
    ParamFamily,
    Reading,
    ShapeTranslates,
    entry_trace,
)
from .maps import Certificate, MapWindow, surjective_equivalence_check, check_bornologous, table_map
from .spaces import FiniteSpace, GroupSpace, Preimages
from .structures import (
    CoarseStructure,
    GroupStructure,
    LeftGroupStructure,
    bounded_battery,
    first_unbounded,
    membership_window,
    random_shapes,
)

ACTION_LAW_DEPTH = 3  # the acting ball, and default point window, of the law and commutation checks
BATTERY_SHAPES = 8  # the random shapes of each battery the action checks and their map checks read
COVER_CONSTANT_CAP = 4  # the greatest cover constant the cobounded and orbit checks try
COBOUNDED_MESH_CAP = 4  # the greatest mesh of a ball the cobounded search tries as U


# ---------------------------------------------------------------------------
# homomorphisms and actions

class Hom:
    """A homomorphism source -> target: ``apply`` maps one element, and
    ``label`` names the homomorphism inside action names."""

    def __init__(
        self, label: str, source: groups.GroupSpec, target: groups.GroupSpec, apply: Callable
    ):
        self.label = label
        self.source = source
        self.target = target
        self.apply = apply


def _identity(g):
    return g


def identity_hom(spec: groups.GroupSpec) -> Hom:
    return Hom("identity", spec, spec, _identity)


def inclusion_hom() -> Hom:
    return Hom("x^n", groups.Z, groups.DIH, lambda n: (n, 0))  # n -> x^n


def power_hom(k: int) -> Hom:
    return Hom(f"{k}n", groups.Z, groups.Z, lambda n: k * n)


class Action:
    group: groups.GroupSpec
    space: object
    name: str
    # the law is checked at the points of space.window(law_depth), and the
    # commutation of a pair at the deeper of their two windows: a class that
    # lowers it must commute everywhere once it does there, as translations do
    law_depth = ACTION_LAW_DEPTH

    def apply(self, g, x):
        raise NotImplementedError

    def apply_set(self, g, S) -> frozenset:
        return frozenset(self.apply(g, x) for x in S)

    def covers(self, U) -> Preimages:
        """The covers of each point y, the acting elements h with y in h.U, in
        ball order: one index per set U, in any order, kept with the action."""
        U = frozenset(U)
        memo = self.__dict__.setdefault("_covers", {})
        if U not in memo:
            memo[U] = Preimages(GroupSpace(self.group), lambda h: self.apply_set(h, U))
        return memo[U]

    def validate(self) -> None:
        """Check the left action law on a small window."""
        ident = self.group.identity()
        pts = list(self.space.window(self.law_depth))
        for x in pts:
            if self.apply(ident, x) != x:
                raise PreconditionError(f"{self.name}: identity does not act trivially on {x!r}")
        elems = groups.ball(self.group, ACTION_LAW_DEPTH).elements
        for g1 in elems:
            for g2 in elems:
                g12 = groups.multiply(self.group, g1, g2)
                for x in pts:
                    if self.apply(g12, x) != self.apply(g1, self.apply(g2, x)):
                        raise PreconditionError(
                            f"{self.name}: action law fails at g1={g1!r}, g2={g2!r}, x={x!r}"
                        )


class TranslationAction(Action):
    # g moves x to h(g)*x or x*h(g)^-1, so by cancellation the law at one point
    # says h(g1*g2) = h(g1)*h(g2), which is the law at every point; window(0)
    # is the identity alone
    law_depth = 0

    def __init__(self, hom: Hom, side: str = "left"):
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        self.hom = hom
        self.side = side
        self.group = hom.source
        self.space = GroupSpace(hom.target)
        arrow = "" if hom.source == hom.target else f"{hom.source.label()}->"
        self.name = f"{side}({arrow}{hom.target.label()} via {hom.label})"

    def apply(self, g, x):
        spec = self.space.spec
        h = self.hom.apply(g)
        if self.side == "left":
            return spec.mul(h, x)
        return spec.mul(x, spec.inv(h))

    def apply_set(self, g, S) -> frozenset:
        spec = self.space.spec
        mul = spec.mul
        h = self.hom.apply(g)
        if self.side == "left":
            return frozenset([mul(h, x) for x in S])
        ih = spec.inv(h)
        return frozenset([mul(x, ih) for x in S])


class TrivialAction(Action):
    def __init__(self, group: groups.GroupSpec, space):
        self.group = group
        self.space = space
        self.name = f"trivial({group.label()} on {space.label})"

    def apply(self, g, x):
        return x


class TableAction(Action):
    """Finite space action given by one permutation per generator."""

    def __init__(self, group: groups.GroupSpec, space: FiniteSpace, perms: dict):
        self.group = group
        self.space = space
        self.perms = perms  # generator index -> {point: point}
        self.name = f"table({group.label()} on {space.label})"

    def apply(self, g, x):
        word = groups.geodesic_word(self.group, g)
        for idx in reversed(word):
            x = self.perms[idx][x]
        return x


def left_translation(hom: Hom) -> TranslationAction:
    a = TranslationAction(hom, side="left")
    a.validate()
    return a


def right_translation(hom: Hom) -> TranslationAction:
    a = TranslationAction(hom, side="right")
    a.validate()
    return a


def trivial_action(group: groups.GroupSpec, space) -> TrivialAction:
    a = TrivialAction(group, space)
    a.validate()
    return a


def table_action(group: groups.GroupSpec, space: FiniteSpace, perms: dict) -> TableAction:
    a = TableAction(group, space, perms)
    a.validate()
    return a


def _mesh(space, S) -> int:
    return max((space.extent(u) for u in S), default=0)


# ---------------------------------------------------------------------------
# induced structure from bounded translates

def _reach_excess(covers: Preimages, entries, cap: int) -> int | None:
    """The largest reach(y) - e over the pairs (y, e) of ``entries``, each y
    searched up to e + cap, or None when one is out of that reach.  The
    least c <= cap with window(r) inside Ball(r + c).U for all r <= radius
    takes e = extent(y) over window(radius), where y enters the window; the
    least gap with Ball(s).U inside Ball(s + gap).U under another action
    takes e = s over Ball(s).U, with that action's covers."""
    excess = 0
    for y, e in entries:
        r = covers.reach(y, e + cap)
        if r is None:
            return None
        excess = max(excess, r - e)
    return excess


class ActionInducedStructure(CoarseStructure):
    """Bounded sets are subsets of F.U with F finite; a family is bounded
    when every member fits in a translate g.(F.U) for one finite F.  The
    member contribution is the least such F (canonical greedy choice), and
    the witness trace is the size of the union of these F over the family.

    The covers of a point come from ``index``, ``action.covers(U)``, which
    every other check of the action that asks about U reads too.

    A member's centre g is searched over the pool Ball(acting_radius): it
    minimizes max over points y of min over covers h of y of |g^-1 h|, and
    ties go to the first pool element of least cost.  As Ball(c) is closed
    under inverses, the centres of cost <= c are the pool elements in the
    intersection over y of the union of h.Ball(c) over the covers h of y.
    The search tries c = 0, 1, 2, ... and takes the least element, in ball
    order, of the first nonempty level; h.Ball(c) is kept per cover asked.

    An orbit {g.S : g in Ball(r)} of this structure's own action is read
    off orbit layers (``read_off``): per seed S, ``layer[s]`` is the union of
    the contributions of the translates g.S over g in sphere(s).  Each
    sphere of a seed is walked once, however many families and radii ask
    for it; a layer is kept as the first s of each element.  The translate
    check walks no translates here: it reads each family off (L9, in
    ``uniformly_bornologous_action_check``).

    The contributions of an orbit's translates are read off one centre
    table per seed S, with no search per translate, when these hold:

    * the action is a translation of a group on itself through the identity
      homomorphism, on either side.  Then y is in h.U exactly when g.y is
      in (gh).U, so covers(g.y) = g.covers(y), and a cover h of y has
      |h| <= |y| + mesh(U), so the acting radius cuts none;
    * the class does not override ``_compute_contribution``;
    * the least cost c* the search finds for S is at most ``slack``.  A
      centre of cost <= c has |g| <= max|y| + mesh(U) + c, so for c <= slack
      every such centre lies in the pool, for S and for every g.S alike.

    The cost |k^-1 h| is left-invariant, so the centres of g.S of least cost
    are g.K, K those of S, and g.S contributes C(k) = {min over the covers
    h of y of k^-1 h : y in S}, where k in K makes g.k least in ball order.
    The table holds C(k) for each k in K.  Any other seed keeps the search
    per translate."""

    def __init__(self, action: Action, U, slack: int = 2):
        super().__init__()
        self.action = action
        self.U = tuple(sorted(set(U), key=action.space.sort_key))
        if not self.U:
            raise PreconditionError("U must be a nonempty bounded set")
        self.space = action.space
        self.slack = slack
        useral = ",".join(self.space.serialize(u) for u in self.U)
        self.label = f"induced({action.name}; U=[{useral}])"
        self.index = action.covers(self.U)
        self.u_mesh = _mesh(self.space, self.U)
        self._nears: dict = {}  # h -> [h.Ball(0), h.Ball(1), ...]
        self._layers: dict = {}  # seed S -> [spheres walked, {element: first layer}]
        self._tables: dict = {}  # seed S -> {centre k: C(k)}, or None to search per translate
        self._translates_self = isinstance(action, TranslationAction) and action.hom.apply is _identity
        self._equivariant = (
            self._translates_self
            and type(self)._compute_contribution is ActionInducedStructure._compute_contribution
        )

    def witness_group(self) -> groups.GroupSpec:
        return self.action.group

    def _near(self, h, c: int) -> frozenset:
        """h.Ball(c), the elements g with |g^-1 h| <= c."""
        G = self.action.group
        levels = self._nears.get(h)
        if levels is None:
            levels = self._nears[h] = [frozenset([h])]
        for r in range(len(levels), c + 1):
            levels.append(levels[-1].union([G.mul(h, s) for s in groups.sphere(G, r)]))
        return levels[c]

    def _centres(self, member) -> tuple[dict, int, list]:
        """The least-cost search of a nonempty member: the covers of each
        point, the first level c with a centre in the pool, and the pool
        elements of cost <= c."""
        G = self.action.group
        ext = max(self.space.extent(y) for y in member)
        acting_radius = ext + self.u_mesh + self.slack
        covers = {}
        for y in member:
            hits = self.index.get(y, acting_radius)
            if not hits:
                raise WindowOverflowError(
                    f"{self.label}: {self.space.serialize(y)} not covered by translates of U "
                    f"within acting radius {acting_radius}"
                )
            covers[y] = hits
        length = G.length
        for c in range(acting_radius + 1):  # the identity costs at most acting_radius
            found = None
            for hits in covers.values():
                reach = set().union(*[self._near(h, c) for h in hits])
                found = reach if found is None else found & reach
                if not found:
                    break
            found = [g for g in found if length(g) <= acting_radius]
            if found:
                return covers, c, found

    def _around(self, covers: dict, g) -> frozenset:
        """The contribution about centre g: per point, its least g^-1 h."""
        G = self.action.group
        mul, length, skey = G.mul, G.length, G.skey
        ig = G.inv(g)
        return frozenset(
            min([mul(ig, h) for h in hits], key=lambda e: (length(e), skey(e)))
            for hits in covers.values()
        )

    def _compute_contribution(self, member):
        if not member:
            return frozenset()
        G = self.action.group
        covers, _, found = self._centres(member)
        return self._around(covers, min(found, key=lambda g: (G.length(g), G.skey(g))))

    def _centre_table(self, S: frozenset) -> dict | None:
        """The centre table of seed S, or None when its translates are
        searched one by one (see the class docstring)."""
        if S in self._tables:
            return self._tables[S]
        table = None
        if self._equivariant and S:
            covers, c, found = self._centres(S)
            if c <= self.slack:
                table = {k: self._around(covers, k) for k in found}
        self._tables[S] = table
        return table

    def _translate_reader(self, S: frozenset) -> Callable:
        """g -> the contribution of the translate g.S: read off the centre
        table of S, or searched through the memo when S has none."""
        table = self._centre_table(S)
        if table is None:
            apply_set, contribution = self.action.apply_set, self.member_contribution
            return lambda g: contribution(apply_set(g, S))
        G = self.action.group
        mul, length, skey = G.mul, G.length, G.skey
        order = lambda e: (length(e), skey(e))
        return lambda g: table[min(table, key=lambda k: order(mul(g, k)))]

    def _first_spheres(self, S: frozenset, top: int) -> dict:
        """The orbit layers of seed S walked through sphere ``top``: each
        witness element e -> the first s with e in layer[s].  The spheres
        walked are counted in ``_layers[S][0]``; a sphere whose contribution
        raises is neither counted nor entered."""
        layers = self._layers.setdefault(S, [0, {}])
        firsts, G, read = layers[1], self.action.group, self._translate_reader(S)
        for s in range(layers[0], top + 1):
            for w in [read(g) for g in groups.sphere(G, s)]:
                for e in w:
                    firsts.setdefault(e, s)
            layers[0] = s + 1
        return firsts

    def read_off(self, grow, radius: int) -> tuple[set, dict] | None:
        """The witness and trace of an orbit of this structure's action, as
        its fold gives them: an element enters at the first layer s of the
        orbit's seed that holds it.
        For a translation of a group on itself through the identity, a
        ``ShapeTranslates`` {g*S} or {S*g} on the action's side is the orbit
        {g.S} sphere by sphere (spheres are closed under inverses, and
        S*g = g^-1.S on the right), and is read off as that orbit.
        Any other family, or an orbit with a refused member, is folded, so
        the fold reports the least refused member."""
        if (
            self._translates_self
            and isinstance(grow, ShapeTranslates)
            and grow.spec == self.action.group
            and grow.side == self.action.side
        ):
            grow = _Orbit(self.action, grow.shape)
        if not (isinstance(grow, _Orbit) and grow.action is self.action):
            return None
        try:
            firsts = self._first_spheres(frozenset(grow.seed), radius)
        except CoarseKitError:
            return None
        enters = {e: s for e, s in firsts.items() if s <= radius}
        return set(enters), entry_trace(enters.values(), radius)

    def stars(self, y, r: int) -> set:
        """The h0 in Ball(r) whose star of translates {h.U : h in Ball(r)}
        holds y: the covers of the points of y's covers (y is in an h.U that
        meets h0.U).  Points share a star exactly when their stars meet."""
        index = self.index
        return {k for h in index.get(y, r) for z in index.keys(h) for k in index.get(z, r)}

    def bounded_neighborhood(self, y, mesh: int) -> tuple:
        G = self.action.group
        acting_radius = self.space.extent(y) + self.u_mesh + self.slack
        hits = self.index.get(y, acting_radius)
        if not hits:
            raise WindowOverflowError(f"{self.label}: {self.space.serialize(y)} not covered")
        f0 = hits[0]  # ball order is the canonical order
        out = set()
        for g in groups.ball(G, mesh).elements:
            out.update(self.action.apply_set(groups.multiply(G, g, f0), self.U))
        return tuple(sorted(out, key=self.space.sort_key))

    def default_battery(self, seed: int, n_random: int) -> list:
        fams = [action_translate_family(self.action, self.U, tag="{g.U}")]
        for i, shape in enumerate(random_shapes(self.action.group, seed=seed, count=n_random, mesh=1)):
            V = set()
            for f in shape:
                V.update(self.action.apply_set(f, self.U))
            fams.append(action_translate_family(self.action, tuple(V), tag=f"{{g.(F{i}.U)}}"))
        return fams


class _Orbit:
    """grow of the orbit family r -> {g.S : g in Ball(r)} of one seed S.

    At radius r it yields the translates by sphere r, each applied once per
    call.  An induced structure of the same action reads the family off its
    orbit layers instead (``ActionInducedStructure.read_off``)."""

    def __init__(self, action: Action, seed: tuple):
        self.action = action
        self.seed = seed

    def __call__(self, r: int):
        apply_set, S = self.action.apply_set, self.seed
        for g in groups.sphere(self.action.group, r):
            yield apply_set(g, S)


def action_translate_family(action: Action, V, tag: str = "") -> ParamFamily:
    """r -> {g.V : g in Ball(r)}."""
    V = tuple(V)
    if not tag:
        vs = ",".join(action.space.serialize(v) for v in V)
        tag = f"{{g.[{vs}]}}"
    return ParamFamily(tag=tag, space=action.space, grow=_Orbit(action, V))


def translates_family(action: Action, pf: ParamFamily, tag: str) -> ParamFamily:
    """r -> {g.M} over g in Ball(r) and the members M of pf at radius r.

    At radius r the new members are the new sphere times every member so
    far, plus the inner ball times the members new at r."""
    G = action.group
    layers: list = []  # layers[q]: the members of pf that appear at radius q
    known: set = set()

    def grow(r: int):
        while len(layers) <= r:
            fresh = dict.fromkeys(m for m in map(frozenset, pf.grow(len(layers))) if m not in known)
            known.update(fresh)
            layers.append(tuple(fresh))
        for g in groups.sphere(G, r):
            for q in range(r + 1):
                for mem in layers[q]:
                    yield action.apply_set(g, mem)
        inner = groups.ball(G, r - 1).elements if r else ()
        for g in inner:
            for mem in layers[r]:
                yield action.apply_set(g, mem)

    return ParamFamily(tag=tag, space=action.space, grow=grow)


# ---------------------------------------------------------------------------
# basic window checks

def stabilizer_window(action: Action, U, radius: int) -> Reading:
    """The reading of the size trace of {g in Ball(r) : U meets g.U}."""
    return Reading(action.covers(U).trace(U, radius), radius)


def point_finite_check(action: Action, U, x, radius: int) -> Certificate:
    """Trace of |{g in Ball(r) : x in g.U}|; PASS when it stabilizes."""
    reading = Reading(action.covers(U).trace((x,), radius), radius)
    return Certificate(
        check="point-finite",
        verdict=reading.verdict,
        radius=radius,
        data={
            "action": action.name,
            "point": action.space.serialize(x),
            "U": [action.space.serialize(u) for u in U],
            "trace": reading.to_json(),
        },
    )


def uniformly_bornologous_action_check(
    action: Action,
    struct: CoarseStructure,
    radius: int,
    seed: int = 0,
) -> Certificate:
    """Are all translates of bounded families still bounded?

    Each battery family's translates over Ball(r) are read for their
    witness trace; the first unbounded one is the counterexample.

    Every entry, and the counterexample, carries ``controlled_route_agrees``
    as a fixed ``true``: the key is kept so that report bytes, and the
    benchmark digests frozen from them, do not change.  The route it named,
    the translated one and two point pieces of each family, is computed by
    the test reference ``oracles.ref_uniformly_bornologous_action_check``,
    which writes the agreement it finds; tier-1 compares the two reports.

    L5: where the action's translations are isometries of the structure
    (``GroupStructure.translations_isometric``), through any homomorphism,
    the translates of a family have its own trace and witness; such a pair
    reads them off the family and builds no translate.

    L9: so does an action on the structure it induces (an
    ``ActionInducedStructure`` of this very action).  A member of a bounded
    family fits in some g.(F.U), and by the action law its translate by h
    fits in (hg).(F.U), a translate of the same F.U.  The translates are
    bounded with the family's F, so the pair cannot FAIL, and the check
    reports each family's own reading.
    """
    if action.space != struct.space:
        raise SpaceMismatchError("action and structure live on different spaces")
    read_off = (
        isinstance(action, TranslationAction)
        and isinstance(struct, GroupStructure)
        and struct.translations_isometric(action.side)
    ) or (isinstance(struct, ActionInducedStructure) and struct.action is action)
    taken, bad = first_unbounded(
        (pf.tag, base if read_off else membership_window(
            struct, translates_family(action, pf, f"translates({pf.tag})"), radius
        ))
        for pf, base in bounded_battery(struct, radius, seed, BATTERY_SHAPES)
    )
    data = {"action": action.name, "structure": struct.label}
    if bad is not None:
        data.update(counterexample=taken[-1][1].to_json(), controlled_route_agrees=True)
    else:
        data["families"] = {t: {"direct": r.to_json(), "controlled_route_agrees": True} for t, r in taken}
    return Certificate("uniformly-bornologous", "PASS" if bad is None else "FAIL", radius, data)


# ---------------------------------------------------------------------------
# coboundedness

def _require_within_half(action: Action, mesh: int, radius: int) -> None:
    """Refuse a covering U of mesh above radius/2: such a U fills the window,
    so it covers under any action, the trivial one included."""
    if 2 * mesh > radius:
        raise WindowTooSmallError(
            f"{action.name}: the covering U has mesh {mesh}, above radius/2 at radius "
            f"{radius}, so it fills the window and its cobounded PASS shows nothing"
        )


def cobounded_check(action: Action, radius: int) -> Certificate:
    """Search a bounded U with window(r) inside Ball(r+c).U.

    The search walks meshes 0..COBOUNDED_MESH_CAP, takes the first metric
    ball that covers with some constant c <= COVER_CONSTANT_CAP, then
    greedily prunes it from the largest element down, keeping the covering
    property.  A PASS whose ball has mesh above radius/2 raises
    WindowTooSmallError (``_require_within_half``).  A U given in advance
    is checked by ``induced_structure_second``."""
    space = action.space
    extents = [(y, space.extent(y)) for y in space.window(radius)]

    def constant(Ucand: tuple, cap: int) -> int | None:
        return _reach_excess(action.covers(Ucand), extents, cap)

    base = space.window(0)[0]
    for mesh in range(COBOUNDED_MESH_CAP + 1):
        if isinstance(space, GroupSpace):
            Ucand = space.ball_about(base, mesh, side="left")
        else:
            Ucand = space.window(mesh)
        c = constant(Ucand, COVER_CONSTANT_CAP)
        if c is None:
            continue
        # prune, largest elements first, keeping the same constant
        kept = list(Ucand)
        for u in sorted(Ucand, key=space.sort_key, reverse=True):
            if len(kept) == 1:
                break
            trial = tuple(v for v in kept if v != u)
            if constant(trial, c) is not None:
                kept = list(trial)
        _require_within_half(action, mesh, radius)
        U = [space.serialize(u) for u in sorted(kept, key=space.sort_key)]
        return Certificate("cobounded", "PASS", radius,
                           {"action": action.name, "U": U, "mesh": mesh, "constant": c})
    return Certificate(
        check="cobounded",
        verdict="FAIL",
        radius=radius,
        data={"action": action.name,
              "note": f"no covering bounded set with mesh <= {COBOUNDED_MESH_CAP}, "
                      f"constant <= {COVER_CONSTANT_CAP}"},
    )


# ---------------------------------------------------------------------------
# induced structures

def induced_structure_second(
    action: Action,
    U,
    radius: int,
) -> tuple[ActionInducedStructure, Certificate]:
    """Structure generated by translates of a bounded covering set U.

    U's cover constant (the least c <= COVER_CONSTANT_CAP with window(r)
    inside Ball(r+c).U) and its stabilizer trace (``stabilizer_window``) are
    read off ``action.covers(U)``.  U is refused, in this order, when no such c
    exists, when its mesh is above radius/2 (``_require_within_half``), and
    when its stabilizer keeps growing."""
    space = action.space
    U = tuple(sorted(set(U), key=space.sort_key))
    listed = [space.serialize(u) for u in U]
    covers = action.covers(U)
    c = _reach_excess(covers, [(y, space.extent(y)) for y in space.window(radius)], COVER_CONSTANT_CAP)
    if c is None:
        found = {"action": action.name, "U": listed,
                 "note": f"window not covered with constant <= {COVER_CONSTANT_CAP}"}
        raise PreconditionError(f"{action.name}: not cobounded with the given U: {found}")
    mesh = _mesh(space, U)
    _require_within_half(action, mesh, radius)
    stabilizer = stabilizer_window(action, U, radius)
    if not stabilizer.stable:
        raise PreconditionError(
            f"{action.name}: stabilizer of U keeps growing, trace {sorted(stabilizer.trace.items())}"
        )
    structure = ActionInducedStructure(action, U, slack=mesh + c + 2)
    cert = Certificate(
        check="induced-bounded-translates",
        verdict="PASS",
        radius=radius,
        data={
            "action": action.name,
            "U": listed,
            "cover_constant": c,
            "stabilizer_trace": stabilizer.to_json(),
        },
    )
    return structure, cert


# ---------------------------------------------------------------------------
# coarse action certificate

class _OrbitMap(MapWindow):
    """The orbit map g -> g.x0, from the left structure of the acting group.

    For a translation action, the image of a left translate family {g*S} of
    the acting group is, sphere by sphere, the orbit {g.(S.x0)}: by the
    action law (g*s).x0 = g.(s.x0).  ``image`` returns it as that orbit, so
    an induced structure of the same action reads it off its orbit layers
    (``ActionInducedStructure.read_off``).  Any other family, or another
    action, whose law is checked only on a window, keeps the image family.
    Its fibres are the covers of {x0}, ``action.covers((x0,))``."""

    def __init__(self, action: Action, x0, target: CoarseStructure, slack: int):
        super().__init__(
            name=f"orbit@{action.space.serialize(x0)}",
            source=LeftGroupStructure(action.group),
            target=target,
            rule=lambda g: action.apply(g, x0),
            source_factor=1,
            source_slack=slack,
        )
        self.action = action
        self.fibres = action.covers((x0,))

    def image(self, pf: ParamFamily) -> ParamFamily:
        img = super().image(pf)
        grow, action = pf.grow, self.action
        if (
            isinstance(action, TranslationAction)
            and isinstance(grow, ShapeTranslates)
            and grow.side == "left"
            and grow.spec == action.group
        ):
            img.grow = _Orbit(action, tuple(map(self.rule, grow.shape)))
        return img

    def window(self, r: int) -> list:
        """The orbit Ball(r).x0, in the order of each point's first acting
        element, which the equivalence check covers: the orbit map is onto
        its orbit, not onto the space."""
        return self.fibres.image(r)


def coarse_action_certificate(
    action: Action,
    struct: CoarseStructure,
    x0,
    radius: int,
    seed: int = 0,
) -> Certificate:
    """Bundle of window checks for acting coarsely on (space, struct):
    uniformly bornologous translates, coarse properness on bounded test
    sets, coboundedness, the orbit map equivalence certificate, and the
    refinement of bounded families by translates of the covering set."""
    if action.space != struct.space:
        raise SpaceMismatchError("action and structure live on different spaces")
    action.space.validate(x0)
    ub = uniformly_bornologous_action_check(action, struct, radius, seed=seed)

    proper_parts = []
    proper_ok = True
    for mesh in (0, 1):
        V = struct.bounded_neighborhood(x0, mesh)
        stabilizer = stabilizer_window(action, V, radius)
        pf_cert = point_finite_check(action, V, x0, radius)
        proper_parts.append(
            {
                "test_set_mesh": mesh,
                "stabilizer_trace": stabilizer.to_json(),
                "stabilizer_stabilizes": stabilizer.stable,
                "point_finite": pf_cert.to_json(),
            }
        )
        if not stabilizer.stable or not pf_cert.passed:
            proper_ok = False

    cb = cobounded_check(action, radius)

    data: dict = {
        "action": action.name,
        "structure": struct.label,
        "uniformly_bornologous": ub.to_json(),
        "coarsely_proper": {"verdict": "PASS" if proper_ok else "FAIL", "parts": proper_parts},
        "cobounded": cb.to_json(),
    }

    if not (ub.passed and proper_ok and cb.passed):
        return Certificate("coarse-action", "FAIL", radius, data)

    cover_c = cb.data["constant"]
    Ucb = cb_elements(cb, action)
    slack = cover_c + _mesh(action.space, Ucb) + 2

    orbit_map = _OrbitMap(action, x0, struct, slack)
    orbit_cert = surjective_equivalence_check(
        orbit_map, radius, cover_distance=0, seed=seed, n_random=BATTERY_SHAPES
    )
    data["orbit_map"] = orbit_cert.to_json()

    refine_struct = ActionInducedStructure(action, Ucb, slack=slack)
    taken, bad = first_unbounded(
        (pf.tag, membership_window(refine_struct, pf, radius))
        for pf in struct.default_battery(seed=seed, n_random=BATTERY_SHAPES)
    )
    data["refines_translates"] = {
        "verdict": "PASS" if bad is None else "FAIL",
        "families": {tag: res.to_json() for tag, res in taken},
    }

    verdict = "PASS" if (orbit_cert.passed and bad is None) else "FAIL"
    return Certificate("coarse-action", verdict, radius, data)


def cb_elements(cb: Certificate, action: Action) -> tuple:
    return tuple(action.space.parse(s) for s in cb.data["U"])


# ---------------------------------------------------------------------------
# commuting actions

def commuting_equivalence(
    action1: Action,
    action2: Action,
    U,
    x0,
    radius: int,
    seed: int = 0,
) -> Certificate:
    """Two commuting coarse actions on one space give coarsely inverse
    selections between the acting groups.

    psi sends h to the least g1 with h^-1.x0 inside g1.U; phi is symmetric.
    The certificate checks both are bornologous and that the compositions
    are close to the identities, with orbit closeness refining the star
    family of translates of U, read off the induced structures' ``stars``.
    Commutation is read for g, h in Ball(ACTION_LAW_DEPTH) at window(d), d
    the larger ``law_depth``: two translation actions (d = 0) commute at
    every point when they commute at the identity, by the cancellation
    behind their ``law_depth``."""
    if action1.space != action2.space:
        raise SpaceMismatchError("commuting actions must share their space")
    space = action1.space
    U = tuple(sorted(set(U), key=space.sort_key))
    space.validate(x0)
    G1, G2 = action1.group, action2.group

    points = space.window(max(action1.law_depth, action2.law_depth))
    for g in groups.ball(G1, ACTION_LAW_DEPTH).elements:
        for h in groups.ball(G2, ACTION_LAW_DEPTH).elements:
            for x in points:
                lhs = action1.apply(g, action2.apply(h, x))
                rhs = action2.apply(h, action1.apply(g, x))
                if lhs != rhs:
                    raise CommutativityError(
                        f"actions do not commute at g={g!r}, h={h!r}, x={x!r}"
                    )

    struct1, ind1 = induced_structure_second(action1, U, radius)
    struct2, ind2 = induced_structure_second(action2, U, radius)

    # bounded sets of the two induced structures agree on the window
    c1 = ind1.data["cover_constant"]
    c2 = ind2.data["cover_constant"]
    slack = _mesh(space, U) + max(c1, c2) + 2
    max_gap = 0
    for s in range(radius + 1):
        gap12 = _reach_excess(struct2.index, ((y, s) for y in struct1.index.image(s)), slack)
        gap21 = _reach_excess(struct1.index, ((y, s) for y in struct2.index.image(s)), slack)
        if gap12 is None or gap21 is None:
            return Certificate(
                check="commuting-equivalence",
                verdict="FAIL",
                radius=radius,
                data={
                    "note": "bounded sets of the induced structures disagree",
                    "scale": s,
                },
            )
        max_gap = max(max_gap, gap12, gap21)

    cert1 = coarse_action_certificate(action1, struct1, x0, radius, seed=seed)
    cert2 = coarse_action_certificate(action2, struct2, x0, radius, seed=seed)
    if not (cert1.passed and cert2.passed):
        return Certificate(
            check="commuting-equivalence",
            verdict="FAIL",
            radius=radius,
            data={"coarse_action_1": cert1.to_json(), "coarse_action_2": cert2.to_json()},
        )

    psi = _selection(action2, struct1.index, x0, radius + slack, slack)
    phi = _selection(action1, struct2.index, x0, radius + slack, slack)

    struct_g1 = LeftGroupStructure(G1)
    struct_g2 = LeftGroupStructure(G2)
    psi_map = table_map("psi", struct_g2, struct_g1, psi)
    psi_map.source_slack = slack
    phi_map = table_map("phi", struct_g1, struct_g2, phi)
    phi_map.source_slack = slack

    born_psi = check_bornologous(psi_map, radius, seed=seed, n_random=BATTERY_SHAPES)
    born_phi = check_bornologous(phi_map, radius, seed=seed, n_random=BATTERY_SHAPES)

    def close_family(tag, table_outer, table_inner, struct):
        def grow(r: int):
            return ((g, table_outer[table_inner[g]]) for g in struct.space.sphere(r))

        return ParamFamily(tag=tag, space=struct.space, grow=grow)

    close1 = membership_window(struct_g1, close_family("{g, psi(phi(g))}", psi, phi, struct_g1), radius)
    close2 = membership_window(struct_g2, close_family("{h, phi(psi(h))}", phi, psi, struct_g2), radius)

    # orbit closeness refines the star family of translates of U
    refine_data = {}
    for act, struct, outer, inner, tagname in (
        (action1, struct1, psi, phi, "psi.phi"),
        (action2, struct2, phi, psi, "phi.psi"),
    ):
        refine_data[tagname] = all(
            struct.stars(act.apply(g, x0), radius + slack)
            & struct.stars(act.apply(outer[inner[g]], x0), radius + slack)
            for g in groups.ball(act.group, radius).elements
        )
    refine_ok = all(refine_data.values())

    verdict = "PASS" if (
        born_psi.passed and born_phi.passed and close1.bounded and close2.bounded and refine_ok
    ) else "FAIL"
    notes = [
        f"{act.name}: right translations enter as the left action g.x = x.g^-1"
        for act in (action1, action2)
        if isinstance(act, TranslationAction) and act.side == "right"
    ]
    return Certificate(
        check="commuting-equivalence",
        verdict=verdict,
        radius=radius,
        notes=notes,
        data={
            "actions": [action1.name, action2.name],
            "U": [space.serialize(u) for u in U],
            "x0": space.serialize(x0),
            "bounded_sets_gap": max_gap,
            "induced_1": ind1.to_json(),
            "induced_2": ind2.to_json(),
            "coarse_action_1": cert1.to_json(),
            "coarse_action_2": cert2.to_json(),
            "psi": {G2.serialize(h): G1.serialize(g) for h, g in psi.items()},
            "phi": {G1.serialize(g): G2.serialize(h) for g, h in phi.items()},
            "bornologous_psi": born_psi.to_json(),
            "bornologous_phi": born_phi.to_json(),
            "close_psi_phi": close1.to_json(),
            "close_phi_psi": close2.to_json(),
            "orbit_closeness_refines_star": refine_data,
        },
    )


def _selection(action_from: Action, covers: Preimages, x0, table_radius: int, slack: int) -> dict:
    """For each h in the domain ball, the first cover of h^-1.x0 within |h| + slack."""
    Gf = action_from.group
    table = {}
    for h in groups.ball(Gf, table_radius).elements:
        p = action_from.apply(groups.invert(Gf, h), x0)
        search = groups.word_length(Gf, h) + slack
        reach = covers.reach(p, search)
        if reach is None:
            raise SearchFailureError(
                f"no translate of U reaches {action_from.space.serialize(p)} "
                f"within radius {search}"
            )
        table[h] = covers.get(p, reach)[0]
    return table
