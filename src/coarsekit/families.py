"""Uniformly bounded families, controlled sets, and membership results.

A finite family is a finite list of finite subsets of a space, kept in a
canonical order (members sorted elementwise and then lexicographically by
element order, duplicates dropped).  A parametrized family is given by its
growth: the members that appear at each window radius r, one sphere of the
window at a time.  The family at radius r is the union of that growth over
0..r, so it never loses a member as r grows, which every check assumes.

Every check asks one question of a family: is it bounded in a structure?
Its answer is a ``Membership``: the witness set and the ``Reading`` of its
size trace.  Every window verdict is a ``Reading``: the one place that reads
a trace's tail, and that writes the trace into a report.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from itertools import accumulate, combinations

from . import groups
from .errors import InvalidRadiusError, SpaceMismatchError


class FiniteFamily:
    def __init__(self, space: object, members: tuple):
        self.space = space
        self.members = members  # tuple of tuples, canonical order


def finite_family(space, members: Iterable[Iterable]) -> FiniteFamily:
    canon = set()
    for m in members:
        canon.add(tuple(sorted(set(m), key=space.sort_key)))
    ordered = sorted(canon, key=lambda m: tuple(space.sort_key(x) for x in m))
    return FiniteFamily(space=space, members=tuple(ordered))


class ParamFamily:
    """A finite family at every radius, given by ``grow(r)``, the members
    that appear at radius r (repeating an earlier member is harmless)."""

    def __init__(self, tag: str, space: object, grow: Callable[[int], Iterable]):
        self.tag = tag
        self.space = space
        self.grow = grow

    def at(self, r: int) -> FiniteFamily:
        """The family at radius r: the canonical union of grow(0..r)."""
        return finite_family(
            self.space, (m for q in range(r + 1) for m in self.grow(q))
        )


class ControlledSet:
    def __init__(self, space: object, pairs: frozenset):
        self.space = space
        self.pairs = pairs  # ordered pairs (x, y)


# ---------------------------------------------------------------------------
# witnesses

def ceil_half(r: int) -> int:
    return math.ceil(r / 2)


# Below this radius the tail a Reading reads holds at most one value, so
# every trace would read stable.
MIN_VERDICT_RADIUS = 3


class Reading:
    """A size trace read on a window of radius ``radius``: stable when its
    final ceil(radius/2) values, the ``tail``, are all equal.  Every window
    verdict is read here; a negative radius's empty trace is refused."""

    def __init__(self, trace: dict, radius: int):
        if radius < 0:
            raise InvalidRadiusError(f"radius must be >= 0, got {radius}")
        self.trace = trace
        self.radius = radius
        self.tail = [trace[r] for r in range(radius - ceil_half(radius) + 1, radius + 1) if r in trace]
        self.stable = len(set(self.tail)) <= 1
        self.verdict = "PASS" if self.stable else "FAIL"

    def to_json(self) -> dict:
        """The trace as a report writes it: radius strings to sizes."""
        return {str(r): n for r, n in sorted(self.trace.items())}


def entry_trace(entries, radius: int) -> dict:
    """r -> how many of the radii ``entries`` are <= r, for r <= radius."""
    fresh = [0] * (radius + 1)
    for r in entries:
        fresh[r] += 1
    return dict(enumerate(accumulate(fresh)))


def strictly_growing_suffix(trace: dict, radius: int) -> bool:
    """Does the tail a ``Reading`` reads grow strictly, over two radii or more?"""
    tail = Reading(trace, radius).tail
    return len(tail) >= 2 and all(a < b for a, b in zip(tail, tail[1:]))


class Membership:
    """Is ``family`` bounded in ``structure``, as far as the window tells?

    ``elements`` is the witness set at the final radius, in canonical order
    when bounded and unordered otherwise.  ``reading`` reads its size trace:
    ``trace``, ``bounded`` and ``verdict`` are read off it.  A bounded family
    reports its witness, an unbounded one its tag."""

    def __init__(self, structure: str, family: str, group: groups.GroupSpec, elements, reading: Reading):
        self.structure = structure
        self.family = family
        self.group = group  # group the witness elements live in
        self.elements = elements
        self.reading = reading

    trace = property(lambda self: self.reading.trace)
    bounded = property(lambda self: self.reading.stable)
    verdict = property(lambda self: self.reading.verdict)

    def to_json(self) -> dict:
        out = {"structure": self.structure, "verdict": self.verdict}
        if self.bounded:
            out["witness"] = [self.group.serialize(g) for g in self.elements]
        else:
            out["family"] = self.family
        out["trace"] = self.reading.to_json()
        return out


# ---------------------------------------------------------------------------
# core operations on families

def side_witness(side: str, spec: groups.GroupSpec, fam: FiniteFamily) -> Membership:
    """Witness set of a family over a group: u^-1*v ("left") or u*v^-1
    ("right") over all ordered pairs within each member.  Pairs with u = v
    contribute the identity, so any nonempty family witnesses it."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    out: set = set()
    fold_witness(out, side, spec, fam.members)
    return Membership(
        f"{side}-group({spec.label()})", "", spec, groups.canonical_sorted(spec, out), Reading({}, 0)
    )


def member_witness(side: str, spec: groups.GroupSpec, member) -> set:
    out: set = set()
    fold_witness(out, side, spec, (member,))
    return out


def fold_witness(out: set, side: str, spec: groups.GroupSpec, members: Iterable) -> None:
    """Add to ``out`` the witness of every member: u^-1*v ("left") or u*v^-1
    ("right") over the ordered pairs of its points.

    A pair (u, u) gives the identity, added when some member is nonempty, and
    the pair (v, u) gives the inverse of what (u, v) gives, since
    (u^-1 v)^-1 = v^-1 u and (v u^-1)^-1 = u v^-1.  So only the pairs (u, v)
    with u before v are multiplied.  A member is any collection of points.

    ``out`` must be closed under inversion, as every witness built here is:
    a product it already holds has its inverse there too.  So only the
    products new to ``out`` are added, and only those are inverted."""
    mul, inv = spec.mul, spec.inv
    ws: list = []
    extend = ws.extend
    nonempty = False
    left = side == "left"
    for m in members:
        if not m:
            continue
        nonempty = True
        if left:
            extend([mul(inv(u), v) for u, v in combinations(m, 2)])
        else:
            extend([mul(v, inv(u)) for u, v in combinations(m, 2)])
    if nonempty:
        out.add(spec.identity())
    fresh = set(ws).difference(out)
    out |= fresh
    out.update(map(inv, fresh))


def star(member: Iterable, fam: FiniteFamily) -> tuple:
    """member union all members of fam that meet it."""
    base = set(member)
    out = set(base)
    for other in fam.members:
        if base.intersection(other):
            out.update(other)
    return tuple(sorted(out, key=fam.space.sort_key))


def star_family(f1: FiniteFamily, f2: FiniteFamily) -> FiniteFamily:
    if f1.space != f2.space:
        raise SpaceMismatchError("star_family needs both families on one space")
    return finite_family(f1.space, (star(m, f2) for m in f1.members))


def family_to_controlled(fam: FiniteFamily) -> ControlledSet:
    pairs = set()
    for member in fam.members:
        for u in member:
            for v in member:
                pairs.add((u, v))
    return ControlledSet(space=fam.space, pairs=frozenset(pairs))


def controlled_to_family(E: ControlledSet) -> FiniteFamily:
    return finite_family(E.space, ({u, v} for u, v in E.pairs))


def compose_controlled(E1: ControlledSet, E2: ControlledSet) -> ControlledSet:
    if E1.space != E2.space:
        raise SpaceMismatchError("compose_controlled needs both sets on one space")
    by_mid: dict = {}
    for y, z in E2.pairs:
        by_mid.setdefault(y, []).append(z)
    pairs = set()
    for x, y in E1.pairs:
        for z in by_mid.get(y, ()):
            pairs.add((x, z))
    return ControlledSet(space=E1.space, pairs=frozenset(pairs))


def refines(f1: FiniteFamily, f2: FiniteFamily) -> bool:
    """Does every member of f1 sit inside some member of f2?"""
    members2 = [set(m) for m in f2.members]
    return all(any(ms <= m2 for m2 in members2) for ms in map(set, f1.members))


# ---------------------------------------------------------------------------
# stock parametrized families

class ShapeTranslates:
    """grow of the translate family r -> {g*S} ("left") or {S*g} ("right")
    over g in the sphere of radius r, S fixed.

    It carries ``(spec, shape, side)``, so a group structure can read the
    family's witness off S (see ``GroupStructure.read_off``)."""

    def __init__(self, spec: groups.GroupSpec, shape: tuple, side: str):
        self.spec = spec
        self.shape = shape
        self.side = side

    def __call__(self, r: int):
        mul, shape = self.spec.mul, self.shape
        for g in groups.sphere(self.spec, r):
            if self.side == "left":
                yield tuple([mul(g, s) for s in shape])
            else:
                yield tuple([mul(s, g) for s in shape])


def shape_translate_family(space, shape: tuple, side: str) -> ParamFamily:
    """r -> {g*S} ("left") or {S*g} ("right") over g in Ball(r), S fixed.

    Its grow is a ``ShapeTranslates``: a group structure whose isometries
    include the family's translations reads the family's witness off S (L6,
    ``GroupStructure.read_off``) and folds no translate."""
    spec = space.spec
    shape_ser = ",".join(spec.serialize(s) for s in shape)
    tag = f"{{g*[{shape_ser}]}}" if side == "left" else f"{{[{shape_ser}]*g}}"
    return ParamFamily(tag=tag, space=space, grow=ShapeTranslates(spec, shape, side))


def translate_pair_family(space, a, side: str) -> ParamFamily:
    """r -> {{g, a*g}} ("left") or {{g, g*a}} ("right") over g in Ball(r):
    the shape {1, a} translated on the other side."""
    aser = space.spec.serialize(a)
    tag = f"{{{{g, {aser}*g}}}}" if side == "left" else f"{{{{g, g*{aser}}}}}"
    other = "right" if side == "left" else "left"
    pairs = shape_translate_family(space, (space.spec.identity(), a), other)
    return ParamFamily(tag=tag, space=space, grow=pairs.grow)


def image_family(pf: ParamFamily, rule: Callable, target_space, tag: str = "") -> ParamFamily:
    """r -> {rule(m)} over the members m of pf at radius r."""

    def grow(r: int):
        return (tuple(rule(x) for x in m) for m in pf.grow(r))

    return ParamFamily(tag=tag or f"image({pf.tag})", space=target_space, grow=grow)
