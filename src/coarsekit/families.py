"""Uniformly bounded families, controlled sets, and witness records.

A finite family is a finite list of finite subsets of a space, kept in a
canonical order (members sorted elementwise and then lexicographically by
element order, duplicates dropped).  A parametrized family is given by its
growth: the members that appear at each window radius r, one sphere of the
window at a time.  The family at radius r is the union of that growth over
0..r, so it never loses a member as r grows, which every check assumes.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from itertools import accumulate, combinations

from . import groups
from .errors import SpaceMismatchError


class FiniteFamily:
    def __init__(self, space: object, members: tuple):
        self.space = space
        self.members = members  # tuple of tuples, canonical order

    def __len__(self) -> int:
        return len(self.members)


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

    def delta(self, r: int) -> Iterable:
        """Members that appear at radius r, as iterables of points."""
        return self.grow(r)


class ControlledSet:
    def __init__(self, space: object, pairs: frozenset):
        self.space = space
        self.pairs = pairs  # ordered pairs (x, y)


# ---------------------------------------------------------------------------
# witnesses

def ceil_half(r: int) -> int:
    return math.ceil(r / 2)


def trace_stabilizes(trace: dict, radius: int) -> bool:
    """True when the final ceil(radius/2) trace values are all equal."""
    tail = [trace[r] for r in range(radius - ceil_half(radius) + 1, radius + 1) if r in trace]
    return len(set(tail)) <= 1


def entry_trace(entries, radius: int) -> dict:
    """r -> how many of the radii ``entries`` are <= r, for r <= radius."""
    fresh = [0] * (radius + 1)
    for r in entries:
        fresh[r] += 1
    return dict(enumerate(accumulate(fresh)))


def strictly_growing_suffix(trace: dict, radius: int) -> bool:
    tail_radii = [r for r in range(radius - ceil_half(radius), radius + 1) if r in trace]
    return all(
        trace[a] < trace[b] for a, b in zip(tail_radii, tail_radii[1:])
    ) and len(tail_radii) >= 2


class Witness:
    def __init__(self, structure: str, group: groups.GroupSpec, elements: tuple, trace: dict):
        self.structure = structure
        self.group = group  # group the witness elements live in
        self.elements = elements
        self.trace = trace

    bounded = True
    verdict = "PASS"

    def size(self) -> int:
        return len(self.elements)

    def to_json(self) -> dict:
        return {
            "structure": self.structure,
            "verdict": self.verdict,
            "witness": [self.group.serialize(g) for g in self.elements],
            "trace": {str(r): n for r, n in sorted(self.trace.items())},
        }


class Counterexample:
    def __init__(
        self, structure: str, family: str, group: groups.GroupSpec, elements: frozenset, trace: dict
    ):
        self.structure = structure
        self.family = family
        self.group = group
        self.elements = elements  # witness at the final radius, unordered; kept as evidence
        self.trace = trace

    bounded = False
    verdict = "FAIL"

    def to_json(self) -> dict:
        return {
            "structure": self.structure,
            "verdict": self.verdict,
            "family": self.family,
            "trace": {str(r): n for r, n in sorted(self.trace.items())},
        }


# ---------------------------------------------------------------------------
# core operations on families

def side_witness(side: str, spec: groups.GroupSpec, fam: FiniteFamily) -> Witness:
    """Witness set of a family over a group: u^-1*v ("left") or u*v^-1
    ("right") over all ordered pairs within each member.  Pairs with u = v
    contribute the identity, so any nonempty family witnesses it."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    out: set = set()
    fold_witness(out, side, spec, fam.members)
    return Witness(
        structure=f"{side}-group({spec.label()})",
        group=spec,
        elements=groups.canonical_sorted(spec, out),
        trace={},
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
    with u before v are multiplied.  A member is any collection of points."""
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
    out.update(ws)
    out.update(map(inv, ws))


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


class RefineResult:
    def __init__(self, ok: bool, assignment: dict, failing: tuple | None = None):
        self.ok = ok
        self.assignment = assignment  # member -> containing member of the coarser family
        self.failing = failing

    def __bool__(self) -> bool:
        return self.ok


def refines(f1: FiniteFamily, f2: FiniteFamily) -> RefineResult:
    """Does every member of f1 sit inside some member of f2?"""
    assignment = {}
    members2 = [set(m) for m in f2.members]
    for m in f1.members:
        ms = set(m)
        for raw, cooked in zip(f2.members, members2):
            if ms <= cooked:
                assignment[m] = raw
                break
        else:
            return RefineResult(ok=False, assignment=assignment, failing=m)
    return RefineResult(ok=True, assignment=assignment)


# ---------------------------------------------------------------------------
# stock parametrized families

def translate_pair_family(space, a, side: str) -> ParamFamily:
    """r -> {{g, a*g}} ("left") or {{g, g*a}} ("right") over g in Ball(r)."""
    spec = space.spec
    aser = spec.serialize(a)
    tag = f"{{{{g, {aser}*g}}}}" if side == "left" else f"{{{{g, g*{aser}}}}}"

    def grow(r: int):
        mul = spec.mul
        for g in groups.sphere(spec, r):
            yield (g, mul(a, g) if side == "left" else mul(g, a))

    return ParamFamily(tag=tag, space=space, grow=grow)


def shape_translate_family(space, shape: tuple, side: str) -> ParamFamily:
    """r -> {g*S} ("left") or {S*g} ("right") over g in Ball(r), S fixed."""
    spec = space.spec
    shape_ser = ",".join(spec.serialize(s) for s in shape)
    tag = f"{{g*[{shape_ser}]}}" if side == "left" else f"{{[{shape_ser}]*g}}"

    def grow(r: int):
        mul = spec.mul
        for g in groups.sphere(spec, r):
            if side == "left":
                yield tuple([mul(g, s) for s in shape])
            else:
                yield tuple([mul(s, g) for s in shape])

    return ParamFamily(tag=tag, space=space, grow=grow)


def image_family(pf: ParamFamily, rule: Callable, target_space, tag: str = "") -> ParamFamily:
    """r -> {rule(m)} over the members m of pf at radius r."""

    def grow(r: int):
        return (tuple(rule(x) for x in m) for m in pf.delta(r))

    return ParamFamily(tag=tag or f"image({pf.tag})", space=target_space, grow=grow)


def constant_family(space, members) -> ParamFamily:
    fam = finite_family(space, members)
    label = "{" + ";".join("[" + ",".join(map(str, m)) + "]" for m in fam.members) + "}"
    return ParamFamily(tag=label, space=space, grow=lambda r: () if r else fam.members)
