"""Coarse structures evaluated on finite windows.

A structure here is a membership test for parametrized families: given the
family at each radius r <= R it produces a finite witness set whose size
trace either stabilizes (the family is uniformly bounded as far as the
window can tell) or keeps growing (a genuine counterexample at this scale).

Structures on a group's underlying set come in the left flavor (witnesses
u^-1*v) and the right flavor (witnesses u*v^-1), one ``GroupStructure``
each.  A pullback structure transports membership along a map into the
space: a family belongs to it when its preimage family is bounded in the
structure on the source.
"""

from __future__ import annotations

import random
from collections.abc import Callable

from . import groups
from .errors import CoarseKitError, WindowOverflowError
from .families import (
    Counterexample,
    ParamFamily,
    Witness,
    fold_witness,
    image_family,
    member_witness,
    shape_translate_family,
    trace_stabilizes,
    translate_pair_family,
)
from .spaces import GroupSpace, Preimages


class CoarseStructure:
    """A membership test for families, read off one member at a time.

    ``fold(witness, members, seen)`` adds to ``witness`` the contribution of
    every member in ``members`` (collections of points) that ``seen`` does
    not hold yet, and records it there.  ``membership_window`` calls it once
    per radius with that radius's delta.  This generic fold contributes each
    distinct member once, through the memoized ``member_contribution``.  A
    structure may override ``fold`` with a faster loop only if it gives the
    same witness set, as ``GroupStructure`` does."""

    space: object
    label: str

    def __init__(self):
        self._contributions: dict = {}

    def witness_group(self) -> groups.GroupSpec:
        raise NotImplementedError

    def member_contribution(self, member) -> frozenset:
        """Witness elements of one member, whose points may come in any order.

        The result is memoized under ``frozenset(member)``: pullback and
        induced contributions search a window per member, and the same
        member recurs across families and radii.  The group structures
        override this without a memo, since a member's witness costs a
        few multiplications per pair, less than keeping it."""
        key = frozenset(member)
        found = self._contributions.get(key)
        if found is None:
            found = self._contributions[key] = frozenset(self._compute_contribution(member))
        return found

    def _compute_contribution(self, member):
        raise NotImplementedError

    def fold(self, witness: set, members, seen: set) -> None:
        contribution = self.member_contribution
        for m in members:
            m = frozenset(m)
            if m not in seen:
                seen.add(m)
                witness |= contribution(m)

    def bounded_neighborhood(self, y, mesh: int) -> tuple:
        """A canonical bounded set containing y, one notch of mesh at a time."""
        raise NotImplementedError

    def default_battery(self, seed: int, n_random: int) -> list:
        raise NotImplementedError


class GroupStructure(CoarseStructure):
    """A translation structure on a group: the left one (witnesses
    u^-1*v) or the right one (witnesses u*v^-1).

    Its ``fold`` runs the witness kernel over every member straight into the
    witness set, with no memo and no ``seen`` lookup: a repeated member adds
    nothing.  It never calls ``member_contribution``, so a subclass that
    changes how a member contributes must also set
    ``fold = CoarseStructure.fold``."""

    def __init__(self, spec: groups.GroupSpec, side: str):
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        super().__init__()
        self.spec = spec
        self.side = side
        self.space = GroupSpace(spec)
        self.label = f"C_{side[0]}({spec.label()})"

    def witness_group(self) -> groups.GroupSpec:
        return self.spec

    def member_contribution(self, member) -> frozenset:
        return frozenset(self._compute_contribution(member))

    def _compute_contribution(self, member):
        return member_witness(self.side, self.spec, member)

    def fold(self, witness: set, members, seen: set) -> None:
        fold_witness(witness, self.side, self.spec, members)

    def bounded_neighborhood(self, y, mesh: int) -> tuple:
        return self.space.ball_about(y, mesh, side=self.side)

    def default_battery(self, seed: int, n_random: int) -> list:
        # translate pairs on the opposite side are bounded on this one
        other = "right" if self.side == "left" else "left"
        fams = [translate_pair_family(self.space, s, other) for s in self.spec.generators()]
        fams += [
            shape_translate_family(self.space, shape, self.side)
            for shape in random_shapes(self.spec, seed=seed, count=n_random)
        ]
        return fams


class LeftGroupStructure(GroupStructure):
    def __init__(self, spec: groups.GroupSpec):
        super().__init__(spec, "left")


class RightGroupStructure(GroupStructure):
    def __init__(self, spec: groups.GroupSpec):
        super().__init__(spec, "right")


class PullbackStructure(CoarseStructure):
    """Structure on the target of a map: a family is bounded when its
    preimage family is bounded in the structure on the source."""

    def __init__(
        self,
        rule: Callable,
        source: CoarseStructure,
        space,
        source_slack: int = 4,
        label: str = "",
    ):
        super().__init__()
        self.rule = rule
        self.source = source
        self.space = space
        self.source_slack = source_slack
        self.label = label or f"pullback({source.label})"
        self._fibres = Preimages(source.space, lambda x: (rule(x),))

    def witness_group(self) -> groups.GroupSpec:
        return self.source.witness_group()

    def preimage_member(self, member) -> tuple:
        """The points of the source window over ``member``, in window order;
        the window reaches source_slack past the member's extent."""
        radius = max((self.space.extent(y) for y in member), default=0) + self.source_slack
        fibre = self._fibres.get
        hits = [x for y in set(member) for x in fibre(y, radius)]
        return tuple(sorted(hits, key=self.source.space.sort_key))

    def _compute_contribution(self, member):
        return self.source.member_contribution(self.preimage_member(member))

    def bounded_neighborhood(self, y, mesh: int) -> tuple:
        pre = self.preimage_member((y,))
        if not pre:
            raise WindowOverflowError(
                f"{self.label}: no preimage of {y!r} within the search window"
            )
        x0 = pre[0]
        nb = set()
        for w in self.source.bounded_neighborhood(x0, mesh):
            nb.add(self.rule(w))
        return tuple(sorted(nb, key=self.space.sort_key))

    def default_battery(self, seed: int, n_random: int) -> list:
        out = []
        for pf in self.source.default_battery(seed=seed, n_random=n_random):
            out.append(image_family(pf, self.rule, self.space, tag=f"push({pf.tag})"))
        return out


def random_shapes(spec: groups.GroupSpec, seed: int, count: int, mesh: int = 2) -> list:
    """Deterministic list of small shapes (subsets of Ball(mesh), sizes 1..3)."""
    rng = random.Random(seed)
    pool = list(groups.ball(spec, mesh).elements)
    shapes = []
    for _ in range(count):
        k = rng.randint(1, 3)
        shape = rng.sample(pool, min(k, len(pool)))
        shapes.append(groups.canonical_sorted(spec, shape))
    return shapes


def membership_window(structure: CoarseStructure, pf: ParamFamily, radius: int):
    """Evaluate the witness trace of a parametrized family.

    Each radius's delta goes to ``structure.fold`` in one call, so a member
    contributes at the radius where it first appears (see
    ``CoarseStructure``).  If a member is refused, the error raised is the
    one for the least new member of that radius, whatever order the delta
    came in.  Returns a Witness, its elements in canonical order, when the
    size trace is constant over the final ceil(radius/2) radii, else a
    Counterexample carrying the growing trace and its elements unordered.
    """
    seen: set = set()
    witness: set = set()
    trace: dict = {}
    fold = structure.fold
    for r in range(radius + 1):
        try:
            fold(witness, pf.delta(r), seen)
        except CoarseKitError:
            # report the least failing member, whatever order the delta came in
            order = pf.space.sort_key
            older = {frozenset(m) for q in range(r) for m in pf.delta(q)}
            new = [tuple(sorted(m, key=order)) for m in {frozenset(m) for m in pf.delta(r)} - older]
            for m in sorted(new, key=lambda m: [order(x) for x in m]):
                structure.member_contribution(m)
            raise
        trace[r] = len(witness)
    group = structure.witness_group()
    if trace_stabilizes(trace, radius):
        elements = groups.canonical_sorted(group, witness)
        return Witness(structure=structure.label, group=group, elements=elements, trace=trace)
    return Counterexample(
        structure=structure.label,
        family=pf.tag,
        group=group,
        elements=frozenset(witness),
        trace=trace,
    )
