"""Coarse structures evaluated on finite windows.

A structure here is a membership test for parametrized families: given the
family at each radius r <= R it produces a finite witness set whose size
trace either stabilizes (the family is uniformly bounded as far as the
window can tell) or keeps growing (a genuine counterexample at this scale).

Structures on a group's underlying set come in the left flavor (witnesses
u^-1*v) and the right flavor (witnesses u*v^-1), one ``GroupStructure``
each.  The structure an action induces from the translates of a bounded
set, ``actions.ActionInducedStructure``, is the memoized kind: each member's
witness is a search, so it is computed once per member, and an orbit of the
structure's own action is read off per-seed layers (``read_off``).
"""

from __future__ import annotations

import random
from itertools import combinations

from . import groups
from .errors import CoarseKitError, PreconditionError
from .families import (
    Membership,
    ParamFamily,
    Reading,
    ShapeTranslates,
    fold_witness,
    member_witness,
    shape_translate_family,
    translate_pair_family,
)
from .spaces import GroupSpace


class CoarseStructure:
    """A membership test for families, read off one member at a time.

    ``fold(witness, members)`` adds to ``witness`` the contribution of every
    member in ``members`` (collections of points).  ``membership_window``
    calls it once per radius with the members grown there, ``pf.grow(r)``.
    This generic fold hands every member to the memoized
    ``member_contribution``, and the memo is the one record of members met:
    each distinct member is computed once, and a repeat is a memo hit.  A
    structure may override ``fold`` with a faster loop only if it gives the
    same witness set, as ``GroupStructure`` does.  It may also read a
    family's witness and trace off the family's ``grow`` (``read_off``)
    where it knows them without folding the growth: off a shape that every
    member shares (``GroupStructure``), or off orbit layers it keeps
    (``actions.ActionInducedStructure``)."""

    space: object
    label: str

    def __init__(self):
        self._contributions: dict = {}

    def witness_group(self) -> groups.GroupSpec:
        raise NotImplementedError

    def member_contribution(self, member) -> frozenset:
        """Witness elements of one member, whose points may come in any order.

        The result is memoized under ``frozenset(member)``: an induced
        contribution searches a window per member, and the same member
        recurs across families and radii."""
        key = frozenset(member)
        found = self._contributions.get(key)
        if found is None:
            found = self._contributions[key] = frozenset(self._compute_contribution(member))
        return found

    def _compute_contribution(self, member):
        raise NotImplementedError

    def fold(self, witness: set, members) -> None:
        contribution = self.member_contribution
        for m in members:
            witness |= contribution(frozenset(m))

    def read_off(self, grow, radius: int) -> tuple[set, dict] | None:
        """The witness at ``radius`` and the trace r -> |witness at r| of the
        family grown by ``grow``, exactly as the generic fold gives them, or
        None when the family must be folded."""
        return None

    def bounded_neighborhood(self, y, mesh: int) -> tuple:
        """A canonical bounded set containing y, one notch of mesh at a time."""
        raise NotImplementedError

    def default_battery(self, seed: int, n_random: int) -> list:
        raise NotImplementedError


class GroupStructure(CoarseStructure):
    """A translation structure on a group: the left one (witnesses
    u^-1*v) or the right one (witnesses u*v^-1).

    Its ``fold`` runs the witness kernel over every member straight into the
    witness set and keeps no record of members met: a member's witness costs
    a few multiplications per pair, less than keeping it, and a repeat adds
    nothing.

    ``translations_isometric`` is the one rule for which translations
    preserve the structure.  Both isometry read-offs ask it: a translate
    family of a shape S read off S (L6, ``read_off``), and an action's
    translates read off the family (L5, in the translate check of
    ``actions``)."""

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

    def _compute_contribution(self, member):
        return member_witness(self.side, self.spec, member)

    def fold(self, witness: set, members) -> None:
        fold_witness(witness, self.side, self.spec, members)

    def translations_isometric(self, side: str) -> bool:
        """Are the translations on ``side`` isometries of this structure?

        Those on its own side are, by every element h: (h*u)^-1*(h*v) =
        u^-1*v and (u*h)*(v*h)^-1 = u*v^-1.  Those on the other side are too
        when the group is abelian, since then h*u = u*h; a group is abelian
        exactly when its generators commute pairwise.  No other case is
        claimed."""
        if side == self.side:
            return True
        mul = self.spec.mul
        return all(mul(a, b) == mul(b, a) for a, b in combinations(self.spec.generators(), 2))

    def read_off(self, grow, radius: int) -> tuple[set, dict] | None:
        """(L6) Where translations on the family's side are isometries
        (``translations_isometric``), every member of {g*S} or {S*g} has
        the witness of S, at every radius, so the trace is constant.  Any
        other family is folded."""
        if (
            not isinstance(grow, ShapeTranslates)
            or grow.spec != self.spec
            or not self.translations_isometric(grow.side)
        ):
            return None
        witness = member_witness(self.side, self.spec, grow.shape)
        return witness, dict.fromkeys(range(radius + 1), len(witness))

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

    When the structure reads the family's witness and trace off its
    ``grow`` (``read_off``), no member is folded here.  Otherwise each
    radius's growth goes to ``structure.fold`` in one call, so a member
    contributes at the radius where it first appears (see
    ``CoarseStructure``).  If a member is refused, the error raised is
    the one for the least new member of that radius, whatever order the
    growth came in.  Returns the family's ``Membership``, whose verdict is
    the ``Reading`` of the size trace at ``radius``.  Only a bounded witness
    is reported, so only then are its elements put in canonical order.
    """
    read = structure.read_off(pf.grow, radius)
    if read is not None:
        witness, trace = read
    else:
        witness, trace = set(), {}
        fold = structure.fold
        for r in range(radius + 1):
            try:
                fold(witness, pf.grow(r))
            except CoarseKitError:
                # report the least failing member, whatever order the growth
                # came in; a member met at an earlier radius contributed without error
                order = pf.space.sort_key
                grown = [tuple(sorted(m, key=order)) for m in {frozenset(m) for m in pf.grow(r)}]
                for m in sorted(grown, key=lambda m: [order(x) for x in m]):
                    structure.member_contribution(m)
                raise
            trace[r] = len(witness)
    group = structure.witness_group()
    reading = Reading(trace, radius)
    elements = groups.canonical_sorted(group, witness) if reading.stable else frozenset(witness)
    return Membership(structure.label, pf.tag, group, elements, reading)


def bounded_battery(structure: CoarseStructure, radius: int, seed: int, n_random: int):
    """Yield (family, its Membership) for each family of the structure's
    stock battery.  Every battery family is bounded in its own structure, so
    one that is not is a broken structure, not a verdict."""
    for pf in structure.default_battery(seed=seed, n_random=n_random):
        res = membership_window(structure, pf, radius)
        if not res.bounded:
            raise PreconditionError(f"battery family {pf.tag} is not bounded in {structure.label}")
        yield pf, res


def first_unbounded(reads) -> tuple[list, str | None]:
    """The (tag, Membership) pairs of ``reads`` up to and including the first
    unbounded one, and that one's tag, or None when every pair is bounded.
    ``reads`` is taken one pair at a time, so nothing after it is read."""
    taken = []
    for tag, res in reads:
        taken.append((tag, res))
        if not res.bounded:
            return taken, tag
    return taken, None
