"""Point sets that checks run over.

A space is either the underlying set of a catalog group (windows are word
metric balls) or an explicit finite set carried by a table action.  Spaces
only need membership, a canonical element order, and window enumeration
(``sphere(r)`` holds the points that enter ``window(r)`` at radius r);
group spaces carry their group's arithmetic on ``spec``.
"""

from __future__ import annotations

from . import groups
from .errors import MalformedElementError


class GroupSpace:
    """The underlying set of a catalog group.  Spaces compare and hash by
    kind and spec, so two built from equal specs are one space."""

    def __init__(self, spec: groups.GroupSpec):
        self.spec = spec

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.spec == other.spec

    def __hash__(self) -> int:
        return hash((self.spec,))

    @property
    def label(self) -> str:
        return self.spec.label()

    def window(self, r: int) -> tuple:
        return groups.ball(self.spec, r).elements

    def sphere(self, r: int) -> tuple:
        return groups.sphere(self.spec, r)

    def sort_key(self, x) -> tuple:
        spec = self.spec
        return (spec.length(x), spec.skey(x))

    def validate(self, x):
        return self.spec.validate(x)

    def serialize(self, x) -> str:
        return self.spec.serialize(x)

    def parse(self, text: str):
        return self.spec.parse_element(text)

    def extent(self, y) -> int:
        return self.spec.length(y)

    def ball_about(self, y, mesh: int, side: str = "left") -> tuple:
        """Metric ball around y: y*Ball(mesh) for the left-invariant metric,
        Ball(mesh)*y for the right-invariant one."""
        mul = self.spec.mul
        out = []
        for w in groups.ball(self.spec, mesh).elements:
            out.append(mul(y, w) if side == "left" else mul(w, y))
        return groups.canonical_sorted(self.spec, out)


class FiniteSpace:
    """An explicit finite point set; compares and hashes by name and points."""

    def __init__(self, name: str, points: tuple):
        self.name = name
        self.points = points

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.points) == (other.name, other.points)

    def __hash__(self) -> int:
        return hash((self.name, self.points))

    @property
    def label(self) -> str:
        return self.name

    def window(self, r: int) -> tuple:
        return self.points

    def sphere(self, r: int) -> tuple:
        return self.points if r == 0 else ()

    def extent(self, x) -> int:
        return 0

    def sort_key(self, x):
        try:
            return (0, self.points.index(x))
        except ValueError:
            raise MalformedElementError(f"{x!r} is not a point of {self.name}")

    def validate(self, x):
        if x not in self.points:
            raise MalformedElementError(f"{x!r} is not a point of {self.name}")
        return x

    def serialize(self, x) -> str:
        return str(x)

    def parse(self, text: str):
        for p in self.points:
            if str(p) == text:
                return p
        raise MalformedElementError(f"{text!r} is not a point of {self.name}")


Space = object  # GroupSpace | FiniteSpace


def point_space() -> FiniteSpace:
    return FiniteSpace("point", ("pt",))
