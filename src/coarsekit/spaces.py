"""Point sets that checks run over.

A space is either the underlying set of a catalog group (windows are word
metric balls) or an explicit finite set carried by a table action.  Spaces
only need membership, a canonical element order, and window enumeration
(``sphere(r)`` holds the points that enter ``window(r)`` at radius r);
group spaces carry their group's arithmetic on ``spec``.  ``Preimages``
answers "which points of a window have this key" for any space.
"""

from __future__ import annotations

from bisect import bisect_right

from . import groups
from .errors import MalformedElementError
from .families import entry_trace


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


class Preimages:
    """For each key, the points p of ``space`` with that key in ``keys(p)``,
    in one index grown one sphere of the space at a time.

    Each list is thus in window order, and the points of window(r) with a
    key are the prefix of its list of extent <= r.  The cover index of an
    action is ``Preimages(GroupSpace(G), lambda h: action.apply_set(h, U))``
    and the fibres of a map are ``Preimages(source, lambda x: (rule(x),))``.
    ``keys`` is applied once to each point the index reaches, and the index
    reaches only as far as its questions ask.  Grown to radius R, it holds
    the sum of |keys(p)| over window(R) entries."""

    def __init__(self, space, keys):
        self.space = space
        self.keys = keys
        self.radius = -1  # the index holds every point of window(radius)
        self._points: dict = {}  # key -> its points, in window order
        self._extents: dict = {}  # key -> the extents of those points

    def _grow(self, radius: int) -> None:
        points, extents, keys = self._points, self._extents, self.keys
        for r in range(self.radius + 1, radius + 1):
            for p in self.space.sphere(r):
                for k in keys(p):
                    points.setdefault(k, []).append(p)
                    extents.setdefault(k, []).append(r)
            self.radius = r

    def get(self, key, radius: int) -> tuple:
        """The points of window(radius) with ``key``, in window order."""
        self._grow(radius)
        found = self._points.get(key, ())
        return tuple(found[: bisect_right(self._extents.get(key, ()), radius)])

    def reach(self, key, cap: int) -> int | None:
        """The least r <= cap with a point of window(r) with ``key``, or
        None.  The index grows only until it finds one."""
        while key not in self._extents and self.radius < cap:
            self._grow(self.radius + 1)
        extents = self._extents.get(key)
        return extents[0] if extents and extents[0] <= cap else None

    def image(self, radius: int) -> list:
        """The keys of the points of window(radius), each once, in the window
        order of their first point."""
        self._grow(radius)
        return [k for k, extents in self._extents.items() if extents[0] <= radius]

    def trace(self, keys, radius: int) -> dict:
        """r -> how many points of window(r) have a key in ``keys``."""
        self._grow(radius)
        enters: dict = {}  # point -> the radius where it enters the window
        for k in keys:
            for p, r in zip(self._points.get(k, ()), self._extents.get(k, ())):
                if r > radius:
                    break
                enters[p] = r
        return entry_trace(enters.values(), radius)


def point_space() -> FiniteSpace:
    return FiniteSpace("point", ("pt",))
