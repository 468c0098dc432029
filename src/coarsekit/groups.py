"""Exact normal-form arithmetic for a small catalog of finitely generated groups.

Constructors: ``Z``, ``Z^n``, ``F(n)`` (free of rank n), ``DihInf`` (infinite
dihedral), ``Zmod(n)``, and ``product(A,B)``.  Elements are plain hashable
Python values in a fixed normal form per constructor, so element equality is
literal equality:

* ``Z``          int
* ``Z^n``        tuple of n ints
* ``F(n)``       freely reduced tuple of nonzero ints, letter i / inverse -i
* ``DihInf``     pair ``(n, flip)`` meaning x^n t^flip, with t x^k = x^-k t
* ``Zmod(n)``    int residue in range(n)
* ``product``    pair of component elements

Each kind of group is one ``GroupSpec`` subclass: ``FreeAbelian(rank)``,
``Free(rank)``, ``DihInf()``, ``Cyclic(modulus)`` and ``Product(factors)``.
The class holds everything that depends on the kind: arithmetic, identity,
generators, label, normal-form test, text format and parser.  Code that needs
to know the kind asks ``isinstance(spec, groups.Cyclic)``.

Generating sets are fixed by the constructor (each positive generator followed
by its inverse; ``t`` is its own inverse).  Word lengths come from closed
forms that agree with breadth-first search over these generators.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable
from operator import add, neg

from .errors import (
    GroupParseError,
    InvalidRadiusError,
    MalformedElementError,
    ResourceLimitError,
    UnsupportedRankError,
)

Element = object

DEFAULT_BALL_CAP = 10**6

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class GroupSpec(ABC):
    """A catalog group, with its arithmetic bound once.

    Each subclass's ``__init__`` rejects a bad rank or modulus, then calls
    ``_bind`` with its constructor arguments and four closures: ``mul(a, b)``,
    ``inv(g)``, ``length(g)`` (word length) and ``skey(g)`` (the structural
    tie-break of the canonical order).  Hot loops bind them once
    (``mul = spec.mul``).  Equality and hashing read the class and the
    constructor arguments alone, never the closures: two specs built alike
    are equal, hash alike and share one ball cache.  A class-level ``kind``
    names the kind."""

    def _bind(
        self, args: tuple, mul: Callable, inv: Callable, length: Callable, skey: Callable
    ) -> None:
        self._args = args
        self.mul, self.inv, self.length, self.skey = mul, inv, length, skey

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._args == other._args

    def __hash__(self) -> int:
        return hash(self._args)

    def __repr__(self) -> str:
        return f"GroupSpec({self.label()})"

    # what each kind supplies
    @abstractmethod
    def label(self) -> str: ...  # the spec in the grammar of parse_group_spec
    @abstractmethod
    def identity(self) -> Element: ...
    @abstractmethod
    def generators(self) -> tuple: ...  # the generating set of the word metric
    @abstractmethod
    def is_normal(self, g: Element) -> bool: ...
    @abstractmethod
    def _format(self, g: Element) -> str: ...  # text for a normal g
    @abstractmethod
    def parse_element(self, text: str) -> Element: ...  # reads _format's text back

    def validate(self, g: Element) -> Element:
        """Check that g is in normal form; return it unchanged."""
        if not self.is_normal(g):
            raise MalformedElementError(f"{g!r} is not a normal form for {self.label()}")
        return g

    def serialize(self, g: Element) -> str:
        """Text that round-trips through ``parse_element``."""
        return self._format(self.validate(g))


def _int_key(c: int) -> tuple:
    # positive value sorts before its negative of equal magnitude
    return (abs(c), 0 if c >= 0 else 1)


def _is_int(c) -> bool:
    return isinstance(c, int) and not isinstance(c, bool)


def _parse_word(spec, text: str) -> Element:
    """``parse_element`` of a word kind: the product of the tokens of text,
    each ``1``, a letter or ``letter^exp``, with the kind's ``_power``
    reading a letter and its exponent."""
    g = spec.identity()
    for token in text.split():
        if token == "1":
            continue
        base, caret, exp_text = token.partition("^")
        try:
            exp = int(exp_text) if caret else 1
        except ValueError:
            raise MalformedElementError(f"bad exponent in token {token!r}")
        g = spec.mul(g, spec._power(base, exp))
    return g


class FreeAbelian(GroupSpec):
    """Z^rank: an int for rank 1, a tuple of rank ints above."""

    kind = "free_abelian"

    def __init__(self, rank: int):
        if rank < 1:
            raise UnsupportedRankError(f"Z^{rank}: rank must be >= 1")
        self.rank = rank
        if rank == 1:
            self._bind((rank,), add, neg, abs, _int_key)
        elif rank == 2:
            # unrolled: Z^2 is the common case and the generic form costs twice as much
            self._bind(
                (rank,),
                lambda a, b: (a[0] + b[0], a[1] + b[1]),
                lambda g: (-g[0], -g[1]),
                lambda g: abs(g[0]) + abs(g[1]),
                lambda g: (_int_key(g[0]), _int_key(g[1])),
            )
        else:
            self._bind(
                (rank,),
                lambda a, b: tuple(map(add, a, b)),
                lambda g: tuple(map(neg, g)),
                lambda g: sum(map(abs, g)),
                lambda g: tuple(map(_int_key, g)),
            )

    def label(self) -> str:
        return "Z" if self.rank == 1 else f"Z^{self.rank}"

    def identity(self) -> Element:
        return 0 if self.rank == 1 else (0,) * self.rank

    def generators(self) -> tuple:
        if self.rank == 1:
            return (1, -1)
        gens = []
        for i in range(self.rank):
            e = tuple(1 if j == i else 0 for j in range(self.rank))
            gens += [e, tuple(-c for c in e)]
        return tuple(gens)

    def is_normal(self, g: Element) -> bool:
        if self.rank == 1:
            return _is_int(g)
        return isinstance(g, tuple) and len(g) == self.rank and all(map(_is_int, g))

    def _format(self, g: Element) -> str:
        return str(g) if self.rank == 1 else "(" + ",".join(map(str, g)) + ")"

    def parse_element(self, text: str) -> Element:
        text = text.strip()
        if self.rank == 1:
            try:
                return int(text)
            except ValueError:
                raise MalformedElementError(f"expected an integer for Z, got {text!r}")
        parts = _tuple_parts(text)
        if len(parts) != self.rank:
            raise MalformedElementError(
                f"expected {self.rank} coordinates, got {len(parts)} in {text!r}"
            )
        try:
            return tuple(int(p) for p in parts)
        except ValueError:
            raise MalformedElementError(f"non-integer coordinate in {text!r}")


def _free_concat(a: tuple, b: tuple) -> tuple:
    i = len(a)
    j = 0
    while i > 0 and j < len(b) and a[i - 1] == -b[j]:
        i -= 1
        j += 1
    return a[:i] + b[j:]


class Free(GroupSpec):
    """F(rank): freely reduced tuples of letters i and inverses -i."""

    kind = "free"

    def __init__(self, rank: int):
        if rank < 1:
            raise UnsupportedRankError(f"F({rank}): rank must be >= 1")
        if rank > len(_LETTERS):
            raise UnsupportedRankError(f"F({rank}): at most {len(_LETTERS)} letters supported")
        self.rank = rank
        # letters are nonzero, so _int_key puts letter i before its inverse -i
        self._bind(
            (rank,),
            _free_concat,
            lambda g: tuple(map(neg, reversed(g))),
            len,
            lambda g: tuple(map(_int_key, g)),
        )

    def label(self) -> str:
        return f"F({self.rank})"

    def identity(self) -> Element:
        return ()

    def generators(self) -> tuple:
        return tuple(w for i in range(1, self.rank + 1) for w in ((i,), (-i,)))

    def is_normal(self, g: Element) -> bool:
        return (
            isinstance(g, tuple)
            and all(isinstance(l, int) and l != 0 and abs(l) <= self.rank for l in g)
            and all(g[i] != -g[i + 1] for i in range(len(g) - 1))
        )

    def _format(self, g: Element) -> str:
        out = []
        for letter, run in itertools.groupby(g):
            exp = len(list(run)) * (1 if letter > 0 else -1)
            name = _LETTERS[abs(letter) - 1]
            out.append(name if exp == 1 else f"{name}^{exp}")
        return " ".join(out) or "1"

    parse_element = _parse_word

    def _power(self, base: str, exp: int) -> Element:
        idx = _LETTERS.find(base) + 1
        if idx == 0 or idx > self.rank or len(base) != 1:
            raise MalformedElementError(f"unknown letter {base!r} for {self.label()}")
        return (idx if exp > 0 else -idx,) * abs(exp)


class DihInf(GroupSpec):
    """The infinite dihedral group: (n, f) is x^n t^f, and t x^k = x^-k t."""

    kind = "dih_inf"

    def __init__(self):
        self._bind(
            (),
            lambda a, b: (a[0] - b[0] if a[1] else a[0] + b[0], a[1] ^ b[1]),
            lambda g: (g[0], 1) if g[1] else (-g[0], 0),
            lambda g: abs(g[0]) + g[1],
            lambda g: (_int_key(g[0]), g[1]),
        )

    def label(self) -> str:
        return "DihInf"

    def identity(self) -> Element:
        return (0, 0)

    def generators(self) -> tuple:
        return ((1, 0), (-1, 0), (0, 1))

    def is_normal(self, g: Element) -> bool:
        return isinstance(g, tuple) and len(g) == 2 and isinstance(g[0], int) and g[1] in (0, 1)

    def _format(self, g: Element) -> str:
        n, f = g
        parts = [] if n == 0 else ["x" if n == 1 else f"x^{n}"]
        if f:
            parts.append("t")
        return " ".join(parts) or "1"

    parse_element = _parse_word

    def _power(self, base: str, exp: int) -> Element:
        if base == "x":
            return (exp, 0)
        if base == "t":
            return (0, exp % 2)
        raise MalformedElementError(f"unknown letter {base!r} for DihInf")


class Cyclic(GroupSpec):
    """Zmod(modulus): int residues in range(modulus)."""

    kind = "cyclic"

    def __init__(self, modulus: int):
        n = modulus
        if n < 1:
            raise UnsupportedRankError(f"Zmod({n}): modulus must be >= 1")
        self.modulus = n
        half = n // 2
        self._bind(
            (n,),
            lambda a, b: (a + b) % n,
            lambda g: (-g) % n,
            (lambda g: min(g, n - g)) if n > 1 else (lambda g: 0),
            lambda g: _int_key(g if g <= half else g - n),
        )

    def label(self) -> str:
        return f"Zmod({self.modulus})"

    def identity(self) -> Element:
        return 0

    def generators(self) -> tuple:
        n = self.modulus
        return () if n == 1 else (1,) if n == 2 else (1, n - 1)

    def is_normal(self, g: Element) -> bool:
        return _is_int(g) and 0 <= g < self.modulus

    def _format(self, g: Element) -> str:
        return str(g)

    def parse_element(self, text: str) -> Element:
        text = text.strip()
        try:
            return int(text) % self.modulus
        except ValueError:
            raise MalformedElementError(f"expected an integer for {self.label()}, got {text!r}")


class Product(GroupSpec):
    """The direct product of ``factors = (A, B)``: pairs (a, b)."""

    kind = "product"

    def __init__(self, factors: tuple):
        self.factors = factors
        a, b = factors
        mul_a, inv_a, len_a, key_a = a.mul, a.inv, a.length, a.skey
        mul_b, inv_b, len_b, key_b = b.mul, b.inv, b.length, b.skey
        self._bind(
            (factors,),
            lambda x, y: (mul_a(x[0], y[0]), mul_b(x[1], y[1])),
            lambda g: (inv_a(g[0]), inv_b(g[1])),
            lambda g: len_a(g[0]) + len_b(g[1]),
            lambda g: (key_a(g[0]), key_b(g[1])),
        )

    def label(self) -> str:
        return f"product({self.factors[0].label()},{self.factors[1].label()})"

    def identity(self) -> Element:
        return (self.factors[0].identity(), self.factors[1].identity())

    def generators(self) -> tuple:
        a, b = self.factors
        ia, ib = a.identity(), b.identity()
        return tuple((s, ib) for s in a.generators()) + tuple((ia, s) for s in b.generators())

    def is_normal(self, g: Element) -> bool:
        a, b = self.factors
        return isinstance(g, tuple) and len(g) == 2 and a.is_normal(g[0]) and b.is_normal(g[1])

    def validate(self, g: Element) -> Element:
        if not (isinstance(g, tuple) and len(g) == 2):
            return super().validate(g)
        # a bad component is named in its own factor
        self.factors[0].validate(g[0])
        self.factors[1].validate(g[1])
        return g

    def _format(self, g: Element) -> str:
        return f"({self.factors[0]._format(g[0])},{self.factors[1]._format(g[1])})"

    def parse_element(self, text: str) -> Element:
        text = text.strip()
        parts = _tuple_parts(text)
        if len(parts) != 2:
            raise MalformedElementError(f"expected 2 components, got {len(parts)} in {text!r}")
        return (self.factors[0].parse_element(parts[0]), self.factors[1].parse_element(parts[1]))


def _tuple_parts(text: str) -> list:
    """The top-level comma-separated parts of ``(p1,...,pk)``."""
    if not (text.startswith("(") and text.endswith(")")):
        raise MalformedElementError(f"expected a parenthesized tuple, got {text!r}")
    return split_top_level(text[1:-1])


def split_top_level(text: str) -> list:
    """The comma-separated parts of text, split only outside parentheses."""
    parts, depth = [""], 0
    for ch in text:
        depth += {"(": 1, ")": -1}.get(ch, 0)
        if ch == "," and depth == 0:
            parts.append("")
        else:
            parts[-1] += ch
    return parts


free_abelian = FreeAbelian
free_group = Free
dih_inf = DihInf
cyclic = Cyclic


def product(a: GroupSpec, b: GroupSpec) -> GroupSpec:
    return Product((a, b))


Z = free_abelian(1)
DIH = dih_inf()


# ---------------------------------------------------------------------------
# group spec grammar:  Z | Z^n | F(n) | DihInf | Zmod(n) | product(spec,spec)

def parse_group_spec(text: str) -> GroupSpec:
    spec, pos = _parse_spec(text, 0)
    pos = _skip_ws(text, pos)
    if pos != len(text):
        raise GroupParseError(text, pos, "unexpected trailing input")
    return spec


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _parse_int(text: str, pos: int) -> tuple[int, int]:
    start = pos
    while pos < len(text) and text[pos].isdigit():
        pos += 1
    if pos == start:
        raise GroupParseError(text, start, "expected an integer")
    return int(text[start:pos]), pos


def _expect(text: str, pos: int, ch: str, message: str) -> int:
    """Read whitespace, the character ch and whitespace; the position reached."""
    pos = _skip_ws(text, pos)
    if pos >= len(text) or text[pos] != ch:
        raise GroupParseError(text, pos, message)
    return _skip_ws(text, pos + 1)


def _parse_spec(text: str, pos: int) -> tuple[GroupSpec, int]:
    pos = _skip_ws(text, pos)
    if text.startswith("product", pos):
        pos = _expect(text, pos + len("product"), "(", "expected '(' after product")
        a, pos = _parse_spec(text, pos)
        b, pos = _parse_spec(text, _expect(text, pos, ",", "expected ',' between product factors"))
        return product(a, b), _expect(text, pos, ")", "expected ')' closing product")
    if text.startswith("DihInf", pos):
        return dih_inf(), pos + len("DihInf")
    if text.startswith("Zmod", pos):
        n, pos = _parse_int(text, _expect(text, pos + len("Zmod"), "(", "expected '(' after Zmod"))
        return cyclic(n), _expect(text, pos, ")", "expected ')' closing Zmod")
    if text.startswith("Z", pos):
        pos += 1
        if pos < len(text) and text[pos] == "^":
            n, pos = _parse_int(text, pos + 1)
            return free_abelian(n), pos
        return free_abelian(1), pos
    if text.startswith("F", pos):
        n, pos = _parse_int(text, _expect(text, pos + 1, "(", "expected '(' after F"))
        return free_group(n), _expect(text, pos, ")", "expected ')' closing F")
    raise GroupParseError(text, pos, "expected one of Z, Z^n, F(n), DihInf, Zmod(n), product")


# ---------------------------------------------------------------------------
# element arithmetic

def multiply(spec: GroupSpec, a: Element, b: Element) -> Element:
    return spec.mul(a, b)


def invert(spec: GroupSpec, g: Element) -> Element:
    return spec.inv(g)


def conjugate(spec: GroupSpec, a: Element, h: Element) -> Element:
    """h^-1 a h."""
    return spec.mul(spec.mul(spec.inv(h), a), h)


def word_length(spec: GroupSpec, g: Element) -> int:
    return spec.length(g)


# ---------------------------------------------------------------------------
# canonical ordering

def sort_key(spec: GroupSpec, g: Element) -> tuple:
    """Canonical order: word length first, then a structural tie-break that
    places each positive power before the matching negative power."""
    return (spec.length(g), spec.skey(g))


def canonical_sorted(spec: GroupSpec, elements: Iterable[Element]) -> tuple:
    length, skey = spec.length, spec.skey
    return tuple(sorted(set(elements), key=lambda g: (length(g), skey(g))))


# ---------------------------------------------------------------------------
# balls

class Ball:
    def __init__(
        self, group: GroupSpec, radius: int, elements: tuple, lengths: dict, words: dict, layers: list
    ):
        self.group = group
        self.radius = radius
        self.elements = elements  # breadth-first layer order, canonical tie-break inside layers
        self.lengths = lengths
        self.words = words  # element -> geodesic tuple of generator indices
        self.layers = layers  # layers[r]: the elements of length r

    def __len__(self) -> int:
        return len(self.elements)

    def sphere(self, r: int) -> tuple:
        return self.layers[r] if 0 <= r < len(self.layers) else ()


class _BallCache:
    def __init__(self, spec: GroupSpec):
        self.spec = spec
        ident = spec.identity()
        self.layers = [(ident,)]
        self.lengths = {ident: 0}
        self.words = {ident: ()}
        self.total = 1
        self.balls: dict = {}  # radius -> Ball, built once; nothing mutates a Ball

    def extend(self, radius: int, cap: int) -> None:
        if len(self.layers) > radius:
            return
        spec = self.spec
        mul, skey = spec.mul, spec.skey
        gens = spec.generators()
        while len(self.layers) <= radius:
            frontier = self.layers[-1]
            r = len(self.layers)
            new = {}
            for g in frontier:
                base_word = self.words[g]
                for i, s in enumerate(gens):
                    h = mul(g, s)
                    if h not in self.lengths and h not in new:
                        new[h] = base_word + (i,)
            ordered = sorted(new, key=skey)
            self.total += len(ordered)
            if self.total > cap:
                raise ResourceLimitError(
                    f"ball of radius {r} in {spec.label()} exceeds cap {cap}"
                )
            for h in ordered:
                self.lengths[h] = r
                self.words[h] = new[h]
            self.layers.append(tuple(ordered))
            if not ordered:
                # group exhausted (finite); further layers stay empty
                break


_BALL_CACHES: dict[GroupSpec, _BallCache] = {}


def _extended(spec: GroupSpec, radius: int, cap: int) -> _BallCache:
    if radius < 0:
        raise InvalidRadiusError(f"radius must be >= 0, got {radius}")
    cache = _BALL_CACHES.get(spec)
    if cache is None:
        cache = _BALL_CACHES[spec] = _BallCache(spec)
    cache.extend(radius, cap)
    return cache


def ball(spec: GroupSpec, radius: int, cap: int = DEFAULT_BALL_CAP) -> Ball:
    """Ball of the word metric, ordered by layer then canonical tie-break."""
    cache = _extended(spec, radius, cap)
    found = cache.balls.get(radius)
    if found is None:
        layers = cache.layers[: radius + 1]
        found = cache.balls[radius] = Ball(
            group=spec,
            radius=radius,
            elements=tuple(itertools.chain.from_iterable(layers)),
            lengths=cache.lengths,
            words=cache.words,
            layers=layers,
        )
    return found


def sphere(spec: GroupSpec, r: int) -> tuple:
    """Elements of word length exactly r, in canonical order."""
    layers = _extended(spec, r, DEFAULT_BALL_CAP).layers
    return layers[r] if r < len(layers) else ()


def conjugacy_window(spec: GroupSpec, a: Element, radius: int) -> tuple:
    """All conjugates h^-1 a h with h in the radius ball, canonically ordered."""
    spec.validate(a)
    out = set()
    for h in ball(spec, radius).elements:
        out.add(conjugate(spec, a, h))
    return canonical_sorted(spec, out)


def geodesic_word(spec: GroupSpec, g: Element) -> tuple:
    """Generator indices of one geodesic spelling of g."""
    r = word_length(spec, g)
    return ball(spec, r).words[g]
