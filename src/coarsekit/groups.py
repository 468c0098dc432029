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

Generating sets are fixed by the constructor (each positive generator followed
by its inverse; ``t`` is its own inverse).  Word lengths come from closed
forms that agree with breadth-first search over these generators.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from operator import add, neg
from typing import Any, Callable, Iterable, Optional

from .errors import (
    GroupParseError,
    InvalidRadiusError,
    MalformedElementError,
    ResourceLimitError,
    UnsupportedRankError,
)

Element = Any

DEFAULT_BALL_CAP = 10**6

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class GroupSpec:
    """A catalog group, with its arithmetic bound once.

    ``__post_init__`` builds four closures for the kind: ``mul(a, b)``,
    ``inv(g)``, ``length(g)`` (word length) and ``skey(g)`` (the structural
    tie-break of the canonical order).  Hot loops bind them once
    (``mul = spec.mul``) instead of dispatching on ``kind`` per call.  They
    are fields outside ``compare`` and ``repr``, so equality, hashing and
    ``repr`` read the constructor arguments alone: two specs built alike
    are equal, hash alike and share one ball cache."""

    kind: str  # "free_abelian" | "free" | "dih_inf" | "cyclic" | "product"
    rank: int = 0
    modulus: int = 0
    factors: Optional[tuple["GroupSpec", "GroupSpec"]] = None
    mul: Callable = field(init=False, compare=False, repr=False)
    inv: Callable = field(init=False, compare=False, repr=False)
    length: Callable = field(init=False, compare=False, repr=False)
    skey: Callable = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        ops = _ARITHMETIC[self.kind](self)
        for name, fn in zip(("mul", "inv", "length", "skey"), ops):
            object.__setattr__(self, name, fn)

    def label(self) -> str:
        if self.kind == "free_abelian":
            return "Z" if self.rank == 1 else f"Z^{self.rank}"
        if self.kind == "free":
            return f"F({self.rank})"
        if self.kind == "dih_inf":
            return "DihInf"
        if self.kind == "cyclic":
            return f"Zmod({self.modulus})"
        return f"product({self.factors[0].label()},{self.factors[1].label()})"

    def __repr__(self) -> str:
        return f"GroupSpec({self.label()})"


# ---------------------------------------------------------------------------
# per-kind arithmetic: (mul, inv, length, skey) for a spec of that kind

def _int_key(c: int) -> tuple:
    # positive value sorts before its negative of equal magnitude
    return (abs(c), 0 if c >= 0 else 1)


def _free_abelian_ops(spec: GroupSpec) -> tuple:
    if spec.rank == 1:
        return add, neg, abs, _int_key
    if spec.rank == 2:
        # unrolled: Z^2 is the common case and the generic form costs twice as much
        return (
            lambda a, b: (a[0] + b[0], a[1] + b[1]),
            lambda g: (-g[0], -g[1]),
            lambda g: abs(g[0]) + abs(g[1]),
            lambda g: (_int_key(g[0]), _int_key(g[1])),
        )
    return (
        lambda a, b: tuple(map(add, a, b)),
        lambda g: tuple(map(neg, g)),
        lambda g: sum(map(abs, g)),
        lambda g: tuple(map(_int_key, g)),
    )


def _free_concat(a: tuple, b: tuple) -> tuple:
    i = len(a)
    j = 0
    while i > 0 and j < len(b) and a[i - 1] == -b[j]:
        i -= 1
        j += 1
    return a[:i] + b[j:]


def _free_ops(spec: GroupSpec) -> tuple:
    # letters are nonzero, so _int_key puts letter i before its inverse -i
    return (
        _free_concat,
        lambda g: tuple(map(neg, reversed(g))),
        len,
        lambda g: tuple(map(_int_key, g)),
    )


def _dih_ops(spec: GroupSpec) -> tuple:
    # (n, f) is x^n t^f, and t x^k = x^-k t
    return (
        lambda a, b: (a[0] - b[0] if a[1] else a[0] + b[0], a[1] ^ b[1]),
        lambda g: (g[0], 1) if g[1] else (-g[0], 0),
        lambda g: abs(g[0]) + g[1],
        lambda g: (_int_key(g[0]), g[1]),
    )


def _cyclic_ops(spec: GroupSpec) -> tuple:
    n = spec.modulus
    half = n // 2
    return (
        lambda a, b: (a + b) % n,
        lambda g: (-g) % n,
        (lambda g: min(g, n - g)) if n > 1 else (lambda g: 0),
        lambda g: _int_key(g if g <= half else g - n),
    )


def _product_ops(spec: GroupSpec) -> tuple:
    a, b = spec.factors
    mul_a, inv_a, len_a, key_a = a.mul, a.inv, a.length, a.skey
    mul_b, inv_b, len_b, key_b = b.mul, b.inv, b.length, b.skey
    return (
        lambda x, y: (mul_a(x[0], y[0]), mul_b(x[1], y[1])),
        lambda g: (inv_a(g[0]), inv_b(g[1])),
        lambda g: len_a(g[0]) + len_b(g[1]),
        lambda g: (key_a(g[0]), key_b(g[1])),
    )


_ARITHMETIC = {
    "free_abelian": _free_abelian_ops,
    "free": _free_ops,
    "dih_inf": _dih_ops,
    "cyclic": _cyclic_ops,
    "product": _product_ops,
}


def free_abelian(rank: int) -> GroupSpec:
    if rank < 1:
        raise UnsupportedRankError(f"Z^{rank}: rank must be >= 1")
    return GroupSpec("free_abelian", rank=rank)


def free_group(rank: int) -> GroupSpec:
    if rank < 1:
        raise UnsupportedRankError(f"F({rank}): rank must be >= 1")
    if rank > len(_LETTERS):
        raise UnsupportedRankError(f"F({rank}): at most {len(_LETTERS)} letters supported")
    return GroupSpec("free", rank=rank)


def dih_inf() -> GroupSpec:
    return GroupSpec("dih_inf")


def cyclic(n: int) -> GroupSpec:
    if n < 1:
        raise UnsupportedRankError(f"Zmod({n}): modulus must be >= 1")
    return GroupSpec("cyclic", modulus=n)


def product(a: GroupSpec, b: GroupSpec) -> GroupSpec:
    return GroupSpec("product", factors=(a, b))


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


def _parse_spec(text: str, pos: int) -> tuple[GroupSpec, int]:
    pos = _skip_ws(text, pos)
    if text.startswith("product", pos):
        pos += len("product")
        pos = _skip_ws(text, pos)
        if pos >= len(text) or text[pos] != "(":
            raise GroupParseError(text, pos, "expected '(' after product")
        a, pos = _parse_spec(text, pos + 1)
        pos = _skip_ws(text, pos)
        if pos >= len(text) or text[pos] != ",":
            raise GroupParseError(text, pos, "expected ',' between product factors")
        b, pos = _parse_spec(text, pos + 1)
        pos = _skip_ws(text, pos)
        if pos >= len(text) or text[pos] != ")":
            raise GroupParseError(text, pos, "expected ')' closing product")
        return product(a, b), pos + 1
    if text.startswith("DihInf", pos):
        return dih_inf(), pos + len("DihInf")
    if text.startswith("Zmod", pos):
        pos += len("Zmod")
        pos = _skip_ws(text, pos)
        if pos >= len(text) or text[pos] != "(":
            raise GroupParseError(text, pos, "expected '(' after Zmod")
        n, pos = _parse_int(text, _skip_ws(text, pos + 1))
        pos = _skip_ws(text, pos)
        if pos >= len(text) or text[pos] != ")":
            raise GroupParseError(text, pos, "expected ')' closing Zmod")
        return cyclic(n), pos + 1
    if text.startswith("Z", pos):
        pos += 1
        if pos < len(text) and text[pos] == "^":
            n, pos = _parse_int(text, pos + 1)
            return free_abelian(n), pos
        return free_abelian(1), pos
    if text.startswith("F", pos):
        pos += 1
        pos = _skip_ws(text, pos)
        if pos >= len(text) or text[pos] != "(":
            raise GroupParseError(text, pos, "expected '(' after F")
        n, pos = _parse_int(text, _skip_ws(text, pos + 1))
        pos = _skip_ws(text, pos)
        if pos >= len(text) or text[pos] != ")":
            raise GroupParseError(text, pos, "expected ')' closing F")
        return free_group(n), pos + 1
    raise GroupParseError(text, pos, "expected one of Z, Z^n, F(n), DihInf, Zmod(n), product")


# ---------------------------------------------------------------------------
# element arithmetic

def identity(spec: GroupSpec) -> Element:
    if spec.kind == "free_abelian":
        return 0 if spec.rank == 1 else (0,) * spec.rank
    if spec.kind == "free":
        return ()
    if spec.kind == "dih_inf":
        return (0, 0)
    if spec.kind == "cyclic":
        return 0
    return (identity(spec.factors[0]), identity(spec.factors[1]))


def validate(spec: GroupSpec, g: Element) -> Element:
    """Check that g is in normal form for spec; return it unchanged."""
    ok = True
    if spec.kind == "free_abelian":
        if spec.rank == 1:
            ok = isinstance(g, int) and not isinstance(g, bool)
        else:
            ok = (
                isinstance(g, tuple)
                and len(g) == spec.rank
                and all(isinstance(c, int) and not isinstance(c, bool) for c in g)
            )
    elif spec.kind == "free":
        ok = isinstance(g, tuple) and all(
            isinstance(l, int) and l != 0 and abs(l) <= spec.rank for l in g
        )
        if ok:
            ok = all(g[i] != -g[i + 1] for i in range(len(g) - 1))
    elif spec.kind == "dih_inf":
        ok = (
            isinstance(g, tuple)
            and len(g) == 2
            and isinstance(g[0], int)
            and g[1] in (0, 1)
        )
    elif spec.kind == "cyclic":
        ok = isinstance(g, int) and not isinstance(g, bool) and 0 <= g < spec.modulus
    elif spec.kind == "product":
        ok = isinstance(g, tuple) and len(g) == 2
        if ok:
            validate(spec.factors[0], g[0])
            validate(spec.factors[1], g[1])
    if not ok:
        raise MalformedElementError(f"{g!r} is not a normal form for {spec.label()}")
    return g


def multiply(spec: GroupSpec, a: Element, b: Element) -> Element:
    return spec.mul(a, b)


def invert(spec: GroupSpec, g: Element) -> Element:
    return spec.inv(g)


def conjugate(spec: GroupSpec, a: Element, h: Element) -> Element:
    """h^-1 a h."""
    return spec.mul(spec.mul(spec.inv(h), a), h)


def word_length(spec: GroupSpec, g: Element) -> int:
    return spec.length(g)


@lru_cache(maxsize=None)
def generators(spec: GroupSpec) -> tuple:
    if spec.kind == "free_abelian":
        if spec.rank == 1:
            return (1, -1)
        gens = []
        for i in range(spec.rank):
            e = tuple(1 if j == i else 0 for j in range(spec.rank))
            gens.append(e)
            gens.append(tuple(-c for c in e))
        return tuple(gens)
    if spec.kind == "free":
        gens = []
        for i in range(1, spec.rank + 1):
            gens.append((i,))
            gens.append((-i,))
        return tuple(gens)
    if spec.kind == "dih_inf":
        return ((1, 0), (-1, 0), (0, 1))
    if spec.kind == "cyclic":
        n = spec.modulus
        if n == 1:
            return ()
        if n == 2:
            return (1,)
        return (1, n - 1)
    a, b = spec.factors
    ia, ib = identity(a), identity(b)
    gens = [(s, ib) for s in generators(a)]
    gens += [(ia, s) for s in generators(b)]
    return tuple(gens)


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
# serialization (round-trips through parse_element)

def serialize(spec: GroupSpec, g: Element) -> str:
    validate(spec, g)
    if spec.kind == "free_abelian":
        if spec.rank == 1:
            return str(g)
        return "(" + ",".join(str(c) for c in g) + ")"
    if spec.kind == "cyclic":
        return str(g)
    if spec.kind == "free":
        if not g:
            return "1"
        return " ".join(_power_tokens(g))
    if spec.kind == "dih_inf":
        n, f = g
        parts = []
        if n != 0:
            parts.append("x" if n == 1 else f"x^{n}")
        if f:
            parts.append("t")
        return " ".join(parts) if parts else "1"
    return f"({serialize(spec.factors[0], g[0])},{serialize(spec.factors[1], g[1])})"


def _power_tokens(word: tuple) -> list[str]:
    out = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        letter = _LETTERS[abs(word[i]) - 1]
        exp = (j - i) if word[i] > 0 else -(j - i)
        out.append(letter if exp == 1 else f"{letter}^{exp}")
        i = j
    return out


def parse_element(spec: GroupSpec, text: str) -> Element:
    text = text.strip()
    if spec.kind == "product" or (spec.kind == "free_abelian" and spec.rank > 1):
        return _parse_tuple_element(spec, text)
    if spec.kind == "free_abelian":  # rank 1
        try:
            return int(text)
        except ValueError:
            raise MalformedElementError(f"expected an integer for Z, got {text!r}")
    if spec.kind == "cyclic":
        try:
            return int(text) % spec.modulus
        except ValueError:
            raise MalformedElementError(f"expected an integer for {spec.label()}, got {text!r}")
    # word kinds: evaluate the product of tokens
    g = identity(spec)
    if text == "1" or text == "":
        return g
    for token in text.split():
        g = multiply(spec, g, _parse_word_token(spec, token))
    return g


def _parse_word_token(spec: GroupSpec, token: str) -> Element:
    if token == "1":
        return identity(spec)
    base, _, exp_text = token.partition("^")
    try:
        exp = int(exp_text) if exp_text else 1
    except ValueError:
        raise MalformedElementError(f"bad exponent in token {token!r}")
    if spec.kind == "dih_inf":
        if base == "x":
            return (exp, 0)
        if base == "t":
            return (0, exp % 2)
        raise MalformedElementError(f"unknown letter {base!r} for DihInf")
    if spec.kind == "free":
        idx = _LETTERS.find(base) + 1
        if idx == 0 or idx > spec.rank or len(base) != 1:
            raise MalformedElementError(f"unknown letter {base!r} for {spec.label()}")
        sign = 1 if exp > 0 else -1
        return (sign * idx,) * abs(exp)
    raise MalformedElementError(f"cannot parse token {token!r} for {spec.label()}")


def _parse_tuple_element(spec: GroupSpec, text: str) -> Element:
    if not (text.startswith("(") and text.endswith(")")):
        raise MalformedElementError(f"expected a parenthesized tuple, got {text!r}")
    inner = text[1:-1]
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(inner):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(inner[start:i])
            start = i + 1
    parts.append(inner[start:])
    if spec.kind == "free_abelian":
        if len(parts) != spec.rank:
            raise MalformedElementError(
                f"expected {spec.rank} coordinates, got {len(parts)} in {text!r}"
            )
        try:
            return tuple(int(p) for p in parts)
        except ValueError:
            raise MalformedElementError(f"non-integer coordinate in {text!r}")
    if len(parts) != 2:
        raise MalformedElementError(f"expected 2 components, got {len(parts)} in {text!r}")
    return (
        parse_element(spec.factors[0], parts[0]),
        parse_element(spec.factors[1], parts[1]),
    )


# ---------------------------------------------------------------------------
# balls

@dataclass
class Ball:
    group: GroupSpec
    radius: int
    elements: tuple  # breadth-first layer order, canonical tie-break inside layers
    lengths: dict = field(repr=False)
    words: dict = field(repr=False)  # element -> geodesic tuple of generator indices
    layers: list = field(repr=False)  # layers[r]: the elements of length r

    def __len__(self) -> int:
        return len(self.elements)

    def sphere(self, r: int) -> tuple:
        return self.layers[r] if 0 <= r < len(self.layers) else ()


class _BallCache:
    def __init__(self, spec: GroupSpec):
        self.spec = spec
        ident = identity(spec)
        self.layers = [(ident,)]
        self.lengths = {ident: 0}
        self.words = {ident: ()}
        self.total = 1

    def extend(self, radius: int, cap: int) -> None:
        spec = self.spec
        mul, skey = spec.mul, spec.skey
        gens = generators(spec)
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
    layers = cache.layers[: radius + 1]
    return Ball(
        group=spec,
        radius=radius,
        elements=tuple(itertools.chain.from_iterable(layers)),
        lengths=cache.lengths,
        words=cache.words,
        layers=layers,
    )


def sphere(spec: GroupSpec, r: int, cap: int = DEFAULT_BALL_CAP) -> tuple:
    """Elements of word length exactly r, in canonical order."""
    layers = _extended(spec, r, cap).layers
    return layers[r] if r < len(layers) else ()


def conjugacy_window(spec: GroupSpec, a: Element, radius: int, cap: int = DEFAULT_BALL_CAP) -> tuple:
    """All conjugates h^-1 a h with h in the radius ball, canonically ordered."""
    validate(spec, a)
    out = set()
    for h in ball(spec, radius, cap).elements:
        out.add(conjugate(spec, a, h))
    return canonical_sorted(spec, out)


def geodesic_word(spec: GroupSpec, g: Element, cap: int = DEFAULT_BALL_CAP) -> tuple:
    """Generator indices of one geodesic spelling of g."""
    r = word_length(spec, g)
    return ball(spec, r, cap).words[g]
