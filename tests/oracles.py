"""Independent reference implementations used to pin expected values.

Everything here recomputes results from first principles, with deliberately
different algorithms than the package (affine maps instead of normal-form
arithmetic, repeated-scan reduction instead of a stack, plain dict BFS
instead of the cached ball object, exhaustive product search instead of
backtracking).  Tests compare the package output against these.
"""

from __future__ import annotations

import itertools

from coarsekit import groups
from coarsekit.actions import BATTERY_SHAPES, translates_family
from coarsekit.errors import MalformedElementError, SearchFailureError, WindowOverflowError
from coarsekit.families import (
    ParamFamily,
    Reading,
    ceil_half,
    finite_family,
    refines,
    shape_translate_family,
    star_family,
    translate_pair_family,
)
from coarsekit.maps import Certificate
from coarsekit.structures import LeftGroupStructure, RightGroupStructure, membership_window


# ---------------------------------------------------------------------------
# infinite dihedral group as affine maps z -> n + (-1)^f z

def dih_affine(el):
    n, f = el
    return lambda z: n + (-1) ** f * z


def dih_from_affine(fn):
    n = fn(0)
    step = fn(1) - fn(0)
    assert step in (1, -1)
    return (n, 0 if step == 1 else 1)


def dih_mul(a, b):
    fa, fb = dih_affine(a), dih_affine(b)
    return dih_from_affine(lambda z: fa(fb(z)))


def dih_inv(a):
    fa = dih_affine(a)
    # solve fa(w) = z for w
    n, f = a
    if f == 0:
        return dih_from_affine(lambda z: z - n)
    return dih_from_affine(lambda z: n - z)


# ---------------------------------------------------------------------------
# free group on two letters, elements as tuples of nonzero ints

def free_reduce(letters):
    """Scan repeatedly for adjacent cancelling pairs until none remain."""
    word = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            if word[i] == -word[i + 1]:
                del word[i:i + 2]
                changed = True
                break
    return tuple(word)


def free_mul(a, b):
    return free_reduce(tuple(a) + tuple(b))


def free_inv(a):
    return tuple(-s for s in reversed(a))


# ---------------------------------------------------------------------------
# naive ball BFS: dict of distances, no ordering cleverness

_TABLES = {
    "Z": (lambda a, b: a + b, lambda a: -a, 0, (1, -1)),
    "Z2": (
        lambda a, b: (a[0] + b[0], a[1] + b[1]),
        lambda a: (-a[0], -a[1]),
        (0, 0),
        ((1, 0), (-1, 0), (0, 1), (0, -1)),
    ),
    "DIH": (dih_mul, dih_inv, (0, 0), ((1, 0), (-1, 0), (0, 1))),
    "F2": (free_mul, free_inv, (), ((1,), (-1,), (2,), (-2,))),
    "Z6": (lambda a, b: (a + b) % 6, lambda a: (-a) % 6, 0, (1, 5)),
}


def naive_ball(kind: str, radius: int) -> dict:
    """Map element -> word length for the ball of the given radius."""
    mul, _inv, identity, gens = _TABLES[kind]
    dist = {identity: 0}
    frontier = [identity]
    for r in range(1, radius + 1):
        nxt = []
        for g in frontier:
            for s in gens:
                h = mul(g, s)
                if h not in dist:
                    dist[h] = r
                    nxt.append(h)
        frontier = nxt
    return dist


def naive_conjugacy_window(kind: str, a, radius: int) -> set:
    mul, inv, _identity, _gens = _TABLES[kind]
    return {mul(inv(h), mul(a, h)) for h in naive_ball(kind, radius)}


def ref_ball(spec, radius: int) -> tuple:
    """(layers, words) of the ball by breadth-first search with a seen-set.

    Each frontier is walked in canonical order and each element tries the
    generators in index order; the first (parent, generator) pair to reach
    an element spells its word.  No word length is read, so this also checks
    that the package's closed-form lengths are exact."""
    gens = spec.generators()
    one = spec.identity()
    layers, words = [(one,)], {one: ()}
    for _ in range(radius):
        new = {}
        for g in layers[-1]:
            for i, s in enumerate(gens):
                h = spec.mul(g, s)
                if h not in words and h not in new:
                    new[h] = words[g] + (i,)
        layers.append(tuple(sorted(new, key=spec.skey)))
        words.update(new)
    return layers, words


# ---------------------------------------------------------------------------
# star of a set against a family, straight from the definition

def naive_star(block, members) -> set:
    out = set(block)
    for m in members:
        if set(m) & set(block):
            out |= set(m)
    return out


# ---------------------------------------------------------------------------
# witness sets, straight from the definition

def naive_witness(side: str, mul, inv, members) -> set:
    out = set()
    for m in members:
        for u in m:
            for v in m:
                if side == "left":
                    out.add(mul(inv(u), v))
                else:
                    out.add(mul(v, inv(u)))
    return out


def ref_member_witness(side: str, spec, member) -> set:
    """The witness of one member with every ordered pair multiplied, the
    diagonal and both orders of each pair included."""
    mul, inv = spec.mul, spec.inv
    out = set()
    for u in member:
        iu = inv(u)
        if side == "left":
            out.update([mul(iu, v) for v in member])
        else:
            out.update([mul(v, iu) for v in member])
    return out


def ref_membership_window(side: str, spec, pf, radius: int) -> tuple:
    """(verdict, trace, elements) of a family in the left or right structure
    on spec, one member at a time: each distinct member, keyed as a
    frozenset, contributes its ``ref_member_witness`` once.  Elements are in
    canonical order on PASS and a frozenset on FAIL, as membership_window
    gives them."""
    seen: set = set()
    witness: set = set()
    trace = {}
    for r in range(radius + 1):
        for m in pf.grow(r):
            m = frozenset(m)
            if m not in seen:
                seen.add(m)
                witness |= ref_member_witness(side, spec, m)
        trace[r] = len(witness)
    if Reading(trace, radius).stable:
        return "PASS", trace, groups.canonical_sorted(spec, witness)
    return "FAIL", trace, frozenset(witness)


def ref_snapshot_window(side: str, spec, snapshot, radius: int) -> tuple:
    """(verdict, trace, elements) of the family whose members at radius r
    are ``snapshot(r)``, read as whole families: each radius adds the
    ``ref_member_witness`` of every member not in the snapshot before it.
    A snapshot that drops a member fails an assertion, since no family may
    shrink.  Elements are given as ``ref_membership_window`` gives them."""
    prev: set = set()
    witness: set = set()
    trace = {}
    for r in range(radius + 1):
        cur = {frozenset(m) for m in snapshot(r)}
        assert prev <= cur, f"snapshot loses a member at radius {r}"
        for m in cur - prev:
            witness |= ref_member_witness(side, spec, m)
        prev = cur
        trace[r] = len(witness)
    if Reading(trace, radius).stable:
        return "PASS", trace, groups.canonical_sorted(spec, witness)
    return "FAIL", trace, frozenset(witness)


# ---------------------------------------------------------------------------
# exhaustive search for compatible partial maps on integer windows

def brute_betas(td, radius: int, pin: int = 0) -> list:
    """All integer tables on the ball satisfying the two transfer conditions.

    Grows the domain one radius at a time, rechecking every pair of the
    extended table each step.  Any valid table restricts to a valid table
    on the smaller ball, so this enumerates exactly the full solution set.
    Candidate values are bounded by the largest c-set entry times the
    radius, which covers every table the package search can produce.
    """
    cmax = 1
    for key, out in td.c_table.items():
        for h in out:
            cmax = max(cmax, abs(h))
    bound = abs(pin) + cmax * radius
    pool = range(-bound, bound + 1)

    def ok(beta):
        xs = list(beta)
        for u in xs:
            for v in xs:
                diff = v - u
                hdiff = beta[v] - beta[u]
                for key, out in td.c_table.items():
                    if diff in key and hdiff not in out:
                        return False
                for key, out in td.d_table.items():
                    if hdiff in key and diff not in out:
                        return False
        return True

    solutions = [{0: pin}] if ok({0: pin}) else []
    for r in range(1, radius + 1):
        extended = []
        for base in solutions:
            for va, vb in itertools.product(pool, repeat=2):
                beta = dict(base)
                beta[r] = va
                beta[-r] = vb
                if ok(beta):
                    extended.append(beta)
        solutions = extended
    dom = sorted(range(-radius, radius + 1), key=lambda n: (abs(n), n))
    solutions.sort(key=lambda b: tuple(b[x] for x in dom))
    return solutions


# ---------------------------------------------------------------------------
# induced contributions by scanning the acting ball (bounded translates)
#
# This is the scan engine: the covers of a point come from applying every
# element of Ball(acting_radius) to U, point by point, and every element of
# the pool is tried as the centre, the first of least cost winning.  Group
# arithmetic comes from the package; the search does not.

def _acting_radius(struct, points) -> int:
    mesh = max((struct.space.extent(u) for u in struct.U), default=0)
    return max(struct.space.extent(y) for y in points) + mesh + struct.slack


def scan_covers(struct, y, acting_radius: int) -> tuple:
    action = struct.action
    return tuple(
        h for h in groups.ball(action.group, acting_radius).elements
        if y in {action.apply(h, u) for u in struct.U}
    )


def scan_centre_costs(struct, member: tuple) -> tuple:
    """The pool, the cost max_y min_h |g^-1 h| of every g in it, and the covers."""
    G = struct.action.group
    acting_radius = _acting_radius(struct, member)
    pool = groups.ball(G, acting_radius).elements
    covers = {y: scan_covers(struct, y, acting_radius) for y in member}
    costs = [
        max(
            min(groups.word_length(G, groups.multiply(G, groups.invert(G, g), h)) for h in covers[y])
            for y in member
        )
        for g in pool
    ]
    return pool, costs, covers


def scan_contribution(struct, member: tuple) -> frozenset:
    if not member:
        return frozenset()
    G = struct.action.group
    acting_radius = _acting_radius(struct, member)
    pool = groups.ball(G, acting_radius).elements
    covers = {}
    for y in member:
        hits = scan_covers(struct, y, acting_radius)
        if not hits:
            raise WindowOverflowError(
                f"{struct.label}: {struct.space.serialize(y)} not covered by translates of U "
                f"within acting radius {acting_radius}"
            )
        covers[y] = hits
    best_g = None
    best_cost = None
    for g in pool:
        ig = groups.invert(G, g)
        cost = 0
        for y in member:
            d = min(groups.word_length(G, groups.multiply(G, ig, h)) for h in covers[y])
            cost = max(cost, d)
            if best_cost is not None and cost >= best_cost:
                break
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_g = g
    ig = groups.invert(G, best_g)
    return frozenset(
        min((groups.multiply(G, ig, h) for h in covers[y]), key=lambda e: groups.sort_key(G, e))
        for y in member
    )


def scan_bounded_neighborhood(struct, y, mesh: int) -> tuple:
    G = struct.action.group
    hits = scan_covers(struct, y, _acting_radius(struct, (y,)))
    if not hits:
        raise WindowOverflowError(f"{struct.label}: {struct.space.serialize(y)} not covered")
    f0 = min(hits, key=lambda e: groups.sort_key(G, e))
    out = set()
    for g in groups.ball(G, mesh).elements:
        out.update(struct.action.apply(groups.multiply(G, g, f0), u) for u in struct.U)
    return tuple(sorted(out, key=struct.space.sort_key))


# ---------------------------------------------------------------------------
# translate-of-U questions by scanning the acting ball
#
# The package answers every "which h puts y in h.U" question from one index
# per (action, U), grown one sphere at a time.  These are the loops it
# replaced: each one applies the acting ball to U (or to x0) afresh.

def scan_covered_by(action, U, radius: int, c: int) -> bool:
    """window(r) inside Ball(r + c).U for every r <= radius."""
    space = action.space
    b = groups.ball(action.group, radius + c)
    cov: set = set()
    for s in range(radius + c + 1):
        for g in b.sphere(s):
            cov.update(action.apply_set(g, U))
        r = s - c
        if 0 <= r <= radius and not set(space.window(r)) <= cov:
            return False
    return True


def scan_cobounded_constant(action, U, radius: int, c_cap: int):
    for c in range(c_cap + 1):
        if scan_covered_by(action, U, radius, c):
            return c
    return None


def scan_orbit_constant(action, x0, radius: int, c_cap: int):
    """Least c <= c_cap with window(r) inside Ball(r + c).x0 for every r <= radius."""
    for c in range(c_cap + 1):
        ok = True
        for r in range(radius + 1):
            orbit = {action.apply(g, x0) for g in groups.ball(action.group, r + c).elements}
            if not set(action.space.window(r)) <= orbit:
                ok = False
                break
        if ok:
            return c
    return None


def scan_point_stabilizer(action, x0, radius: int) -> tuple:
    """The g in Ball(radius) with g.x0 = x0, in ball order, and their size trace."""
    b = groups.ball(action.group, radius)
    stab, trace = [], {}
    for r in range(radius + 1):
        for g in b.sphere(r):
            if action.apply(g, x0) == x0:
                stab.append(g)
        trace[r] = len(stab)
    return tuple(stab), trace


def scan_stabilizer_window(action, U, radius: int) -> tuple:
    Uset = set(U)
    b = groups.ball(action.group, radius)
    hits = []
    trace = {}
    for r in range(radius + 1):
        for g in b.sphere(r):
            if Uset.intersection(action.apply_set(g, U)):
                hits.append(g)
        trace[r] = len(hits)
    return tuple(hits), trace


def scan_point_finite_trace(action, U, x, radius: int) -> dict:
    b = groups.ball(action.group, radius)
    trace = {}
    count = 0
    for r in range(radius + 1):
        for g in b.sphere(r):
            if x in action.apply_set(g, U):
                count += 1
        trace[r] = count
    return trace


def scan_cover_gap(action, other, U, s: int, gap_cap: int):
    """Least extra <= gap_cap with Ball(s).U under action inside
    Ball(s + extra).U under other, else None."""
    C: set = set()
    for g in groups.ball(action.group, s).elements:
        C.update(action.apply_set(g, U))
    cov: set = set()
    for extra in range(gap_cap + 1):
        for h in groups.ball(other.group, s + extra).elements:
            cov.update(other.apply_set(h, U))
        if C <= cov:
            return extra
    return None


def scan_selection(action_from, action_to, U, x0, table_radius: int, slack: int) -> dict:
    """For each h in the domain ball, the first g in ball order with h^-1.x0 in g.U."""
    Gf, Gt = action_from.group, action_to.group
    table = {}
    for h in groups.ball(Gf, table_radius).elements:
        p = action_from.apply(groups.invert(Gf, h), x0)
        search = groups.word_length(Gf, h) + slack
        found = None
        for g in groups.ball(Gt, search).elements:
            if p in action_to.apply_set(g, U):
                found = g
                break
        if found is None:
            raise SearchFailureError(
                f"no translate of U reaches {action_from.space.serialize(p)} "
                f"within radius {search}"
            )
        table[h] = found
    return table


# ---------------------------------------------------------------------------
# preimage questions by scanning the source window
#
# The package answers every "which x map to y" question from one fibre index
# per map, grown one sphere at a time.  These are the loops it replaced: each
# one applies the rule to a whole window afresh.

def scan_full_index(m, source_radius: int) -> dict:
    """Image value -> its preimages in window(source_radius), in window order."""
    index: dict = {}
    for x in m.source.space.window(source_radius):
        index.setdefault(m.rule(x), []).append(x)
    return index


def scan_preimage_member(m, member, source_radius: int) -> tuple:
    """The points of the source window(source_radius) over member, in window
    order."""
    target = set(member)
    return tuple(x for x in m.source.space.window(source_radius) if m.rule(x) in target)


def scan_proper_trace(m, U, radius: int) -> dict:
    """r -> how many x in the source window(r) have m(x) in U."""
    U = set(U)
    trace = {}
    count = 0
    for r in range(radius + 1):
        count += sum(1 for x in m.source.space.sphere(r) if m.rule(x) in U)
        trace[r] = count
    return trace


def ref_d_set(alpha, F, src_radius: int) -> tuple:
    """d(F) with its size trace, testing every pair of the source ball."""
    G = alpha.source.space.spec
    H = alpha.target.space.spec
    b = groups.ball(G, src_radius)
    Fset = set(F)
    images = {u: alpha.rule(u) for u in b.elements}
    vals: set = set()
    trace: dict = {}
    seen: list = []
    for r in range(src_radius + 1):
        fresh = list(b.sphere(r))
        for u in fresh:
            for v in seen + fresh:
                if groups.multiply(H, groups.invert(H, images[u]), images[v]) in Fset:
                    vals.add(groups.multiply(G, groups.invert(G, u), v))
                if groups.multiply(H, groups.invert(H, images[v]), images[u]) in Fset:
                    vals.add(groups.multiply(G, groups.invert(G, v), u))
        seen += fresh
        trace[r] = len(vals)
    return groups.canonical_sorted(G, vals), trace


def ref_c_set(alpha, F, src_radius: int) -> tuple:
    """c(F) with its size trace, testing every pair (u, v) with u in the
    source ball and v within max |f| of it; a value enters at |u|."""
    G = alpha.source.space.spec
    H = alpha.target.space.spec
    reach = max(groups.word_length(G, f) for f in F)
    b = groups.ball(G, src_radius)
    Fset = set(F)
    vals: set = set()
    trace: dict = {}
    for r in range(src_radius + 1):
        for u in b.sphere(r):
            for v in groups.ball(G, r + reach).elements:
                if groups.multiply(G, groups.invert(G, u), v) in Fset:
                    vals.add(groups.multiply(H, groups.invert(H, alpha.rule(u)), alpha.rule(v)))
        trace[r] = len(vals)
    return groups.canonical_sorted(H, vals), trace


# ---------------------------------------------------------------------------
# element arithmetic by string-kind dispatch
#
# The package binds one set of closures per GroupSpec.  These are the
# if-chains that did the same job per call, kept as the reference the
# closures must agree with.

def _ref_int_key(c: int) -> tuple:
    return (abs(c), 0 if c >= 0 else 1)


def _ref_free_concat(a: tuple, b: tuple) -> tuple:
    i = len(a)
    j = 0
    while i > 0 and j < len(b) and a[i - 1] == -b[j]:
        i -= 1
        j += 1
    return a[:i] + b[j:]


def ref_multiply(spec, a, b):
    if spec.kind == "free_abelian":
        if spec.rank == 1:
            return a + b
        return tuple(x + y for x, y in zip(a, b))
    if spec.kind == "free":
        return _ref_free_concat(a, b)
    if spec.kind == "dih_inf":
        n1, f1 = a
        n2, f2 = b
        return (n1 - n2 if f1 else n1 + n2, f1 ^ f2)
    if spec.kind == "cyclic":
        return (a + b) % spec.modulus
    return (
        ref_multiply(spec.factors[0], a[0], b[0]),
        ref_multiply(spec.factors[1], a[1], b[1]),
    )


def ref_invert(spec, g):
    if spec.kind == "free_abelian":
        if spec.rank == 1:
            return -g
        return tuple(-c for c in g)
    if spec.kind == "free":
        return tuple(-l for l in reversed(g))
    if spec.kind == "dih_inf":
        n, f = g
        return (n, 1) if f else (-n, 0)
    if spec.kind == "cyclic":
        return (-g) % spec.modulus
    return (ref_invert(spec.factors[0], g[0]), ref_invert(spec.factors[1], g[1]))


def ref_word_length(spec, g) -> int:
    if spec.kind == "free_abelian":
        if spec.rank == 1:
            return abs(g)
        return sum(abs(c) for c in g)
    if spec.kind == "free":
        return len(g)
    if spec.kind == "dih_inf":
        n, f = g
        return abs(n) + f
    if spec.kind == "cyclic":
        return min(g, spec.modulus - g) if spec.modulus > 1 else 0
    return ref_word_length(spec.factors[0], g[0]) + ref_word_length(spec.factors[1], g[1])


def _ref_structural_key(spec, g) -> tuple:
    if spec.kind == "free_abelian":
        if spec.rank == 1:
            return _ref_int_key(g)
        return tuple(_ref_int_key(c) for c in g)
    if spec.kind == "free":
        return tuple((abs(l), 0 if l > 0 else 1) for l in g)
    if spec.kind == "dih_inf":
        n, f = g
        return (_ref_int_key(n), f)
    if spec.kind == "cyclic":
        n = spec.modulus
        s = g if g <= n // 2 else g - n
        return _ref_int_key(s)
    return (
        _ref_structural_key(spec.factors[0], g[0]),
        _ref_structural_key(spec.factors[1], g[1]),
    )


def ref_sort_key(spec, g) -> tuple:
    return (ref_word_length(spec, g), _ref_structural_key(spec, g))


# ---------------------------------------------------------------------------
# identity, generators, label, normal forms and text by string-kind dispatch
#
# Each kind is one GroupSpec subclass in the package.  These are the
# if-chains that did the same job for every kind, kept as the reference the
# per-kind methods must agree with, down to the exception raised on bad input.

_REF_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def ref_label(spec) -> str:
    if spec.kind == "free_abelian":
        return "Z" if spec.rank == 1 else f"Z^{spec.rank}"
    if spec.kind == "free":
        return f"F({spec.rank})"
    if spec.kind == "dih_inf":
        return "DihInf"
    if spec.kind == "cyclic":
        return f"Zmod({spec.modulus})"
    return f"product({ref_label(spec.factors[0])},{ref_label(spec.factors[1])})"


def ref_identity(spec):
    if spec.kind == "free_abelian":
        return 0 if spec.rank == 1 else (0,) * spec.rank
    if spec.kind == "free":
        return ()
    if spec.kind == "dih_inf":
        return (0, 0)
    if spec.kind == "cyclic":
        return 0
    return (ref_identity(spec.factors[0]), ref_identity(spec.factors[1]))


def ref_validate(spec, g):
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
            ref_validate(spec.factors[0], g[0])
            ref_validate(spec.factors[1], g[1])
    if not ok:
        raise MalformedElementError(f"{g!r} is not a normal form for {ref_label(spec)}")
    return g


def ref_generators(spec) -> tuple:
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
    ia, ib = ref_identity(a), ref_identity(b)
    gens = [(s, ib) for s in ref_generators(a)]
    gens += [(ia, s) for s in ref_generators(b)]
    return tuple(gens)


def ref_serialize(spec, g) -> str:
    ref_validate(spec, g)
    if spec.kind == "free_abelian":
        if spec.rank == 1:
            return str(g)
        return "(" + ",".join(str(c) for c in g) + ")"
    if spec.kind == "cyclic":
        return str(g)
    if spec.kind == "free":
        if not g:
            return "1"
        return " ".join(_ref_power_tokens(g))
    if spec.kind == "dih_inf":
        n, f = g
        parts = []
        if n != 0:
            parts.append("x" if n == 1 else f"x^{n}")
        if f:
            parts.append("t")
        return " ".join(parts) if parts else "1"
    return f"({ref_serialize(spec.factors[0], g[0])},{ref_serialize(spec.factors[1], g[1])})"


def _ref_power_tokens(word: tuple) -> list:
    out = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        letter = _REF_LETTERS[abs(word[i]) - 1]
        exp = (j - i) if word[i] > 0 else -(j - i)
        out.append(letter if exp == 1 else f"{letter}^{exp}")
        i = j
    return out


def ref_parse_element(spec, text: str):
    text = text.strip()
    if spec.kind == "product" or (spec.kind == "free_abelian" and spec.rank > 1):
        return _ref_parse_tuple_element(spec, text)
    if spec.kind == "free_abelian":  # rank 1
        try:
            return int(text)
        except ValueError:
            raise MalformedElementError(f"expected an integer for Z, got {text!r}")
    if spec.kind == "cyclic":
        try:
            return int(text) % spec.modulus
        except ValueError:
            raise MalformedElementError(f"expected an integer for {ref_label(spec)}, got {text!r}")
    # word kinds: evaluate the product of tokens
    g = ref_identity(spec)
    if text == "1" or text == "":
        return g
    for token in text.split():
        g = ref_multiply(spec, g, _ref_parse_word_token(spec, token))
    return g


def _ref_parse_word_token(spec, token: str):
    if token == "1":
        return ref_identity(spec)
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
        idx = _REF_LETTERS.find(base) + 1
        if idx == 0 or idx > spec.rank or len(base) != 1:
            raise MalformedElementError(f"unknown letter {base!r} for {ref_label(spec)}")
        sign = 1 if exp > 0 else -1
        return (sign * idx,) * abs(exp)
    raise MalformedElementError(f"cannot parse token {token!r} for {ref_label(spec)}")


def _ref_parse_tuple_element(spec, text: str):
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
        ref_parse_element(spec.factors[0], parts[0]),
        ref_parse_element(spec.factors[1], parts[1]),
    )


# ---------------------------------------------------------------------------
# the group checks with every window computed: each battery element, both
# translation structures, and the column window upstairs in G x G


def _ref_battery(spec, radius: int) -> list:
    return [a for a in groups.ball(spec, ceil_half(radius)).elements if a != spec.identity()]


def ref_fc_test(spec, radius: int) -> Certificate:
    """``fc_test`` tracing the conjugacy window of every battery element."""
    mul, inv = spec.mul, spec.inv
    b = groups.ball(spec, radius)
    spheres = [[(inv(g), g) for g in b.sphere(r)] for r in range(radius + 1)]
    battery = _ref_battery(spec, radius)
    bound = 0
    for a in battery:
        seen: set = set()
        trace = {}
        for r, pairs in enumerate(spheres):
            seen.update([mul(mul(ig, a), g) for ig, g in pairs])
            trace[r] = len(seen)
        if not Reading(trace, radius).stable:
            return Certificate(
                check="fc",
                verdict="FAIL",
                radius=radius,
                data={
                    "group": spec.label(),
                    "witness": spec.serialize(a),
                    "trace": {str(r): n for r, n in trace.items()},
                },
                notes=[f"conjugacy window of {spec.serialize(a)} keeps growing"],
            )
        bound = max(bound, trace[radius])
    return Certificate(
        check="fc",
        verdict="PASS",
        radius=radius,
        data={"group": spec.label(), "classes_tested": len(battery), "largest_class": bound},
    )


def ref_compare_left_right(spec, radius: int) -> Certificate:
    """``compare_left_right`` evaluating {g, a*g} on the left and {g, g*a}
    on the right for every battery element, failing on whichever side
    grows first."""
    left = LeftGroupStructure(spec)
    right = RightGroupStructure(spec)
    space = left.space
    battery = _ref_battery(spec, radius)
    for a in battery:
        fam_left = translate_pair_family(space, a, "left")
        res_l = membership_window(left, fam_left, radius)
        fam_right = translate_pair_family(space, a, "right")
        res_r = membership_window(right, fam_right, radius)
        if res_l.bounded and res_r.bounded:
            continue
        if not res_l.bounded:
            failing, fail_pf, other_struct = res_l, fam_left, right
        else:
            failing, fail_pf, other_struct = res_r, fam_right, left
        other = membership_window(other_struct, fail_pf, radius)
        return Certificate(
            check="compare-left-right",
            verdict="DIFFER",
            radius=radius,
            data={
                "group": spec.label(),
                "witness": spec.serialize(a),
                "family": fail_pf.tag,
                "failing_structure": failing.structure,
                "growing_trace": {str(r): n for r, n in failing.trace.items()},
                "bounded_structure": other.structure,
                "bounded_witness": [
                    spec.serialize(g) for g in groups.canonical_sorted(spec, other.elements)
                ],
            },
            notes=[
                f"family {fail_pf.tag} grows in {failing.structure} "
                f"but is bounded in {other.structure}"
            ],
        )
    return Certificate(
        check="compare-left-right",
        verdict="EQUAL",
        radius=radius,
        data={"group": spec.label(), "elements_tested": len(battery)},
    )


def ref_column_window(spec, F: tuple, radius: int):
    """The column family F x {g}, g over the window, in the left structure
    of G x G, as ``multiplication_bornologous_check`` once evaluated it
    before each image family."""
    product_spec = groups.product(spec, spec)
    upstairs = LeftGroupStructure(product_spec)

    def grow(r: int):
        return (tuple((f, g) for f in F) for g in groups.sphere(spec, r))

    return membership_window(upstairs, ParamFamily(tag="column", space=upstairs.space, grow=grow),
                             radius)


def ref_multiplication_bornologous_check(spec, radius: int) -> Certificate:
    """``multiplication_bornologous_check`` evaluating each column family
    upstairs before its image, over the shape list with Ball(1) and Ball(2)
    appended even where they repeat a shape."""
    downstairs = LeftGroupStructure(spec)
    shapes = [(spec.identity(), s) for s in groups.ball(spec, 2).elements
              if s != spec.identity()]
    batteries = shapes + [groups.ball(spec, 1).elements, groups.ball(spec, 2).elements]
    first_failure = None
    checked = []
    for F in batteries:
        Ftag = "[" + ",".join(spec.serialize(f) for f in F) + "]"
        if not ref_column_window(spec, F, radius).bounded:
            return Certificate(
                check="multiplication-bornologous",
                verdict="FAIL",
                radius=radius,
                data={"group": spec.label(), "note": "test column family is not bounded upstairs",
                      "family": f"{{{Ftag} x {{g}}}}"},
            )
        images = shape_translate_family(downstairs.space, F, "right")
        down = membership_window(downstairs, images, radius)
        checked.append({"F": Ftag, "bounded": down.bounded})
        if not down.bounded:
            first_failure = down
            break
    comparison = ref_compare_left_right(spec, radius)
    data = {"group": spec.label()}
    if first_failure is not None:
        data["family"] = first_failure.family
        data["growing_trace"] = {str(r): n for r, n in first_failure.trace.items()}
    data.update(checked=checked, left_right_verdict=comparison.verdict,
                cross_check_agrees=(first_failure is None) == (comparison.verdict == "EQUAL"))
    if first_failure is not None:
        return Certificate(check="multiplication-bornologous", verdict="FAIL", radius=radius,
                           data=data, notes=["image family of a bounded column keeps growing"])
    return Certificate(check="multiplication-bornologous", verdict="PASS", radius=radius,
                       data=data)


def ref_action_law_error(action, depth: int = 3):
    """The first action-law error over every point of ``window(depth)``:
    identity at each point, then g1, g2 in Ball(depth) at each point; None
    if the law holds there."""
    ident = action.group.identity()
    pts = list(action.space.window(depth))
    for x in pts:
        if action.apply(ident, x) != x:
            return f"{action.name}: identity does not act trivially on {x!r}"
    elems = groups.ball(action.group, depth).elements
    for g1 in elems:
        for g2 in elems:
            g12 = action.group.mul(g1, g2)
            for x in pts:
                if action.apply(g12, x) != action.apply(g1, action.apply(g2, x)):
                    return f"{action.name}: action law fails at g1={g1!r}, g2={g2!r}, x={x!r}"
    return None


# ---------------------------------------------------------------------------
# the translate check with every translate built

CONTROLLED_ROUTE_RADIUS = 6  # the greatest radius of the controlled-set route


def _pieces_family(pf: ParamFamily) -> ParamFamily:
    """r -> the one and two point subsets of the members of pf at radius r."""

    def grow(r: int):
        return ((u, v) for m in pf.grow(r) for u in m for v in m)

    return ParamFamily(tag=f"pieces({pf.tag})", space=pf.space, grow=grow)


def ref_uniformly_bornologous_action_check(action, struct, radius: int, seed: int = 0) -> Certificate:
    """``uniformly_bornologous_action_check`` by its generic route for every
    pair: each battery family's translates over Ball(r), and the translated
    one and two point pieces at the controlled route's radius.  The package
    writes ``controlled_route_agrees`` as a fixed ``true``; this reference
    writes whether the two routes agree, so the reports are equal only
    while they do."""
    rb = min(radius, CONTROLLED_ROUTE_RADIUS)
    results = {}
    for pf in struct.default_battery(seed=seed, n_random=BATTERY_SHAPES):
        res_a = membership_window(struct, translates_family(action, pf, f"translates({pf.tag})"), radius)
        rb_pf = translates_family(action, _pieces_family(pf), f"controlled({pf.tag})")
        res_b = membership_window(struct, rb_pf, rb)
        agree = Reading({r: res_a.trace[r] for r in range(rb + 1)}, rb).stable == res_b.bounded
        data = {"action": action.name, "structure": struct.label}
        if not res_a.bounded:
            data.update(counterexample=res_a.to_json(), controlled_route_agrees=agree)
            return Certificate(check="uniformly-bornologous", verdict="FAIL", radius=radius, data=data)
        if not agree:
            data.update(family=pf.tag, note="direct and controlled-set routes disagree",
                        containment=True, direct=res_a.to_json(), controlled=res_b.to_json())
            return Certificate(check="uniformly-bornologous", verdict="FAIL", radius=radius, data=data)
        results[pf.tag] = {"direct": res_a.to_json(), "controlled_route_agrees": agree}
    return Certificate(check="uniformly-bornologous", verdict="PASS", radius=radius,
                       data={"action": action.name, "structure": struct.label, "families": results})


# ---------------------------------------------------------------------------
# the star refinement with every translate built

def ref_refines_star(action, U, radius: int):
    """pairs -> whether every pair sits in one star of the translates
    {g.U : g in Ball(radius)}, by the family route ``commuting_equivalence``
    once took: the translates as a canonical family, its star family with
    itself, and the pairs as a family asked to refine it."""
    space = action.space
    translates = finite_family(
        space,
        (action.apply_set(g, U) for g in groups.ball(action.group, radius).elements),
    )
    starred = star_family(translates, translates)
    return lambda pairs: refines(finite_family(space, pairs), starred)
