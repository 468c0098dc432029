"""Transfer data along a map and enumeration of compatible windows.

Given a map alpha between groups carrying their left structures, the
window of radius R collects two displacement tables:

* c(F), for finite F in the source: the target displacements
  alpha(u)^-1 * alpha(v) over pairs with u^-1 * v in F;
* d(F), for finite F in the target: the source displacements u^-1 * v
  over pairs whose image displacement alpha(u)^-1 * alpha(v) lies in F.

Each value is booked at the least radius of a pair giving it, which
yields the size trace of the set.  A pair related through F is related
through one f in F, so c(F) is the union of the c({f}) over f in F, and
d(F) that of the d({f}), each value at its least radius over them.

A greedy pass over the target ball produces a finite cover set E with
Ball_H(R) inside alpha(Ball_G(R')).E.

A beta window of radius r is a table Ball_G(r) -> H reproducing this
data:

  (1)  u^-1 * v in F         implies  beta(u)^-1 * beta(v) in c(F)
  (2)  beta(u)^-1 * beta(v) in F  implies  u^-1 * v in d(F)
  (3)  beta(1).Ball_H(r - mesh(E)) is covered by beta(Ball_G(r)).E

plus a pinned value at the identity.  The c table can be padded with
extra admissible displacements; enumeration then counts every table the
padded data allows under (1) and (2), by depth-first search along
geodesics.

The source group acts on beta windows by precomposition (shrinking the
domain), the target group by postcomposition; the two actions commute.
"""

from __future__ import annotations

from itertools import combinations

from . import groups
from .errors import (
    CoverFailureError,
    MalformedElementError,
    PreconditionError,
    ResourceLimitError,
    WindowOverflowError,
)
from .families import Reading, entry_trace
from .maps import Certificate, MapWindow, check_bornologous, check_coarsely_proper

DEFAULT_COVER_CAP = 64
DEFAULT_ENUM_CAP = 100000
COMMUTE_DEPTH = 1  # the radius of both acting balls in actions_commute_check

ALL_CONDITIONS = ("pin", "c", "d", "cover")


def _key_tag(spec: groups.GroupSpec, key: frozenset) -> str:
    elems = sorted(key, key=lambda g: groups.sort_key(spec, g))
    return "{" + ",".join(spec.serialize(g) for g in elems) + "}"


class TransferData:
    """Displacement tables, cover set, and the map they were read from."""

    def __init__(self, alpha: MapWindow, radius: int, c_table: dict, d_table: dict, cover: tuple):
        self.alpha = alpha
        self.radius = radius
        self.source_radius = alpha.source_radius(radius)
        self.c_table = dict(c_table)
        self.d_table = dict(d_table)
        self.cover = tuple(cover)

    @property
    def source_spec(self) -> groups.GroupSpec:
        return self.alpha.source.space.spec

    @property
    def target_spec(self) -> groups.GroupSpec:
        return self.alpha.target.space.spec

    def cover_mesh(self) -> int:
        return max((groups.word_length(self.target_spec, e) for e in self.cover), default=0)

    def padded(self, c_extra: dict) -> "TransferData":
        """New data with extra admissible c displacements merged per key."""
        c_table = dict(self.c_table)
        for key, vals in c_extra.items():
            key = frozenset(key)
            c_table[key] = groups.canonical_sorted(self.target_spec, (*c_table.get(key, ()), *vals))
        return TransferData(self.alpha, self.radius, c_table, self.d_table, self.cover)

    def to_json(self) -> dict:
        G, H = self.source_spec, self.target_spec
        return {
            "map": self.alpha.name,
            "radius": self.radius,
            "source_radius": self.source_radius,
            "c": {
                _key_tag(G, k): [H.serialize(v) for v in vals]
                for k, vals in sorted(self.c_table.items(), key=lambda kv: _key_tag(G, kv[0]))
            },
            "d": {
                _key_tag(H, k): [G.serialize(v) for v in vals]
                for k, vals in sorted(self.d_table.items(), key=lambda kv: _key_tag(H, kv[0]))
            },
            "cover": [H.serialize(e) for e in self.cover],
            "cover_mesh": self.cover_mesh(),
        }


def _require_coarse(alpha: MapWindow, radius: int) -> None:
    probe = min(radius, 6)
    if not check_bornologous(alpha, probe).passed:
        raise PreconditionError(f"{alpha.name}: transfer data needs a bornologous map")
    if not check_coarsely_proper(alpha, probe).passed:
        raise PreconditionError(f"{alpha.name}: transfer data needs a coarsely proper map")


def _c_singletons(alpha: MapWindow, pool, src_radius: int) -> dict:
    """f -> {value: least radius} of c({f}) for every f in the pool.

    One pass over the source ball reads alpha(u) once per u; the pair
    (u, u*f) enters the window at |u|, and the spheres come in order of
    radius, so the first radius booked for a value is its least."""
    G = alpha.source.space.spec
    H = alpha.target.space.spec
    mul_g, mul_h, inv_h = G.mul, H.mul, H.inv
    b = groups.ball(G, src_radius)
    tables = {f: {} for f in pool}
    for r in range(src_radius + 1):
        for u in b.sphere(r):
            iau = inv_h(alpha(u))
            for f, enters in tables.items():
                enters.setdefault(mul_h(iau, alpha(mul_g(u, f))), r)
    return tables


def _d_singletons(alpha: MapWindow, pool, src_radius: int) -> dict:
    """f -> {value: least radius} of d({f}) for every f in the pool.

    For u in the source ball, the v with alpha(v) = alpha(u)*f come from
    the map's fibres.  The pair (u, v) enters the window at max(|u|, |v|),
    so each value u^-1*v is booked at the least such radius."""
    G = alpha.source.space.spec
    mul_g, inv_g, length, mul_h = G.mul, G.inv, G.length, alpha.target.space.spec.mul
    fibre = alpha.fibres.get
    tables = {f: {} for f in pool}
    for u in groups.ball(G, src_radius).elements:
        au, iu, lu = alpha(u), inv_g(u), length(u)
        for f, enters in tables.items():
            for v in fibre(mul_h(au, f), src_radius):
                w, r = mul_g(iu, v), max(lu, length(v))
                if enters.get(w, r) >= r:
                    enters[w] = r
    return tables


def _union(tables: dict, key) -> dict:
    """value -> least radius over the singleton tables of the key's elements."""
    enters: dict = {}
    for f in key:
        for w, r in tables[f].items():
            if enters.get(w, r) >= r:
                enters[w] = r
    return enters


def compute_transfer_sets(alpha: MapWindow, F, radius: int) -> dict:
    """Both displacement sets of one key, with their stabilization traces.

    The key is read in the source for c and in the target for d, each only
    when it is made of normal forms of that group; a key of neither is refused."""
    G = alpha.source.space.spec
    H = alpha.target.space.spec
    in_g = all(G.is_normal(f) for f in F)
    in_h = all(H.is_normal(f) for f in F)
    if not (in_g or in_h):
        raise MalformedElementError(
            f"transfer key {sorted(map(repr, F))} holds elements of neither {G.label()} nor {H.label()}"
        )
    _require_coarse(alpha, radius)
    src_radius = alpha.source_radius(radius)
    rec: dict = {"key": groups.canonical_sorted(G if in_g else H, F)}
    # (half, group of the key, group of the values, singleton tables, key in its group)
    for half, keyed, valued, singletons, keyed_in in (
        ("c", G, H, _c_singletons, in_g), ("d", H, G, _d_singletons, in_h)
    ):
        vals, trace, stable = None, {}, None
        if keyed_in:
            key = groups.canonical_sorted(keyed, F)
            enters = _union(singletons(alpha, key, src_radius), key)
            vals = groups.canonical_sorted(valued, enters)
            trace = entry_trace(enters.values(), src_radius)
            stable = Reading(trace, src_radius).stable
        rec.update({half: vals, f"{half}_trace": trace, f"{half}_stable": stable})
    return rec


def compute_cover_constant(alpha: MapWindow, radius: int) -> tuple:
    """Greedy finite E with the target ball inside alpha(source ball).E.

    Walks the target ball in canonical order; y is covered when y.e^-1 is
    an image for some e in E, and an uncovered y contributes the least
    displacement alpha(u)^-1 * y over the source ball."""
    G = alpha.source.space.spec
    H = alpha.target.space.spec
    mul, inv = H.mul, H.inv
    images = {alpha(u) for u in groups.ball(G, alpha.source_radius(radius)).elements}
    inv_images = [inv(img) for img in images]
    E: list = []
    for y in groups.ball(H, radius).elements:
        if any(mul(y, inv(e)) in images for e in E):
            continue
        E.append(min({mul(iimg, y) for iimg in inv_images}, key=lambda d: groups.sort_key(H, d)))
        if len(E) > DEFAULT_COVER_CAP:
            raise CoverFailureError(
                f"{alpha.name}: cover set exceeded {DEFAULT_COVER_CAP} elements at radius {radius}"
            )
    return groups.canonical_sorted(H, E)


def default_key_battery(spec: groups.GroupSpec, extended: bool = False) -> list:
    """Key sets to tabulate: identity and generator singletons, and with
    extended on, all subsets of the 2-ball of size at most 3."""
    keys = [frozenset({spec.identity()})]
    keys += [frozenset({s}) for s in spec.generators()]
    if extended:
        pool = groups.ball(spec, 2).elements
        for size in (1, 2, 3):
            for combo in combinations(pool, size):
                keys.append(frozenset(combo))
    return list(dict.fromkeys(keys))


def _tabulate(alpha: MapWindow, valued: groups.GroupSpec, singletons, keys, src_radius: int) -> dict:
    """key -> the union of its elements' singleton tables, sorted in the
    group of the values; one singleton table per element of any key."""
    tables = singletons(alpha, {f for key in keys for f in key}, src_radius)
    return {key: groups.canonical_sorted(valued, _union(tables, key)) for key in keys}


def build_transfer_data(alpha: MapWindow, radius: int, extended: bool = False) -> TransferData:
    """Tabulate c over source keys and d over target keys, plus the cover.

    The keys are the identity and generator singletons of the respective
    group (all 2-ball subsets of size at most 3 when extended)."""
    G = alpha.source.space.spec
    H = alpha.target.space.spec
    _require_coarse(alpha, radius)
    src_radius = alpha.source_radius(radius)
    c_table = _tabulate(alpha, H, _c_singletons, default_key_battery(G, extended), src_radius)
    d_table = _tabulate(alpha, G, _d_singletons, default_key_battery(H, extended), src_radius)
    cover = compute_cover_constant(alpha, radius)
    return TransferData(alpha, radius, c_table, d_table, cover)


# ---------------------------------------------------------------------------
# beta windows

def beta_window_check(
    td: TransferData,
    beta: dict,
    radius: int,
    pin=None,
    conditions: tuple = ALL_CONDITIONS,
) -> Certificate:
    """Verify one table against the displacement conditions.

    ``pin`` is the required value at the source identity (the map's own
    value by default).  Reports a verdict per condition with the first
    violating pair; the cover condition compares the shrunk target ball,
    centred at beta(1), against beta(ball).E."""
    G, H = td.source_spec, td.target_spec
    mul_g, inv_g, mul_h, inv_h = G.mul, G.inv, H.mul, H.inv
    one = G.identity()
    pin = pin if pin is not None else td.alpha(one)
    dom = groups.ball(G, radius).elements
    failures = []

    missing = [x for x in dom if x not in beta]
    if missing:
        failures.append({"condition": "domain", "point": G.serialize(missing[0])})

    if not missing:
        if "pin" in conditions and beta[one] != pin:
            failures.append({"condition": "pin", "value": H.serialize(beta[one])})
        if "c" in conditions:
            for F, cvals in td.c_table.items():
                cset = set(cvals)
                for x in dom:
                    bx_inv = inv_h(beta[x])
                    for f in F:
                        y = mul_g(x, f)
                        if y in beta and mul_h(bx_inv, beta[y]) not in cset:
                            failures.append(
                                {"condition": "c", "key": _key_tag(G, F),
                                 "point": G.serialize(x), "step": G.serialize(f)}
                            )
        if "d" in conditions:
            for F, dvals in td.d_table.items():
                Fset = set(F)
                dset = set(dvals)
                for x in dom:
                    bx_inv = inv_h(beta[x])
                    ix = inv_g(x)
                    for y in dom:
                        if mul_h(bx_inv, beta[y]) in Fset:
                            if mul_g(ix, y) not in dset:
                                failures.append(
                                    {"condition": "d", "key": _key_tag(H, F),
                                     "pair": [G.serialize(x), G.serialize(y)]}
                                )
        if "cover" in conditions:
            mesh = td.cover_mesh()
            reach = set()
            for x in dom:
                for e in td.cover:
                    reach.add(mul_h(beta[x], e))
            if radius - mesh >= 0:
                centre = beta[one]
                for w in groups.ball(H, radius - mesh).elements:
                    w = mul_h(centre, w)
                    if w not in reach:
                        failures.append({"condition": "cover", "point": H.serialize(w)})
                        break

    per_condition = {name: "PASS" for name in conditions}
    for rec in failures:
        if rec["condition"] in per_condition:
            per_condition[rec["condition"]] = "FAIL"

    return Certificate(
        check="beta-window",
        verdict="PASS" if not failures else "FAIL",
        radius=radius,
        data={
            "map": td.alpha.name,
            "pin": H.serialize(pin),
            "conditions": per_condition,
            "failures": failures[:8],
            "n_failures": len(failures),
        },
    )


def enumerate_beta_windows(td: TransferData, radius: int, pin=None) -> list:
    """All tables of the given radius compatible with the displacement
    tables, found by DFS along geodesics.

    Candidate values at a new point come from the parent value times the
    c-set of the last geodesic step, so the search is complete whenever
    the c-table has entries for the generator singletons.  Tables are
    filtered by the c and d conditions only (the cover condition asks
    about the image, not the table) and reverified before returning.  The
    search refuses with ``ResourceLimitError`` (``resource-limit``) once
    it has expanded ``DEFAULT_ENUM_CAP`` candidates."""
    G, H = td.source_spec, td.target_spec
    one = G.identity()
    pin = pin if pin is not None else td.alpha(one)
    if radius > td.radius:
        raise PreconditionError("enumeration radius exceeds the transfer data radius")
    gens = G.generators()
    for s in gens:
        if frozenset({s}) not in td.c_table:
            raise PreconditionError(
                f"enumeration needs a c-table entry for the generator {G.serialize(s)}"
            )
    dom = groups.ball(G, radius).elements
    singleton_c = {s: td.c_table[frozenset({s})] for s in gens}
    steps = {x: groups.geodesic_parent(G, x) for x in dom[1:]}  # x -> (parent, letter)

    d_rules = [(set(F), set(dvals)) for F, dvals in td.d_table.items()]

    mul_g, inv_g, mul_h, inv_h = G.mul, G.inv, H.mul, H.inv

    def local_ok(x, value, assigned) -> bool:
        iv = inv_h(value)
        ix = inv_g(x)
        for F, cvals in td.c_table.items():
            cset = set(cvals)
            for f in F:
                y = mul_g(x, f)
                if y in assigned and mul_h(iv, assigned[y]) not in cset:
                    return False
                z = mul_g(x, inv_g(f))
                if z in assigned and mul_h(inv_h(assigned[z]), value) not in cset:
                    return False
        for y, w in assigned.items():
            out = mul_h(iv, w)
            back = mul_h(inv_h(w), value)
            for Fset, dset in d_rules:
                if out in Fset and mul_g(ix, y) not in dset:
                    return False
                if back in Fset and mul_g(inv_g(y), x) not in dset:
                    return False
        return True

    results: list = []
    expanded = 0

    def extend(idx: int, assigned: dict) -> None:
        nonlocal expanded
        if idx == len(dom):
            results.append(dict(assigned))
            return
        x = dom[idx]
        parent, letter = steps[x]
        base = assigned[parent]
        step_c = singleton_c[gens[letter]]
        for v in groups.canonical_sorted(H, (groups.multiply(H, base, c) for c in step_c)):
            expanded += 1
            if expanded > DEFAULT_ENUM_CAP:
                raise ResourceLimitError(f"beta enumeration exceeded {DEFAULT_ENUM_CAP} nodes")
            if local_ok(x, v, assigned):
                assigned[x] = v
                extend(idx + 1, assigned)
                del assigned[x]

    if local_ok(one, pin, {}):
        extend(1, {one: pin})

    verified = []
    for beta in results:
        cert = beta_window_check(td, beta, radius, pin=pin, conditions=("pin", "c", "d"))
        if cert.passed:
            verified.append(beta)
    verified.sort(key=lambda t: tuple(groups.sort_key(H, t[x]) for x in dom))
    return verified


# ---------------------------------------------------------------------------
# the two commuting actions on beta windows

def act_source(td: TransferData, g, beta: dict, radius: int) -> tuple:
    """(g.beta)(x) = beta(g*x); the domain shrinks by the length of g."""
    G = td.source_spec
    new_radius = radius - G.length(g)
    if new_radius < 0:
        raise WindowOverflowError("source action shrinks the domain below radius 0")
    mul = G.mul
    return {x: beta[mul(g, x)] for x in groups.ball(G, new_radius).elements}, new_radius


def act_target(td: TransferData, h, beta: dict) -> dict:
    """(h.beta)(x) = h*beta(x); the domain is unchanged."""
    mul = td.target_spec.mul
    return {x: mul(h, v) for x, v in beta.items()}


def actions_commute_check(td: TransferData, beta: dict, radius: int) -> Certificate:
    """Source precomposition and target postcomposition commute on beta."""
    G, H = td.source_spec, td.target_spec
    checked = 0
    for g in groups.ball(G, COMMUTE_DEPTH).elements:
        shrunk, new_radius = act_source(td, g, beta, radius)
        for h in groups.ball(H, COMMUTE_DEPTH).elements:
            one = act_target(td, h, shrunk)
            two, _ = act_source(td, g, act_target(td, h, beta), radius)
            if one != two:
                return Certificate(
                    check="beta-actions-commute",
                    verdict="FAIL",
                    radius=radius,
                    data={
                        "g": G.serialize(g),
                        "h": H.serialize(h),
                    },
                )
            checked += 1
    return Certificate(
        check="beta-actions-commute",
        verdict="PASS",
        radius=radius,
        data={"pairs_checked": checked, "g_depth": COMMUTE_DEPTH, "h_depth": COMMUTE_DEPTH},
    )
