"""Command line front end.

Every subcommand prints one report (JSON by default, or an aligned text
table) and exits 0 when all checks pass, 1 when a check fails or the two
compared structures differ, and 2 on a usage or window error.  Reports
carry no timestamps and all randomness is seeded, so a rerun with the
same flags produces the same bytes.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import sys

from . import __version__, groups
from .actions import (
    Action,
    cobounded_check,
    coarse_action_certificate,
    commuting_equivalence,
    identity_hom,
    inclusion_hom,
    left_translation,
    point_finite_check,
    power_hom,
    right_translation,
    stabilizer_window,
    trivial_action,
    uniformly_bornologous_action_check,
)
from .errors import (
    CoarseKitError,
    GroupParseError,
    MalformedElementError,
    SpaceMismatchError,
    WindowTooSmallError,
)
from .families import shape_translate_family, trace_stabilizes, translate_pair_family
from .group_checks import (
    compare_left_right,
    dihedral_demo,
    fc_test,
    multiplication_bornologous_check,
)
from .maps import (
    check_bornologous,
    check_close,
    check_coarsely_proper,
    constant_map,
    floor_div_map,
    identity_map,
    inclusion_z_to_dih,
    mod_map,
    negation_map,
    power_map,
    squaring_map,
    surjective_equivalence_check,
    translation_map,
)
from .spaces import GroupSpace, point_space
from .structures import (
    CoarseStructure,
    GroupStructure,
    LeftGroupStructure,
    membership_window,
)
from .transfer import (
    actions_commute_check,
    beta_window_check,
    build_transfer_data,
    enumerate_beta_windows,
)


# A verdict reads the final ceil(R/2) values of a size trace.  Below this
# radius that tail holds one value, so every trace would "stabilize".
MIN_VERDICT_RADIUS = 3


# ---------------------------------------------------------------------------
# small DSLs

def parse_map_dsl(text: str, source: CoarseStructure, target: CoarseStructure):
    text = text.strip()
    if text == "identity":
        return identity_map(source, target)
    if text == "negate":
        return negation_map(source, target)
    if text == "square":
        return squaring_map(source, target)
    if text == "inclusion":
        return inclusion_z_to_dih(source, target)
    m = re.fullmatch(r"translate-(left|right):(.+)", text)
    if m:
        g = source.space.parse(m.group(2))
        return translation_map(source, g, side=m.group(1), target=target)
    m = re.fullmatch(r"power:(-?\d+)", text)
    if m:
        return power_map(source, target, int(m.group(1)))
    m = re.fullmatch(r"floor-div:(\d+)", text)
    if m:
        return floor_div_map(source, target, int(m.group(1)))
    m = re.fullmatch(r"mod:(\d+)", text)
    if m:
        return mod_map(source, target, int(m.group(1)))
    m = re.fullmatch(r"constant:(.+)", text)
    if m:
        return constant_map(source, target, target.space.parse(m.group(1)))
    raise GroupParseError(text, 0, f"unknown map {text!r}")


def parse_action_dsl(text: str) -> Action:
    text = text.strip()
    m = re.fullmatch(r"(left|right|trivial)\((.*)\)", text)
    if not m:
        raise GroupParseError(text, 0, "action must be left(...), right(...) or trivial(...)")
    kind, body = m.group(1), m.group(2).strip()

    if kind == "trivial":
        if " on " not in body:
            raise GroupParseError(text, 0, "trivial action needs 'GROUP on SPACE'")
        gpart, spart = body.split(" on ", 1)
        spec = groups.parse_group_spec(gpart.strip())
        spart = spart.strip()
        space = point_space() if spart == "point" else GroupSpace(groups.parse_group_spec(spart))
        return trivial_action(spec, space)

    hom_part = None
    if " via " in body:
        body, hom_part = body.split(" via ", 1)
        hom_part = hom_part.strip()
    body = body.strip()
    if "->" in body:
        src_text, tgt_text = body.split("->", 1)
        src = groups.parse_group_spec(src_text.strip())
        tgt = groups.parse_group_spec(tgt_text.strip())
    else:
        src = tgt = groups.parse_group_spec(body)

    if hom_part is None or hom_part == "identity":
        if src != tgt:
            raise GroupParseError(text, 0, "a homomorphism is needed between different groups")
        hom = identity_hom(src)
    elif hom_part == "x^n":
        if src != groups.Z or tgt != groups.DIH:
            raise GroupParseError(text, 0, "x^n is the inclusion of Z into DihInf")
        hom = inclusion_hom()
    else:
        mk = re.fullmatch(r"(-?\d+)n", hom_part)
        if not mk or src != groups.Z or tgt != groups.Z:
            raise GroupParseError(text, 0, f"unknown homomorphism {hom_part!r}")
        hom = power_hom(int(mk.group(1)))

    return left_translation(hom) if kind == "left" else right_translation(hom)


def parse_family_dsl(text: str, spec: groups.GroupSpec):
    space = GroupSpace(spec)
    m = re.fullmatch(r"edge-(left|right):(.+)", text.strip())
    if m:
        return translate_pair_family(space, space.parse(m.group(2)), m.group(1))
    m = re.fullmatch(r"shape-(left|right):(.+)", text.strip())
    if m:
        shape = tuple(space.parse(p.strip()) for p in m.group(2).split(";"))
        return shape_translate_family(space, shape, m.group(1))
    raise GroupParseError(text, 0, f"unknown family {text!r}")


def _parse_set(text: str, space) -> tuple:
    U = tuple(space.parse(p.strip()) for p in groups.split_top_level(text) if p.strip())
    if not U:
        raise MalformedElementError(f"--set {text!r} names no element")
    return U


# ---------------------------------------------------------------------------
# report plumbing

def _config(args: argparse.Namespace) -> dict:
    skip = {"func", "format"}
    out = {}
    for k, v in vars(args).items():
        if k in skip or k.startswith("_"):
            continue
        out[k] = v
    return out


def _print_table(report: dict) -> None:
    print(f"coarsekit {report['tool']['version']}  command={report['command']}")
    if "error" in report:
        print(f"error [{report['error']['code']}]: {report['error']['message']}")
        return
    for k in sorted(report["config"]):
        print(f"  {k} = {report['config'][k]}")
    print()
    width = max((len(c["check"]) for c in report["checks"]), default=5)
    for c in report["checks"]:
        print(f"{c['check']:<{width}}  {c['verdict']:<6}  radius={c.get('radius', '-')}")
        data = c.get("data", {})
        for key in sorted(data):
            val = data[key]
            if isinstance(val, (dict, list)):
                val = json.dumps(val, sort_keys=True)
            if len(str(val)) > 100:
                val = str(val)[:97] + "..."
            print(f"  {key}: {val}")
    for note in report.get("notes", []):
        print(f"note: {note}")


def _result_check(res) -> dict:
    """Witness or counterexample, reshaped like a certificate entry."""
    body = res.to_json()
    return {
        "check": "membership",
        "verdict": body.pop("verdict"),
        "radius": max(res.trace) if res.trace else 0,
        "data": body,
    }


# ---------------------------------------------------------------------------
# subcommand handlers

def cmd_ball(args) -> tuple:
    spec = groups.parse_group_spec(args.group)
    b = groups.ball(spec, args.radius, cap=args.cap)
    layer_sizes = (len(b.sphere(r)) for r in range(args.radius + 1))
    sizes = {str(r): n for r, n in enumerate(itertools.accumulate(layer_sizes))}
    data = {"group": spec.label(), "sizes": sizes}
    if args.list or args.radius <= 3:
        data["window"] = [spec.serialize(g) for g in b.elements]
    return [{"check": "ball", "verdict": "PASS", "radius": args.radius, "data": data}], []


def cmd_fc(args) -> tuple:
    spec = groups.parse_group_spec(args.group)
    cert = fc_test(spec, args.radius)
    return [cert.to_json()], list(cert.notes)


def cmd_compare_lr(args) -> tuple:
    spec = groups.parse_group_spec(args.group)
    cert = compare_left_right(spec, args.radius)
    return [cert.to_json()], list(cert.notes)


def cmd_mult_born(args) -> tuple:
    spec = groups.parse_group_spec(args.group)
    cert = multiplication_bornologous_check(spec, args.radius)
    return [cert.to_json()], list(cert.notes)


def cmd_witness(args) -> tuple:
    spec = groups.parse_group_spec(args.group)
    struct = GroupStructure(spec, args.structure)
    pf = parse_family_dsl(args.family, spec)
    res = membership_window(struct, pf, args.radius)
    return [_result_check(res)], []


def cmd_map_check(args) -> tuple:
    src_spec = groups.parse_group_spec(args.group)
    tgt_spec = groups.parse_group_spec(args.target) if args.target else src_spec
    source = GroupStructure(src_spec, args.source_side)
    target = GroupStructure(tgt_spec, args.target_side)
    m = parse_map_dsl(args.map, source, target)
    notes = []
    if args.equivalence:
        # the equivalence check runs both map checks; report them from it
        eq = surjective_equivalence_check(
            m, args.radius, cover_distance=args.cover_distance, seed=args.seed
        )
        checks = [eq.data["bornologous"], eq.data["coarsely_proper"], eq.to_json()]
        notes.append(f"equivalence checked with cover distance {args.cover_distance}")
    else:
        born = check_bornologous(m, args.radius, seed=args.seed)
        checks = [born.to_json(), check_coarsely_proper(m, args.radius).to_json()]
    if args.close_to:
        other = parse_map_dsl(args.close_to, source, target)
        checks.append(check_close(m, other, args.radius).to_json())
    return checks, notes


def cmd_action_check(args) -> tuple:
    action = parse_action_dsl(args.action)
    checks = []
    notes = []
    cb = cobounded_check(action, args.radius)
    checks.append(cb.to_json())
    if isinstance(action.space, GroupSpace):
        struct = GroupStructure(action.space.spec, args.structure)
        ub = uniformly_bornologous_action_check(
            action, struct, args.radius, seed=args.seed
        )
        checks.append(ub.to_json())
    else:
        notes.append("translate check skipped: the space carries no group structure")
    if args.set is not None:
        U = _parse_set(args.set, action.space)
        stab, trace = stabilizer_window(action, U, args.radius)
        checks.append(
            {
                "check": "stabilizer",
                "verdict": "PASS" if trace_stabilizes(trace, args.radius) else "FAIL",
                "radius": args.radius,
                "data": {
                    "U": [action.space.serialize(u) for u in U],
                    "size": len(stab),
                    "trace": {str(r): n for r, n in trace.items()},
                },
            }
        )
        checks.append(point_finite_check(action, U, U[0], args.radius).to_json())
    return checks, notes


def cmd_svarc_milnor(args) -> tuple:
    action = parse_action_dsl(args.action)
    if not isinstance(action.space, GroupSpace):
        raise SpaceMismatchError(
            f"{action.name}: the acted-on space carries no group structure to certify against"
        )
    struct = GroupStructure(action.space.spec, args.structure)
    x0 = action.space.parse(args.base) if args.base else action.space.window(0)[0]
    cert = coarse_action_certificate(
        action, struct, x0, args.radius, seed=args.seed
    )
    return [cert.to_json()], list(cert.notes)


def cmd_commuting(args) -> tuple:
    a1 = parse_action_dsl(args.action1)
    a2 = parse_action_dsl(args.action2)
    U = _parse_set(args.set, a1.space)
    x0 = a1.space.parse(args.base) if args.base else a1.space.window(0)[0]
    cert = commuting_equivalence(a1, a2, U, x0, args.radius, seed=args.seed)
    return [cert.to_json()], list(cert.notes)


def cmd_gromov(args) -> tuple:
    src = LeftGroupStructure(groups.Z)
    tgt = LeftGroupStructure(groups.Z)
    alpha = parse_map_dsl(args.map, src, tgt)
    source, target = alpha.source.space, alpha.target.space
    td = build_transfer_data(alpha, args.radius, extended=True)
    pin = target.parse(args.pin)
    self_table = {x: alpha(x) for x in source.window(args.enum_radius)}
    self_check = beta_window_check(td, self_table, args.enum_radius)
    betas = enumerate_beta_windows(td, args.enum_radius, pin=pin)
    checks = [
        {
            "check": "transfer-data",
            "verdict": "PASS",
            "radius": args.radius,
            "data": td.to_json(),
        },
        self_check.to_json(),
        {
            "check": "beta-enumeration",
            "verdict": "PASS",
            "radius": args.enum_radius,
            "data": {
                "count": len(betas),
                "tables": [
                    {source.serialize(x): target.serialize(v)
                     for x, v in sorted(b.items(), key=lambda kv: source.sort_key(kv[0]))}
                    for b in betas
                ],
            },
        },
    ]
    notes = []
    if betas:
        cc = actions_commute_check(td, betas[0], args.enum_radius)
        checks.append(cc.to_json())
        notes.append("commutation checked on the first enumerated table")
    return checks, notes


def cmd_demo_dihedral(args) -> tuple:
    cert = dihedral_demo(args.radius, seed=args.seed)
    return [cert.to_json()], list(cert.notes)


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coarsekit",
        description="window checks for coarse structures on finitely generated groups",
    )
    parser.add_argument("--version", action="version", version=f"coarsekit {__version__}")
    sub = parser.add_subparsers(dest="_command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=handler)
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("--seed", type=int, default=0)
        return p

    p = add("ball", cmd_ball, help="word metric ball sizes")
    p.add_argument("--group", required=True)
    p.add_argument("--radius", type=int, default=8)
    p.add_argument("--cap", type=int, default=groups.DEFAULT_BALL_CAP)
    p.add_argument("--list", action="store_true", help="list the window elements")

    p = add("fc", cmd_fc, help="do all conjugacy windows stabilize")
    p.add_argument("--group", required=True)
    p.add_argument("--radius", type=int, default=8)

    p = add("compare-lr", cmd_compare_lr, help="left structure vs right structure")
    p.add_argument("--group", required=True)
    p.add_argument("--radius", type=int, default=8)

    p = add("mult-born", cmd_mult_born, help="is multiplication bornologous")
    p.add_argument("--group", required=True)
    p.add_argument("--radius", type=int, default=8)

    p = add("witness", cmd_witness, help="membership of one family")
    p.add_argument("--group", required=True)
    p.add_argument("--family", required=True,
                   help="edge-left:ELT, edge-right:ELT, shape-left:E1;E2, shape-right:E1;E2")
    p.add_argument("--structure", choices=("left", "right"), default="left")
    p.add_argument("--radius", type=int, default=8)

    p = add("map-check", cmd_map_check, help="bornologous and proper checks for a map")
    p.add_argument("--group", required=True, help="source group")
    p.add_argument("--target", help="target group (default: source)")
    p.add_argument("--map", required=True)
    p.add_argument("--source-side", choices=("left", "right"), default="left")
    p.add_argument("--target-side", choices=("left", "right"), default="left")
    p.add_argument("--radius", type=int, default=8)
    p.add_argument("--equivalence", action="store_true")
    p.add_argument("--cover-distance", type=int, default=0)
    p.add_argument("--close-to", help="second map to compare against")

    p = add("action-check", cmd_action_check, help="cobounded and translate checks")
    p.add_argument("--action", required=True)
    p.add_argument("--structure", choices=("left", "right"), default="left")
    p.add_argument("--set", help="comma separated bounded set U")
    p.add_argument("--radius", type=int, default=8)

    p = add("svarc-milnor", cmd_svarc_milnor, help="full coarse action certificate")
    p.add_argument("--action", required=True)
    p.add_argument("--structure", choices=("left", "right"), default="left")
    p.add_argument("--base", help="base point (default: the identity)")
    p.add_argument("--radius", type=int, default=8)

    p = add("commuting", cmd_commuting, help="coarse inverse from two commuting actions")
    p.add_argument("--action1", default="left(DihInf)")
    p.add_argument("--action2", default="right(DihInf)")
    p.add_argument("--set", default="1,t")
    p.add_argument("--base", help="base point (default: the identity)")
    p.add_argument("--radius", type=int, default=8)

    p = add("gromov", cmd_gromov, help="transfer tables and beta window count")
    p.add_argument("--map", default="power:2")
    p.add_argument("--radius", type=int, default=8)
    p.add_argument("--enum-radius", type=int, default=2)
    p.add_argument("--pin", default="0")

    p = add("demo-dihedral", cmd_demo_dihedral, help="the index-two copy of Z in DihInf")
    p.add_argument("--radius", type=int, default=16)

    return parser


def main(argv=None) -> int:
    """Print one report for the command line argv; return its exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    report = {"tool": {"name": "coarsekit", "version": __version__}, "command": args._command}
    try:
        if args.func is not cmd_ball and args.radius < MIN_VERDICT_RADIUS:
            raise WindowTooSmallError(f"{args._command} needs --radius {MIN_VERDICT_RADIUS} or more")
        checks, notes = args.func(args)
    except CoarseKitError as exc:
        report["error"] = {"code": exc.code, "message": str(exc)}
        code = 2
    else:
        report.update(config=_config(args), checks=checks, notes=notes)
        ok = all(c.get("verdict", "PASS") in ("PASS", "EQUAL") for c in checks)
        code = 0 if ok else 1
    try:
        if args.format == "json":
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            _print_table(report)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early (``| head``); point stdout at devnull so the
        # interpreter's flush at exit does not raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
