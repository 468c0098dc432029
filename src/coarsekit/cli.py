"""Command line front end.

Every subcommand prints one report (JSON by default, or an aligned text
table) and exits 0 when all checks pass, 1 when a check fails or the two
compared structures differ, and 2 on a usage or window error.  Reports
carry no timestamps and all randomness is seeded, so a rerun with the
same flags produces the same bytes.
"""

from __future__ import annotations

import itertools
import os
import sys
import types
from _json import encode_basestring_ascii as _quote

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
from .families import MIN_VERDICT_RADIUS, shape_translate_family, translate_pair_family
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


# ---------------------------------------------------------------------------
# small DSLs
#
# Read with str.partition, not re: a pattern is compiled on its first use in
# the process, which costs more than a whole parse.  A body ``.+`` is a
# nonempty text without a newline; an integer is ``\d+`` or ``-?\d+``, which
# int() alone would widen to "+2", " 2" and "1_0".

def _body(text: str) -> bool:
    return bool(text) and "\n" not in text


def _decimal(text: str, signed: bool = False) -> bool:
    return (text[1:] if signed and text.startswith("-") else text).isdecimal()


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
    head, _, body = text.partition(":")
    if head in ("translate-left", "translate-right") and _body(body):
        g = source.space.parse(body)
        return translation_map(source, g, side=head[len("translate-"):], target=target)
    if head == "power" and _decimal(body, signed=True):
        return power_map(source, target, int(body))
    if head == "floor-div" and _decimal(body):
        return floor_div_map(source, target, int(body))
    if head == "mod" and _decimal(body):
        return mod_map(source, target, int(body))
    if head == "constant" and _body(body):
        return constant_map(source, target, target.space.parse(body))
    raise GroupParseError(text, 0, f"unknown map {text!r}")


def parse_action_dsl(text: str) -> Action:
    text = text.strip()
    kind, _, body = text.partition("(")
    if kind not in ("left", "right", "trivial") or not body.endswith(")") or "\n" in body:
        raise GroupParseError(text, 0, "action must be left(...), right(...) or trivial(...)")
    body = body[:-1].strip()

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
        k, n = hom_part[:-1], hom_part[-1:]
        if n != "n" or not _decimal(k, signed=True) or src != groups.Z or tgt != groups.Z:
            raise GroupParseError(text, 0, f"unknown homomorphism {hom_part!r}")
        hom = power_hom(int(k))

    return left_translation(hom) if kind == "left" else right_translation(hom)


def parse_family_dsl(text: str, spec: groups.GroupSpec):
    space = GroupSpace(spec)
    head, _, body = text.strip().partition(":")
    kind, _, side = head.partition("-")
    if side in ("left", "right") and _body(body):
        if kind == "edge":
            return translate_pair_family(space, space.parse(body), side)
        if kind == "shape":
            shape = tuple(space.parse(p.strip()) for p in body.split(";"))
            return shape_translate_family(space, shape, side)
    raise GroupParseError(text, 0, f"unknown family {text!r}")


def _parse_set(text: str, space) -> tuple:
    U = tuple(space.parse(p.strip()) for p in groups.split_top_level(text) if p.strip())
    if not U:
        raise MalformedElementError(f"--set {text!r} names no element")
    return U


# ---------------------------------------------------------------------------
# report plumbing

def _config(args) -> dict:
    skip = {"format"}
    out = {}
    for k, v in vars(args).items():
        if k in skip or k.startswith("_"):
            continue
        out[k] = v
    return out


def _dumps(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for what a report
    holds: dicts with str keys, lists, str, int, bool and None.  An indented
    dump runs json's pure-Python encoder; this joins each container once."""
    if isinstance(value, str):
        return _quote(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict) and all(isinstance(k, str) for k in value):
        items = (f"{_quote(k)}: {_dumps(v, inner)}" for k, v in sorted(value.items()))
        return "{" + inner + ("," + inner).join(items) + indent + "}" if value else "{}"
    if isinstance(value, list):
        items = (_dumps(v, inner) for v in value)
        return "[" + inner + ("," + inner).join(items) + indent + "]" if value else "[]"
    raise TypeError(f"a report holds no {type(value).__name__}: {value!r}")


def _print_table(report: dict) -> None:
    import json

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
    """A family's Membership, reshaped like a certificate entry."""
    body = res.to_json()
    return {
        "check": "membership",
        "verdict": body.pop("verdict"),
        "radius": res.reading.radius,
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
        stab = stabilizer_window(action, U, args.radius)
        listed = [action.space.serialize(u) for u in U]
        data = {"U": listed, "size": stab.trace[args.radius], "trace": stab.to_json()}
        # a plain entry without notes, like a membership's (_result_check)
        checks.append({"check": "stabilizer", "verdict": stab.verdict, "radius": args.radius, "data": data})
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

_GROUP = ("--group", {"required": True})
_RADIUS = ("--radius", {"type": int, "default": 8})
_STRUCTURE = ("--structure", {"choices": ("left", "right"), "default": "left"})
_BASE = ("--base", {"help": "base point (default: the identity)"})

# flags every subcommand takes ahead of its own
_COMMON = [("--format", {"choices": ("json", "table"), "default": "json"}),
           ("--seed", {"type": int, "default": 0})]

# name -> (help, flags past _COMMON); the handler is cmd_<name>
SUBCOMMANDS = {
    "ball": ("word metric ball sizes", [
        _GROUP, _RADIUS, ("--cap", {"type": int, "default": groups.DEFAULT_BALL_CAP}),
        ("--list", {"action": "store_true", "help": "list the window elements"}),
    ]),
    "fc": ("do all conjugacy windows stabilize", [_GROUP, _RADIUS]),
    "compare-lr": ("left structure vs right structure", [_GROUP, _RADIUS]),
    "mult-born": ("is multiplication bornologous", [_GROUP, _RADIUS]),
    "witness": ("membership of one family", [
        _GROUP,
        ("--family", {"required": True, "help": "edge-left:ELT, edge-right:ELT, "
                      "shape-left:E1;E2, shape-right:E1;E2"}),
        _STRUCTURE, _RADIUS,
    ]),
    "map-check": ("bornologous and proper checks for a map", [
        ("--group", {"required": True, "help": "source group"}),
        ("--target", {"help": "target group (default: source)"}),
        ("--map", {"required": True}),
        ("--source-side", {"choices": ("left", "right"), "default": "left"}),
        ("--target-side", {"choices": ("left", "right"), "default": "left"}),
        _RADIUS,
        ("--equivalence", {"action": "store_true"}),
        ("--cover-distance", {"type": int, "default": 0}),
        ("--close-to", {"help": "second map to compare against"}),
    ]),
    "action-check": ("cobounded and translate checks", [
        ("--action", {"required": True}), _STRUCTURE,
        ("--set", {"help": "comma separated bounded set U"}), _RADIUS,
    ]),
    "svarc-milnor": ("full coarse action certificate", [
        ("--action", {"required": True}), _STRUCTURE, _BASE, _RADIUS,
    ]),
    "commuting": ("coarse inverse from two commuting actions", [
        ("--action1", {"default": "left(DihInf)"}), ("--action2", {"default": "right(DihInf)"}),
        ("--set", {"default": "1,t"}), _BASE, _RADIUS,
    ]),
    "gromov": ("transfer tables and beta window count", [
        ("--map", {"default": "power:2"}), _RADIUS,
        ("--enum-radius", {"type": int, "default": 2}), ("--pin", {"default": "0"}),
    ]),
    "demo-dihedral": ("the index-two copy of Z in DihInf", [
        ("--radius", {"type": int, "default": 16}),
    ]),
}


def read_argv(argv: list):
    """The namespace ``build_parser().parse_args(argv)`` returns, read off
    SUBCOMMANDS, or None unless argv is a subcommand name followed only by
    exact flags of it, each flag but a store_true one followed by a value not
    starting with "-".  None leaves argv to argparse: help, the version, usage
    errors, abbreviations, ``--flag=value``, negative numbers and ``--``.
    """
    if not argv or argv[0] not in SUBCOMMANDS:
        return None
    flags = dict(_COMMON + SUBCOMMANDS[argv[0]][1])
    given, tokens = {}, iter(argv[1:])
    for flag in tokens:
        kwargs = flags.get(flag)
        if kwargs is None:
            return None
        if kwargs.get("action") == "store_true":
            given[flag] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        try:
            value = kwargs.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        given[flag] = value
    if any(kwargs.get("required") and flag not in given for flag, kwargs in flags.items()):
        return None
    args = types.SimpleNamespace(_command=argv[0])
    for flag, kwargs in flags.items():
        default = kwargs.get("default", False if "action" in kwargs else None)
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, default))
    return args


def build_parser():
    """The parser for every subcommand; ``main`` builds it only for argv that
    ``read_argv`` declines."""
    # imported here: argparse imports gettext, whose first lookup imports
    # locale, and together they cost more than a well-formed call's parse
    import argparse

    parser = argparse.ArgumentParser(
        prog="coarsekit",
        description="window checks for coarse structures on finitely generated groups",
    )
    parser.add_argument("--version", action="version", version=f"coarsekit {__version__}")
    sub = parser.add_subparsers(dest="_command", required=True)
    for name, (help_text, flags) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in _COMMON + flags:
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    """Print one report for the command line argv; return its exit code.  A
    well-formed argv (``read_argv``) skips argparse, which parses the rest."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = read_argv(argv) or build_parser().parse_args(argv)
    report = {"tool": {"name": "coarsekit", "version": __version__}, "command": args._command}
    # read now, not at import, so a wrapper patched onto a cmd_* after import runs
    handler = globals()["cmd_" + args._command.replace("-", "_")]
    try:
        if args._command != "ball" and args.radius < MIN_VERDICT_RADIUS:
            raise WindowTooSmallError(f"{args._command} needs --radius {MIN_VERDICT_RADIUS} or more")
        checks, notes = handler(args)
    except CoarseKitError as exc:
        report["error"] = {"code": exc.code, "message": str(exc)}
        code = 2
    else:
        report.update(config=_config(args), checks=checks, notes=notes)
        ok = all(c.get("verdict", "PASS") in ("PASS", "EQUAL") for c in checks)
        code = 0 if ok else 1
    try:
        if args.format == "json":
            print(_dumps(report))
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
