"""The four benchmark workloads, each a list of operations made from a seed.

An operation is one call into a public entry point of coarsekit, run in a
fresh interpreter: either ``coarsekit.cli.main(argv)`` (``kind == "cli"``)
or one of the library recipes in ``child.LIBRARY_OPS`` (``kind == "lib"``).
The seed is passed as ``--seed`` to every CLI operation (every subcommand
accepts it) and picks the witness shapes of ``abelian-battery``.

Every CLI operation uses radius 8 or more and none runs ``action-check``:
the verdict-sufficiency rule planned for radii up to 4 and the stabilizer
rule of ``action-check`` may change those reports on purpose later, and the
frozen expectations must not fail for that.
"""

from __future__ import annotations

import random

WORKLOADS = ("readme-dihedral", "free-growth", "abelian-battery", "transfer-tables")

# Ball(2) of Z^2, the pool the seeded witness shapes are drawn from.
_Z2_BALL2 = [(a, b) for a in range(-2, 3) for b in range(-2, 3) if abs(a) + abs(b) <= 2]
WITNESS_OPS = 3


def _cli(*argv: str) -> dict:
    return {"kind": "cli", "argv": list(argv)}


def _lib(name: str) -> dict:
    return {"kind": "lib", "name": name}


def _seeded_shapes(seed: int) -> list:
    rng = random.Random(seed)
    out = []
    for _ in range(WITNESS_OPS):
        shape = rng.sample(_Z2_BALL2, rng.randint(1, 3))
        side = rng.choice(("left", "right"))
        text = ";".join(f"({a},{b})" for a, b in sorted(shape))
        out.append(f"shape-{side}:{text}")
    return out


def operations(workload: str, seed: int) -> list:
    """The operations of one workload pass, each with a stable ``id``."""
    if workload == "readme-dihedral":
        ops = [
            _cli("ball", "--group", "DihInf", "--radius", "8"),
            _cli("fc", "--group", "DihInf", "--radius", "8"),
            _cli("compare-lr", "--group", "DihInf", "--radius", "8"),
            _cli("witness", "--group", "DihInf", "--family", "edge-left:t", "--structure", "right"),
            _cli("map-check", "--group", "Z", "--map", "floor-div:2", "--radius", "12", "--equivalence"),
            _cli("map-check", "--group", "Z", "--target", "DihInf", "--map", "inclusion",
                 "--equivalence", "--cover-distance", "1", "--radius", "10"),
            _cli("svarc-milnor", "--action", "left(Z->DihInf via x^n)", "--radius", "10"),
            _cli("commuting", "--radius", "8"),
            _cli("gromov", "--map", "power:2", "--radius", "8", "--enum-radius", "2"),
            _cli("demo-dihedral", "--radius", "16"),
            _cli("commuting", "--radius", "16"),
        ]
    elif workload == "free-growth":
        ops = [
            _cli("ball", "--group", "F(2)", "--radius", "10"),
            _cli("mult-born", "--group", "F(2)"),
            _cli("compare-lr", "--group", "F(2)"),
            _cli("fc", "--group", "F(2)", "--radius", "8"),
        ]
    elif workload == "abelian-battery":
        ops = [
            _cli("compare-lr", "--group", "Z^2", "--radius", "12"),
            _cli("fc", "--group", "Z^2", "--radius", "16"),
            _cli("mult-born", "--group", "Z^2", "--radius", "8"),
        ]
        ops += [_cli("witness", "--group", "Z^2", "--family", fam, "--radius", "24")
                for fam in _seeded_shapes(seed)]
    elif workload == "transfer-tables":
        ops = [
            _lib("transfer-power-2"),
            _lib("transfer-power-3"),
            _lib("padded-tables"),
            _cli("gromov"),
        ]
    else:
        raise KeyError(workload)
    for i, op in enumerate(ops):
        if op["kind"] == "cli":
            op["argv"] += ["--seed", str(seed)]
            # witness ops draw their family from the seed, so their id is
            # the slot, not the argv
            op["id"] = f"{i}:{op['argv'][0]}"
        else:
            op["id"] = f"{i}:{op['name']}"
    return ops
