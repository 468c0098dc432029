"""Rewrite the golden report corpus under tests/golden/.

    PYTHONPATH=src python tests/freeze_golden.py

Run this only when a report changes on purpose: the corpus is the frozen
JSON stdout of the README commands, ``commuting --radius 16``, a
``commuting`` run on Z^2, a group of quadratic growth, ``svarc-milnor`` for
translations of Z^2 (against either structure) and DihInf, the group checks
on Z^2, Z^3, F(2) and on products with DihInf, and three balls listed in
full;
``test_golden.py`` asserts that the current code prints the same bytes.
"""

from __future__ import annotations

import contextlib
import io
import pathlib

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

# file stem -> argv: the README commands at their README radii, commuting at
# radius 16, the commuting translations of Z^2 (every other command acts on Z
# or DihInf, whose balls grow linearly), and the group checks that walk their
# whole battery (Z^2) or fail on a product with DihInf
COMMANDS = {
    "ball-dihinf-8": ["ball", "--group", "DihInf", "--radius", "8"],
    "fc-dihinf-8": ["fc", "--group", "DihInf", "--radius", "8"],
    "compare-lr-dihinf-8": ["compare-lr", "--group", "DihInf", "--radius", "8"],
    "witness-dihinf-edge-left-t-right": [
        "witness", "--group", "DihInf", "--family", "edge-left:t", "--structure", "right",
    ],
    "map-check-z-floor-div-2-12": [
        "map-check", "--group", "Z", "--map", "floor-div:2", "--radius", "12", "--equivalence",
    ],
    "map-check-z-dihinf-inclusion-10": [
        "map-check", "--group", "Z", "--target", "DihInf", "--map", "inclusion",
        "--equivalence", "--cover-distance", "1", "--radius", "10",
    ],
    "svarc-milnor-z-dihinf-10": ["svarc-milnor", "--action", "left(Z->DihInf via x^n)", "--radius", "10"],
    # translations of a lattice on their own side (PASS), and right
    # translations of DihInf against its left structure (FAIL)
    "svarc-milnor-left-z2-10": ["svarc-milnor", "--action", "left(Z^2)", "--radius", "10"],
    "svarc-milnor-right-z2-right-8": [
        "svarc-milnor", "--action", "right(Z^2)", "--structure", "right", "--radius", "8",
    ],
    "svarc-milnor-right-dihinf-8": ["svarc-milnor", "--action", "right(DihInf)", "--radius", "8"],
    # translations of a lattice against the structure of the other side (PASS)
    "svarc-milnor-right-z2-8": ["svarc-milnor", "--action", "right(Z^2)", "--radius", "8"],
    "commuting-8": ["commuting", "--radius", "8"],
    "gromov-power-2-8": ["gromov", "--map", "power:2", "--radius", "8", "--enum-radius", "2"],
    "demo-dihedral-16": ["demo-dihedral", "--radius", "16"],
    "commuting-16": ["commuting", "--radius", "16"],
    "commuting-z2-6": [
        "commuting", "--action1", "left(Z^2)", "--action2", "right(Z^2)", "--set", "(0,0)",
        "--radius", "6",
    ],
    "compare-lr-z2-12": ["compare-lr", "--group", "Z^2", "--radius", "12"],
    "fc-z2-16": ["fc", "--group", "Z^2", "--radius", "16"],
    "mult-born-z2-8": ["mult-born", "--group", "Z^2", "--radius", "8"],
    "mult-born-dihinf-8": ["mult-born", "--group", "DihInf", "--radius", "8"],
    "compare-lr-product-z-dihinf-6": [
        "compare-lr", "--group", "product(Z,DihInf)", "--radius", "6",
    ],
    # (1,-1) is the inverse of (1,1), which comes first, and (t,0) fails next
    "compare-lr-product-dihinf-z-6": [
        "compare-lr", "--group", "product(DihInf,Z)", "--radius", "6",
    ],
    # the group checks on a rank-3 lattice (PASS) and a free group (FAIL)
    "mult-born-z3-8": ["mult-born", "--group", "Z^3", "--radius", "8"],
    "compare-lr-f2-8": ["compare-lr", "--group", "F(2)", "--radius", "8"],
    "fc-f2-8": ["fc", "--group", "F(2)", "--radius", "8"],
    # the order of whole balls: a free group, a rank-3 lattice and a product
    # with a finite factor, each listed element by element
    "ball-f2-4-list": ["ball", "--group", "F(2)", "--radius", "4", "--list"],
    "ball-z3-3": ["ball", "--group", "Z^3", "--radius", "3"],
    "ball-product-zmod5-dihinf-3": ["ball", "--group", "product(Zmod(5),DihInf)", "--radius", "3"],
}


def render(argv: list) -> str:
    """The report exactly as the CLI prints it."""
    from coarsekit import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(list(argv))
    return buf.getvalue()


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for stem, argv in COMMANDS.items():
        path = GOLDEN_DIR / f"{stem}.json"
        path.write_text(render(argv))
        print(f"wrote {path.name}")


if __name__ == "__main__":
    main()
