"""Sweep the equivalence verdicts of the Z map catalog against the truth.

    python tests/truth.py

Each map below is, or is not, a coarse equivalence out of Z, whatever the
window; ``map-check --equivalence`` runs it at every admitted radius R from
3 to 16.  A run of a true equivalence should PASS (exit 0): a FAIL (exit 1)
there is a false FAIL, and a refusal (exit 2) says the window cannot tell.
A run of any other map must never PASS.  The script prints the PASS,
false-FAIL and refusal counts per map, and exits 1 on any false PASS.
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from coarsekit import cli  # noqa: E402

RADII = range(3, 17)

# (map, flags past --map, is it a coarse equivalence); a map that is not onto
# covers within --cover-distance 2
CATALOG = [
    ("identity", [], True),
    ("negate", [], True),
    ("translate-left:3", [], True),
    ("power:2", ["--cover-distance", "2"], True),
    ("power:3", ["--cover-distance", "2"], True),
    ("power:-2", ["--cover-distance", "2"], True),
    ("floor-div:2", [], True),
    ("floor-div:3", [], True),
    ("floor-div:4", [], True),
    ("inclusion", ["--target", "DihInf", "--cover-distance", "2"], True),
    # squaring is not bornologous, and the others collapse Z to a point or
    # to a finite group
    ("square", [], False),
    ("constant:0", [], False),
    ("power:0", ["--cover-distance", "2"], False),
    ("mod:3", ["--target", "Zmod(3)"], False),
]


def sweep() -> dict:
    """map -> {R: the exit code of its equivalence check at radius R}."""
    codes = {}
    for name, flags, _ in CATALOG:
        codes[name] = {}
        for radius in RADII:
            argv = ["map-check", "--group", "Z", "--map", name, *flags,
                    "--equivalence", "--radius", str(radius)]
            with contextlib.redirect_stdout(io.StringIO()):
                codes[name][radius] = cli.main(argv)
    return codes


def tally(codes: dict) -> dict:
    """map -> (PASS, FAIL, refused) counts of its runs."""
    return {name: tuple(list(runs.values()).count(c) for c in (0, 1, 2)) for name, runs in codes.items()}


def false_verdicts(codes: dict) -> tuple[list, list]:
    """The (map, R) runs that PASS a non-equivalence, and those that FAIL an
    equivalence."""
    truth = {name: true for name, _, true in CATALOG}
    passes = [(n, r) for n, runs in codes.items() for r, c in runs.items() if c == 0 and not truth[n]]
    fails = [(n, r) for n, runs in codes.items() for r, c in runs.items() if c == 1 and truth[n]]
    return passes, fails


def main() -> int:
    codes = sweep()
    for name, _, true in CATALOG:
        passed, failed, refused = tally(codes)[name]
        label = "false-FAIL" if true else "FAIL"
        head = "PASS" if true else "false-PASS"
        print(f"{name:20} {'equivalence' if true else 'not one':12} {head} {passed:2}  "
              f"{label} {failed:2}  refused {refused:2}")
    passes, fails = false_verdicts(codes)
    runs = sum(len(RADII) for _, _, true in CATALOG if true)
    print(f"false PASS: {len(passes)}; false FAIL: {len(fails)} of {runs} runs of equivalences")
    return 1 if passes else 0


if __name__ == "__main__":
    sys.exit(main())
