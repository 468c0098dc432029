"""Write perfbench/expected.json from the code in the current checkout.

    python3 perfbench/freeze.py

Runs every operation of every workload once for each frozen seed, untraced,
and records its exit code, its verdicts and the SHA-256 of its output.  Exit
codes and verdicts must agree between the seeds: they are the expectation
for every other seed.  CLI reports carry ``config.seed``, so their digests
are frozen per seed; library results do not, so theirs hold for any seed.
Run it only when the reports are meant to change.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads

FROZEN_SEEDS = (0, 99)


def main() -> int:
    root = os.getcwd()
    ops_out: dict = {}
    digests: dict = {str(s): {} for s in FROZEN_SEEDS}
    for workload in workloads.WORKLOADS:
        ops_out[workload] = {}
        for seed in FROZEN_SEEDS:
            digests[str(seed)][workload] = {}
            for op in workloads.operations(workload, seed):
                rec = run.spawn(root, op, 0)
                if rec.get("error"):
                    print(f"{workload} {op['id']}: {rec['error']}", file=sys.stderr)
                    return 1
                want = {"rc": rec["rc"], "verdicts": rec["verdicts"]}
                if op["kind"] == "lib":
                    want["sha256"] = rec["sha256"]
                else:
                    digests[str(seed)][workload][op["id"]] = rec["sha256"]
                seen = ops_out[workload].setdefault(op["id"], want)
                if seen != want:
                    print(f"{workload} {op['id']}: seed {seed} gives {want}, not {seen}",
                          file=sys.stderr)
                    return 1
                print(f"{workload} seed {seed} {op['id']}: {want['rc']} {want['verdicts']}")
    with open(run.EXPECTED, "w") as fh:
        json.dump({"frozen_seeds": list(FROZEN_SEEDS), "ops": ops_out, "digests": digests},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
