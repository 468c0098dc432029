"""coarsekit benchmark: certificate wall time per workload, each operation in
a cold interpreter, with per-layer tracing from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the directory holding ``src/coarsekit``).
The loop is closed with one client: operations run one after another, each
in a fresh interpreter, so every module-level cache starts cold as it does
for a CLI call.  ``--trace 0`` repeats whole passes over the workload for
``--seconds`` and reports the end-to-end metrics; ``--trace 1`` makes one
untraced pass, one span pass and one counts pass and reports the per-layer
metrics.  Every output is checked against ``expected.json``.  The last line
of stdout is one JSON object; the lines before it explain the numbers.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import COUNT, COUNT_TARGETS, SPAN, count_name  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
EXPECTED = os.path.join(HERE, "expected.json")
# the slowest operation takes about 10 s traced; one hung operation in each of
# a traced run's three passes still lets the run end within 180 s
OP_TIMEOUT_S = 45


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(root: str, op: dict, mode: int) -> dict:
    """Run one operation in a fresh interpreter and time it."""
    argv = [sys.executable, CHILD, root, str(mode)]
    argv += ["cli", *op["argv"]] if op["kind"] == "cli" else ["lib", op["name"]]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=OP_TIMEOUT_S,
                              env=_child_env(), cwd=root)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {OP_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        rec = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"error": f"no record (exit {proc.returncode}): {proc.stderr.strip()[-300:]}"}
    rec["setup_s"] = rec["t_call"] - t_spawn
    rec["op_s"] = rec["t_ret"] - rec["t_call"]
    return rec


def check(rec: dict, workload: str, op: dict, seed: int, expected: dict):
    """None if the record matches the frozen expectation, else the reason."""
    if rec.get("error"):
        return rec["error"]
    want = expected["ops"][workload][op["id"]]
    if rec["rc"] != want["rc"]:
        return f"exit code {rec['rc']}, expected {want['rc']}"
    if rec["verdicts"] != want["verdicts"]:
        return f"verdicts {rec['verdicts']}, expected {want['verdicts']}"
    digest = want.get("sha256") or expected["digests"].get(str(seed), {}).get(workload, {}).get(op["id"])
    if digest is not None and rec["sha256"] != digest:
        return f"output digest {rec['sha256'][:12]}, expected {digest[:12]}"
    return None


def run_pass(root: str, ops: list, mode: int, workload: str, seed: int, expected: dict) -> list:
    out = []
    for op in ops:
        rec = spawn(root, op, mode)
        rec["id"] = op["id"]
        rec["failure"] = check(rec, workload, op, seed, expected)
        if rec["failure"]:
            print(f"FAILED {op['id']} (mode {mode}): {rec['failure']}", file=sys.stderr)
        out.append(rec)
    return out


def _sum(records: list, key: str) -> float:
    """Sum over the records that got that far; an operation that crashed
    or timed out has no times."""
    return sum(r.get(key, 0.0) for r in records)


def distribution(values: list) -> str:
    """Median, sample count and the highest percentile with at least ten
    samples beyond it, as the benchmark's notes report them."""
    n = len(values)
    line = f"median {statistics.median(values):.4f} n={n}"
    if n >= 11:
        p = 100 * (n - 10) // n
        ordered = sorted(values)
        line += f" p{p} {ordered[max(0, -(-p * n // 100) - 1)]:.4f}"
    else:
        line += " (fewer than 11 samples: no tail percentile)"
    return line


def end_to_end(passes: list) -> dict:
    """The median over passes of each pass's summed operation times, summed
    set-up times and largest peak RSS."""
    for i, op_id in enumerate(r["id"] for r in passes[0]):
        times = [p[i]["op_s"] for p in passes if "op_s" in p[i]]
        if times:
            print(f"  op {op_id}: {distribution(times)} fastest {min(times):.4f}")
    walls = [_sum(p, "op_s") for p in passes]
    setups = [_sum(p, "setup_s") for p in passes]
    rss = [max((r.get("rss_kb", 0) for r in p), default=0) / 1024 for p in passes]
    out = {}
    for name, vals in (("wall_s", walls), ("setup_s", setups), ("peak_rss_mb", rss)):
        print(f"{name}: {distribution(vals)} passes={[round(v, 4) for v in vals]}")
        out[name] = statistics.median(vals)
    return out


def per_layer(plain: list, spans: list, counts: list) -> dict:
    """Sum the per-operation trace summaries and derive the layer metrics."""
    total: dict = {}
    for rec in spans:
        for k, v in rec.get("trace", {}).items():
            total[k] = total.get(k, 0) + v
    hot = {count_name(target) for target in COUNT_TARGETS}
    for rec in counts:
        for k, v in rec.get("trace", {}).items():
            if k in hot:
                total[k] = total.get(k, 0) + v

    def ratio(hits_of: str, misses_of: str) -> float:
        calls = total.get(hits_of, 0)
        return 1 - total.get(misses_of, 0) / calls if calls else 0.0

    total["families.ParamFamily.at.hit_ratio"] = ratio(
        "families.ParamFamily.at.calls", "families.ParamFamily.at.misses")
    total["structures.member_contribution.group.hit_ratio"] = ratio(
        "structures.member_contribution.group.calls", "structures.member_contribution.group.distinct")
    total["cli.emit.s"] = total.get("cli.main.self_s", 0.0)
    untraced = _sum(plain, "op_s")
    traced = _sum(spans, "op_s")
    total["trace.untraced_wall_s"] = untraced
    total["trace.traced_wall_s"] = traced
    total["trace.overhead_s"] = traced - untraced
    self_sum = sum(v for k, v in total.items() if k.endswith(".self_s"))
    print(f"span self times sum to {self_sum:.4f} s of {traced:.4f} s traced")
    layers: dict = {}
    for k, v in total.items():
        if k.endswith(".self_s"):
            layer = k.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + v
    if traced > 0:
        print("layer shares of traced wall time: " + ", ".join(
            f"{layer} {v / traced:.1%}" for layer, v in sorted(layers.items(), key=lambda kv: -kv[1])))
    missing = sorted({m for rec in spans + counts for m in rec.get("missing", [])})
    if missing:
        print(f"trace targets not found (their metrics read 0): {', '.join(missing)}")
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src", "coarsekit")
    if not os.path.isfile(os.path.join(src, "cli.py")):
        print(f"no coarsekit sources under {src}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(EXPECTED) as fh:
        expected = json.load(fh)
    # byte-compile once, so no run's first operation pays for it
    compileall.compile_dir(src, quiet=1)

    ops = workloads.operations(args.workload, args.seed)
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} operations, "
          f"closed loop, one client, one cold interpreter per operation")
    t0 = time.monotonic()
    if args.trace:
        passes = [run_pass(root, ops, mode, args.workload, args.seed, expected)
                  for mode in (0, SPAN, COUNT)]
        measured = per_layer(*passes)
        wanted = bench["per_layer"]
    else:
        passes = []
        while True:
            passes.append(run_pass(root, ops, 0, args.workload, args.seed, expected))
            elapsed = time.monotonic() - t0
            if elapsed + elapsed / len(passes) > args.seconds:
                break
        measured = end_to_end(passes)
        wanted = bench["end_to_end"]

    records = [r for p in passes for r in p]
    failed = sum(1 for r in records if r["failure"])
    print(f"failed_ratio: {failed}/{len(records)} = {failed / len(records):.4f}")
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
