"""Run one benchmark operation in this fresh interpreter and print its record.

    python3 child.py ROOT MODE cli ARG...     # coarsekit.cli.main([ARG...])
    python3 child.py ROOT MODE lib NAME       # one recipe of LIBRARY_OPS

ROOT is the checkout whose ``src/`` holds coarsekit.  MODE is 0 (untraced),
1 (span pass) or 2 (counts pass).  The last stdout line is a
JSON record: exit code, the monotonic clock at the call and at its return,
the SHA-256 of the operation's output, its verdicts and the peak RSS.

Only what the operation needs is imported before the call, so the time from
spawn to the call is interpreter start plus ``import coarsekit``.
"""

import io
import os
import sys
import time


def _transfer_power(k: int) -> dict:
    from coarsekit import groups, maps, structures, transfer

    cl = structures.LeftGroupStructure(groups.Z)
    td = transfer.build_transfer_data(maps.power_map(cl, cl, k), 48, extended=True)
    return {"transfer_data": td.to_json()}


def _padded_tables() -> dict:
    """Criterion 7's padded identity data, every table at radius 6 checked."""
    from coarsekit import groups, maps, structures, transfer

    cl = structures.LeftGroupStructure(groups.Z)
    padded = transfer.build_transfer_data(maps.identity_map(cl), 8).padded(
        c_extra={frozenset({1}): {2}, frozenset({-1}): {-2}}
    )
    betas = transfer.enumerate_beta_windows(padded, 6, pin=0)
    verdicts: dict = {}
    for beta in betas:
        v = transfer.actions_commute_check(padded, beta, 6).verdict
        verdicts[v] = verdicts.get(v, 0) + 1
    return {"transfer_data": padded.to_json(), "tables": len(betas), "verdicts": verdicts}


LIBRARY_OPS = {
    "transfer-power-2": lambda: _transfer_power(2),
    "transfer-power-3": lambda: _transfer_power(3),
    "padded-tables": _padded_tables,
}


def _verdicts(kind: str, text: str, result) -> list:
    import json

    if kind == "lib":
        return sorted(result.get("verdicts", {}))
    try:
        report = json.loads(text)
    except ValueError:
        return ["unparsable"]
    if "error" in report:
        return [f"error:{report['error'].get('code')}"]
    return [c.get("verdict") for c in report.get("checks", [])]


def main() -> None:
    root, mode, kind, rest = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4:]
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    import coarsekit  # imports every module of the package

    if kind == "cli":
        from coarsekit import cli

        call = lambda: cli.main(rest)
    else:
        call = LIBRARY_OPS[rest[0]]
    if not os.path.abspath(coarsekit.__file__).startswith(src + os.sep):
        raise SystemExit(f"coarsekit imported from {coarsekit.__file__}, not from {src}")
    tracer = None
    if mode:
        import tracer as tracing

        tracer = tracing.Tracer(mode)

    real_stdout, buf = sys.stdout, io.StringIO()
    sys.stdout = buf
    error = None
    result = None
    t_call = time.monotonic()
    try:
        result = call() if tracer is None else tracer.run(call)
    except SystemExit as exc:  # argparse usage errors exit 2
        result = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # the record reports it; run.py counts a failure
        error = f"{type(exc).__name__}: {exc}"
    finally:
        t_ret = time.monotonic()
        sys.stdout = real_stdout

    import hashlib
    import json
    import resource

    if kind == "lib" and error is None:
        text, rc = json.dumps(result, sort_keys=True), 0
    else:
        text, rc = buf.getvalue(), (result if error is None else None)
    record = {
        "rc": rc,
        "error": error,
        "t_call": t_call,
        "t_ret": t_ret,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "bytes": len(text.encode()),
        "verdicts": _verdicts(kind, text, result) if error is None else [],
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        record["trace"] = tracer.summary()
        record["missing"] = tracer.missing
        if kind == "cli":
            record["trace"]["cli.report_bytes"] = record["bytes"]
    print(json.dumps(record))


if __name__ == "__main__":
    main()
