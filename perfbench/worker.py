"""Run one pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py PASS.json RESULT.json [--trace]

PASS.json lists the pass's operations (label, argv, expect).  Each is one
`hexaform` command run in-process through `hexaform.cli.main(argv)` with
its output captured, back to back with the previous one; reports are
checked by `oracle.py` after the last operation.  RESULT.json gets the
pass's wall time, each operation's outcome and latency, the sha256 of each
report, and the peak resident memory of this process.  With --trace, spans
are recorded around hexaform's functions and the per-layer metrics of the
pass are added.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import spans  # noqa: E402


def run_op(cli, op, tracer=None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    span = tracer.open("cli.op", {"op": op.label}) if tracer else None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(op.argv))
    except Exception:  # a traceback is a failed operation, not a failed run
        rc = None
        err.write(traceback.format_exc())
    finally:
        seconds = time.perf_counter() - start
        if span is not None:
            tracer.close(span)
    return {"label": op.label, "exit": rc, "seconds": seconds,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_pass(cli, ops, tracer=None) -> dict:
    start = time.perf_counter()
    done = [run_op(cli, op, tracer) for op in ops]
    wall = time.perf_counter() - start
    reports = {}
    for op, r in zip(ops, done):
        r["outcome"], r["problems"] = oracle.classify(op.expect, r["exit"], r["stdout"], reports)
        if r["outcome"] == oracle.OK:
            reports[op.label] = json.loads(r["stdout"])
            del r["stderr"]
        r["argv"] = [os.path.relpath(a, ROOT) if a.startswith(str(ROOT)) else a
                     for a in op.argv]
        r["sha256"] = hashlib.sha256(r.pop("stdout").encode()).hexdigest()
    return {"wall_s": wall, "ops": done}


def main(argv) -> int:
    pass_file, result_file, *flags = argv
    from hexaform import cli
    from workloads import Op

    ops = [Op(d["label"], tuple(d["argv"]), d["expect"])
           for d in json.loads(Path(pass_file).read_text(encoding="utf-8"))]
    tracer = spans.Tracer() if flags == ["--trace"] else None
    with tracer or contextlib.nullcontext():
        result = run_pass(cli, ops, tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        result["layers"] = spans.layer_metrics(tracer.spans, tracer.counts)
        result["spans"] = [asdict(span) for span in tracer.spans]
    Path(result_file).write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
