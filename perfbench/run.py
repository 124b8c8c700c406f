"""Seeded benchmark of the `hexaform` command line.

    python3 perfbench/run.py --workload form-walk --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports hexaform from its
`src/`.  It times a fresh interpreter's set-up several times, then runs
passes over the workload's operation list until --seconds have gone by.
Each pass gets its own seeded inputs and runs in a fresh `worker.py`
process: a closed loop with one client, no warm-up pass, and the same cold
costs in every pass that a library session pays.  Every report is checked
by `oracle.py`.

With --trace 0 the last line of stdout carries the end-to-end metrics:
medians over passes, except set-up time, the median over set-ups.  With
--trace 1 every pass is run a second time on the same inputs with spans
recorded around hexaform's functions, and the last line carries the
per-layer metrics.  Full results, including the inputs' sizes and the
sha256 of every report, go to `.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import oracle
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
# what every CLI invocation pays before its command runs
COLD_START = ("import hexaform.cli, hexaform.manifolds as m\n"
              "for name in sorted(m.BUILTIN_FILES): m.builtin_manifold(name)\n")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def setup_times() -> list[float]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", COLD_START], env=env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def run_worker(pass_file: Path, trace: bool) -> dict:
    result_file = pass_file.with_suffix(f".trace{int(trace)}.result.json")
    cmd = [sys.executable, str(HERE / "worker.py"), str(pass_file), str(result_file)]
    proc = subprocess.run(cmd + (["--trace"] if trace else []), cwd=ROOT,
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {pass_file.name} exited with {proc.returncode}:\n"
                           f"{proc.stderr[-3000:]}")
    return json.loads(result_file.read_text(encoding="utf-8"))


def summarize(ops: list[dict]) -> dict:
    """Counts and shares of failed and refused operations."""
    failed = sum(op["outcome"] == oracle.FAILED for op in ops)
    refused = sum(op["outcome"] == oracle.REFUSED for op in ops)
    return {"attempted": len(ops), "failed": failed, "refused": refused,
            "failed_frac": failed / len(ops), "refused_frac": refused / len(ops)}


def end_to_end(passes: list[dict], setup: list[float]) -> dict:
    latencies = [op["seconds"] for p in passes for op in p["ops"]]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_p50_s": statistics.median(latencies),
        "op_max_s": statistics.median(max(op["seconds"] for op in p["ops"]) for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(setup),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hexaform" / "__init__.py").is_file():
        print(f"perfbench: no hexaform sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("HEXAFORM_CAP", None)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    import numpy
    import hexaform
    if Path(hexaform.__file__).resolve().parent != SRC / "hexaform":
        print(f"perfbench: imported hexaform from {hexaform.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / "inputs" / name
    workdir.mkdir(parents=True, exist_ok=True)
    (OUT / "results").mkdir(parents=True, exist_ok=True)

    setup = setup_times()
    passes, traced, inputs = [], [], []
    began = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - began < args.seconds:
        rng = random.Random(f"{args.workload}:{args.seed}:{k}")
        p = WORKLOADS[args.workload](k, rng, workdir)
        inputs.append(p.inputs)
        pass_file = workdir / f"pass{k}.json"
        pass_file.write_text(json.dumps([asdict(op) for op in p.ops]), encoding="utf-8")
        passes.append(run_worker(pass_file, trace=False))
        if args.trace:
            traced.append(run_worker(pass_file, trace=True))
        k += 1

    ops = [op for p in passes + traced for op in p["ops"]]
    summary = summarize(ops)
    if args.trace:
        metrics = spans.combine_passes([t.pop("layers") for t in traced])
        metrics["cli.failed_frac"] = summary["failed_frac"]
        metrics["cli.refused_frac"] = summary["refused_frac"]
        metrics["tracing.overhead_frac"] = statistics.median(
            t["wall_s"] / u["wall_s"] - 1 for t, u in zip(traced, passes))
    else:
        metrics = end_to_end(passes, setup)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(units) ^ set(metrics))} are measured "
                           "or declared in BENCHMARK.json, not both")
    metrics = {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}

    results = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(),
        "setup_s": setup, "summary": summary, "metrics": metrics,
        "inputs": inputs, "passes": passes, "traced_passes": traced,
    }
    path = OUT / "results" / f"{name}.json"
    path.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    for op in ops:
        if op["outcome"] == oracle.FAILED:
            print(f"perfbench: FAILED {op['label']}: {op['problems']} {op.get('stderr', '')[-300:]}",
                  file=sys.stderr)
    print(f"perfbench: {len(passes)} passes, {summary['failed']} failed / {summary['refused']} "
          f"refused of {summary['attempted']} operations; results in {path.relative_to(ROOT)}",
          file=sys.stderr)
    print(json.dumps({"correct": summary["failed"] == 0, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
