"""Run every workload once, one process at a time, and print each
end-to-end metric by name and unit, with the shares of failed and
refused operations.

    python3 perfbench/report.py --seed 1 [--seconds N] [--trace 1]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    status = 0
    for w in bench["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", w["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(f"{w['name']}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        saved = ROOT / ".perfbench" / "results" / f"{w['name']}-seed{args.seed}-trace{args.trace}.json"
        summary = json.loads(saved.read_text(encoding="utf-8"))["summary"]
        print(f"{w['name']}  (correct: {result['correct']}, {result['attempted']} operations, "
              f"{summary['failed']} failed, {summary['refused']} refused)")
        for name, m in result["metrics"].items():
            print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
        for name in ("failed_frac", "refused_frac"):
            print(f"  {name:34s} {summary[name]:14.6g} ratio")
    return status


if __name__ == "__main__":
    sys.exit(main())
