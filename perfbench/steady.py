"""Steadiness check: run each workload once per seed and print, for every
end-to-end metric, the median, the quartiles and the spread (Q3 - Q1) as a
share of the median, beside the bound BENCHMARK.json gives the metric.

    python3 perfbench/steady.py                       # all workloads, seeds 1..10
    python3 perfbench/steady.py --workload extend --seeds 5 --first-seed 11

Runs are sequential, so a run never shares the two cores with another.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append",
                   help="repeatable; default: every workload in BENCHMARK.json")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = p.parse_args(argv)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    worst = 0.0
    for wl in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                print(f"{wl} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(res)
            print(f"{wl} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())),
                flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{wl}: correct={all(r['correct'] for r in runs)} "
              f"failed shares={sorted(shares)}")
        summary[wl] = {}
        for name, bound in bounds.items():
            med, q1, q3, s = spread([r["metrics"][name]["value"] for r in runs])
            summary[wl][name] = {"median": med, "q1": q1, "q3": q3, "spread": s,
                                 "bound": bound}
            if name != "setup_s":
                worst = max(worst, s / bound)
            print(f"  {name:<12} median={med:<12.5g} q1={q1:<12.5g} q3={q3:<12.5g} "
                  f"spread={s:.4f} bound={bound} ({s / bound:.2f} of bound)")
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.2f}")
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
