"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads reach_sweep eval_pipeline --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --out BENCH_label.json

Runs ``run.py`` once per (seed, workload), seeds in the outer loop, from
the repository root. For every end-to-end metric (or per-layer metric with
``--trace 1``) it prints the median, the quartiles from
``statistics.quantiles(values, n=4)``, and the interquartile range as a
share of the median next to the metric's bound in BENCHMARK.json. ``--out``
writes the same summary, every run's metrics and the environment record
as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace, scale) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--scale", scale]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                         timeout=900, check=False)
    elapsed = time.perf_counter() - t0
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}: "
                           f"{out.stderr.strip()[-2000:]}")
    env = next((json.loads(line.split(": ", 1)[1]) for line in lines
                if line.startswith("environment: ")), {})
    passes = [line for line in lines if line.startswith("pass ")]
    return {"seed": seed, "elapsed_s": elapsed, "result": json.loads(lines[-1]),
            "passes": passes, "environment": env}


def summarize(runs, spec) -> dict:
    out = {}
    for name, meta in spec.items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _q2, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                       else (values[0],) * 3)
        share = (q3 - q1) / abs(med) if med else float("inf")
        out[name] = {"unit": meta.get("unit"), "median": med, "q1": q1, "q3": q3,
                     "iqr_share": share, "bound": meta.get("bound"), "n": len(values)}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+")
    p.add_argument("--seeds", default="1-10", help="range a-b or list a,b,c")
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", default="bench")
    p.add_argument("--out", help="write the summary JSON here")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    key = "per_layer" if args.trace else "end_to_end"
    spec = {m["name"]: m for m in bench[key]}

    runs = {w: [] for w in workloads}
    for seed in _seeds(args.seeds):
        for w in workloads:
            run = run_once(w, seed, seconds, args.trace, args.scale)
            runs[w].append(run)
            res = run["result"]
            print(f"{w} seed {seed}: {run['elapsed_s']:.1f} s, correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} " + " ".join(
                      f"{n}={res['metrics'][n]['value']:.6g}" for n in spec
                      if args.trace == 0), flush=True)

    summary = {}
    all_ok = True
    for w in workloads:
        summary[w] = summarize(runs[w], spec)
        if args.trace:
            continue
        print(f"\n{w}: {len(runs[w])} runs, "
              f"{sum(r['elapsed_s'] for r in runs[w]):.0f} s in total")
        for name, s in summary[w].items():
            bound = s["bound"]
            ok = name == "setup_s" or s["iqr_share"] <= bound / 3.0
            all_ok &= ok
            print(f"  {name:12s} median {s['median']:.6g} {s['unit']}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  IQR/median {s['iqr_share']:.4f}  "
                  f"bound {bound}  {'ok' if ok else 'ABOVE bound/3'}")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "seconds": seconds, "scale": args.scale, "trace": args.trace,
            "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
