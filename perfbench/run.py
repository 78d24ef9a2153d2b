"""shapegain benchmark: one workload, one seed, one time-boxed run.

    python3 perfbench/run.py --workload reach_sweep --seed 1 --seconds 20 --trace 0

Run from the repository root. The package is imported from ``src/`` of the
same tree; a tree without it is refused with exit code 2 and no result.

With ``--trace 0`` the run times a few fresh interpreters that import
shapegain and build the workload's inputs (``setup_s``), then runs passes
of the workload until ``--seconds`` have been measured and reports the
end-to-end metrics as medians over passes. Times are normalized by a fixed
reference kernel timed between passes (see reference.py). With
``--trace 1`` every second pass runs with span tracing installed (see
spans.py) and the run reports the per-layer metrics, including the
traced-minus-untraced pass time. Output checks run on every pass. The last line of standard
output is the JSON result; the lines before it are the human-readable
report and the environment record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import reference
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build" / "perfbench"
WORKLOAD_NAMES = ("reach_sweep", "train_gauss16", "eval_pipeline")
THREADS_ENV = "SHAPEGAIN_THREADS"
# no new pass starts once the measured time plus one more pass would pass this
MAX_MEASURE_S = 140.0

SETUP_CODE = """\
import sys, tempfile
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
with tempfile.TemporaryDirectory(dir=sys.argv[6]) as d:
    print(workloads.build(sys.argv[3], int(sys.argv[4]), sys.argv[5], d).fingerprint())
"""


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="measured time per run; passes repeat until it is used")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("bench", "full", "smoke"), default="bench",
                   help="work per pass: bench (default), full (shipped "
                        "config and acceptance settings), smoke (tiny)")
    return p.parse_args(argv)


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unavailable ({exc})"
    return out.stdout.strip() or f"unavailable ({out.stderr.strip()})"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, threads_env) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError) as exc:
        blas = {"name": f"unknown ({exc})"}
    blas["threads_env"] = {k: os.environ.get(k, "unset") for k in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(), "platform": platform.platform(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas,
        THREADS_ENV: threads_env if threads_env is not None else "unset",
        "git_commit": _git_commit(),
    }


def time_setup(args, repeats: int, workdir: Path, env: dict) -> tuple:
    """Wall times of fresh interpreters building the inputs, plus fingerprints."""
    times, prints, errors = [], [], []
    for _ in range(repeats):
        cmd = [sys.executable, "-c", SETUP_CODE, str(BENCH_DIR), str(SRC),
               args.workload, str(args.seed), args.scale, str(workdir)]
        t0 = time.perf_counter()
        out = subprocess.run(cmd, capture_output=True, text=True, env=env,
                             timeout=170, check=False)
        times.append(time.perf_counter() - t0)
        if out.returncode != 0:
            errors.append(out.stderr.strip().splitlines()[-1:] or ["no output"])
        prints.append(out.stdout.strip())
    return times, prints, errors


def _fmt_checks(title, checks, limit=8) -> list:
    failed = [c for c in checks if not c.ok]
    lines = [f"{title}: {len(checks)} attempted, {len(failed)} failed"]
    seen = set()
    for c in failed:
        if c.name in seen:
            continue
        seen.add(c.name)
        if len(seen) > limit:
            lines.append("  ...")
            break
        lines.append(f"  FAIL {c.name}: {c.detail}")
    return lines


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "shapegain" / "__init__.py").is_file():
        print(f"perfbench: no shapegain package under {SRC}; run from a full "
              f"source tree", file=sys.stderr)
        return 2
    # the workloads are defined with the sweep's default (serial) execution
    threads_env = os.environ.pop(THREADS_ENV, None)
    sys.path.insert(0, str(SRC))
    import shapegain
    if Path(shapegain.__file__).resolve().parent != (SRC / "shapegain").resolve():
        print(f"perfbench: imported shapegain from {shapegain.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        return _run(args, threads_env, workdir, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, threads_env, workdir, workloads) -> int:
    scale = workloads.SCALES[args.scale]
    env_record = environment(args, threads_env)
    print(f"perfbench: workload={args.workload} seed={args.seed} scale={args.scale} "
          f"trace={args.trace} seconds={args.seconds:g}")
    print("environment: " + json.dumps(env_record, sort_keys=True))

    run_checks = []
    setup_times, setup_speed = [], 1.0
    wl = workloads.build(args.workload, args.seed, args.scale, workdir / "inputs")
    ref_prev = reference.kernel_seconds()
    if not args.trace:
        child_env = {k: v for k, v in os.environ.items() if k != THREADS_ENV}
        setup_times, prints, errors = time_setup(args, scale.setup_repeats,
                                                 workdir, child_env)
        ref_next = reference.kernel_seconds()
        setup_speed = reference.NOMINAL_S / (0.5 * (ref_prev + ref_next))
        ref_prev = ref_next
        run_checks.append(workloads.Check(
            "set-up reproducible in fresh interpreters",
            not errors and all(p == wl.fingerprint() for p in prints),
            f"errors {errors}" if errors else f"{len(prints)} fingerprints"))

    tracer = spans.Tracer() if args.trace else None
    passes, traced_passes = [], []
    measure_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            c0, w0 = time.process_time(), time.perf_counter()
            outcome = wl.run_pass()
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        finally:
            if traced:
                tracer.uninstall()
        ref_next = reference.kernel_seconds()
        speed = reference.NOMINAL_S / (0.5 * (ref_prev + ref_next))
        ref_prev = ref_next
        if traced:
            traced_passes.append((wall, *tracer.take()))
        passes.append((traced, wall, cpu, speed, outcome))
        print(f"pass {len(passes)}{' traced' if traced else ''}: wall {wall:.4f} s  "
              f"cpu {cpu:.4f} s  speed {speed:.4f}  normalized wall {wall * speed:.4f} s  "
              f"result {outcome.result_bits:.6f} bits  checks "
              f"{sum(c.ok for c in outcome.checks)}/{len(outcome.checks)} ok")
        elapsed = time.perf_counter() - measure_start
        if len(passes) >= (2 if tracer else 1) and elapsed >= args.seconds:
            break
        if elapsed + wall > MAX_MEASURE_S:
            break

    outcomes = [p[4] for p in passes]
    untraced = [p for p in passes if not p[0]]
    if tracer is None:
        metrics = _end_to_end(untraced, setup_times, setup_speed,
                              outcomes[0].result_bits)
    else:
        metrics, summary = _per_layer(passes, traced_passes, untraced, args)
        run_checks.append(workloads.Check(
            "traced calls and counts repeat exactly across passes",
            summary["counts_repeat"], "per-pass span calls or computed counts differ"))
    digests = {o.digest for o in outcomes}
    run_checks.append(workloads.Check("passes produce identical outputs",
                                      len(digests) == 1, f"{len(digests)} distinct digests"))
    checks = [c for o in outcomes for c in o.checks] + run_checks
    probes = [c for o in outcomes for c in o.probes]
    failed = sum(not c.ok for c in checks)
    probe_failed = sum(not c.ok for c in probes)

    for line in _fmt_checks("output checks", checks):
        print(line)
    if probes:
        for line in _fmt_checks("malformed-input probes (exit code must be 1, 2 or 3)",
                                probes):
            print(line)
    base = len(checks) + len(probes)
    print(f"fail_frac: {failed + probe_failed}/{base} = "
          f"{(failed + probe_failed) / base:.4f} (base: {len(checks)} output checks "
          f"+ {len(probes)} malformed-input probes over {len(passes)} passes)")
    if outcomes[0].info:
        print("info: " + json.dumps(outcomes[0].info, sort_keys=True))
    result = {"correct": failed == 0, "attempted": len(checks), "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


def _end_to_end(untraced, setup_times, setup_speed, result_bits) -> dict:
    raw = {"wall_s": [p[1] for p in untraced], "cpu_s": [p[2] for p in untraced],
           "setup_s": setup_times}
    norm = {"wall_s": [p[1] * p[3] for p in untraced],
            "cpu_s": [p[2] * p[3] for p in untraced],
            "setup_s": [t * setup_speed for t in setup_times]}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {name: (statistics.median(values), "s") for name, values in norm.items()}
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    metrics["result_bits"] = (result_bits, "bits")
    print(f"end-to-end: medians of {len(untraced)} passes and of {len(setup_times)} "
          f"fresh-interpreter set-ups; times normalized by the reference kernel's "
          f"speed (raw medians in brackets)")
    for name, (value, unit) in metrics.items():
        extra = ""
        if name in raw:
            extra = (f"  [raw {statistics.median(raw[name]):.4f}, normalized min "
                     f"{min(norm[name]):.4f}, max {max(norm[name]):.4f}, n={len(norm[name])}]")
        print(f"  {name:12s} {value:.6g} {unit}{extra}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def _per_layer(passes, traced_passes, untraced, args) -> tuple:
    traced_wall = statistics.median(p[1] * p[3] for p in passes if p[0])
    plain_wall = statistics.median(p[1] * p[3] for p in untraced)
    overhead_s = traced_wall - plain_wall
    overhead_pct = 100.0 * overhead_s / plain_wall
    summary = spans.summarize(traced_passes)
    path = WORK_ROOT / f"trace-{args.workload}-seed{args.seed}-{args.scale}.jsonl"
    spans.write_spans(path, traced_passes)

    print(f"per-layer: {len(traced_passes)} traced passes (median normalized wall "
          f"{traced_wall:.4f} s) vs {len(untraced)} untraced (median normalized wall "
          f"{plain_wall:.4f} s); overhead {overhead_s:+.4f} s ({overhead_pct:+.2f} %); "
          f"spans written to {path}")
    print(f"  {'span':38s} {'calls':>8s} {'self_s':>9s} {'self %':>7s} {'incl %':>7s}"
          f"  p50_ms / p99_ms (n, pooled over traced passes)")
    rows = sorted(summary["rows"].items(), key=lambda kv: -kv[1]["self_s"])
    for name, row in rows:
        if not row["calls"]:
            continue
        pct = ""
        if len(row["durations"]) >= 1000:
            pct = (f"  {spans.percentile_ms(row['durations'], 50):.4f} / "
                   f"{spans.percentile_ms(row['durations'], 99):.4f} "
                   f"(n={len(row['durations'])})")
        print(f"  {name:38s} {row['calls']:8d} {row['self_s']:9.4f} "
              f"{row['self_pct']:7.2f} {row['incl_pct']:7.2f}{pct}")
    print("  module shares of the traced pass (self time, %): " + ", ".join(
        f"{m} {v:.2f}" for m, v in summary["modules"].items()))
    counts = ", ".join(f"{span}.{key}={value}" for (span, key), value
                       in sorted(summary["counts"].items()))
    print(f"  computed counts per pass: {counts}")
    grid = summary["rows"]["sweep.evaluate_grid_point"]["durations"]
    if grid:
        per_pass = summary["rows"]["sweep.evaluate_grid_point"]["calls"]
        print(f"  sweep.evaluate_grid_point: p50 {statistics.median(grid):.4f} s, "
              f"max {max(grid):.4f} s over {len(grid)} cells ({per_pass} per pass)")
    return spans.per_layer_metrics(summary, overhead_s, overhead_pct), summary


if __name__ == "__main__":
    sys.exit(main())
