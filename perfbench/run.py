"""The mixeddg benchmark: timed sweeps, each in a fresh worker process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload h-tri-k1 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25     # every workload

Workers run one at a time, with BLAS threads capped at the number of usable
cores.  Untraced runs (--trace 0) repeat the sweep until the next one would end
past --seconds, then report the median wall time, set-up time and peak RSS.
Traced runs (--trace 1) alternate untraced and traced sweeps and report the
per-layer figures of the traced ones.  Every level of every sweep is checked
against reference.json; a level that fails or disagrees is counted in
"failed".  The last line of standard output is one JSON object; the lines
before it restate the figures for a reader, and the full record (environment,
every sample, every failure and the traced spans) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

# Set-up is sampled at least this many times per untraced run, by the sweeps
# themselves and by set-up-only probes.
SETUP_SAMPLES = 5
# Every run must end within 180 s; no worker is started or allowed to run
# past this point.
RUN_LIMIT_S = 165.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "mesh.s": "s", "topology.s": "s", "spaces.s": "s", "forms.s": "s",
    "solve.s": "s", "verify.s": "s", "cli.self_s": "s", "trace.overhead_s": "s",
    "topology.faces": "count", "spaces.dofs": "count", "forms.nnz": "count",
    "forms.zero_frac": "fraction", "forms.rss_mb": "MB", "solve.rss_mb": "MB",
    "solve.residual_max": "1",
}


def blas_threads() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cap = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cap
    return env


def mem_available_mb():
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def cpu_stolen_s():
    """Machine-wide steal and guest CPU seconds so far, from /proc/stat.

    Steal is time the hypervisor ran something else while a virtual CPU of
    this machine wanted to run; it shows whether a slow sweep was starved.
    """
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    tick = os.sysconf("SC_CLK_TCK")
    return {"steal": int(fields[8]) / tick, "guest": int(fields[9]) / tick}


def run_worker(workload, size, seed, traced, setup_only, timeout, env):
    """One worker process; its JSON result, or a dict with "dead" set."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--size", size, "--seed", str(seed), "--trace", str(int(traced))]
    if setup_only:
        cmd.append("--setup-only")
    stolen0 = cpu_stolen_s()
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(start)], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        return {"dead": f"timed out after {timeout:.0f} s",
                "elapsed": time.perf_counter() - start}
    elapsed = time.perf_counter() - start
    stolen1 = cpu_stolen_s()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"dead": f"worker exit code {proc.returncode}", "elapsed": elapsed}
    result = json.loads(lines[-1])
    result["elapsed"] = elapsed
    if stolen0 and stolen1:
        result["stolen_s"] = {k: stolen1[k] - stolen0[k] for k in stolen0}
    return result


def run_workload(workload, size, seed, seconds, trace, env) -> dict:
    start = time.perf_counter()
    levels = wl.level_ids(workload, size)

    def remaining():
        return RUN_LIMIT_S - (time.perf_counter() - start)

    sweeps = []
    while remaining() > 0:
        traced = trace and len(sweeps) % 2 == 1
        res = run_worker(workload, size, seed, traced, False, remaining(), env)
        res["traced"] = traced
        sweeps.append(res)
        spent = time.perf_counter() - start
        enough = len(sweeps) >= (2 if trace else 1)
        if enough and spent + res["elapsed"] > seconds:
            break
        if res["elapsed"] > remaining():
            break
    # each sweep samples set-up too; probes make up the count when sweeps are long
    probes = []
    while not trace and len(probes) + len(sweeps) < SETUP_SAMPLES and remaining() > 0:
        probes.append(run_worker(workload, size, seed, False, True, remaining(), env))

    failures = []
    for i, s in enumerate(sweeps):
        if "dead" in s:
            failures += [(i, lv, s["dead"]) for lv in levels]
        else:
            failures += [(i, lv, why) for lv, why in s["failures"].items()]
    live = [s for s in sweeps if "dead" not in s]
    plain = [s for s in live if not s["traced"]]
    traced = [s for s in live if s["traced"]]
    metrics, samples = {}, {}
    if trace and plain and traced:
        metrics = {name: statistics.median(s["layers"][name] for s in traced)
                   for name in traced[0]["layers"]}
        metrics["trace.overhead_s"] = (statistics.median(s["wall_s"] for s in traced)
                                       - statistics.median(s["wall_s"] for s in plain))
        samples = {name: len(traced) for name in PER_LAYER}
    elif not trace and plain:
        setups = [s["setup_s"] for s in probes + plain if "dead" not in s]
        metrics = {
            "wall_s": statistics.median(s["wall_s"] for s in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in plain),
        }
        samples = {"wall_s": len(plain), "setup_s": len(setups), "peak_rss_mb": len(plain)}
    return {
        "workload": workload, "size": size, "seed": seed, "trace": trace,
        "seconds": seconds, "attempted": len(levels) * len(sweeps),
        "failed": len(failures), "failures": failures, "metrics": metrics,
        "samples": samples, "sweeps": sweeps, "probes": probes,
        "env": {"nproc": blas_threads(), "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
                "mem_available_mb": mem_available_mb(),
                "stolen_s": {k: sum(s["stolen_s"][k] for s in sweeps if "stolen_s" in s)
                             for k in ("steal", "guest")},
                "versions": live[0]["versions"] if live else None},
    }


def summary_lines(rec) -> list:
    units = PER_LAYER if rec["trace"] else END_TO_END
    head = (f"{rec['workload']} ({rec['size']}, seed {rec['seed']}, "
            f"{'traced' if rec['trace'] else 'untraced'})")
    lines = [f"{head}: fail_frac {rec['failed'] / rec['attempted']:.4g} fraction "
             f"({rec['failed']} of {rec['attempted']} levels)"]
    for name, value in rec["metrics"].items():
        lines.append(f"{head}: {name} {value:.6g} {units[name]} "
                     f"(median of {rec['samples'][name]})")
    for sweep, level, why in rec["failures"]:
        lines.append(f"{head}: FAILED sweep {sweep} level {level}: {why.strip()}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="mixeddg benchmark")
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", default="full", choices=wl.SIZES,
                   help="see workloads.py; the benchmark measures \"full\"")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "mixeddg" / "__init__.py").is_file():
        print(f"perfbench: no mixeddg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    env = worker_env()
    records = [run_workload(w, args.size, args.seed, args.seconds, bool(args.trace), env)
               for w in names]
    for rec in records:
        print("\n".join(summary_lines(rec)), flush=True)
    OUT_DIR.mkdir(exist_ok=True)
    for rec in records:
        out = OUT_DIR / f"{rec['workload']}-{args.size}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(rec, indent=1) + "\n")
    if any(not rec["metrics"] for rec in records):
        print("perfbench: no sweep finished, so nothing was measured", file=sys.stderr)
        return 1

    units = PER_LAYER if args.trace else END_TO_END
    prefix = len(records) > 1
    metrics = {(f"{rec['workload']}.{name}" if prefix else name):
               {"value": value, "unit": units[name]}
               for rec in records for name, value in rec["metrics"].items()}
    failed = sum(rec["failed"] for rec in records)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(rec["attempted"] for rec in records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
