#!/usr/bin/env python3
"""Repo benchmark: builds the driver, runs one workload, checks its results.

    python3 benchmark/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 benchmark/run.py --selftest
    python3 benchmark/run.py --pin [--workload NAME]

Run from the repository root. The driver (benchmark/slimfly_bench.cpp) is
built from source into .bench_build/ (or $CARGO_TARGET_DIR) on first use.

--trace 0 prints the end-to-end metrics (cpu_s, setup_s, peak_rss_mib);
--trace 1 prints the per-layer split. Either way the last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}, where `failed`
counts points that threw, left the pinned reference trajectory, or (traced)
differ from their untraced twin. A workload has VARIANTS input variants
(suite base seed + 0..VARIANTS-1), each with its own pinned reference.
--seed N selects variant N mod VARIANTS for the setup and traced passes,
and the variant the untraced run starts its cycle through all of them at.
See benchmark/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
BINARY = BUILD / "slimfly_bench"
VARIANTS = 4
CHILD_TIMEOUT_S = 170

# Setup passes per process: at least `reps`, and more until `seconds`
# elapsed; `setup_rounds` processes per variant. Only fig06_uniform and
# sparse_apps are in BENCHMARK.json. fleet_sf runs by hand: its
# barrier-stepped wall time swings 2-3x with host steal on a shared VM
# (benchmark/README.md). smoke serves --selftest.
WORKLOADS = {
    "fig06_uniform": {"setup_reps": 5, "setup_seconds": 0.25, "setup_rounds": 2},
    "sparse_apps": {"setup_reps": 2, "setup_seconds": 0.0, "setup_rounds": 1},
    "fleet_sf": {"setup_reps": 1, "setup_seconds": 0.0, "setup_rounds": 1},
    "smoke": {"setup_reps": 1, "setup_seconds": 0.0, "setup_rounds": 1},
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise SystemExit("error: benchmark build failed: " + " ".join(cmd))


def child_env():
    # Execution knobs (SF_THREADS, SF_INTRA_THREADS, SF_ENGINE, SF_ORACLE,
    # SF_SCHEDULER) stay unset: the program decides, as for a plain user.
    return {k: v for k, v in os.environ.items() if not k.startswith("SF_")}


def drive(mode, workload, variant, *extra, echo=True):
    """Runs one driver mode; echoes its report lines, returns its JSON line."""
    cmd = [str(BINARY), mode, str(HERE / "suites" / f"{workload}.json"),
           "--variant", str(variant), "--references", str(HERE / "reference"),
           *map(str, extra)]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise SystemExit(f"error: slimfly_bench {mode} {workload} failed "
                         f"(exit {proc.returncode})")
    if echo:
        for line in lines[:-1]:
            print(f"  {line}")
    return json.loads(lines[-1])


def source_digest():
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", *sorted((ROOT / "src").rglob("*"))]
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:12]


def git_revision():
    if not (ROOT / ".git").exists():  # e.g. an exported checkout
        return "none"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def print_host(host):
    print("[host] nproc={nproc} engine_threads={engine_threads} across={across} "
          "intra={intra} scheduler={scheduler} step_engine={step_engine} "
          "build_type={build_type} lto={lto}".format(**host)
          + f" git_rev={git_revision()} src_digest={source_digest()}")


def tail_percentile(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, variant, seconds):
    cfg = WORKLOADS[workload]
    # Setup processes cycle through the variants, passes pooled: a process's
    # timings sit in one of two modes (about 13 or 18 ms on fig06_uniform),
    # so a single process would make the median flip between them.
    setup = {"setup_s": [], "topo_s": [], "oracle_s": [], "point_s": []}
    for k in range(VARIANTS * cfg["setup_rounds"]):
        one = drive("setup", workload, (variant + k) % VARIANTS, "--reps",
                    cfg["setup_reps"], "--seconds", cfg["setup_seconds"], echo=False)
        for key, values in setup.items():
            values.extend(one[key])
    # One untimed engine run first: the first process after a pause runs
    # slow while the host's vCPUs wake up. Its results are still checked.
    warm = drive("run", workload, variant)
    print(f"  warm-up run (variant {variant}): {warm['wall_s']:.4f} s, untimed, "
          f"{warm['failed']:.0f} failed")
    # A cycle runs every input variant once, starting at this seed's, so
    # every benchmark run measures the same input set. Cycles repeat while
    # another cycle of the mean length fits in `seconds`.
    runs = []
    start = time.monotonic()
    while True:
        for k in range(VARIANTS):
            runs.append(drive("run", workload, (variant + k) % VARIANTS))
            r = runs[-1]
            print(f"  run {len(runs)} (variant {(variant + k) % VARIANTS}): "
                  f"{r['wall_s']:.4f} s, peak {r['peak_rss_mib']:.1f} MiB, "
                  f"{r['points_kept']:.0f} points kept, {r['failed']:.0f} failed")
        elapsed = time.monotonic() - start
        if elapsed * (1 + VARIANTS / len(runs)) > seconds:
            break
    attempted = sum(int(r["attempted"]) for r in [warm, *runs])
    failed = sum(int(r["failed"]) for r in [warm, *runs])
    print_host(runs[0]["host"])
    cpus = [r["cpu_s"] for r in runs]
    for name, values in (("cpu_s", cpus), ("wall_s", [r["wall_s"] for r in runs])):
        tail = tail_percentile(values)
        print(f"{name}: median {statistics.median(values):.4f} s over {len(values)} runs; "
              + (f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail
                 else "no tail percentile (needs >= 11 runs)"))
    print(f"setup_s: median {statistics.median(setup['setup_s']):.4f} s over "
          f"{len(setup['setup_s'])} passes (topo {statistics.median(setup['topo_s']):.4f}, "
          f"oracle {statistics.median(setup['oracle_s']):.4f}, "
          f"routing+traffic+network {statistics.median(setup['point_s']):.4f})")
    # The high-water mark over the whole untraced run. fig06_uniform's
    # per-run peak varies with the variant and within it (110-166 MiB); the
    # maximum over a cycle is steady, a median is not.
    peak = max(r["peak_rss_mib"] for r in runs)
    print(f"peak_rss_mib: {peak:.1f} MiB, the highest of {len(runs)} runs")
    print(f"points_failed: {failed} of {attempted} attempted")
    return attempted, failed, {
        "cpu_s": metric(statistics.median(cpus), "s"),
        "setup_s": metric(statistics.median(setup["setup_s"]), "s"),
        "peak_rss_mib": metric(peak, "MiB"),
    }


def per_layer(workload, variant):
    trace = drive("trace", workload, variant)
    attempted, failed = int(trace["attempted"]), int(trace["failed"])
    print_host(trace["host"])
    print(f"points_failed: {failed} of {attempted} attempted "
          "(reference gate + traced/untraced identity)")
    with open(ROOT / "BENCHMARK.json") as f:
        units = {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}
    metrics = {name: metric(trace["metrics"][name], unit) for name, unit in units.items()}
    return attempted, failed, metrics


def result(attempted, failed, metrics):
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def pin(workloads):
    for workload in workloads:
        for variant in range(VARIANTS):
            drive("pin", workload, variant, echo=False)
            log(f"pinned benchmark/reference/{workload}.v{variant}.json")


def selftest():
    """Checks the benchmark itself on the seconds-long smoke workload."""
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    checks = []
    _, failed, metrics = end_to_end("smoke", 0, 0)
    want = {m["name"] for m in spec["end_to_end"]}
    checks.append(("every end-to-end metric printed", failed == 0 and set(metrics) == want))
    _, failed, metrics = per_layer("smoke", 0)
    want = {m["name"] for m in spec["per_layer"]}
    checks.append(("every per-layer metric printed, traced == untraced",
                   failed == 0 and set(metrics) == want))
    bad = drive("run", "smoke", 0, "--perturb", echo=False)
    checks.append(("perturbed reference reported as a failed point", bad["failed"] == 1))
    direct = drive("selftest", "smoke", 0)
    checks.append(("traced decomposition == sim::simulate bit-for-bit",
                   direct["failed"] == 0 and direct["attempted"] > 0))
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}: {name}")
    return all(ok for _, ok in checks)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--pin", action="store_true",
                    help="regenerate the pinned references (all workloads by default)")
    args = ap.parse_args()
    build()
    if args.selftest:
        return 0 if selftest() else 1
    if args.pin:
        pin([args.workload] if args.workload else sorted(WORKLOADS))
        return 0
    if not args.workload:
        ap.error("--workload is required")
    variant = args.seed % VARIANTS
    print(f"workload {args.workload} seed {args.seed} (variant {variant}) trace {args.trace}")
    if args.trace:
        outcome = per_layer(args.workload, variant)
    else:
        outcome = end_to_end(args.workload, variant, args.seconds)
    print(json.dumps(result(*outcome)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
