#!/usr/bin/env python3
"""Benchmark of the sawtoothsim package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gate_curve --seed 0 --seconds 10 --trace 0

Workloads: gate_curve, gate_sweep_cli, kick_regimes, scatter_echo (see
README.md next to this file).  The package is imported from ``src/`` of
the checkout; without it the benchmark exits with code 1.

A run sets up (imports the package and warms the workload) in this
process and in fresh interpreters, then repeats the workload's
repetition for ``--seconds`` seconds, checks every output, and prints
``name = value unit`` lines followed, as the last line, by one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
splits the time between an untraced and a traced half, and reports the
per-layer metrics and the micro grid.  Scratch files and span dumps go
to ``.bench_build/perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE_INIT = os.path.join(SRC, "sawtoothsim", "__init__.py")
WORKDIR = os.path.join(ROOT, ".bench_build", "perfbench")

# The workloads are serial; pinning BLAS to one thread keeps the fits
# from competing with the main loop for the cores.  Set before numpy
# loads; a value already in the environment wins and is recorded.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")

# set-ups per run: this process plus fresh interpreters, at least
# MIN_SETUPS and then more (up to MAX_SETUPS) until SETUP_SECONDS of
# set-up time is collected, so a cheap set-up gets more samples
MIN_SETUPS, MAX_SETUPS, SETUP_SECONDS = 5, 12, 2.5
MIN_REPS = 3  # repetitions per timed loop, however short --seconds is


def import_package() -> float:
    """Import sawtoothsim from the checkout's src/; returns the import time."""
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import sawtoothsim
    elapsed = time.perf_counter() - t0
    if not os.path.abspath(sawtoothsim.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: sawtoothsim imported from {sawtoothsim.__file__}")
    return elapsed


def set_up(name: str, seed: int, workdir: str):
    """Import, build and warm the workload; returns it and the set-up time."""
    import_s = import_package()
    t0 = time.perf_counter()
    from workloads import WORKLOADS
    if name not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {name!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[name](seed, workdir)
    workload.warm()
    return workload, import_s + time.perf_counter() - t0


def setup_in_child(name: str, seed: int, workdir: str) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", name, "--seed", str(seed), "--workdir", workdir],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def timed_loop(workload, seconds: float, min_reps: int):
    """Repeat the workload for ``seconds``; per-repetition times and outputs."""
    times, outputs = [], []
    start = time.perf_counter()
    while len(times) < min_reps or time.perf_counter() - start < seconds:
        # garbage left by the previous repetition is not charged to this one
        gc.collect()
        t0 = time.perf_counter()
        try:
            out = workload.run()
        except Exception as exc:  # a raising operation is a failed one
            out = exc
        times.append(time.perf_counter() - t0)
        outputs.append(out)
    return times, outputs


def failures(workload, outputs) -> list:
    """Failure messages, at most one per operation of each repetition."""
    messages = []
    for out in outputs:
        if isinstance(out, Exception):
            found = [f"{workload.name}: raised {out!r}"] * workload.ops_per_rep
        else:
            try:
                found = workload.check(out)
            except Exception as exc:
                found = [f"{workload.name}: check raised {exc!r}"] * workload.ops_per_rep
        messages += found[:workload.ops_per_rep]
    return messages


def same_outputs(workload, reference, outputs) -> bool:
    if any(isinstance(o, Exception) for o in [reference, *outputs]):
        return False
    ref = workload.fingerprint(reference)
    return all(workload.fingerprint(o) == ref for o in outputs)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def _cache_bytes(level: int) -> int:
    """Size of one instance of the cpu0 cache at ``level``, in bytes."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        d = os.path.join(base, index)
        if _read(os.path.join(d, "level")) == str(level) and \
                _read(os.path.join(d, "type")) in ("Unified", "Data"):
            size = _read(os.path.join(d, "size"))
            scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1:], 1)
            return int(size.rstrip("KM")) * scale
    return 0


def environment(workload, seed: int) -> dict:
    import numpy as np

    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    l2 = _cache_bytes(2)
    return {
        "workload": workload.name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2_bytes_per_core": l2,
        "l3_bytes": _cache_bytes(3),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "block_bytes": workload.block_bytes,
        "block_over_l2": workload.block_bytes / l2 if l2 else None,
    }


def metric_units() -> dict:
    """Unit of every metric, as BENCHMARK.json at the checkout root lists it."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="freeze gate_curve's curve and kick_regimes' "
                             "rates at the default seed into reference.json "
                             "and exit")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.workload or args.write_reference):
        parser.error("--workload is required")
    if not os.path.isfile(PACKAGE_INIT):
        sys.exit(f"perfbench: no package source at {os.path.dirname(PACKAGE_INIT)}")

    workdir = args.workdir or os.path.join(
        WORKDIR, f"{args.workload or 'reference'}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(args, workdir)
    finally:
        if not args.workdir:
            shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: str) -> int:
    if args.write_reference:
        import_package()
        import workloads
        frozen = {}
        for cls in (workloads.GateCurve, workloads.KickRegimes):
            wl = cls(workloads.DEFAULT_SEED, workdir)
            frozen[wl.name] = {"seed": workloads.DEFAULT_SEED,
                               "values": wl.reference_values(wl.run())}
        with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
            json.dump(frozen, fh, indent=1)
            fh.write("\n")
        return 0

    workload, setup_s = set_up(args.workload, args.seed, workdir)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import micro
    import tracing

    env = environment(workload, args.seed)
    print("env " + json.dumps(env))

    if not args.trace:
        setups = [setup_s]
        while len(setups) < MIN_SETUPS or (
                sum(setups) < SETUP_SECONDS and len(setups) < MAX_SETUPS):
            setups.append(setup_in_child(args.workload, args.seed, workdir))
        times, outputs = timed_loop(workload, args.seconds, MIN_REPS)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wall_s = statistics.median(times)
        metrics = {
            "wall_s": wall_s,
            "member_steps_per_s": workload.member_steps / wall_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        problems = []
        traced_outputs = []
    else:
        half = args.seconds / 2.0
        times, outputs = timed_loop(workload, half, 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_times, traced_outputs = timed_loop(workload, half, 2)
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics(len(traced_times))
        metrics["tracing.overhead_s"] = (statistics.median(traced_times)
                                         - statistics.median(times))
        problems = []
        if not same_outputs(workload, outputs[0], traced_outputs):
            problems.append("traced outputs differ from untraced outputs")
        if tracer.draws != workload.expected_draws * len(traced_times):
            problems.append(f"noise draws {tracer.draws} != expected "
                            f"{workload.expected_draws} x {len(traced_times)}")
        shares = tracing.shares(metrics, statistics.mean(traced_times))
        print("layer_shares " + json.dumps({k: round(v, 4) for k, v in shares.items()}))
        tracer.dump(os.path.join(WORKDIR, f"trace-{workload.name}-seed{args.seed}.json"),
                    {"env": env, "metrics": metrics, "rep_s": traced_times})
        metrics.update(micro.grid(args.seed))

    all_outputs = outputs + traced_outputs
    messages = failures(workload, all_outputs)
    if not same_outputs(workload, outputs[0], outputs[1:]):
        problems.append("repetitions of the same inputs gave different outputs")
    for message in messages + problems:
        print("FAIL " + message, file=sys.stderr)

    attempted = workload.ops_per_rep * len(all_outputs)
    failed = len(messages)
    print(f"repetitions = {len(times)} (+{len(traced_outputs)} traced), "
          f"{workload.ops_per_rep} operations each; repetition wall time "
          f"fastest {min(times):.4f} s, slowest {max(times):.4f} s")
    print("repetition_s " + json.dumps([round(t, 4) for t in times]))
    units = metric_units()
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"attempted = {attempted}, failed = {failed}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
