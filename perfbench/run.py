"""Seeded, layered benchmark of the .rpca path and the CA tools.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The package is imported from the
checkout's src/ and the independent oracles from tests/helpers.py, so no
install is needed. Scratch files go to .bench_tmp/ in the checkout and are
removed at exit.

--trace 0 prints the end-to-end metrics; --trace 1 the per-layer ones (see
perfbench/README.md). Before the final line, stdout carries one line per
metric with its unit and sample count, and an ``env`` line with the
machine, versions, seed and workload parameters. The final line is one JSON
object: correct, attempted, failed, metrics. Any failed output check makes
correct false and the exit code 1.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib.util
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

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 5  # fresh interpreters per run; setup_s is their median

END_TO_END_UNITS = {
    "encrypt_MBps": "MB/s",
    "decrypt_MBps": "MB/s",
    "op_p50_ms": "ms",
    "peak_rss_MiB": "MiB",
    "setup_s": "s",
}


def _setup_seconds(key_hex: str, rounds: int, steps: int, sp) -> tuple[float, float, list[str]]:
    """Median time from a fresh interpreter to the first encrypted block, scaled and raw."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(ROOT / "src"),
           key_hex, str(rounds), str(steps)]
    scaled, raw, problems = [], [], []
    for _ in range(SETUP_REPEATS):
        sp.sample()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            first = proc.stdout.readline()
            ready = time.perf_counter()
            rest = proc.stdout.read()
            code = proc.wait(timeout=60)
        sp.sample()
        scaled.append(sp.scaled(t0, ready))
        raw.append(ready - t0)
        if first.strip() != "ready" or rest.strip() != "ok" or code:
            problems.append(f"set-up probe said {first.strip()!r}/{rest.strip()!r}, exit {code}")
    return statistics.median(scaled), statistics.median(raw), problems


def _closed_loop(seconds: float, op, sp, tracer=None) -> list[tuple[float, bool]]:
    """Operations back to back until ``seconds`` pass; when tracing, every second one is traced.

    Returns each operation's latency at the reference speed and whether it was traced.
    """
    deadline = time.perf_counter() + seconds
    min_ops = 2 if tracer is not None else 1
    ops = []
    i = 0
    sp.sample()
    while i < min_ops or time.perf_counter() < deadline:
        traced = tracer is not None and i % 2 == 1
        if tracer is not None:
            tracer.enabled = traced
        try:
            ops.append((op(i), traced))
        finally:
            if tracer is not None:
                tracer.enabled = False
        sp.maybe_sample()
        i += 1
    sp.sample()
    return [(sp.total(intervals), traced) for intervals, traced in ops]


def _load_helpers():
    spec = importlib.util.spec_from_file_location("rpca_bench_oracles", ROOT / "tests" / "helpers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _trace(wl, seconds: float, sp, cpus: set[int]) -> dict[str, float]:
    import tracemalloc

    import tracing

    tracer = tracing.Tracer()
    tracing.install_rpca(tracer)
    try:
        ops = _closed_loop(seconds, wl.op, sp, tracer)
        traced = [t for t, on in ops if on]
        plain = [t for t, on in ops if not on]
        metrics = tracing.time_metrics(tracer, len(traced))
        for line in tracing.span_summary(tracer):
            print(f"trace: {line}", file=sys.stderr)

        tracer.clear()
        tracemalloc.start()
        tracer.enabled = tracer.track_alloc = True
        try:
            wl.alloc_op()
        finally:
            tracer.enabled = tracer.track_alloc = False
            tracemalloc.stop()
        metrics.update(tracing.alloc_metrics(tracer))
    finally:
        tracer.uninstall()
    metrics.update({k: 0.0 for k in ("cipher.key_setup_ms", "analysis.encrypt_2w_MBps",
                                      "analysis.decrypt_2w_MBps", "analysis.parallel_efficiency")})
    os.sched_setaffinity(0, cpus)  # the 2-worker figure needs both CPUs
    metrics.update(wl.traced_extras())
    metrics["bench.trace_overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    metrics["bench.traced_ops"] = float(len(traced))
    return {name: (metrics[name], unit) for name, unit in tracing.LAYER_UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "rpca" / "__init__.py", ROOT / "tests" / "helpers.py")
               if not p.is_file()]
    if missing:
        print(f"perfbench: {', '.join(map(str, missing))} missing; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import rpca
    import speed
    import workloads

    if Path(rpca.__file__).resolve().parent != ROOT / "src" / "rpca":
        print(f"perfbench: imported rpca from {rpca.__file__}, not this checkout", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        cpus = speed.pin_to_one_cpu()
        sp = speed.Speed()
        wl = workloads.make(args.workload, args.seed, tmp, _load_helpers(), sp)
        env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "params": wl.params, "cpu_count": os.cpu_count(),
               "python": platform.python_version(), "numpy": np.__version__,
               "rpca": rpca.__version__, "platform": platform.platform(),
               "load": "closed loop, 1 client, 1 process", "pinned_cpu": sorted(os.sched_getaffinity(0))}
        lines, problems, probes = [], [], 0
        wl.warm()
        if args.trace:
            metrics = _trace(wl, args.seconds, sp, cpus)
            lines = [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
        else:
            setup_key = np.random.default_rng([args.seed, 5]).bytes(32).hex()
            setup_s, setup_raw, problems = _setup_seconds(setup_key, *wl.cipher_params, sp)
            probes = SETUP_REPEATS
            with sp.ticking() if wl.SAMPLE_INSIDE_CALLS else contextlib.nullcontext():
                _closed_loop(args.seconds, wl.op, sp)
            e2e, lines = wl.end_to_end()
            e2e["peak_rss_MiB"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            e2e["setup_s"] = setup_s
            lines += [f"peak_rss_MiB {e2e['peak_rss_MiB']:.1f} MiB (getrusage, this process)",
                      f"setup_s {setup_s:.4f} s at reference speed ({setup_raw:.4f} as measured; "
                      f"median of {SETUP_REPEATS} fresh interpreters)"]
            metrics = {name: (e2e[name], unit) for name, unit in END_TO_END_UNITS.items()}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    tally = wl.tally
    tally.attempted += probes
    tally.failed += len(problems)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    correct = tally.failed == 0
    lines.append(f"failed_frac {tally.failed / tally.attempted:.6g} frac "
                 f"({tally.failed} of {tally.attempted} operations)")
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for line in lines:
        print(f"  {line}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
