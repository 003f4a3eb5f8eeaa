"""Benchmark of ffparadox: end-to-end metrics per workload, or per-layer
timings with ``--trace 1``.

    python3 bench/run.py --workload experiment --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

One run measures one workload in this process, which starts no threads; its
only child processes are five fresh interpreters, run one at a time during
set-up, that time the package import.  ``--workload all`` runs every
workload one after the other, each in a fresh process.  A run builds its
inputs from ``--seed``, warms up with one untimed pass on tiny inputs, then
repeats identical passes (with a ``gc.collect()`` before each) while the next
one is expected to end within ``--seconds``, and at least three times.  A
pass is a fixed sequence of steps, each one call into the program, and every
step is timed, and so is a fixed reference kernel just before and just
after it.  ``pass_ref`` is the sum over the steps of each step's median time
across the run's passes, in units of the kernel's time around it: the host's
speed changes by up to a factor of two, for seconds or for minutes, and the
kernel cancels it while the median per step keeps the spells of a few passes
out of the figure.  ``setup_s`` is timed against the kernel in the same way
and reported in seconds at the speed where the kernel takes
``REFERENCE_KERNEL_S``.  Every pass's output must be byte-identical to the
first pass's, which is checked against independent computations after the
timing ends.  The last line of standard output is one JSON object: correct,
attempted, failed and metrics.  A failed check prints ``"correct": false``
and exits 1.
"""

import os
import sys
import time

# BLAS pools would add threads the program never needs.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import random
import resource
import shutil
import statistics
import subprocess
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOAD_NAMES = ("experiment", "analyze", "generate_large")
MIN_PASSES = 3
SETUP_REPEATS = 5
# The reference kernel's time on the 2-vCPU virtual machine the benchmark was
# written on; set-up time is reported in seconds at that machine speed.
REFERENCE_KERNEL_S = 0.08
IMPORT_CODE = (
    "import sys, time; sys.path.insert(0, {src!r}); start = time.perf_counter(); "
    "import ffparadox.cli; print(time.perf_counter() - start)"
)


def _import_program():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import ffparadox
    from ffparadox import cli, fit, metrics, netgen, powerlaw

    if Path(ffparadox.__file__).resolve().parent != ROOT / "src" / "ffparadox":
        raise SystemExit(f"ffparadox imported from {ffparadox.__file__}, not {ROOT / 'src'}")
    return (powerlaw, netgen, metrics, fit, cli), netgen.Graph


def _import_seconds():
    """Import time of the package in a fresh interpreter."""
    code = IMPORT_CODE.format(src=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], stdout=subprocess.PIPE, text=True, check=True
    )
    return float(proc.stdout)


def reference_kernel():
    """A fixed amount of work made of what the program spends its time on:
    tuples in sets and dicts, sorting, and numpy sorts and counts.  It calls
    no code of the program, so its time shows only the machine's speed."""
    rng = random.Random(20140716)
    edges, degree = set(), {}
    for _ in range(20_000):
        a, b = rng.randrange(4000), rng.randrange(4000)
        edges.add((a, b) if a < b else (b, a))
        degree[a] = degree.get(a, 0) + 1
    order = sorted(edges)
    x = (np.arange(1_500_000, dtype=np.int64) * 7919) % 1_500_007
    return len(order) + len(degree) + int(np.bincount(np.sort(x) % 1024).max())


def _reference_seconds():
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def _spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _relative(seconds_of):
    """What ``seconds_of()`` returns, over the reference kernel's time just
    before and just after it."""
    before = _reference_seconds()
    seconds = seconds_of()
    return seconds / ((before + _reference_seconds()) / 2)


def _seconds(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def run_workload(name, seed, seconds, trace, smoke):
    modules, graph_cls = _import_program()
    sys.path.insert(0, str(BENCH))
    from oracles import CheckError, require
    from tracing import Tracer
    from workloads import WORKLOADS

    spec = _spec()
    workdir = OUT / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[name](seed, smoke, workdir)
        builds, imports = [], []
        for _ in range(SETUP_REPEATS):
            builds.append(_relative(lambda: _seconds(workload.setup)))
            imports.append(_relative(_import_seconds))
        setup_s = REFERENCE_KERNEL_S * (statistics.median(imports) + statistics.median(builds))

        tracer = None
        if trace:
            tracer = Tracer()
            tracer.install(modules, graph_cls)

        # Warm up on tiny inputs of the same workload: imports, lazy set-up
        # and first-call costs are paid before timing starts.
        warm_dir = workdir / "warm-up"
        warm_dir.mkdir()
        warm = WORKLOADS[name](seed, True, warm_dir)
        warm.setup()
        warm.run_pass()
        del warm

        steps = {}  # step label -> (seconds, kernel index) in every pass, in step order
        kernel = []  # every timing of the reference kernel, in order
        fresh = False  # whether the last thing timed was the kernel

        def timed_step(label, fn, *args):
            # Step i of the run sits between kernel timings i and i + 1.
            nonlocal fresh
            if not fresh:
                kernel.append(_reference_seconds())
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                seconds = time.perf_counter() - start
                kernel.append(_reference_seconds())
                fresh = True
                steps.setdefault(label, []).append((seconds, len(kernel) - 2))

        walls, lengths, layers = [], [], []
        reference = expected = None
        begin = time.perf_counter()
        correct, message = True, None
        try:
            while len(walls) < MIN_PASSES or (
                time.perf_counter() - begin + statistics.median(lengths) <= seconds
            ):
                gc.collect()
                if tracer is not None:
                    tracer.reset()
                start, first_kernel = time.perf_counter(), len(kernel)
                result = workload.run_pass(timed_step)
                lengths.append(time.perf_counter() - start)
                # A pass's wall time leaves out the kernel timings made in it.
                walls.append(lengths[-1] - sum(kernel[first_kernel:]))
                fresh = False
                if tracer is not None:
                    layers.append((tracer.metrics(), tracer.spans))
                if reference is None:
                    reference, expected = result, workload.fingerprint(result)
                else:
                    require(
                        workload.fingerprint(result) == expected,
                        f"pass {len(walls)} output differs from the first pass",
                    )
                del result
        except CheckError as exc:
            correct, message = False, str(exc)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
        if correct:
            try:
                workload.check(reference)
            except CheckError as exc:
                correct, message = False, str(exc)

        # Each step's time relative to the reference kernel timed just before
        # and just after it, so that the host's speed at that moment cancels.
        step_medians = {}
        step_refs = {}
        for label, samples in steps.items():
            step_medians[label] = statistics.median(t for t, _ in samples)
            step_refs[label] = statistics.median(
                t / ((kernel[i] + kernel[i + 1]) / 2) for t, i in samples
            )
        wall_s = sum(step_medians.values())
        pass_ref = sum(step_refs.values())
        report = {
            "seed": seed, "smoke": smoke, "passes_s": walls, "steps": steps,
            "kernel_s": kernel, "setup_imports_ref": imports, "setup_builds_ref": builds,
            "step_medians_s": step_medians,
            "step_medians_ref": step_refs, "check_failure": message,
        }
        if tracer is None:
            values = {
                "pass_ref": pass_ref,
                "work_per_ref": workload.work_units(reference) / pass_ref,
                "setup_s": setup_s,
                "peak_rss_mb": peak_rss_mb,
            }
            wanted = spec["end_to_end"]
        else:
            # The breakdown of the traced pass of median wall time.
            order = sorted(range(len(walls)), key=walls.__getitem__)
            values, spans = layers[order[(len(order) - 1) // 2]]
            values["trace.pass_s"] = walls[order[(len(order) - 1) // 2]]
            values["wall_s"] = wall_s
            values["reference.kernel_s"] = statistics.median(kernel)
            report.update(per_layer=values, spans=spans)
            wanted = spec["per_layer"]
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            raise SystemExit(f"benchmark does not produce {missing}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
        report["metrics"] = metrics
        with open(OUT / f"{name}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
        if message:
            print(f"check failed: {message}", file=sys.stderr)
        print(json.dumps({
            "correct": correct,
            "attempted": workload.ops_per_pass * len(walls),
            "failed": workload.failed(reference) * len(walls),
            "metrics": metrics,
        }))
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args):
    """Each workload in its own fresh process, one at a time."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print(name, lines[-1] if lines else "(no result)")
        status = status or proc.returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)


if __name__ == "__main__":
    sys.exit(main())
