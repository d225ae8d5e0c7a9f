"""Q-CapsNets benchmark: paper-scale inference, scheme search, serving.

Run from the repository root::

    python3 perfbench/run.py --workload infer_float_paper --seed 1 \\
        --seconds 10 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  ``--workload
all`` runs every workload, each in a fresh process, and prints a
table.  ``--smoke`` runs at minimum size.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))

# Pin BLAS to one thread before numpy loads: two BLAS threads on a
# shared two-core box made timings jitter by 10-30% (README.md).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

WORKLOAD_NAMES = ("infer_float_paper", "infer_int_paper", "search_select",
                  "serve_closed_loop")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimum sizes and one op per phase")
    return parser.parse_args(argv)


def import_program():
    """Import ``repro`` from this checkout's ``src/`` or exit with 2."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program source at {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != src:
        print(f"perfbench: imported repro from {repro.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)


def timed_loop(workload, seconds, min_ops, tracer=None, first=0):
    """Run whole rounds of ops for ``seconds``, and at least ``min_ops``.

    Returns (op wall times in s, failed ops).  Outputs are observed
    after each op's clock stops.
    """
    times, failed = [], 0
    start = time.perf_counter()
    index = first
    while True:
        for _ in range(workload.round_ops):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = workload.op(index)
                else:
                    with tracer.op(f"op{index}"):
                        result = workload.op(index)
            except Exception as error:  # counted, reported, run goes on
                failed += 1
                workload.failures.append(f"op {index} raised {error!r}")
                result = None
            times.append(time.perf_counter() - t0)
            if result is not None:
                workload.observe(index, result)
            index += 1
        if len(times) >= min_ops and time.perf_counter() - start >= seconds:
            return times, failed


def run_workload(args):
    import hygiene
    import workloads
    from tracing import Tracer, blas_threads

    tracer = Tracer() if args.trace else None
    result, left = None, []
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as workdir:
            result = measure(args, workloads.WORKLOADS[args.workload], workdir, tracer)
    finally:
        # Checked on every exit path, a raising one included.
        left = hygiene.leftovers()
        if left:
            print(f"perfbench: still running after the run: {', '.join(left)}",
                  file=sys.stderr)
    print(f"# workload={args.workload} seed={args.seed} nproc={os.cpu_count()} "
          f"blas_threads={blas_threads()} attempted={result['attempted']} "
          f"failed={result['failed']}")
    print(json.dumps(result))
    if left:
        return 3
    return 0 if result["correct"] else 1


def measure(args, make, workdir, tracer):
    """Set up, time and check one workload; returns the result object."""
    import resource

    from layer_report import format_report, per_layer_metrics

    workload = make(args.seed, args.smoke, workdir)
    # Smoke runs: one set-up and one round of ops per phase.
    seconds = 0.0 if args.smoke else args.seconds
    min_ops = workload.round_ops if args.smoke else workload.min_ops
    setups = 1 if args.smoke else workload.setups
    try:
        if tracer is not None:
            tracer.install()
        setup_times = []
        for i in range(setups):
            if i:
                # A fresh instance per set-up, so the peak memory is that
                # of one set-up.
                workload.teardown()
                workload = make(args.seed, args.smoke, workdir)
                gc.collect()
            if tracer is not None:
                tracer.set_phase(f"setup{i}")
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.uninstall()
            tracer.set_phase("idle")
            # Half the run untraced, half traced: the difference of their
            # medians is the tracing overhead.
            half = max(1, min_ops // 2)
            plain, failed = timed_loop(workload, seconds / 2, half)
            tracer.install(models=workload.models())
            times, traced_failed = timed_loop(workload, seconds / 2, half, tracer,
                                              first=len(plain))
            tracer.uninstall()
            attempted, failed = len(plain) + len(times), failed + traced_failed
        else:
            times, failed = timed_loop(workload, seconds, min_ops)
            attempted = len(times)
        workload.check()

        if tracer is None:
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "op_ms": (1e3 * statistics.median(times), "ms"),
                "peak_rss_mb": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "weight_reduction_x": (workload.weight_reduction(), "x"),
            }
        else:
            metrics = per_layer_metrics(tracer, workload, plain, times, len(setup_times))
            os.makedirs(os.path.join(ROOT, ".perfbench-out"), exist_ok=True)
            stem = os.path.join(ROOT, ".perfbench-out", f"{args.workload}-seed{args.seed}")
            tracer.dump(stem + "-spans.json")
            report = format_report(workload, tracer, len(times), metrics)
            with open(stem + "-report.txt", "w", encoding="utf-8") as handle:
                handle.write(report + "\n")
            print(report)
        if tracer is not None and tracer.missing:
            print(f"perfbench: not traced: {', '.join(sorted(set(tracer.missing)))}",
                  file=sys.stderr)
        for message in workload.failures:
            print(f"perfbench: check failed: {message}", file=sys.stderr)
        return {
            "correct": not workload.failures,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.teardown()


def run_all(args):
    """Every workload in its own fresh process, then one table."""
    rows = []
    status = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = child.communicate()
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        status = status or child.returncode
        lines = out.strip().splitlines()
        if child.returncode or not lines:
            rows.append(f"{name:<20} exit {child.returncode}")
            continue
        result = json.loads(lines[-1])
        rows.append(f"{name:<20} correct={result['correct']} attempted={result['attempted']}"
                    f" failed={result['failed']}")
        rows.extend(f"    {key:<48} {m['value']:>14.4f} {m['unit']}"
                    for key, m in result["metrics"].items())
    print("\n".join(rows))
    return status


def _interrupt(signum, frame):
    raise KeyboardInterrupt(f"signal {signum}")


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _interrupt)
    if args.workload == "all":
        return run_all(args)
    import_program()
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
