"""Benchmark of ndspin: one closed-loop caller, one op at a time.

    python3 perfbench/run.py --workload design-scan --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; ndspin is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the run is traced and reports the
per-layer metrics instead.  See README.md in this directory.
"""

from __future__ import annotations

import os

# One compute thread for BLAS, before numpy is imported anywhere.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

#: Whole rounds are run until --seconds have passed and at least this many
#: ops were attempted, so a slow machine still gives the median 40 ops.
MIN_OPS = 40
#: Set-up is measured this many times per run, in fresh processes.
SETUP_PROBES = 5


def _import_program():
    """Put the checkout's ``src`` first on the path and import ndspin."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "ndspin", "__init__.py")):
        raise SystemExit(f"error: no ndspin sources under {src}")
    sys.path[:0] = [src, HERE]
    import ndspin
    if os.path.dirname(os.path.abspath(ndspin.__file__)) != os.path.join(src, "ndspin"):
        raise SystemExit(f"error: ndspin imported from {ndspin.__file__}, not {src}")


def measure_setup(args) -> float:
    """Median time from process start to a workload ready to run its first
    op: interpreter start, imports, input generation and config parsing."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 args.workload, "--seed", str(args.seed), "--probe-setup"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            t1 = time.perf_counter()
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or line != "ready":
                raise RuntimeError(f"set-up probe failed: {line!r}")
        times.append(t1 - t0)
    return statistics.median(times)


def drift_factor(kernels: list[float]) -> float:
    """NOMINAL_S over the mean kernel time of the run."""
    from kernel import NOMINAL_S
    return NOMINAL_S / statistics.fmean(kernels)


def run(args) -> int:
    _import_program()
    from kernel import time_kernel
    from workloads import WORKLOADS  # imports the modules a tracer patches
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer().install()
    snaps = [tracer.snapshot()] if tracer else []
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        cases = wl.round_cases(0)
        if args.probe_setup:
            print("ready", flush=True)
            return 0
        if tracer:
            snaps.append(tracer.snapshot())
        setup_s = None if tracer else measure_setup(args)

        wl.run(cases[0])  # warm-up: lazy imports and first-call costs, untimed
        if tracer:
            snaps.append(tracer.snapshot())
            tracer.keep_spans = True

        raw, units, problems = [], [], []
        kernels = []  # one kernel run right before and one right after every op
        attempted = failed = 0
        deep = wl.rng.randrange(len(cases))  # the op of round 0 checked in depth
        first_print = None
        t_start = time.perf_counter()
        rounds = 0
        while rounds == 0 or (time.perf_counter() - t_start < args.seconds
                              or attempted < MIN_OPS):
            if rounds:
                cases = wl.round_cases(rounds)
            for i, case in enumerate(cases):
                attempted += 1
                if tracer:
                    tracer.op = attempted
                kernels.append(time_kernel())
                t0 = time.perf_counter()
                try:
                    out = wl.run(case)
                except Exception:  # an op that raises is a failed op
                    failed += 1
                    traceback.print_exc()
                    kernels.append(time_kernel())
                    continue
                t1 = time.perf_counter()
                kernels.append(time_kernel())
                raw.append(t1 - t0)
                units.append(wl.units(case))
                if tracer:  # the checks call the program too: keep them out
                    tracer.uninstall()
                if rounds == 0 and i == 0:
                    first_print = wl.fingerprint(out)
                problems += [f"round {rounds} op {i}: {p}"
                             for p in wl.check(case, out, deep=rounds == 0 and i == deep)]
                if tracer:
                    tracer.install()
            rounds += 1
            if tracer and rounds == 1:
                snaps.append(tracer.snapshot())
                tracer.keep_spans = False
        loop_s = time.perf_counter() - t_start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.uninstall()
        if first_print and wl.fingerprint(wl.run(wl.round_cases(0)[0])) != first_print:
            problems.append("round 0 op 0: a second rendering differs from the first")
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)
        if not raw:
            print(json.dumps({"correct": False, "attempted": attempted,
                              "failed": failed, "metrics": {}}))
            return 1

        factor = drift_factor(kernels)
        corrected = [r * factor for r in raw]
        detail = {
            "workload": args.workload, "seed": args.seed, "rounds": rounds,
            "ops_timed": len(raw), "loop_s": loop_s,
            "raw_op_p50_s": statistics.median(raw),
            "corrected_op_p50_s": statistics.median(corrected),
            "kernel_mean_s": statistics.fmean(kernels),
            "raw_work_per_s": sum(units) / sum(raw),
            **wl.diagnostics(),
        }
        if tracer:
            metrics = layer_metrics(*snaps)
            os.makedirs(OUT, exist_ok=True)
            # One file per workload, replaced by its next traced run.
            tracer.write_spans(os.path.join(OUT, f"trace-{args.workload}.csv"))
        else:
            metrics = {
                "op_p50_s": {"value": statistics.median(corrected), "unit": "s"},
                "work_per_s": {"value": sum(units) / sum(corrected), "unit": "1/s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
                "setup_s": {"value": setup_s, "unit": "s"},
            }
        print(json.dumps({"detail": detail}))
        result = {"correct": not problems, "attempted": attempted,
                  "failed": failed, "metrics": metrics}
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


def layer_metrics(before_setup, after_setup, round_start, round_end) -> dict:
    """Per-layer metrics of set-up plus round 0, whose inputs depend on the
    seed alone, so the counts repeat exactly from run to run."""
    from tracing import METRICS, per_layer

    keys = set(round_end) | set(after_setup)
    combined = {k: after_setup.get(k, 0.0) - before_setup.get(k, 0.0)
                + round_end.get(k, 0.0) - round_start.get(k, 0.0) for k in keys}
    values = per_layer(combined)
    return {name: {"value": values[name], "unit": unit} for name, unit in METRICS}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("design-scan", "trap-dynamics", "artifacts"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


if __name__ == "__main__":
    sys.exit(run(parse_args()))
