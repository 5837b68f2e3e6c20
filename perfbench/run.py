"""nfcrb benchmark: one run of one workload.

    python3 perfbench/run.py --workload eval_multi --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from its src/.
Each line before the last names one metric with its unit; the last line is
one JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones from a separate traced run. README.md explains the design.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

# one BLAS thread: on the 2-core reference machine eval items took about
# 400 ms at two threads against about 290 ms at one
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# this process times the calibration kernel with numpy, under the same limit
os.environ.update({var: str(BLAS_THREADS) for var in _THREAD_VARS})

import calibrate  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7
SETUP_CAL_SAMPLES = 5
# the whole run must end within this many seconds
RUN_BUDGET_S = 170.0


def child_env():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, workdir, setup_only=False):
    """Start the workload process; return it and its set-up time in seconds.

    Set-up runs from the moment the process is started until it prints
    "ready": interpreter start, importing nfcrb and writing the inputs.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), text=True)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        proc.stdout.close()
        raise RuntimeError("workload process failed during set-up")
    return proc, setup_s


def finish(proc, deadline):
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("workload process ran out of time") from None
    proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")


def measure_setup(args, workdir, deadline):
    """Set-up times of several fresh processes, after one unmeasured.

    Returns the raw seconds and the interpreter calibration scale: the
    median over several kernel samples before each process (README.md,
    "Noise").
    """
    calibrator = calibrate.Calibrator("interpreter")
    samples, cal_s = [], []
    for k in range(SETUP_SAMPLES + 1):
        cal_s += [calibrator.sample() for _ in range(SETUP_CAL_SAMPLES)]
        proc, setup_s = start_worker(args, workdir / f"setup{k}", setup_only=True)
        finish(proc, deadline)
        if k:
            samples.append(setup_s)
    return samples, calibrator.nominal_s / statistics.median(cal_s)


def tail(values):
    """Highest nearest-rank percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    rank = max(1, len(ordered) - 10)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def item_timings(wall, cpu):
    """Item metrics from per-item wall and CPU seconds."""
    n = len(wall)
    tail_s, pct = tail(wall)
    return {
        "items_per_s": (n / sum(wall), "1/s"),
        "item_p50_ms": (1e3 * statistics.median(wall), "ms"),
        "item_tail_ms": (1e3 * tail_s, "ms"),
        "cpu_ms_per_item": (1e3 * sum(cpu) / n, "ms"),
    }, pct


def end_to_end(result, setup, setup_scale):
    """End-to-end metrics, item times calibrated; the raw ones go to the notes."""
    wall, cpu = result["wall_s"], result["cpu_s"]
    cal = result["cal_s"]
    # the speed during item i: the mean of the samples just before and after it
    scales = [2.0 * result["cal_nominal_s"] / (a + b) for a, b in zip(cal, cal[1:])]
    n = len(wall)
    failed = len(result["failures"])
    items, pct = item_timings([w * k for w, k in zip(wall, scales)],
                              [c * k for c, k in zip(cpu, scales)])
    setup_s = statistics.median(setup) * setup_scale
    metrics = {"setup_s": (setup_s, "s"), **items,
               "peak_rss_mib": (result["peak_rss_kib"] / 1024.0, "MiB"),
               "ok_frac": (1.0 - failed / n, "frac")}
    raw, _ = item_timings(wall, cpu)
    notes = [f"item_tail_ms is p{pct:.1f} of {n} items",
             f"failed_frac = {failed / n!r} frac",
             f"timed phase: {n} items in {result['phase_s']:.3f} s of wall time, "
             "calibration samples included",
             "raw (uncalibrated): " + " ".join(f"{k}={v!r}" for k, (v, _) in raw.items()),
             "calibration scale median %.4f, set-up %.4f" % (
                 statistics.median(scales), setup_scale),
             "raw set-up samples s: " + " ".join(f"{x:.4f}" for x in setup)]
    return metrics, notes


def per_layer(result):
    units = {"calls": "count", "self_s": "s", "entries": "count",
             "bytes_computed": "B", "full_crb_s": "s", "closed_form_s": "s"}
    metrics = {}
    for name, value in result["layers"].items():
        metrics[name] = (value, units.get(name.split(".", 1)[1], "frac"))
    n = len(result["wall_s"])
    notes = [f"{n} traced items; traced wall {result['traced_wall_s']:.3f} s"]
    return metrics, notes


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "nfcrb" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no nfcrb sources under {ROOT / 'src'}\n")
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    workdir = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        if not args.trace:
            setup, setup_scale = measure_setup(args, workdir, deadline)
        proc, _ = start_worker(args, workdir / "run")
        finish(proc, deadline)
        result = json.loads((workdir / "run" / "result.json").read_text(encoding="utf-8"))
    except RuntimeError as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics, notes = per_layer(result)
    else:
        metrics, notes = end_to_end(result, setup, setup_scale)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    for pos, problems in sorted(result["failures"].items(), key=lambda kv: int(kv[0])):
        print(f"FAILED item {pos}: " + "; ".join(problems[:5]))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    for note in notes:
        print(note)
    attempted = len(result["wall_s"])
    failed = len(result["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
