"""The workload process: set-up, warm-up, the measured phase, then the checks.

run.py starts this script with the BLAS thread count fixed in its
environment and reads "ready" from its stdout when set-up is done:

    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1 \
        --workdir DIR [--setup-only]

Every item calls nfcrb.cli.main in this process, as one caller in a closed
loop. The result goes to DIR/result.json.
"""

import argparse
import io
import json
import os
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import checker  # noqa: E402
import envinfo  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class Item:
    """Outputs and cost of one CLI invocation."""

    def __init__(self, index, rc, stdout, csv_text, wall_s, cpu_s):
        self.index = index
        self.rc = rc
        self.stdout = stdout
        self.csv_text = csv_text
        self.wall_s = wall_s
        self.cpu_s = cpu_s

    def same_output(self, other):
        return (self.rc, self.stdout, self.csv_text) == (other.rc, other.stdout, other.csv_text)


def import_program():
    """Import nfcrb from this checkout's src/ and return nfcrb.cli.main."""
    src = ROOT / "src"
    if not (src / "nfcrb" / "__init__.py").is_file():
        raise SystemExit(f"no nfcrb package under {src}")
    sys.path.insert(0, str(src))
    import nfcrb.cli  # noqa: F401  (binds nfcrb.cli in sys.modules)
    package = Path(sys.modules["nfcrb"].__file__).resolve()
    if src.resolve() not in package.parents:
        raise SystemExit(f"imported nfcrb from {package}, not from {src}")
    # `import nfcrb.cli` can resolve to a name the package rebinds, so go
    # through sys.modules for the module itself
    return sys.modules["nfcrb.cli"].main


def run_item(main, inputs, index, csv_path, call=None):
    """Run one item in-process with its stdout, stderr and CSV captured."""
    argv = inputs.argv(index, csv_path)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            rc = call(main, argv) if call else main(argv)
        except Exception as e:  # an item that raises is a failed item
            rc = f"raised {type(e).__name__}: {e}"
        t1 = time.perf_counter()
        c1 = time.process_time()
    csv_text = None
    if os.path.exists(csv_path):
        csv_text = Path(csv_path).read_text(encoding="utf-8")
        os.remove(csv_path)
    return Item(index, rc, out.getvalue(), csv_text, t1 - t0, c1 - c0)


def reference_cells(reference, workload, index):
    table = reference.get(workload)
    if table is None:  # verify_battery has no cells to compare
        return None
    return checker.with_relerr(dict(zip(table["keys"], table["scenes"][index])))


def check(workload, items, reruns, reference):
    """Failure messages per item position; a re-run must repeat every byte."""
    failures = {}
    for pos, (item, again) in enumerate(zip(items, reruns)):
        problems = checker.check_item(workload, item.rc, item.stdout, item.csv_text,
                                      reference_cells(reference, workload, item.index))
        if not item.same_output(again):
            problems.append("re-run output differs")
        if problems:
            failures[pos] = problems
    return failures


def timed_phase(main, inputs, seconds, csv_path, calibrator):
    """Closed loop with one caller until `seconds` pass or the universe ends.

    Calibration samples bracket every item, outside its timing: sample i is
    taken just before item i and sample i+1 just after it.
    """
    items, cal_s = [], [calibrator.sample()]
    start = time.perf_counter()
    deadline = start + seconds
    for pos in range(len(inputs.indices)):
        if time.perf_counter() >= deadline:
            break
        items.append(run_item(main, inputs, inputs.indices[pos], csv_path))
        cal_s.append(calibrator.sample())
    return items, cal_s, time.perf_counter() - start


def traced_phase(main, inputs, count, csv_path):
    """Each of `count` items untraced and traced, in alternating order."""
    t = tracer.Tracer()
    plain, traced = [], []
    for pos in range(count):
        index = inputs.indices[pos]

        def run_traced():
            with t:
                return run_item(main, inputs, index, csv_path,
                                call=lambda m, argv: t.call(pos, "cli", m, argv))

        if pos % 2 == 0:
            plain.append(run_item(main, inputs, index, csv_path))
            traced.append(run_traced())
        else:
            traced.append(run_traced())
            plain.append(run_item(main, inputs, index, csv_path))
    return plain, traced, t.spans


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workdir = Path(args.workdir)
    main_fn = import_program()
    inputs = workloads.Inputs(args.workload, args.seed, workdir / "inputs")
    inputs.write()
    reference = checker.load_reference()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    csv_path = str(workdir / "item.csv")
    run_item(main_fn, inputs, inputs.warmup, csv_path)

    result = {"workload": args.workload, "seed": args.seed}
    if args.trace:
        plain, traced, spans = traced_phase(main_fn, inputs,
                                            workloads.TRACE_ITEMS[args.workload], csv_path)
        result["layers"] = tracer.layer_metrics(spans)
        result["layers"]["trace.overhead_frac"] = (
            1.0 - sum(i.wall_s for i in plain) / sum(i.wall_s for i in traced))
        result["traced_wall_s"] = sum(i.wall_s for i in traced)
        items, reruns = traced, plain
    else:
        calibrator = calibrate.Calibrator(workloads.CALIBRATION[args.workload])
        items, cal_s, phase_s = timed_phase(main_fn, inputs, args.seconds, csv_path,
                                            calibrator)
        result["phase_s"] = phase_s
        result["cal_s"] = cal_s
        result["cal_nominal_s"] = calibrator.nominal_s
        result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        reruns = [run_item(main_fn, inputs, item.index, csv_path) for item in items]
    result["wall_s"] = [i.wall_s for i in items]
    result["cpu_s"] = [i.cpu_s for i in items]
    result["failures"] = check(args.workload, items, reruns, reference)
    result["env"] = envinfo.describe(ROOT)
    (workdir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
