"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checker  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def cli_main():
    return worker.import_program()


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_gives_the_same_bytes_for_the_same_seed(tmp_path, workload):
    for name in ("a", "b", "other"):
        workloads.Inputs(workload, 7 if name != "other" else 8, tmp_path / name).write()
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "other")


def _first_item(cli_main, tmp_path, workload):
    inputs = workloads.Inputs(workload, 0, tmp_path)
    item = worker.run_item(cli_main, inputs, inputs.indices[0], str(tmp_path / "item.csv"))
    reference = worker.reference_cells(checker.load_reference(), workload, item.index)
    return item, reference


def _corrupt_digit(text, key):
    """Change the fourth significant digit of the cell `key=...` on stdout."""
    head, sep, rest = text.partition(f"{key}=")
    value, nl, tail = rest.partition("\n")
    first = next(i for i, ch in enumerate(value) if ch in "123456789")
    pos = [i for i in range(first, len(value)) if value[i].isdigit()][3]
    swapped = "1" if value[pos] != "1" else "2"
    return head + sep + value[:pos] + swapped + value[pos + 1:] + nl + tail


@pytest.mark.parametrize("key", ["target.3.vy.exact", "target.3.x.relerr_ff"])
def test_checker_counts_one_corrupted_digit(cli_main, tmp_path, key):
    item, reference = _first_item(cli_main, tmp_path, "eval_multi")
    assert checker.check_item("eval_multi", item.rc, item.stdout, item.csv_text, reference) == []
    bad = _corrupt_digit(item.stdout, key)
    problems = checker.check_item("eval_multi", item.rc, bad, item.csv_text, reference)
    assert len(problems) == 1 and key in problems[0]


def test_checker_counts_a_failed_verify_line(cli_main, tmp_path):
    item, reference = _first_item(cli_main, tmp_path, "verify_battery")
    assert checker.check_item("verify_battery", item.rc, item.stdout, None, reference) == []
    bad = item.stdout.replace(" PASS\n", " FAIL\n", 1)
    assert len(checker.check_item("verify_battery", item.rc, bad, None, reference)) == 1


def _traced(cli_main, tmp_path, workload, count):
    inputs = workloads.Inputs(workload, 0, tmp_path)
    plain, traced, spans = worker.traced_phase(cli_main, inputs, count,
                                               str(tmp_path / "item.csv"))
    assert all(a.same_output(b) for a, b in zip(plain, traced))
    return traced, tracer.layer_metrics(spans)


def test_traced_self_times_sum_to_no_more_than_wall_time(cli_main, tmp_path):
    traced, layers = _traced(cli_main, tmp_path, "eval_multi", 2)
    self_s = sum(layers[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert 0.0 < self_s <= sum(item.wall_s for item in traced)


def test_sweep_builds_no_fim(cli_main, tmp_path):
    _, layers = _traced(cli_main, tmp_path, "sweep_aperture", 1)
    assert layers["fim.calls"] == 0
    assert layers["steering.calls"] > 0


def test_eval_builds_every_steering_stack_three_times(cli_main, tmp_path):
    _, layers = _traced(cli_main, tmp_path, "eval_multi", 2)
    assert layers["steering.unique_frac"] == 1 / 3
