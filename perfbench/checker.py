"""Correctness checks on the CLI outputs of benchmark items.

An item fails when the CLI returns a nonzero code or raises, a verify line
reads FAIL, a re-run outside the timed phase gives different bytes, or one of
the checks below fails:

- every `exact`, `ff` and `nf` cell, on stdout and in the eval CSV, matches
  the value recorded in reference.json for that scene, and every `relerr_*`
  cell the value those recorded cells imply;
- a `marginal` cell that is present is at least the matching `exact` cell,
  since [F^-1]_ii >= 1/F_ii for a positive-definite F.

`status` and whether marginal cells are present are not checked: a unit-free
singularity test may legitimately change both.

Tolerance. Reversing the element order of every array, which reorders every
element sum, moves the cells of the reference scenes by at most 8e-15
relative (README.md, "Tolerance"). RTOL = 1e-9 leaves five orders of
magnitude for a reordered or regrouped sum and still flags a change in any of
the first nine significant digits. A relerr cell is a difference of two such
values divided by the exact one, so its error is absolute: it passes within
RTOL * (1 + |reference|).
"""

import json
import math
import re
from pathlib import Path

RTOL = 1e-9

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

BOUNDS = ("rcs", "vx", "vy", "x", "y")
# cells stored in reference.json; the relerr cells are derived from them
RECORDED = ("exact", "ff", "nf")

_EVAL_LINE = re.compile(r"^target\.(\d+)\.(\w+)\.(exact|marginal|ff|nf|relerr_ff|relerr_nf)=(.*)$")


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _csv_rows(text):
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines:
        return []
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _csv_key(column):
    """(bound, field) of an eval/sweep CSV column, or None for other columns."""
    for bound in BOUNDS:
        for variant in ("exact", "ff", "nf"):
            if column == f"{bound}_{variant}":
                return bound, variant
            if column == f"relerr_{bound}_{variant}":
                return bound, f"relerr_{variant}"
    return None


def eval_cells(stdout):
    """{target.Q.BOUND.FIELD: text} of an eval report, marginal included."""
    cells = {}
    for line in stdout.splitlines():
        m = _EVAL_LINE.match(line)
        if m:
            q, bound, field, value = m.groups()
            cells[f"target.{q}.{bound}.{field}"] = value
    return cells


def csv_cells(text, row_key):
    """{ROW.BOUND.FIELD: text} of an eval or sweep CSV, rows named by row_key."""
    cells = {}
    for row in _csv_rows(text):
        for column, value in row.items():
            key = _csv_key(column)
            if key is not None:
                cells[f"{row_key(row)}.{key[0]}.{key[1]}"] = value
    return cells


def item_cells(workload, stdout, csv_text):
    """Every checked cell of one item, as {source: {key: text}}."""
    if workload == "eval_multi":
        return {"stdout": eval_cells(stdout),
                "csv": csv_cells(csv_text or "", lambda row: f"target.{row['target']}")}
    if workload == "sweep_aperture":
        return {"stdout": csv_cells(stdout, lambda row: row["antennas"])}
    return {}


def _number(text):
    return math.inf if text == "inf" else float(text)


def value_matches(text, reference, relerr):
    """Whether an output cell agrees with its recorded reference value."""
    if reference is None or reference == "inf":
        return text == ("" if reference is None else "inf")
    try:
        value = _number(text)
    except ValueError:
        return False
    scale = 1.0 + abs(reference) if relerr else abs(reference)
    return abs(value - reference) <= RTOL * scale


def with_relerr(recorded):
    """Recorded cells plus the relerr cells they imply, as the CLI computes
    them: |approx - exact| / |exact|, empty without an approximation or a
    finite nonzero exact value, inf for an infinite approximation."""
    cells = dict(recorded)
    for key, exact in recorded.items():
        if not key.endswith(".exact"):
            continue
        stem = key[:-len("exact")]
        for variant in ("ff", "nf"):
            approx = recorded[stem + variant]
            if approx is None or exact in (None, "inf") or exact == 0.0:
                rel = None
            elif approx == "inf":
                rel = "inf"
            else:
                rel = abs((approx - exact) / exact)
            cells[f"{stem}relerr_{variant}"] = rel
    return cells


def check_item(workload, rc, stdout, csv_text, reference_cells):
    """Problems found in one item's outputs; an empty list means it passed.

    reference_cells is {key: value} for every checked cell of the scene
    (with_relerr of the recorded ones); verify_battery has none.
    """
    if rc != 0:
        return [f"exit code {rc}"]
    if workload == "verify_battery":
        checks = [line for line in stdout.splitlines() if " analytic=" in line]
        failed = [line.split()[0] for line in checks if not line.rstrip().endswith(" PASS")]
        if not checks:
            return ["no verify lines"]
        return [f"verify {name} did not PASS" for name in failed]
    problems = []
    for source, cells in item_cells(workload, stdout, csv_text).items():
        if reference_cells is not None:
            for key, ref in reference_cells.items():
                text = cells.get(key)
                if text is None:
                    problems.append(f"{source} {key} missing")
                elif not value_matches(text, ref, key.rsplit(".", 1)[1].startswith("relerr")):
                    problems.append(f"{source} {key}={text} differs from reference {ref!r}")
        for key, text in cells.items():
            if not key.endswith(".marginal") or text == "":
                continue
            exact = cells.get(key[:-len("marginal")] + "exact", "")
            if exact and _number(text) < _number(exact) * (1.0 - RTOL):
                problems.append(f"{source} {key}={text} below exact {exact}")
    return problems
