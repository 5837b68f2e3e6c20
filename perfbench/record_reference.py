"""Record reference.json: the checked cells of every universe scene.

    python3 perfbench/record_reference.py

Runs each universe scene of eval_multi and sweep_aperture once through
nfcrb.cli.main and stores its exact, ff and nf cells, rounded to 12
significant digits (1000x tighter than checker.RTOL); the checker derives
the relerr cells from them. Re-record only when a change to the program is
meant to change these numbers, and say why in the change.
"""

import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import envinfo  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _encode(text):
    if text == "":
        return None
    if text == "inf":
        return "inf"
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"unexpected cell {text!r}")
    return float(f"{value:.12g}")


def record(workload, main, directory):
    inputs = workloads.Inputs(workload, 0, directory)
    keys, scenes = None, []
    for index in range(workloads.UNIVERSE[workload]):
        item = worker.run_item(main, inputs, index, str(Path(directory) / "item.csv"))
        if item.rc != 0:
            raise SystemExit(f"{workload} scene {index}: exit code {item.rc}")
        cells = checker.item_cells(workload, item.stdout, item.csv_text)["stdout"]
        cells = {k: v for k, v in cells.items() if k.rsplit(".", 1)[1] in checker.RECORDED}
        if keys is None:
            keys = sorted(cells)
        if sorted(cells) != keys:
            raise SystemExit(f"{workload} scene {index}: cells differ from scene 0")
        scenes.append([_encode(cells[k]) for k in keys])
    return {"keys": keys, "scenes": scenes}


def main():
    main_fn = worker.import_program()
    out = {"source_sha256": envinfo.source_digest(worker.ROOT)}
    with tempfile.TemporaryDirectory(dir=worker.ROOT) as tmp:
        for workload in ("eval_multi", "sweep_aperture"):
            out[workload] = record(workload, main_fn, Path(tmp) / workload)
    # one scene per line keeps diffs of a re-recording readable
    lines = ["{", f'"source_sha256": {json.dumps(out["source_sha256"])},']
    for n, workload in enumerate(("eval_multi", "sweep_aperture")):
        table = out[workload]
        lines.append(f'"{workload}": {{"keys": {json.dumps(table["keys"])}, "scenes": [')
        rows = [json.dumps(row) for row in table["scenes"]]
        lines.append(",\n".join(rows))
        lines.append("]}" + ("," if n == 0 else ""))
    lines.append("}")
    text = "\n".join(lines) + "\n"
    json.loads(text)
    checker.REFERENCE_PATH.write_text(text, encoding="utf-8")
    digest = hashlib.sha256(text.encode()).hexdigest()[:12]
    print(f"wrote {checker.REFERENCE_PATH} ({len(text)} bytes, sha256 {digest})")


if __name__ == "__main__":
    main()
