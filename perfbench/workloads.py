"""Seeded inputs for the three benchmark workloads.

Each workload owns a fixed universe of scenes, numbered 0..UNIVERSE-1. Scene
i is a pure function of (workload, i), so reference values recorded once for
the universe stay valid for every run seed. The run seed only chooses the
order in which a run visits the universe, so every item of one run is a
distinct scene and the same seed always gives the same inputs.

The generator writes config files, plus order.txt with the command line of
each item; it never runs the program. The CLI sees only these files.
"""

import random
from pathlib import Path

WORKLOADS = ("eval_multi", "sweep_aperture", "verify_battery")

# scenes per workload, each with recorded reference values; a run ends early
# if it gets through all of them. verify seeds stop at 39: see README.md
UNIVERSE = {"eval_multi": 160, "sweep_aperture": 96, "verify_battery": 40}

# items in a traced run: fixed, so the traced counts repeat exactly
TRACE_ITEMS = {"eval_multi": 12, "sweep_aperture": 10, "verify_battery": 8}

# the calibrate.py kernel that tracks each workload best
CALIBRATION = {"eval_multi": "interpreter", "sweep_aperture": "memory",
               "verify_battery": "interpreter"}

EVAL_TARGETS = 8
EVAL_ELEMENTS = 128
EVAL_SNAPSHOTS = 128
SWEEP_SNAPSHOTS = 256
SWEEP_GRID = "16,32,64,128,256,512,1024,2048"


def _target_lines(rng, q):
    # range 60-400 m, angle +-60 deg, speed components +-5 m/s, CN(0, 1) reflectivity
    values = (("range", rng.uniform(60.0, 400.0)),
              ("angle_deg", rng.uniform(-60.0, 60.0)),
              ("vx", rng.uniform(-5.0, 5.0)),
              ("vy", rng.uniform(-5.0, 5.0)),
              ("rcs_re", rng.gauss(0.0, 0.5 ** 0.5)),
              ("rcs_im", rng.gauss(0.0, 0.5 ** 0.5)))
    return [f"target.{q}.{key} = {value:.6f}" for key, value in values]


def scene_text(workload, index):
    """Config text of scene `index` of a workload (None for verify_battery)."""
    rng = random.Random(f"{workload}:{index}")
    if workload == "eval_multi":
        lines = [f"# {workload} scene {index}",
                 f"snapshots = {EVAL_SNAPSHOTS}",
                 f"tx.count = {EVAL_ELEMENTS}",
                 f"rx.count = {EVAL_ELEMENTS}"]
        for q in range(EVAL_TARGETS):
            lines += _target_lines(rng, q)
        return "\n".join(lines) + "\n"
    if workload == "sweep_aperture":
        lines = [f"# {workload} scene {index}", f"snapshots = {SWEEP_SNAPSHOTS}"]
        return "\n".join(lines + _target_lines(rng, 0)) + "\n"
    if workload == "verify_battery":
        return None
    raise ValueError(f"unknown workload {workload!r}")


def order(workload, seed):
    """The universe indices in the order a run with this seed visits them."""
    indices = list(range(UNIVERSE[workload]))
    random.Random(f"order:{workload}:{seed}").shuffle(indices)
    return indices


class Inputs:
    """The scenes of one run, as config files under `directory`.

    The run visits the universe scenes in the order `indices`. The warm-up
    item is scene UNIVERSE, just outside the universe, which no run times.
    """

    def __init__(self, workload, seed, directory):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.indices = order(workload, seed)
        self.warmup = UNIVERSE[workload]

    def write(self):
        """Write every universe scene and the visiting order (part of set-up)."""
        prefix = f"{self.directory}/"
        lines = [" ".join([str(i)] + [a.replace(prefix, "") for a in self.argv(i, "out.csv")])
                 for i in self.indices]
        (self.directory / "order.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")

    def argv(self, index, out):
        """CLI arguments for scene `index`, writing the scene file if needed.

        `out` is the CSV path of an eval item; other workloads ignore it.
        """
        if self.workload == "verify_battery":
            return ["verify", "--seed", str(index)]
        path = self.directory / f"scene_{index:07d}.cfg"
        if not path.exists():
            path.write_text(scene_text(self.workload, index), encoding="utf-8")
        if self.workload == "eval_multi":
            return ["eval", str(path), "--out", str(out)]
        return ["sweep", str(path), "--var", "antennas", "--grid", SWEEP_GRID]
