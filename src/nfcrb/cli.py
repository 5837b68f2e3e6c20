"""Command line front end: config ingestion, evaluation, sweeps, verification.

Configs are plain key=value text. Sweep output is UTF-8 CSV with a '#'
metadata header; all evaluation is sequential so output bytes depend only on
the inputs (and the seed, for verification batteries).
"""

import argparse
import dataclasses
import functools
import math
import re
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .approx import VARIANTS, approx_bounds, relative_error
from .crb import SingularFimError, closed_forms, full_crb, own_bounds
from .fim import fim
from .geometry import ula
from .oracle import run_battery
from .scene import (BLOCKS, LIGHTSPEED, MIN_ELEMENT_CLEARANCE, Target, dbm_to_watts, make_scene,
                    polar_of)

BOUNDS = ("rcs", "vx", "vy", "x", "y")
# the cells of each bound, in eval's text order; _bound_cells fills each from its source
FIELDS = ("exact", "marginal", "ff", "nf", "relerr_ff", "relerr_nf")
REGIONS = ("reactive", "fresnel", "fraunhofer")
REGION_FLAGS = tuple(f"in_{region}" for region in REGIONS)
# array elements the point scenes of one sweep block hold together (_blocks): a
# point with more runs alone, so a block holds at most 256 KiB of positions
SWEEP_BLOCK_ELEMENTS = 16384
# element factors (one target state against one array element, about 230 B each
# at the peak of crb.closed_forms) one closed-form pass of a block holds beyond
# those of its largest point (_blocks), so at most about 240 KiB more
SWEEP_BLOCK_PATHS = 1024
# each swept variable's CSV column and unit; a count unit means an integer grid
SWEEP_VARS = {"range": ("range_m", "m"), "angle": ("angle_deg", "deg"),
              "antennas": ("antennas", "count"), "snapshots": ("snapshots", "count"),
              "power": ("power_w", "W")}


class ConfigError(ValueError):
    """Malformed configuration text; the message names the offending line."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class Config:
    """The values a config text sets, as {key: number}, plus its non-blank lines.

    Target keys are stored as target.{int}.{name}, so target.00.x and
    target.0.x name the same value; build_scene, make_scene and Target fill every default.
    """

    values: dict = field(default_factory=dict)
    raw: tuple = ()


_INT_KEYS = {"snapshots", "tx.count", "rx.count"}
_KEYS = {"carrier_hz", "t_sym_s", "snapshots", "power_w", "noise_dbm", "noise_w",
         *(f"{side}.{name}" for side in ("tx", "rx")
           for name in ("count", "spacing_over_lambda", "spacing_m", "centroid_x"))}
_TARGET_FIELDS = (*BLOCKS, "range", "angle_deg")
# keys that give the same quantity in other units; a config sets at most one
_RIVALS = {"noise_dbm": "noise_w", "noise_w": "noise_dbm",
           "spacing_m": "spacing_over_lambda", "spacing_over_lambda": "spacing_m"}


def _parse_number(value, kind):
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"expected a finite number, got {value}")
    if kind is int:
        if v != int(v):
            raise ValueError(f"expected an integer, got {value}")
        return int(v)
    return v


def _read_pair(values, key, value):
    """The canonical key and number of one key=value pair, checked against values."""
    if key.startswith("target."):
        parts = key.split(".")
        if len(parts) != 3 or parts[2] not in _TARGET_FIELDS:
            raise ValueError(f"unknown key {key!r}")
        if not (parts[1].isascii() and parts[1].isdigit()):
            raise ValueError(f"target index must be plain digits in {key!r}")
        idx = int(parts[1])
        key = f"target.{idx}.{parts[2]}"
        if key in values:
            raise ValueError(f"duplicate key {key!r}")
        if parts[2] in ("x", "y") and (f"target.{idx}.range" in values
                                       or f"target.{idx}.angle_deg" in values):
            raise ValueError(f"cartesian target.{idx} keys conflict with polar ones")
        if parts[2] in ("range", "angle_deg") and (f"target.{idx}.x" in values
                                                   or f"target.{idx}.y" in values):
            raise ValueError(f"polar target.{idx} keys conflict with cartesian ones")
        return key, _parse_number(value, float)
    if key not in _KEYS:
        raise ValueError(f"unknown key {key!r}")
    if key in values:
        raise ValueError(f"duplicate key {key!r}")
    prefix, _, name = key.rpartition(".")
    rival = _RIVALS.get(name)
    if rival and (f"{prefix}.{rival}" if prefix else rival) in values:
        raise ValueError(f"{name} conflicts with {rival}")
    return key, _parse_number(value, int if key in _INT_KEYS else float)


def parse_config(text):
    """Parse key=value configuration text into a Config."""
    values = {}
    raw = []
    target_lines = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        raw.append(body)
        key, sep, value = body.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ConfigError("expected key=value", lineno)
        try:
            key, number = _read_pair(values, key, value)
        except ValueError as e:
            raise ConfigError(str(e), lineno) from None
        values[key] = number
        if key.startswith("target."):
            target_lines.setdefault(int(key.split(".")[1]), lineno)
    for q, idx in enumerate(sorted(target_lines)):
        if idx != q:
            raise ConfigError(f"target.{idx} without target.{q}: target indices run "
                              "0..Q-1", target_lines[idx])
        _target(values, idx, target_lines[idx])
    return Config(values=values, raw=tuple(raw))


def _target(values, idx, line=None):
    """The Target that values give target idx; a ConfigError names line if one is given."""
    prefix = f"target.{idx}."
    x, y, r, angle = (values.get(prefix + name) for name in ("x", "y", "range", "angle_deg"))
    fields = {name: values[prefix + name] for name in BLOCKS[2:] if prefix + name in values}
    if x is not None or y is not None:
        if x is None or y is None:
            raise ConfigError(f"target.{idx} needs both x and y", line)
        return Target(x, y, **fields)
    if r is not None or angle is not None:
        if r is None or angle is None:
            raise ConfigError(f"target.{idx} needs both range and angle_deg", line)
        if r <= 0.0:
            raise ConfigError(f"target.{idx}.range must be positive, got {r!r}", line)
        return Target.at(r, math.radians(angle), **fields)
    raise ConfigError(f"target.{idx} needs a position (x/y or range/angle_deg)", line)


def build_scene(cfg):
    """The Scene a Config describes; make_scene and Target fill what the config leaves unset."""
    v = cfg.values
    carrier = v.get("carrier_hz", 15.0e9)
    if carrier <= 0:
        raise ConfigError(f"carrier_hz must be positive, got {carrier!r}")
    lam = LIGHTSPEED / carrier

    # carrier and arrays are filled here: make_scene takes whole arrays, spacing needs lambda
    def side(name):
        spacing = v.get(f"{name}.spacing_m",
                        v.get(f"{name}.spacing_over_lambda", 0.5) * lam)
        return ula(v.get(f"{name}.count", 256), spacing, v.get(f"{name}.centroid_x", 0.0))

    try:  # noise_w and noise_dbm are rivals: a config sets at most one
        noise = dbm_to_watts(v["noise_dbm"]) if "noise_dbm" in v else v.get("noise_w")
    except OverflowError:
        raise ConfigError(f"noise_dbm is too large, got {v['noise_dbm']!r}") from None
    scalars = {key: v[key] for key in ("t_sym_s", "snapshots", "power_w") if key in v}
    indices = sorted({int(key.split(".")[1]) for key in v if key.startswith("target.")})
    targets = [_target(v, idx) for idx in indices]
    return make_scene(targets=targets or None, tx=side("tx"), rx=side("rx"),
                      carrier_hz=carrier, noise_var_w=noise, **scalars)


# ---------------------------------------------------------------------------
# shared evaluation pieces


def _fmt(value):
    if type(value) is float:  # most cells
        return repr(value)
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def past_float_range(scene):
    """Whether evaluating scene may leave the float range, from O(Q) scene scalars.

    Per target and side, r and n are the farthest and nearest element ranges
    (the centroid range plus or minus the aperture, n at least the clearance)
    and x = (k + 1/n)(1 + v/n)(1 + M T) bounds |alpha| + |beta| t. Each term is
    the log10 of r^2, of 1 / g^2 = (2 k r)^2, lest G = sum g^2 underflow, of
    v r and k r v, of x^2 (with r^2 it bounds the phase k v M T), of (|rcs| x)^2
    and of a Fisher entry SNR |rcs|^2 M N_t N_r g_t^2 g_r^2 x_t^2 x_r^2 (SNR,
    |rcs| and x at least 1). full_crb tests its Jacobi scale and its inverse
    against the float range itself, so no term bounds them.
    render_eval and _sweep_rows silence numpy's warnings on such a scene only.
    """
    lg = math.log10  # of positive values; a speed or |rcs| of 0 reads -inf
    k, cpi = 2.0 * math.pi / scene.wavelength_m, scene.snapshots * scene.t_sym_s
    lk, counts = lg(k), lg(scene.snapshots * scene.tx.count * scene.rx.count)
    snr = lg(2.0 * scene.power_w / scene.noise_var_w)
    terms = []
    for t in scene.targets:
        speed, rcs = math.hypot(t.vx, t.vy), math.hypot(t.rcs_re, t.rcs_im)
        v = lg(speed) if speed else -math.inf
        rcs = lg(rcs) if rcs else -math.inf
        entry = counts + 2.0 * max(rcs, 0.0)
        for geom in (scene.tx, scene.rx):
            r, aperture = polar_of(t, geom)[0], geom.aperture
            far, near = lg(r + aperture), max(r - aperture, MIN_ELEMENT_CLEARANCE)
            x = max(lg((k + 1.0 / near) * (1.0 + speed / near) * (1.0 + cpi)), 0.0)
            terms += [2.0 * far, 2.0 * (lg(2.0) + lk + far), v + far + max(lk, 0.0), 2.0 * x,
                      2.0 * (rcs + x)]
            entry += 2.0 * (x - lg(2.0 * k * near))
        terms.append(entry + max(snr, 0.0))
    return any(term > 300.0 for term in terms)  # 1e300: room for sums and constants


def _region(scene, q):
    """The nearest of REGIONS that target q lies in over both arrays.

    Below about 0.1 lambda of aperture the reactive boundary lies beyond the
    Fraunhofer one; the target is then reactive, not also fraunhofer.
    """
    def nearest(geom):
        r, _ = polar_of(scene.targets[q], geom)
        reactive, fraunhofer = geom.region_boundaries(scene.wavelength_m)
        return 0 if r < reactive else 1 if r < fraunhofer else 2

    return REGIONS[min(scene.per_side(lambda side: nearest(scene.side(side))))]


def _column(bound, field):
    """Cell key of one field of a bound: rcs_exact, rcs_ff, relerr_rcs_ff, ..."""
    kind, _, variant = field.rpartition("_")
    return f"{kind}_{bound}_{variant}" if kind else f"{bound}_{field}"


# every bound's cell keys in FIELDS order, and eval's text line of each: built once
_CELLS = {bound: tuple(_column(bound, f) for f in FIELDS) for bound in BOUNDS}
_LINES = tuple((f"{bound}.{f}=", key) for bound in BOUNDS for f, key in zip(FIELDS, _CELLS[bound]))


def _bound_cells(scene, q, bounds, variants, closed, marginal=None):
    """The cell record of one target: "region", its flags and the _CELLS of each bound.

    closed gives the exact cells and marginal the marginal ones (None: a singular F'), each
    a TargetBounds; approx_bounds gives the ff and nf cells, an absent variant None. The
    eval report, the eval CSV and every sweep row lay out this dict.
    """
    region = _region(scene, q)
    cells = {"region": region, **{flag: r == region for flag, r in zip(REGION_FLAGS, REGIONS)}}
    ff, nf = (approx_bounds(scene, q, v, bounds) if v in variants else {} for v in ("ff", "nf"))
    for bound in bounds:
        exact, f, n = closed.by_name(bound), ff.get(bound), nf.get(bound)
        usable = math.isfinite(exact) and exact != 0.0
        # in FIELDS order: exact, marginal, ff, nf, relerr_ff, relerr_nf
        cells.update(zip(_CELLS[bound], (
            exact, None if marginal is None else marginal.by_name(bound), f, n,
            relative_error(f, exact) if usable and f is not None else None,
            relative_error(n, exact) if usable and n is not None else None)))
    return cells


def cell_columns(bounds, variants):
    """Column names of a cell table: per bound the variants, then their relerr_* as in FIELDS."""
    fields = [*variants, *(f for f in FIELDS if f.partition("relerr_")[2] in variants)]
    return [_column(bound, f) for bound in bounds for f in fields] + list(REGION_FLAGS)


def _csv(meta, cols, rows):
    """CSV text: '#' meta lines, the header, a line per dict of cell strings ("" if absent)."""
    lines = [*meta, ",".join(cols)]
    lines += [",".join([row.get(col, "") for col in cols]) for row in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# eval


def render_eval(scene):
    """The eval text report and per-target CSV of one scene, from one cell table.

    A FIM that cannot be inverted at working precision is reported as
    status=singular with the marginal cells left empty; the closed-form
    exact (crb.own_bounds of each target's own block of F'), ff and nf columns are always rendered.
    """
    with np.errstate(all="ignore" if past_float_range(scene) else None):
        info = fim(scene)
        try:
            _, report = full_crb(info)
            condition, status = report.condition_number, report.status
        except SingularFimError:
            report, condition, status = None, None, "singular"
        lines = [f"# nfcrb eval v{__version__}",
                 f"# targets={scene.q_count} snapshots={scene.snapshots} "
                 f"tx={scene.tx.count} rx={scene.rx.count}",
                 f"# condition_number={_fmt(condition)}",
                 f"# status={status}"]
        rows = []
        for q in range(scene.q_count):
            closed = own_bounds(info.centred[q::scene.q_count, q::scene.q_count], info.shift[q])
            marginal = None if report is None else report.targets[q]
            cells = {"target": q, **_bound_cells(scene, q, BOUNDS, VARIANTS, closed, marginal)}
            cells = {key: _fmt(cell) for key, cell in cells.items()}
            rows.append(cells)
            lines.append(f"target.{q}.region={cells['region']}")
            lines += [f"target.{q}.{text}{cells[key]}" for text, key in _LINES]
        return "\n".join(lines) + "\n", _csv([f"# nfcrb eval v{__version__}"],
                                            ["target"] + cell_columns(BOUNDS, VARIANTS), rows)


# ---------------------------------------------------------------------------
# sweep


@dataclass(frozen=True)
class SweepSpec:
    """One swept variable over a grid, everything else from the base config."""

    variable: str
    grid: tuple
    config: Config
    bounds: tuple = BOUNDS
    variants: tuple = VARIANTS

    def __post_init__(self):
        if self.variable not in SWEEP_VARS:
            raise ValueError(f"variable must be one of {tuple(SWEEP_VARS)}")
        grid = tuple(float(v) for v in self.grid)
        if not grid:
            raise ValueError("sweep grid is empty")
        if not all(math.isfinite(v) for v in grid):
            raise ValueError("sweep grid values must be finite")
        diffs = [b - a for a, b in zip(grid, grid[1:])]
        if diffs and not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
            raise ValueError("sweep grid must be strictly monotone")
        if SWEEP_VARS[self.variable][1] == "count" and any(v != int(v) or v < 1 for v in grid):
            raise ValueError(f"{self.variable} grid must be positive integers")
        if self.variable == "range" and min(grid) <= 0:
            raise ValueError("range grid must be positive")
        for name, values, known in (("bounds", self.bounds, BOUNDS),
                                    ("variants", self.variants, VARIANTS)):
            unknown = set(values) - set(known)
            if unknown:
                raise ValueError(f"unknown {name} {sorted(unknown)}")
            if not values or len(set(values)) < len(values):
                raise ValueError(f"{name} must be a non-empty list without repeats")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "bounds", tuple(self.bounds))
        object.__setattr__(self, "variants", tuple(self.variants))


def _point_scene(spec, base, value):
    """The base scene with the swept quantity set to one grid value.

    range and angle move the first target about the origin.
    """
    if spec.variable == "antennas":
        tx, rx = base.per_side(lambda side: ula(int(value), base.side(side).spacing,
                                                base.side(side).centroid_x))
        return dataclasses.replace(base, tx=tx, rx=rx)
    if spec.variable == "snapshots":
        return dataclasses.replace(base, snapshots=int(value))
    if spec.variable == "power":
        return dataclasses.replace(base, power_w=value)
    t = base.targets[0]
    r, th = math.hypot(t.x, t.y), math.atan2(t.x, t.y)
    if spec.variable == "range":
        r = value
    else:
        th = math.radians(value)
    moved = Target.at(r, th, **{name: getattr(t, name) for name in BLOCKS[2:]})
    return dataclasses.replace(base, targets=(moved, *base.targets[1:]))


def _sweep_rows(spec, base, passes):
    """Formatted cells of grid points, keyed by sweep_columns(spec).

    passes is one block of _blocks. Its points go through three stages
    together, each stage over all of them before the next: their scenes and
    past_float_range; a crb.closed_forms call per pass over its points whose
    scene stands (those past the float range in a call of their own, with
    numpy's warnings off); then each point's cell record. A point that fails
    a stage is an error row and takes no later stage; the points of a failed
    call are retried one at a time, so each row is the one its point gives
    alone.
    """
    column, unit = SWEEP_VARS[spec.variable]
    rows, points = [], []  # points: (row, scene, past_float_range) of each pass's standing points
    for values in passes:
        points.append([])
        for value in values:
            rows.append({column: int(value) if unit == "count" else value})
            try:
                scene = _point_scene(spec, base, value)
                points[-1].append((rows[-1], scene, past_float_range(scene)))
            except (MemoryError, ValueError) as e:
                _fail(rows[-1], e)
    closed = {}  # id(row): target 0's closed-form bounds
    for part in points:
        for past in (False, True):
            with np.errstate(all="ignore" if past else None):
                closed.update(_closed_forms([(row, scene) for row, scene, point_past in part
                                             if point_past is past]))
    for row, scene, past in (point for part in points for point in part):
        if id(row) in closed:
            try:
                with np.errstate(all="ignore" if past else None):
                    row.update(_bound_cells(scene, 0, spec.bounds, spec.variants,
                                            closed[id(row)]), error="")
            except (MemoryError, ValueError) as e:
                _fail(row, e)
    return [{key: _fmt(cell) for key, cell in row.items()} for row in rows]


def _closed_forms(points):
    """id(row): target 0's closed_forms bounds of (row, scene) points, in one call.

    If the call fails, each point takes one of its own, and a point whose
    own call fails is its error row.
    """
    try:
        return dict(zip([id(row) for row, _ in points],
                        closed_forms([scene for _, scene in points]) if points else ()))
    except (MemoryError, ValueError) as e:
        if len(points) == 1:
            _fail(points[0][0], e)
            return {}
        return {key: bounds for point in points for key, bounds in _closed_forms([point]).items()}


def _fail(row, error):
    """A failed point's row: its bound cells empty, its flags 0 and error in its error cell."""
    row.update(dict.fromkeys(REGION_FLAGS, False), error=str(error).replace(",", ";"))


def _blocks(spec, base):
    """spec.grid as consecutive blocks for _sweep_rows, each a list of closed-form passes.

    A point counts the elements of its scene's arrays, each distinct array
    once (an antennas sweep sets them, the other sweeps share the base's),
    and a block's points hold at most SWEEP_BLOCK_ELEMENTS. In a pass, points
    share element factors by group: an antennas point reads those of the
    largest ULA of its count parity (steering.block_factors), a range or
    angle point has its own target's, and power and snapshots points share
    the base's; every group but the largest holds at most SWEEP_BLOCK_PATHS
    together. A point past either budget starts the next block or pass.
    """
    sides = 1 if base.monostatic else 2
    shared = base.rx.count + (0 if base.monostatic else base.tx.count)
    block, held, factors = [[]], 0, {}  # factors: the pass's paths by group
    for value in spec.grid:
        elements = sides * int(value) if spec.variable == "antennas" else shared
        group = (int(value) % 2 if spec.variable == "antennas"
                 else value if spec.variable in ("range", "angle") else None)
        grown = {**factors, group: max(factors.get(group, 0), elements)}
        if block[0] and held + elements > SWEEP_BLOCK_ELEMENTS:
            yield block
            block, held, grown = [[]], 0, {group: elements}
        elif block[-1] and sum(grown.values()) - max(grown.values()) > SWEEP_BLOCK_PATHS:
            block.append([])
            grown = {group: elements}
        block[-1].append(value)
        held, factors = held + elements, grown
    yield block


def sweep_columns(spec):
    return ([SWEEP_VARS[spec.variable][0]] + cell_columns(spec.bounds, spec.variants)
            + ["error"])


def run_sweep(spec):
    """Evaluate a sweep and render it as CSV text (header comments included).

    The base config must itself be a valid scene; its errors propagate.
    """
    base = build_scene(spec.config)
    meta = [f"# nfcrb sweep v{__version__}",
            f"# variable={spec.variable} unit={SWEEP_VARS[spec.variable][1]}",
            "# seed=none", *(f"# cfg: {entry}" for entry in spec.config.raw)]
    rows = [row for block in _blocks(spec, base) for row in _sweep_rows(spec, base, block)]
    return _csv(meta, sweep_columns(spec), rows)


# ---------------------------------------------------------------------------
# verify


def run_verify(seed=0, battery=20, stream=None):
    """Run the oracle batteries; returns the report list (all-pass = success)."""
    stream = stream if stream is not None else sys.stdout
    reports = run_battery(seed, battery)
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        stream.write(f"{rep.name:<24} analytic={rep.analytic!r} oracle={rep.oracle!r} "
                     f"rel_err={rep.rel_err!r} steps={rep.steps!r} tol={rep.tol!r} "
                     f"{status}\n")
    ok = all(r.passed for r in reports)
    stream.write(f"verify: {'all checks passed' if ok else 'FAILURES PRESENT'} "
                 f"({sum(r.passed for r in reports)}/{len(reports)})\n")
    return reports


# ---------------------------------------------------------------------------
# argument handling


class _Parser(argparse.ArgumentParser):
    # invalid input exits 1 (2 is reserved for verification failures)
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser():
    # parsing leaves the parser unchanged, so one instance serves every main() call
    parser = _Parser(prog="nfcrb", description=__doc__)
    parser.add_argument("--version", action="version", version=f"nfcrb {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one scene and print all bounds")
    p_eval.add_argument("config", help="key=value config file")
    p_eval.add_argument("--out", help="also write per-target CSV here")

    p_sweep = sub.add_parser("sweep", help="sweep one variable and emit CSV")
    p_sweep.add_argument("config", help="key=value config file")
    p_sweep.add_argument("--var", required=True, choices=SWEEP_VARS)
    p_sweep.add_argument("--grid", required=True,
                         help="comma-separated grid values")
    p_sweep.add_argument("--bounds", default=",".join(BOUNDS),
                         help=f"comma-separated subset of {BOUNDS}")
    p_sweep.add_argument("--variants", default=",".join(VARIANTS),
                         help=f"comma-separated subset of {VARIANTS}")
    p_sweep.add_argument("--out", help="output CSV path (default stdout)")

    p_verify = sub.add_parser("verify", help="run the numeric oracle batteries")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--battery", type=int, default=20,
                          help="number of randomized derivative scenes")
    return parser


def _cmd_eval(args):
    cfg = parse_config(Path(args.config).read_text(encoding="utf-8-sig"))
    text, csv = render_eval(build_scene(cfg))
    if args.out:  # first, so that an --out that cannot be written leaves stdout empty
        Path(args.out).write_text(csv, encoding="utf-8")
    sys.stdout.write(text)
    return 0


def _parse_grid(text):
    try:
        return tuple(_parse_number(v, float) for v in text.split(",") if v.strip() != "")
    except ValueError:
        raise ConfigError(f"bad grid value in {text!r}") from None


def _cmd_sweep(args):
    cfg = parse_config(Path(args.config).read_text(encoding="utf-8-sig"))
    try:
        spec = SweepSpec(variable=args.var, grid=_parse_grid(args.grid), config=cfg,
                         bounds=tuple(b for b in args.bounds.split(",") if b),
                         variants=tuple(v for v in args.variants.split(",") if v))
    except ValueError as e:
        raise ConfigError(str(e)) from None
    text = run_sweep(spec)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args):
    for option in ("seed", "battery"):
        if getattr(args, option) < 0:
            raise ConfigError(f"--{option} must be a non-negative integer, "
                              f"got {getattr(args, option)}")
    reports = run_verify(seed=args.seed, battery=args.battery)
    return 0 if all(r.passed for r in reports) else 2


def _attach_grid(argv):
    """Join `--grid -60,-30,0` or `--grid -inf` into `--grid=-60,-30,0`, `--grid=-inf`.

    argparse reads a separate word that starts with one minus sign as an
    option unless it is one plain number, so a grid such as -inf or -nan,1
    would be left without its value; a word that starts `--` stays an option.
    """
    argv = list(argv)
    for i, word in enumerate(argv[:-1]):
        if word == "--grid" and re.match(r"-[^-]", argv[i + 1]):
            argv[i:i + 2] = [f"--grid={argv[i + 1]}"]
            break
    return argv


def _warning_line(message, category, filename, lineno, line=None):
    """warnings.formatwarning while main runs: one line, without the source path and line."""
    return f"nfcrb: warning: {message}\n"


def main(argv=None):
    # each printed warning is one line; -W error still raises it, and a caller
    # recording warnings (catch_warnings, pytest.warns) still receives it
    form, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        return _main(argv)
    finally:
        warnings.formatwarning = form


def _main(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_grid(sys.argv[1:] if argv is None else argv))
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_verify(args)
    except ConfigError as e:
        sys.stderr.write(f"nfcrb: config error: {e}\n")
        return 1
    except (MemoryError, OSError, ValueError) as e:
        sys.stderr.write(f"nfcrb: error: {e}\n")
        return 1
