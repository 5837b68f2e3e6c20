"""Command line front end: config ingestion, evaluation, sweeps, verification.

Configs are plain key=value text. Sweep output is UTF-8 CSV with a '#'
metadata header; all evaluation is sequential so output bytes depend only on
the inputs (and the seed, for verification batteries).
"""

import argparse
import dataclasses
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .approx import (VARIANTS, ApproximationDomainError, NotUlaError,
                     correction_terms, crb_location_approx, crb_rcs_approx,
                     crb_velocity_approx, gain, relative_error)
from .crb import SingularFimError, _side_moments, closed_form_single, full_crb
from .fim import fim
from .geometry import ula
from .oracle import (OracleReport, brute_gain, fd_fim, fd_steering_rows,
                     make_report, monte_carlo_isotropic)
from .scene import (LIGHTSPEED, Target, dbm_to_watts, make_scene, polar_of)
from .steering import steering_stack

BOUNDS = ("rcs", "vx", "vy", "x", "y")
REGION_FLAGS = ("in_reactive", "in_fresnel", "in_fraunhofer")
SWEEP_VARS = ("range", "angle", "antennas", "snapshots", "power")

_UNITS = {"range": "m", "angle": "deg", "antennas": "count",
          "snapshots": "count", "power": "W"}
_VAR_COLUMN = {"range": "range_m", "angle": "angle_deg", "antennas": "antennas",
               "snapshots": "snapshots", "power": "power_w"}


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
    target.0.x name the same value; build_scene fills every default.
    """

    values: dict = field(default_factory=dict)
    raw: tuple = ()


_INT_KEYS = {"snapshots", "tx.count", "rx.count"}
_KEYS = {"carrier_hz", "t_sym_s", "snapshots", "power_w", "noise_dbm", "noise_w",
         *(f"{side}.{name}" for side in ("tx", "rx")
           for name in ("count", "spacing_over_lambda", "spacing_m", "centroid_x"))}
_TARGET_FIELDS = ("x", "y", "vx", "vy", "rcs_re", "rcs_im", "range", "angle_deg")
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
        try:
            idx = int(parts[1])
        except ValueError:
            raise ValueError(f"target index must be an integer in {key!r}") from None
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
    for idx in sorted(target_lines):
        try:
            _position(values, idx)
        except ConfigError as e:
            raise ConfigError(str(e), target_lines[idx]) from None
    return Config(values=values, raw=tuple(raw))


def _position(values, idx):
    x, y, r, angle = (values.get(f"target.{idx}.{name}")
                      for name in ("x", "y", "range", "angle_deg"))
    if x is not None or y is not None:
        if x is None or y is None:
            raise ConfigError(f"target.{idx} needs both x and y")
        return x, y
    if r is not None or angle is not None:
        if r is None or angle is None:
            raise ConfigError(f"target.{idx} needs both range and angle_deg")
        th = math.radians(angle)
        return r * math.sin(th), r * math.cos(th)
    raise ConfigError(f"target.{idx} needs a position (x/y or range/angle_deg)")


def build_scene(cfg):
    """Materialize the Scene a Config describes (defaults filled)."""
    v = cfg.values
    carrier = v.get("carrier_hz", 15.0e9)
    if carrier <= 0:
        raise ConfigError(f"carrier_hz must be positive, got {carrier!r}")
    lam = LIGHTSPEED / carrier

    def side(name):
        spacing = v.get(f"{name}.spacing_m",
                        v.get(f"{name}.spacing_over_lambda", 0.5) * lam)
        return ula(v.get(f"{name}.count", 256), spacing, v.get(f"{name}.centroid_x", 0.0))

    try:
        noise = v["noise_w"] if "noise_w" in v else dbm_to_watts(v.get("noise_dbm", -114.0))
    except OverflowError:
        raise ConfigError(f"noise_dbm is too large, got {v['noise_dbm']!r}") from None
    targets = []
    for idx in sorted({int(key.split(".")[1]) for key in v if key.startswith("target.")}):
        x, y = _position(v, idx)
        targets.append(Target(x=x, y=y, vx=v.get(f"target.{idx}.vx", 0.0),
                              vy=v.get(f"target.{idx}.vy", 0.0),
                              rcs_re=v.get(f"target.{idx}.rcs_re", 1.0),
                              rcs_im=v.get(f"target.{idx}.rcs_im", 0.0)))
    return make_scene(targets=targets or None, tx=side("tx"), rx=side("rx"),
                      carrier_hz=carrier, t_sym_s=v.get("t_sym_s", 1e-4),
                      snapshots=v.get("snapshots", 256), power_w=v.get("power_w", 0.1),
                      noise_var_w=noise)


# ---------------------------------------------------------------------------
# shared evaluation pieces


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _approx_bound(scene, q, bound, variant):
    if bound == "rcs":
        return crb_rcs_approx(scene, q, variant)
    if bound in ("vx", "vy"):
        return crb_velocity_approx(scene, q, bound[1], variant)
    if bound in ("x", "y"):
        return crb_location_approx(scene, q, bound, variant)
    raise ValueError(f"unknown bound {bound!r}")


def _region_flags(scene, q):
    inside_reactive = False
    beyond_fraunhofer = True
    for geom in (scene.tx, scene.rx):
        r, _ = polar_of(scene.targets[q], geom)
        reactive, fraunhofer = geom.region_boundaries(scene.wavelength_m)
        if r < reactive:
            inside_reactive = True
        if r < fraunhofer:
            beyond_fraunhofer = False
    fresnel = not inside_reactive and not beyond_fraunhofer
    return inside_reactive, fresnel, beyond_fraunhofer


def _bound_cells(scene, q, bounds, variants):
    """Cell table of one target: exact/approx/relerr cells and region flags.

    Keys are the column names of cell_columns(bounds, variants); the eval
    report, the eval CSV and every sweep row are rendered from this dict.
    """
    closed = closed_form_single(scene, q).targets[0]
    cells = dict(zip(REGION_FLAGS, _region_flags(scene, q)))
    for bound in bounds:
        exact = closed.by_name(bound)
        if "exact" in variants:
            cells[f"{bound}_exact"] = exact
        for variant in ("ff", "nf"):
            if variant not in variants:
                continue
            try:
                value = _approx_bound(scene, q, bound, variant)
            except (ApproximationDomainError, NotUlaError):
                value = None
            rel = None
            if value is not None and math.isfinite(exact) and exact != 0.0:
                rel = relative_error(value, exact)
            cells[f"{bound}_{variant}"] = value
            cells[f"relerr_{bound}_{variant}"] = rel
    return cells


def cell_columns(bounds, variants):
    """Column names of a cell table, in output order."""
    cols = []
    for bound in bounds:
        cols += [f"{bound}_{variant}" for variant in variants]
        cols += [f"relerr_{bound}_{variant}" for variant in ("ff", "nf")
                 if variant in variants]
    return cols + list(REGION_FLAGS)


def _csv_row(cells, cols):
    return ",".join(_fmt(cells.get(col)) for col in cols)


# ---------------------------------------------------------------------------
# eval


def render_eval(scene):
    """The eval text report and per-target CSV of one scene, from one cell table.

    A FIM that cannot be inverted at working precision is reported as
    status=singular with the marginal cells left empty; the closed-form
    exact, ff and nf columns do not need the full inverse and are always rendered.
    """
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
    cols = ["target"] + cell_columns(BOUNDS, VARIANTS)
    csv = [f"# nfcrb eval v{__version__}", ",".join(cols)]
    for q in range(scene.q_count):
        cells = _bound_cells(scene, q, BOUNDS, VARIANTS)
        csv.append(_csv_row({"target": q, **cells}, cols))
        region = ("reactive" if cells["in_reactive"]
                  else "fresnel" if cells["in_fresnel"] else "fraunhofer")
        lines.append(f"target.{q}.region={region}")
        marginal = report.targets[q] if report is not None else None
        for bound in BOUNDS:
            lines.append(f"target.{q}.{bound}.exact={_fmt(cells[f'{bound}_exact'])}")
            marg = marginal.by_name(bound) if marginal is not None else None
            lines.append(f"target.{q}.{bound}.marginal={_fmt(marg)}")
            for variant in ("ff", "nf"):
                lines.append(f"target.{q}.{bound}.{variant}="
                             f"{_fmt(cells[f'{bound}_{variant}'])}")
            for variant in ("ff", "nf"):
                lines.append(f"target.{q}.{bound}.relerr_{variant}="
                             f"{_fmt(cells[f'relerr_{bound}_{variant}'])}")
    return "\n".join(lines) + "\n", "\n".join(csv) + "\n"


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
            raise ValueError(f"variable must be one of {SWEEP_VARS}")
        grid = tuple(float(v) for v in self.grid)
        if not grid:
            raise ValueError("sweep grid is empty")
        if not all(math.isfinite(v) for v in grid):
            raise ValueError("sweep grid values must be finite")
        diffs = [b - a for a, b in zip(grid, grid[1:])]
        if diffs and not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
            raise ValueError("sweep grid must be strictly monotone")
        if self.variable in ("antennas", "snapshots"):
            if any(v != int(v) or v < 1 for v in grid):
                raise ValueError(f"{self.variable} grid must be positive integers")
        unknown = set(self.bounds) - set(BOUNDS)
        if unknown:
            raise ValueError(f"unknown bounds {sorted(unknown)}")
        unknown = set(self.variants) - set(VARIANTS)
        if unknown:
            raise ValueError(f"unknown variants {sorted(unknown)}")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "bounds", tuple(self.bounds))
        object.__setattr__(self, "variants", tuple(self.variants))


def _point_scene(spec, base, value):
    """The base scene with the swept quantity set to one grid value.

    range and angle move the first target about the origin.
    """
    if spec.variable == "antennas":
        return dataclasses.replace(
            base, tx=ula(int(value), base.tx.spacing, base.tx.centroid_x),
            rx=ula(int(value), base.rx.spacing, base.rx.centroid_x))
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
    moved = dataclasses.replace(t, x=r * math.sin(th), y=r * math.cos(th))
    return dataclasses.replace(base, targets=(moved, *base.targets[1:]))


def _sweep_row(spec, base, value):
    """Cells of one grid point, keyed by sweep_columns(spec)."""
    integral = spec.variable in ("antennas", "snapshots")
    row = {_VAR_COLUMN[spec.variable]: int(value) if integral else value}
    try:
        scene = _point_scene(spec, base, value)
        row.update(_bound_cells(scene, 0, spec.bounds, spec.variants), error="")
    except (ValueError, SingularFimError) as e:
        # a failed point leaves its bound cells empty and its flags at 0
        row.update(dict.fromkeys(REGION_FLAGS, False), error=str(e).replace(",", ";"))
    return row


def sweep_columns(spec):
    return ([_VAR_COLUMN[spec.variable]] + cell_columns(spec.bounds, spec.variants)
            + ["error"])


def run_sweep(spec):
    """Evaluate a sweep and render it as CSV text (header comments included).

    The base config must itself be a valid scene; its errors propagate.
    """
    base = build_scene(spec.config)
    cols = sweep_columns(spec)
    lines = [f"# nfcrb sweep v{__version__}",
             f"# variable={spec.variable} unit={_UNITS[spec.variable]}",
             "# seed=none"]
    lines += [f"# cfg: {entry}" for entry in spec.config.raw]
    lines.append(",".join(cols))
    lines += [_csv_row(_sweep_row(spec, base, value), cols) for value in spec.grid]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# verify


def _aggregate_report(name, worst, tol, steps=()):
    # batteries aggregate many comparisons; the worst deviation lands in both
    # the analytic slot and rel_err, with oracle pinned at 0
    return OracleReport(name=name, analytic=float(worst), oracle=0.0,
                        rel_err=float(worst), steps=tuple(steps), tol=float(tol),
                        passed=bool(worst <= tol))


def _verify_steering(seed, battery, skew):
    reports = []
    for i in range(battery):
        rng = np.random.default_rng(100003 * (seed + 1) + i)
        n = int(rng.choice([4, 32]))
        m_total = int(rng.choice([4, 16]))
        r = float(rng.uniform(10.0, 500.0))
        th = math.radians(float(rng.uniform(-60.0, 60.0)))
        vx, vy = (float(v) for v in rng.uniform(-20.0, 20.0, 2))
        scene = make_scene(
            targets=[Target(x=r * math.sin(th), y=r * math.cos(th), vx=vx, vy=vy,
                            rcs_re=float(rng.normal()), rcs_im=float(rng.normal()))],
            tx=ula(n, 0.01), rx=ula(n, 0.01), snapshots=m_total)
        rows = [1, m_total]
        # near broadside the x and vx derivatives are small against |a|, so
        # the steps must sit well above the carrier-phase roundoff. A velocity
        # step advances the phase of row m by up to k*m*T*step = 0.05 rad,
        # where the fourth-order difference truncates at 0.05^4/30 = 2e-7;
        # each row needs its own, while one location step serves both rows.
        k = 2.0 * math.pi * scene.carrier_hz / scene.lightspeed
        v_steps = [0.05 / (k * m * scene.t_sym_s) for m in rows]
        checks = [(kind, [0, 1], 1e-4) for kind in ("x", "y")]
        checks += [(kind, [row], v_steps[row])
                   for kind in ("vx", "vy") for row in (0, 1)]
        stacks = {side: steering_stack(scene, side, 0, m_values=rows)
                  for side in ("tx", "rx")}
        worst = 0.0
        for kind, picked, step in checks:
            refs = fd_steering_rows(scene, 0, kind, [rows[row] for row in picked],
                                    steps={kind: step})
            for side, ref in refs.items():
                ana = stacks[side].derivative(kind)[picked] * (1.0 + skew)
                err = np.linalg.norm(ana - ref, axis=1) / np.linalg.norm(ref, axis=1)
                worst = max(worst, float(err.max()))
        reports.append(_aggregate_report(f"steering-fd-{i:02d}", worst, 1e-5,
                                         steps=(1e-4, *v_steps)))
    return reports


def _canonical_scene(n=32, m=16):
    return make_scene(tx=ula(n, 0.01), rx=ula(n, 0.01), snapshots=m)


def _two_target_scene(n=8, m=8):
    t0 = Target(x=100 * math.sin(math.radians(20)), y=100 * math.cos(math.radians(20)),
                vx=1.0, vy=4.0, rcs_re=1.0, rcs_im=0.1)
    t1 = Target(x=150 * math.sin(math.radians(-45)), y=150 * math.cos(math.radians(-45)),
                vx=4.0, vy=3.0, rcs_re=0.8, rcs_im=-0.2)
    return make_scene(targets=[t0, t1], tx=ula(n, 0.01), rx=ula(n, 0.01), snapshots=m)


def _verify_fim():
    reports = []
    for name, scene in (("fim-fd-q1", _canonical_scene()),
                        ("fim-fd-q2", _two_target_scene())):
        analytic = fim(scene).matrix
        reference = fd_fim(scene).matrix
        err = np.linalg.norm(analytic - reference, "fro") / np.linalg.norm(reference, "fro")
        reports.append(_aggregate_report(name, float(err), 1e-5))
    return reports


def _verify_consistency():
    reports = []
    scene = _canonical_scene()
    info = fim(scene)
    f = info.matrix

    sym = np.linalg.norm(f - f.T, "fro") / np.linalg.norm(f, "fro")
    reports.append(_aggregate_report("fim-symmetry", float(sym), 1e-10))
    w = np.linalg.eigvalsh(f)
    negativity = max(0.0, float(-(w.min()) / np.linalg.norm(f, 2)))
    reports.append(_aggregate_report("fim-psd", negativity, 1e-8))

    closed = closed_form_single(scene, 0).targets[0]
    diag = np.diag(f)
    worst = 0.0
    for i, name in ((0, "x"), (1, "y"), (2, "vx"), (3, "vy"), (4, "alpha_r"), (5, "alpha_i")):
        worst = max(worst, abs(closed.by_name(name) * diag[i] - 1.0))
    reports.append(_aggregate_report("closed-form-diagonal", worst, 1e-10))

    # the per-side gain G of the closed form against the brute-force element sum
    t = scene.targets[0]
    g_side, _ = _side_moments(scene, scene.tx, t)
    g_ref = (scene.wavelength_m ** 2 / (16 * math.pi ** 2)) * brute_gain(scene.tx, t, "g")
    reports.append(make_report("gain-identity", g_side, g_ref, 1e-12))

    double = dataclasses.replace(scene, power_w=2 * scene.power_w)
    ratio = (closed_form_single(double, 0).targets[0].crb_alpha
             / closed_form_single(scene, 0).targets[0].crb_alpha)
    reports.append(make_report("power-scaling", ratio, 0.5, 1e-12))
    return reports


def _verify_expansions():
    reports = []
    lam = 0.02
    geom = ula(256, lam / 2)
    grid = [50.0, 100.0, 200.0, 400.0, 800.0, 1600.0]
    th = math.radians(20.0)
    residual = []
    for r in grid:
        t = Target(x=r * math.sin(th), y=r * math.cos(th))
        exact = brute_gain(geom, t, "g")
        nf = gain(geom, t, lam, "nf")
        residual.append(abs(nf - exact) / exact)
    slope = np.polyfit(np.log(grid), np.log(residual), 1)[0]
    reports.append(make_report("gain-expansion-order", float(slope), -4.0, 0.075))

    scene = make_scene()
    _, fraunhofer = scene.tx.region_boundaries(scene.wavelength_m)
    worst = 0.0
    for deg in (-60, -40, -20, 20, 40, 60):
        th = math.radians(deg)
        r = 10.0 * fraunhofer
        t = Target(x=r * math.sin(th), y=r * math.cos(th), vx=1.0, vy=4.0,
                   rcs_re=1.0, rcs_im=0.1)
        far = make_scene(targets=[t])
        c = correction_terms(far, 0)
        worst = max(worst, abs(c.psi_x - 1.0), abs(c.psi_y - 1.0))
    reports.append(_aggregate_report("psi-limit", worst, 1e-3))
    return reports


def run_verify(seed=0, battery=20, stream=None):
    """Run the oracle batteries; returns the report list (all-pass = success)."""
    stream = stream if stream is not None else sys.stdout
    reports = []
    reports += _verify_steering(seed, battery, 0.0)
    reports += _verify_fim()
    reports += _verify_consistency()
    reports += _verify_expansions()
    small = make_scene(targets=None, tx=ula(4, 0.01), rx=ula(4, 0.01), snapshots=8)
    reports.append(monte_carlo_isotropic(small, draws=1000, seed=seed))
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


def _build_parser():
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
    cfg = parse_config(Path(args.config).read_text(encoding="utf-8"))
    text, csv = render_eval(build_scene(cfg))
    sys.stdout.write(text)
    if args.out:
        Path(args.out).write_text(csv, encoding="utf-8")
    return 0


def _parse_grid(text):
    try:
        return tuple(_parse_number(v, float) for v in text.split(",") if v.strip() != "")
    except ValueError:
        raise ConfigError(f"bad grid value in {text!r}") from None


def _cmd_sweep(args):
    cfg = parse_config(Path(args.config).read_text(encoding="utf-8"))
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
    reports = run_verify(seed=args.seed, battery=args.battery)
    return 0 if all(r.passed for r in reports) else 2


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
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
    except (OSError, ValueError, SingularFimError) as e:
        sys.stderr.write(f"nfcrb: error: {e}\n")
        return 1
