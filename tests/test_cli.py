"""Config parsing, eval/sweep rendering, verify battery, and exit codes."""

import contextlib
import dataclasses
import io
import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import nfcrb
from nfcrb import (ArrayGeometry, Scene, Target, cli, closed_form_single, dbm_to_watts, make_scene,
                   ula)
from nfcrb.approx import VARIANTS
from nfcrb.cli import (BOUNDS, FIELDS, REGION_FLAGS, SWEEP_VARS, Config, ConfigError, SweepSpec,
                       _bound_cells, _column, _point_scene, build_scene, main, parse_config,
                       past_float_range, render_eval, run_sweep, run_verify, sweep_columns)
from nfcrb.fim import fim
from nfcrb.oracle import _verify_steering, fd_fim
from nfcrb.steering import KEYS

from util import (many_target_scene, parse_csv, parse_kv_lines, shared_and_unshared,
                  sharing_scenes, target_at)

DEFAULT_CFG = """\
# reference setup
carrier_hz = 15e9
snapshots = 256
power_w = 0.1
target.0.range = 100
target.0.angle_deg = 20
target.0.vx = 1
target.0.vy = 4
target.0.rcs_re = 1
target.0.rcs_im = 0.1
"""


def child_env(**overrides):
    """This process's environment with the package's src first on PYTHONPATH, for a child."""
    src = str(Path(nfcrb.__file__).resolve().parents[1])
    return {**os.environ, **overrides,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def write_cfg(tmp_path, text, name="scene.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


# configuration parsing


def test_parse_config_reads_all_key_families():
    cfg = parse_config(DEFAULT_CFG + "tx.count = 64\nrx.spacing_m = 0.02\n"
                       "tx.centroid_x = -2\nnoise_dbm = -110\n")
    assert cfg.values["carrier_hz"] == 15e9
    assert cfg.values["snapshots"] == 256
    assert cfg.values["tx.count"] == 64 and "rx.count" not in cfg.values
    assert cfg.values["rx.spacing_m"] == 0.02
    assert cfg.values["tx.centroid_x"] == -2.0
    assert cfg.values["noise_dbm"] == -110.0
    assert cfg.values["target.0.range"] == 100.0


def test_parse_config_strips_comments_and_blanks():
    cfg = parse_config("\n  # full line comment\npower_w = 0.2  # trailing\n\n")
    assert cfg.values == {"power_w": 0.2}
    assert cfg.raw == ("power_w = 0.2",)


def test_parse_config_duplicate_key_line_number():
    with pytest.raises(ConfigError, match="line 3: duplicate key 'power_w'"):
        parse_config("power_w = 0.1\nsnapshots = 8\npower_w = 0.2\n")
    # target indices are compared as integers
    with pytest.raises(ConfigError, match="line 2: duplicate key 'target.0.x'"):
        parse_config("target.0.x = 30\ntarget.00.x = 20\ntarget.0.y = 40\n")


def test_parse_config_unknown_key_line_number():
    with pytest.raises(ConfigError, match="line 2: unknown key 'bandwidth'"):
        parse_config("power_w = 0.1\nbandwidth = 1e6\n")


def test_parse_config_requires_key_value_shape():
    with pytest.raises(ConfigError, match="line 1: expected key=value"):
        parse_config("just some words\n")


def test_parse_config_noise_units_conflict():
    with pytest.raises(ConfigError, match="conflicts"):
        parse_config("noise_dbm = -114\nnoise_w = 1e-15\n")


def test_parse_config_spacing_units_conflict():
    with pytest.raises(ConfigError, match="line 2.*conflicts"):
        parse_config("tx.spacing_m = 0.01\ntx.spacing_over_lambda = 0.5\n")


def test_parse_config_position_systems_conflict():
    with pytest.raises(ConfigError, match="polar"):
        parse_config("target.0.x = 10\ntarget.0.range = 100\n")
    with pytest.raises(ConfigError,
                       match="^line 2: cartesian target.0 keys conflict with polar ones$"):
        parse_config("target.0.range = 100\ntarget.0.x = 10\n")


@pytest.mark.parametrize("key", ["target.0.z", "target.0.x.y"])
def test_parse_config_rejects_target_keys_not_of_the_form_target_n_field(key):
    with pytest.raises(ConfigError, match=f"^line 1: unknown key '{re.escape(key)}'$"):
        parse_config(f"{key} = 1\n")


def test_parse_config_incomplete_position_reports_first_target_line():
    text = "power_w = 0.1\n\ntarget.0.vx = 3\n"
    with pytest.raises(ConfigError, match="line 3: target.0 needs a position"):
        parse_config(text)
    with pytest.raises(ConfigError, match="needs both range and angle"):
        parse_config("target.0.range = 50\n")
    with pytest.raises(ConfigError, match="^line 1: target.0 needs both x and y$"):
        parse_config("target.0.x = 10\n")


def test_parse_config_rejects_fractional_integers():
    with pytest.raises(ConfigError, match="integer"):
        parse_config("snapshots = 3.5\n")
    with pytest.raises(ConfigError, match="integer"):
        parse_config("tx.count = 12.3\n")


def test_parse_config_rejects_non_numeric_target_index():
    with pytest.raises(ConfigError, match="target index"):
        parse_config("target.first.x = 1\n")


@pytest.mark.parametrize("index", ["-1", "+1", "1_0", " 1", "\u0661"])
def test_parse_config_rejects_target_indices_that_are_not_plain_digits(index):
    # int() reads each of these, 1_0 as 10
    text = f"target.0.x = 30\ntarget.0.y = 40\ntarget.{index}.x = 1\n"
    with pytest.raises(ConfigError, match=f"line 3: target index must be plain digits in "
                                          f"'target.{re.escape(index)}.x'"):
        parse_config(text)


@pytest.mark.parametrize("text, line, message", [
    ("target.0.x = 1\ntarget.0.y = 2\ntarget.2.x = 1\ntarget.2.y = 2\n", 3,
     "target.2 without target.1"),
    ("power_w = 0.1\ntarget.1.x = 1\ntarget.1.y = 2\n", 2, "target.1 without target.0"),
    ("target.3.x = 1\ntarget.3.y = 2\ntarget.7.x = 1\ntarget.7.y = 2\n", 1,
     "target.3 without target.0"),
], ids=["gap", "no-zero", "sparse"])
def test_parse_config_rejects_target_indices_that_skip_one(text, line, message):
    with pytest.raises(ConfigError, match=f"line {line}: {message}: target indices run 0..Q-1"):
        parse_config(text)


def test_eval_rejects_gapped_and_malformed_target_indices(tmp_path, capsys):
    # read by position, the first config's targets would be reported as
    # target.0..3, its target.3 being the config's target.1_0
    def targets(*indices):
        return "".join(f"target.{idx}.range = {50 + i}\ntarget.{idx}.angle_deg = 0\n"
                       for i, idx in enumerate(indices))

    for text, error in ((targets("3", "7", "-2", "1_0"),
                         "line 5: target index must be plain digits in 'target.-2.range'"),
                        (targets("0", "2"), "line 3: target.2 without target.1")):
        assert main(["eval", write_cfg(tmp_path, text)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"nfcrb: config error: {error}")


# scene construction


def test_empty_config_builds_exactly_make_scene():
    # build_scene leaves every default to make_scene and Target but the
    # carrier and the arrays, which it fills itself
    built, default = build_scene(parse_config("")), make_scene()
    scalars = [f.name for f in dataclasses.fields(Scene) if f.name not in ("tx", "rx", "targets")]
    assert [repr(getattr(built, name)) for name in scalars] == [
        repr(getattr(default, name)) for name in scalars]
    for side in ("tx", "rx"):
        ours, theirs = built.side(side), default.side(side)
        assert ours.positions.tobytes() == theirs.positions.tobytes()
        assert repr((ours.spacing, ours.centroid_x)) == repr((theirs.spacing, theirs.centroid_x))
    assert repr(built.targets) == repr(default.targets)


def test_build_scene_defaults():
    s = build_scene(parse_config(""))
    assert s.tx.count == 256 and s.rx.count == 256
    assert s.tx.spacing == pytest.approx(0.01)  # half of the 2 cm wavelength
    assert s.noise_var_w == pytest.approx(dbm_to_watts(-114.0))
    assert s.q_count == 1


def test_build_scene_resolves_polar_targets():
    s = build_scene(parse_config(DEFAULT_CFG))
    t = s.targets[0]
    assert t.x == pytest.approx(100.0 * math.sin(math.radians(20.0)))
    assert t.y == pytest.approx(100.0 * math.cos(math.radians(20.0)))
    assert (t.vx, t.vy) == (1.0, 4.0)
    assert t.rcs == 1.0 + 0.1j


def test_build_scene_fills_target_defaults():
    s = build_scene(parse_config("target.0.x = 30\ntarget.0.y = 40\n"))
    t = s.targets[0]
    assert (t.vx, t.vy) == (0.0, 0.0)
    assert t.rcs == 1.0 + 0.0j


def test_target_index_is_read_as_an_integer():
    padded = build_scene(parse_config("target.00.x = 30\ntarget.0.y = 40\n"))
    plain = build_scene(parse_config("target.0.x = 30\ntarget.0.y = 40\n"))
    assert padded.targets == plain.targets == (Target(x=30.0, y=40.0),)


@pytest.mark.parametrize("argv", [["eval"], ["sweep", "--var", "range", "--grid", "50,100"]],
                         ids=["eval", "sweep"])
@pytest.mark.parametrize("carrier", ["0", "-1"])
def test_non_positive_carrier_is_a_config_error(tmp_path, capsys, argv, carrier):
    path = write_cfg(tmp_path, f"carrier_hz = {carrier}\n")
    assert main([argv[0], path, *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("nfcrb: config error: carrier_hz must be positive, "
                            f"got {float(carrier)!r}\n")


@pytest.mark.parametrize("rng", ["-100", "0"])
def test_non_positive_target_range_is_a_config_error(tmp_path, capsys, rng):
    # a negative range would mirror the target through the array centroid, as
    # a negative range grid would; the error names the target's first line
    path = write_cfg(tmp_path, "# polar target\ntx.count = 16\nrx.count = 16\n"
                     f"target.0.range = {rng}\ntarget.0.angle_deg = 20\n")
    assert main(["eval", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("nfcrb: config error: line 4: target.0.range must be positive, "
                            f"got {float(rng)!r}\n")


def test_build_scene_spacing_and_noise_overrides():
    s = build_scene(parse_config("tx.spacing_over_lambda = 0.25\n"
                                 "rx.spacing_m = 0.03\nnoise_w = 2e-15\n"))
    assert s.tx.spacing == pytest.approx(0.005)
    assert s.rx.spacing == pytest.approx(0.03)
    assert s.noise_var_w == 2e-15


# eval


def test_eval_report_values(tmp_path, capsys):
    path = write_cfg(tmp_path, DEFAULT_CFG)
    assert main(["eval", path]) == 0
    out = capsys.readouterr().out
    kv = parse_kv_lines(out)
    assert kv["target.0.region"] == "fresnel"
    assert kv["target.0.rcs.exact"] == pytest.approx(0.03698493150982283, rel=1e-12)
    assert kv["target.0.rcs.ff"] == pytest.approx(0.03698278199933501, rel=1e-12)
    assert kv["target.0.rcs.relerr_nf"] <= kv["target.0.rcs.relerr_ff"]
    # the marginal bound accounts for nuisance coupling, the exact one conditions on it
    for bound in ("rcs", "vx", "vy", "x", "y"):
        assert kv[f"target.0.{bound}.marginal"] >= kv[f"target.0.{bound}.exact"] * (1 - 1e-9)


def test_eval_is_deterministic(tmp_path, capsys):
    path = write_cfg(tmp_path, DEFAULT_CFG)
    main(["eval", path])
    first = capsys.readouterr().out
    main(["eval", path])
    assert capsys.readouterr().out == first


def test_eval_out_csv(tmp_path, capsys):
    path = write_cfg(tmp_path, DEFAULT_CFG + "target.1.range = 150\n"
                     "target.1.angle_deg = -45\n")
    out = tmp_path / "bounds.csv"
    assert main(["eval", path, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    meta, header, rows = parse_csv(out.read_text(encoding="utf-8"))
    # the sweep schema for all bounds and variants, keyed by target, no error
    sweep = sweep_columns(SweepSpec(variable="range", grid=(100.0,), config=Config()))
    assert header == ["target"] + sweep[1:-1]
    assert [r["target"] for r in rows] == ["0", "1"]
    assert "nan" not in out.read_text(encoding="utf-8").lower()
    # every stdout cell the CSV also carries is the same text there
    compared = 0
    for line in stdout.splitlines():
        key, _, text = line.partition("=")
        parts = key.split(".")
        if parts[0] != "target" or parts[-1] == "marginal":
            continue
        row = rows[int(parts[1])]
        if parts[2] == "region":
            assert row[f"in_{text}"] == "1"
            continue
        bound, field = parts[2], parts[3]
        variant = field.removeprefix("relerr_")
        col = f"{bound}_{variant}" if variant == field else f"relerr_{bound}_{variant}"
        assert row[col] == text, key
        compared += 1
    assert compared == 2 * 5 * 5


@pytest.mark.parametrize("out", [".", "missing/bounds.csv"], ids=["directory", "no-parent"])
def test_eval_out_that_cannot_be_written_prints_no_report(tmp_path, capsys, out):
    path = write_cfg(tmp_path, DEFAULT_CFG)
    assert main(["eval", path, "--out", str(tmp_path / out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("nfcrb: error: ")
    assert captured.err.count("\n") == 1


def test_region_flags_agree_with_the_region_line(tmp_path, capsys):
    # a 0.05-wavelength aperture puts the reactive boundary (1.39e-4 m) beyond
    # the Fraunhofer one (1.0e-4 m); a target between them is reactive only
    path = write_cfg(tmp_path, "tx.count = 2\nrx.count = 2\ntx.spacing_over_lambda = 0.05\n"
                     "rx.spacing_over_lambda = 0.05\ntarget.0.x = 0\ntarget.0.y = 0.00012\n")
    out = tmp_path / "bounds.csv"
    assert main(["eval", path, "--out", str(out)]) == 0
    region = parse_kv_lines(capsys.readouterr().out)["target.0.region"]
    assert region == "reactive"
    _, _, rows = parse_csv(out.read_text(encoding="utf-8"))
    regions = ("reactive", "fresnel", "fraunhofer")
    assert [rows[0][f"in_{r}"] for r in regions] == ["1" if r == region else "0"
                                                    for r in regions]


def test_a_config_with_a_byte_order_mark_reads_like_one_without(tmp_path, capsys):
    outputs = []
    for name, text in (("plain.cfg", DEFAULT_CFG), ("bom.cfg", "\ufeff" + DEFAULT_CFG)):
        path = write_cfg(tmp_path, text, name)
        assert main(["eval", path, "--out", str(tmp_path / "eval.csv")]) == 0
        eval_text = capsys.readouterr().out
        assert main(["sweep", path, "--var", "range", "--grid", "50,100"]) == 0
        outputs.append((eval_text, (tmp_path / "eval.csv").read_text(encoding="utf-8"),
                        capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    assert "# cfg: carrier_hz = 15e9" in outputs[1][2].splitlines()


def test_eval_missing_file_exits_one(capsys):
    assert main(["eval", "/nonexistent/scene.cfg"]) == 1
    assert "nfcrb: error" in capsys.readouterr().err


def test_eval_config_error_exits_one(tmp_path, capsys):
    path = write_cfg(tmp_path, "target.0.vx = 1\n")
    assert main(["eval", path]) == 1
    err = capsys.readouterr().err
    assert "nfcrb: config error: line 1" in err


def test_overflowing_noise_dbm_is_a_config_error(tmp_path, capsys):
    # an exception escaping main fails this test, so no traceback reaches stderr
    path = write_cfg(tmp_path, "noise_dbm = 1e6\n")
    assert main(["eval", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "nfcrb: config error: noise_dbm is too large, got 1000000.0\n"


def test_unrepresentable_power_over_noise_is_an_error_without_warnings(tmp_path, capsys):
    path = write_cfg(tmp_path, "tx.count = 4\nrx.count = 4\nnoise_w = 1e-320\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["eval", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("nfcrb: error: 2*power_w/noise_var_w must be finite and "
                            "nonzero, got inf\n")


EXTREME_BASE = "snapshots = 8\ntx.count = 8\ntarget.0.range = 100\ntarget.0.angle_deg = 20\n"
# k r past the float range: a 1e300 Hz carrier and a target at 1e20 m
HIGH_CARRIER_BASE = ("snapshots = 8\ntx.count = 8\ncarrier_hz = 1e300\ntarget.0.range = 1e20\n"
                     "target.0.angle_deg = 20\n")


# EXTREME_BASE with its target at the range formatted in
FAR_BASE = "snapshots = 8\ntx.count = 8\ntarget.0.range = {!r}\ntarget.0.angle_deg = 20\n"
# two moving targets whose slow-time phase k v M T overflows, though k r does not
SLOW_PHASE = (EXTREME_BASE + "carrier_hz = 1e300\nt_sym_s = 1e100\ntarget.0.vx = 3\n"
              "target.1.range = 150\ntarget.1.angle_deg = -30\ntarget.1.vy = 2\n")
# M (M^2 - 1) past the float range, though V = T^2 M (M^2 - 1) / 12 is not
HUGE_M = EXTREME_BASE.replace("snapshots = 8", "snapshots = 1e103")


@pytest.mark.parametrize("text, argv, code, expect", [
    (EXTREME_BASE + "carrier_hz = 1e300\n", ["eval"], 0, "inf"),
    (EXTREME_BASE + "t_sym_s = 1e300\n", ["eval"], 1, "inf"),
    (EXTREME_BASE + "tx.centroid_x = 1e308\n", ["eval"], 0, "inf"),
    (EXTREME_BASE, ["sweep", "--var", "range", "--grid", "1e155,1e160"], 0, "inf"),
    (EXTREME_BASE, ["sweep", "--var", "range", "--grid", "1e100,1e101"], 0, "inf"),
    (EXTREME_BASE, ["sweep", "--var", "power", "--grid", "1e-320,1"], 0, "inf"),
    (HIGH_CARRIER_BASE, ["eval"], 0, "inf"),
    (HIGH_CARRIER_BASE + "target.1.range = 2e20\ntarget.1.angle_deg = -30\n", ["eval"], 0, "inf"),
    (HIGH_CARRIER_BASE, ["sweep", "--var", "range", "--grid", "1e10,1e20"], 0, "inf"),
    (SLOW_PHASE, ["eval"], 0, "inf"),
    (EXTREME_BASE + "carrier_hz = 1e162\n", ["eval"], 0, "singular"),
    (EXTREME_BASE + "target.0.vx = 1e300\n", ["eval"], 0, "singular"),
    (EXTREME_BASE + "noise_w = 1e-300\n", ["eval"], 0, "ok"),
    (EXTREME_BASE + "noise_w = 1e-200\n", ["eval"], 0, "ok"),
    (EXTREME_BASE + "target.0.rcs_re = 1e160\n", ["eval"], 0, "singular"),
    (EXTREME_BASE + "target.0.rcs_re = 1e160\n", ["sweep", "--var", "range", "--grid",
                                                    "100,200"], 0, "singular"),
    (EXTREME_BASE + "carrier_hz = 1e-200\n", ["eval"], 0, "singular"),
    (FAR_BASE.format(1e120) + "target.0.vx = 1e200\n", ["eval"], 0, "inf"),
    (FAR_BASE.format(1e70) + "target.0.rcs_re = 1e200\n", ["eval"], 0, "singular"),
    (EXTREME_BASE + "rx.count = 8\ntx.spacing_m = 0.01\nrx.spacing_m = 0.01\n"
     "carrier_hz = 1e-92\npower_w = 1e-297\n", ["eval"], 0, "ok"),
    (FAR_BASE.format(1e40) + "carrier_hz = 4.8e47\nt_sym_s = 1.25e51\npower_w = 1e-200\n"
     "target.0.vx = 1e102\ntarget.0.rcs_re = 0\n", ["eval"], 0, "inf"),
    (EXTREME_BASE + "rx.centroid_x = 1e150\n", ["eval"], 0, "singular"),
    ("snapshots = 1\ntx.count = 3\nrx.count = 1\nrx.centroid_x = 1e145\ntarget.0.range = 5\n"
     "target.0.angle_deg = 0\n", ["eval"], 0, "singular"),
    ("snapshots = 2\ntx.count = 2\nrx.count = 1\nt_sym_s = 1e38\ntx.spacing_m = 1e-116\n"
     "target.0.range = 5\ntarget.0.angle_deg = 0\n", ["eval"], 0, "singular"),
    ("snapshots = 1\ntx.count = 1\nrx.count = 1\npower_w = 1e230\nrx.centroid_x = 1000\n"
     "target.0.range = 6\ntarget.0.angle_deg = 0\ntarget.0.rcs_im = 1e32\n", ["eval"], 0,
     "singular-exact"),
    (HUGE_M, ["eval"], 0, "ok"),
    (EXTREME_BASE, ["sweep", "--var", "snapshots", "--grid", "16,1e103"], 0, "ok"),
], ids=["tiny-wavelength", "long-symbol", "far-tx", "far-range-sweep", "range-product-sweep",
        "subnormal-power-sweep", "high-carrier", "high-carrier-two-targets",
        "high-carrier-range-sweep", "slow-time-phase", "gain-underflow", "fast-target",
        "tiny-noise", "small-noise", "huge-rcs", "huge-rcs-sweep", "huge-wavelength",
        "fast-far-target", "far-huge-rcs", "huge-gain-tiny-power", "huge-slow-time-factor",
        "far-rx-inverse", "far-rx-one-snapshot", "wide-diagonal", "huge-power-huge-rcs",
        "huge-snapshots", "huge-snapshots-sweep"])
def test_extreme_configs_end_without_a_traceback(tmp_path, capsys, text, argv, code, expect):
    # an exception escaping main, numpy's RuntimeWarning among them, fails this
    # test. lambda^4, r^2 (at 1e155 m and beyond), (r_tx r_rx)^2 (at 1e100 m),
    # k r (at a 1e300 Hz carrier and 1e20 m), k v M T (at a 1e100 s symbol) and
    # the closed forms' denominators leave the float range, so those cells read
    # inf, as the exact ones do; a CPI whose slow-time moments overflow is an
    # error. Past the float range in G = sum g^2 (a 1e162 Hz carrier), v r,
    # |rcs|^2 (which reads inf, so the kinematic cells read 0) or the nf
    # expansion's aperture over range (a 1e-200 Hz carrier) no cell reads nan,
    # and F' is singular; so too where beta t passes 1e150 on a dark target,
    # and its square overflows. G_t G_r passes the float range at a 1e-92 Hz
    # carrier on 1 cm spacing, but 2 P / sigma^2 brings it back at 1e-297 W:
    # the own blocks' scale is formed from mantissas, and the scene inverts. At
    # 1e230 W and |rcs| = 1e32, on one element a side with the Rx 1 km away,
    # SNR |rcs|^2 alone passes the float range and G_t G_r brings the product
    # back: F' is singular, its exact cells finite and positive, as they are
    # wherever it inverts. At 1e-300 and 1e-200 W of noise diag F' passes 1e154,
    # and the scene inverts: the Jacobi scale keeps d_i d_j in range. With the Rx array
    # at 1e145-1e150 m diag F' falls to 1e-300 or below, and an inverse past
    # the float range (which T's zeros would turn into nan) is singular; so is
    # an F' whose diagonal spans more than the float range (1e-229 to 1e81 at a
    # 1e38 s symbol on 1e-116 m spacing), where the Jacobi scale overflows. At
    # 1e103 snapshots the integer M (M^2 - 1) leaves the float range but V does
    # not, and the scene inverts
    path = write_cfg(tmp_path, text)
    assert main([argv[0], path, *argv[1:]]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == ""
        assert captured.err == ("nfcrb: error: the CPI of 8 snapshots of 1e+300 s is too "
                                "long: its slow-time moments overflow\n")
        return
    if argv[0] == "eval":
        assert f"# status={'ok' if expect == 'ok' else 'singular'}" in captured.out.splitlines()
        lines = dict(line.split("=", 1) for line in captured.out.splitlines()
                     if line.startswith("target.0."))
        cells = [{_column(bound, field): lines[f"target.0.{bound}.{field}"] for bound in BOUNDS
                  for field in ("marginal", *VARIANTS, "relerr_ff", "relerr_nf")}]
    else:
        _, _, cells = parse_csv(captured.out)
        assert [row["error"] for row in cells] == ["", ""]
        cells = cells[:1] if argv[2] == "power" else cells  # power 1 is an ordinary point
    for row in cells:
        assert "nan" not in row.values()
        for bound in BOUNDS:
            marginal = row.get(_column(bound, "marginal"), "")  # a sweep prints none
            if expect == "ok" and argv[0] == "eval":
                assert 0.0 < float(marginal) < math.inf
            elif expect != "ok":
                assert marginal == ""
            if expect in ("ok", "singular-exact"):
                assert 0.0 < float(row[_column(bound, "exact")]) < math.inf
            if expect == "inf":
                assert [row[_column(bound, v)] for v in VARIANTS] == ["inf"] * 3
                assert [row[_column(bound, f"relerr_{v}")] for v in ("ff", "nf")] == ["", ""]


@pytest.mark.parametrize("text, argv, code", [
    (SLOW_PHASE, ["eval"], 0),
    (EXTREME_BASE + "t_sym_s = 1e300\n", ["eval"], 1),
    (HUGE_M, ["eval"], 0),
    (EXTREME_BASE, ["sweep", "--var", "snapshots", "--grid", "16,1e103"], 0),
], ids=["slow-time-phase", "long-symbol", "huge-snapshots", "huge-snapshots-sweep"])
def test_extreme_configs_end_without_a_traceback_as_a_command(tmp_path, text, argv, code):
    # a fresh interpreter with numpy's RuntimeWarning an error from its start,
    # as a user runs it: the exit code and stderr are the process's own
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "nfcrb", argv[0],
                           write_cfg(tmp_path, text), *argv[1:]], env=child_env(),
                          capture_output=True, timeout=120)
    assert proc.returncode == code, proc.stderr.decode()
    assert b"Traceback" not in proc.stderr


@st.composite
def float_range_configs(draw):
    """Config text and command of a scene with 1e+-300 scales, on 1-2 targets and 1-8 elements.

    Range is 5-500 m or a log-uniform scale; carrier, symbol time, power,
    noise, spacing, centroid, speed and reflectivity keep their defaults or
    take one. The command is eval, or a sweep of one variable over two points.
    """
    def scale(signed=False):
        value = 10.0 ** draw(st.floats(-300.0, 300.0))
        return -value if signed and draw(st.booleans()) else value

    lines = [f"{key} = {draw(st.integers(1, 8))}" for key in ("snapshots", "tx.count", "rx.count")]
    keys = ["carrier_hz", "t_sym_s", "power_w", "noise_w", "tx.spacing_m", "rx.spacing_m"]
    lines += [f"{key} = {scale()!r}" for key in keys if draw(st.booleans())]
    lines += [f"{side}.centroid_x = {scale(True)!r}" for side in ("tx", "rx")
              if draw(st.booleans())]
    for q in range(draw(st.integers(1, 2))):
        r = scale() if draw(st.booleans()) else draw(st.floats(5.0, 500.0))
        angle = draw(st.floats(-80.0, 80.0))
        lines += [f"target.{q}.range = {r!r}", f"target.{q}.angle_deg = {angle!r}"]
        lines += [f"target.{q}.{key} = {scale(True)!r}" for key in ("vx", "vy", "rcs_re", "rcs_im")
                  if draw(st.booleans())]
    var = draw(st.sampled_from([None, *cli.SWEEP_VARS]))
    if var is None:
        return lines, ["eval"]
    if var in ("range", "power"):
        grid = sorted({scale(), scale()})
    elif var == "angle":
        grid = sorted({draw(st.floats(-80.0, 80.0)), draw(st.floats(-80.0, 80.0))})
    else:
        grid = sorted({draw(st.integers(1, 8)), draw(st.integers(1, 8))})
    return lines, ["sweep", "--var", var, "--grid", ",".join(map(repr, grid))]


@settings(derandomize=True, max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(float_range_configs())
def test_configs_past_the_float_range_end_in_cells_or_a_one_line_error(tmp_path, case):
    # numpy's RuntimeWarning is an error here, so a warning or any other
    # exception escaping main fails; a config that passes validation prints
    # its cells, none of them nan, and any other ends in one error line
    lines, argv = case
    path = write_cfg(tmp_path, "\n".join(lines) + "\n")
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the small-displacement warning
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], path, *argv[1:]])
    if code == 1:
        assert out.getvalue() == ""
        assert re.fullmatch(r"nfcrb: (config )?error: [^\n]+\n", err.getvalue())
    else:
        assert code == 0
        assert "nan" not in re.split(r"[=,\n]", out.getvalue())


def test_float_range_guard_is_off_for_ordinary_scenes():
    # render_eval and _point_stages silence numpy only past the float range, so
    # on these scenes a numpy warning still reaches a caller that asked for it
    configs = [_permutation_cfg(targets) for targets, _ in permutation_configs()]
    scenes = [make_scene()] + [build_scene(parse_config(text)) for text in configs]
    base = build_scene(parse_config("snapshots = 256\ntarget.0.range = 60\n"
                                    "target.0.angle_deg = 60\ntarget.0.vx = 5\n"))
    spec = SweepSpec(variable="antennas", grid=(16, 2048), config=Config())
    scenes += [cli._point_scene(spec, base, n) for n in spec.grid]
    assert not any(map(past_float_range, scenes))


def test_numpy_warnings_reach_the_caller_unless_past_the_float_range(tmp_path, monkeypatch):
    def warning_fim(scene):
        np.float64(1e308) * np.float64(10.0)  # numpy: overflow encountered in scalar multiply
        return fim(scene)

    monkeypatch.setattr(cli, "fim", warning_fim)
    with pytest.raises(RuntimeWarning, match="overflow"):
        render_eval(make_scene())
    far = build_scene(parse_config(EXTREME_BASE + "carrier_hz = 1e162\n"))
    assert past_float_range(far)
    assert "# status=singular" in render_eval(far)[0].splitlines()


def test_underflowing_jacobi_scale_is_a_singular_report(tmp_path, capsys):
    # one-element sides see a target's location only through its Doppler, so
    # the second target's x and y information, at 1e-100 m/s, reads about
    # 1e-205: their product underflows the Jacobi scale to 0, which full_crb
    # reports as singular instead of dividing by it
    path = write_cfg(tmp_path, "tx.count = 1\nrx.count = 1\nsnapshots = 2\n" + "".join(
        f"target.{q}.x = 0.08726203218641757\ntarget.{q}.y = 4.999238475781956\n{v}\n"
        for q, v in enumerate(("target.0.vy = 1", "target.1.vx = 1e-100"))))
    assert main(["eval", path]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = parse_kv_lines(captured.out)
    assert "# status=singular" in captured.out.splitlines()
    for q in range(2):
        for bound in BOUNDS:
            assert lines[f"target.{q}.{bound}.marginal"] is None
            assert all(math.isfinite(lines[f"target.{q}.{bound}.{v}"]) for v in VARIANTS)


def test_overflowing_element_spacing_is_an_error_without_warnings(tmp_path, capsys):
    path = write_cfg(tmp_path, "tx.spacing_m = 1e307\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["eval", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "nfcrb: error: element positions must be finite\n"


def test_sweep_row_with_unrepresentable_power_over_noise_is_an_error_row(tmp_path, capsys):
    path = write_cfg(tmp_path, DEFAULT_CFG + "noise_w = 1e-10\n")
    assert main(["sweep", path, "--var", "power", "--grid", "1,1e300"]) == 0
    _, header, rows = parse_csv(capsys.readouterr().out)
    assert rows[0]["error"] == "" and rows[0]["rcs_exact"] != ""
    assert "power_w/noise_var_w must be finite" in rows[1]["error"]
    bound_cols = [c for c in header if c.startswith(BOUNDS) or c.startswith("relerr_")]
    assert bound_cols and all(rows[1][c] == "" for c in bound_cols)


# each size asks for more than 2**47 bytes, the x86-64 user address space, so
# the allocation fails at once whatever the overcommit policy
@pytest.mark.parametrize("text", [
    EXTREME_BASE + "rx.count = 1e16\n",
    EXTREME_BASE.replace("snapshots = 8", "snapshots = 1e16")
    + "target.1.range = 150\ntarget.1.angle_deg = -30\n",
], ids=["rx-count", "two-target-snapshots"])
def test_unallocatable_arrays_end_eval_in_one_error_line(tmp_path, capsys, text):
    assert main(["eval", write_cfg(tmp_path, text)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("nfcrb: error: ") and captured.err.count("\n") == 1


def test_unallocatable_sweep_point_is_an_error_row(tmp_path, capsys):
    path = write_cfg(tmp_path, EXTREME_BASE)
    assert main(["sweep", path, "--var", "antennas", "--grid", "16,1e16"]) == 0
    _, header, rows = parse_csv(capsys.readouterr().out)
    assert rows[0]["error"] == "" and rows[0]["rcs_exact"] != ""
    assert rows[1]["antennas"] == "10000000000000000"
    assert rows[1]["error"] != "" and "," not in rows[1]["error"]
    assert [rows[1][flag] for flag in REGION_FLAGS] == ["0"] * 3
    bound_cols = [c for c in header if c.startswith(BOUNDS) or c.startswith("relerr_")]
    assert all(rows[1][c] == "" for c in bound_cols)


def test_too_long_cpi_error_is_one_short_line(tmp_path, capsys):
    path = write_cfg(tmp_path, EXTREME_BASE.replace("snapshots = 8", "snapshots = 1e300"))
    assert main(["eval", path]) == 1
    assert capsys.readouterr().err == ("nfcrb: error: the CPI of 1e+300 snapshots of 0.0001 s "
                                       "is too long: its slow-time moments overflow\n")


@pytest.mark.parametrize("text, argv", [
    ("snapshots = inf\n", ["eval"]),
    ("target.0.x = nan\ntarget.0.y = 100\n", ["eval"]),
    ("power_w = nan\n", ["eval"]),
    ("target.0.range = inf\ntarget.0.angle_deg = 20\n", ["eval"]),
    (DEFAULT_CFG, ["sweep", "--var", "antennas", "--grid", "inf"]),
    (DEFAULT_CFG, ["sweep", "--var", "range", "--grid", "nan"]),
], ids=["snapshots-inf", "x-nan", "power-nan", "range-inf", "antennas-grid-inf",
        "range-grid-nan"])
def test_non_finite_values_are_config_errors(tmp_path, capsys, text, argv):
    # an exception escaping main fails this test, so no traceback reaches stderr
    path = write_cfg(tmp_path, text)
    assert main([argv[0], path, *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("nfcrb: config error: ")
    if argv[0] == "eval":
        assert "line 1: expected a finite number" in err


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.startswith("nfcrb ")


def test_one_parser_serves_every_call_alike(tmp_path, capsys, monkeypatch):
    # main() reuses one parser; a fresh parser per call must give the same
    # bytes and exit codes, error exits included
    assert cli._build_parser() is cli._build_parser()
    path = write_cfg(tmp_path, DEFAULT_CFG.replace("snapshots = 256", "snapshots = 8")
                     + "tx.count = 8\nrx.count = 8\n")
    argvs = (["eval", path], ["verify", "--seed", "-1"],
             ["sweep", path, "--var", "range", "--grid", "50,100"], ["--version"],
             ["eval", path])

    def run_all():
        runs = []
        for argv in argvs:
            code = main(argv)
            runs.append((code, capsys.readouterr()))
        return runs

    cached = run_all()
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert run_all() == cached
    assert [code for code, _ in cached] == [0, 1, 0, 0, 0]


# sweep


def test_sweep_spec_rejects_an_unknown_variable():
    message = f"variable must be one of {tuple(SWEEP_VARS)}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SweepSpec(variable="carrier", grid=(1.0,), config=Config())


def test_sweep_csv_schema():
    spec = SweepSpec(variable="range", grid=(50.0, 100.0),
                     config=parse_config(DEFAULT_CFG))
    text = run_sweep(spec)
    meta, header, rows = parse_csv(text)
    assert meta[0].startswith("# nfcrb sweep v")
    assert "# variable=range unit=m" in meta
    assert "# seed=none" in meta
    assert any(line.startswith("# cfg: carrier_hz") for line in meta)
    assert header == sweep_columns(spec)
    assert header[0] == "range_m" and header[-4:] == ["in_reactive", "in_fresnel",
                                                      "in_fraunhofer", "error"]
    assert len(rows) == 2
    assert all(r["error"] == "" for r in rows)
    assert rows[0]["in_fresnel"] == "1"


def test_sweep_is_byte_deterministic():
    spec = SweepSpec(variable="antennas", grid=(16, 32, 64),
                     config=parse_config(DEFAULT_CFG), bounds=("rcs", "vx"))
    assert run_sweep(spec) == run_sweep(spec)


def test_sweep_single_point_matches_eval():
    cfg = parse_config(DEFAULT_CFG)
    text = run_sweep(SweepSpec(variable="range", grid=(100.0,), config=cfg))
    _, _, rows = parse_csv(text)
    report = parse_kv_lines(render_eval(build_scene(cfg))[0])
    for bound in ("rcs", "vx", "x"):
        assert float(rows[0][f"{bound}_exact"]) == report[f"target.0.{bound}.exact"]
        assert float(rows[0][f"{bound}_nf"]) == report[f"target.0.{bound}.nf"]


@pytest.mark.parametrize("var, grid", [("range", (10.0, 55.5, 400.0)),
                                       ("angle", (-70.0, 0.0, 33.3))])
def test_sweeps_move_a_cartesian_first_target_about_the_origin(var, grid):
    cfg = parse_config("snapshots = 8\ntx.count = 8\ntarget.0.x = 30\ntarget.0.y = 80\n"
                       "target.0.vx = 1\ntarget.0.rcs_im = -0.5\n"
                       "target.1.range = 90\ntarget.1.angle_deg = -40\n")
    base = build_scene(cfg)
    spec = SweepSpec(variable=var, grid=grid, config=cfg)
    t = base.targets[0]
    r0, th0 = math.hypot(t.x, t.y), math.atan2(t.x, t.y)
    for value in grid:
        r, th = (value, th0) if var == "range" else (r0, math.radians(value))
        want = dataclasses.replace(t, x=r * math.sin(th), y=r * math.cos(th))
        assert repr(_point_scene(spec, base, value).targets) == repr((want, base.targets[1]))


def exact_cell_scenes():
    """The eval-size Q=8 scene, and a 3-target bistatic scene of unequal counts."""
    bistatic = make_scene(targets=[target_at(100.0, 20.0), target_at(150.0, -45.0, v=(4.0, 3.0),
                                                                      alpha=(0.8, -0.2)),
                                   target_at(80.0, 5.0, v=(-2.0, 1.0), alpha=(-0.3, 0.9))],
                          tx=ula(24, 0.01), rx=ula(17, 0.01, 0.5), snapshots=8)
    return {"monostatic-q8": many_target_scene(q=8), "bistatic-unequal": bistatic}


@pytest.mark.parametrize("key", list(exact_cell_scenes()))
def test_eval_exact_cells_equal_closed_form_single_bit_for_bit(key):
    # eval reads every target's own block from fim, sweep from closed_form_single
    scene = exact_cell_scenes()[key]
    lines = dict(line.split("=", 1) for line in render_eval(scene)[0].splitlines()
                 if not line.startswith("#"))
    for q in range(scene.q_count):
        closed = closed_form_single(scene, q).targets[0]
        for bound in BOUNDS:
            assert lines[f"target.{q}.{bound}.exact"] == repr(float(closed.by_name(bound)))


@pytest.mark.parametrize("key", list(exact_cell_scenes()))
def test_eval_forms_each_targets_own_information_once(monkeypatch, key):
    # one own_information call for all targets, element factors once per
    # distinct side, no closed form, no raw matrix T^T F' T (forward
    # congruence) and one _fmt call per cell of each target's record
    scene = exact_cell_scenes()[key]
    crb, steering = sys.modules["nfcrb.crb"], sys.modules["nfcrb.steering"]
    fim_module = sys.modules["nfcrb.fim"]  # nfcrb.fim is the function
    own_information, element_factors = crb.own_information, steering.element_factors
    congruence, fmt = crb.congruence, cli._fmt
    calls = {"own_information": 0, "element_factors": 0, "forward congruence": 0, "_fmt": 0}

    def counted(name, func):
        def wrapper(*args):
            calls[name] += 1
            return func(*args)
        return wrapper

    def refuse(*args):
        raise AssertionError("a closed form called")

    def counted_congruence(f, shift, back=False):
        calls["forward congruence"] += not back
        return congruence(f, shift, back)

    for module in (crb, fim_module):
        monkeypatch.setattr(module, "own_information",
                            counted("own_information", own_information))
        monkeypatch.setattr(module, "congruence", counted_congruence)
    monkeypatch.setattr(steering, "element_factors", counted("element_factors", element_factors))
    monkeypatch.setattr(cli, "_fmt", counted("_fmt", fmt))
    for module, name in ((crb, "closed_form_single"), (crb, "closed_forms"), (cli, "closed_forms")):
        monkeypatch.setattr(module, name, refuse)
    text, csv = render_eval(scene)
    assert "# status=ok\n" in text  # so every record has its marginal cells
    # a record: the CSV row's cells, the region and a marginal cell per bound,
    # plus the report's one condition number
    cells = len(parse_csv(csv)[1]) + 1 + len(BOUNDS)
    assert calls == {"own_information": 1, "element_factors": 1 if scene.monostatic else 2,
                     "forward congruence": 0, "_fmt": scene.q_count * cells + 1}
    monkeypatch.undo()
    info = fim_module.fim(scene)
    assert info.matrix.tobytes() == congruence(info.centred, info.shift).tobytes()
    info = fd_fim(exact_cell_scenes()["bistatic-unequal"])  # T = I
    assert info.matrix is info.centred


@pytest.mark.parametrize("rx", ["", "rx.centroid_x = 0.5\n"], ids=["monostatic", "bistatic"])
def test_sweep_forms_each_blocks_element_factors_once(monkeypatch, rx):
    # an antenna sweep of two blocks of one closed-form pass each, three
    # points and one alone: per pass one element_factors call per distinct side and one assembly of every
    # point's own block (_own_blocks), and no own_information call; per
    # point its element moments and the closed forms' expansion once per
    # distinct side, the latter per approximation variant, and one _fmt call
    # per cell of the row; counts repeat exactly where timings do not
    cfg = parse_config("snapshots = 16\ntarget.0.range = 100\ntarget.0.angle_deg = 20\n" + rx)
    spec = SweepSpec(variable="antennas", grid=(16, 64, 256, cli.SWEEP_BLOCK_ELEMENTS), config=cfg)
    assert list(cli._blocks(spec, build_scene(cfg))) == [[[16, 64, 256]], [[spec.grid[-1]]]]
    crb, steering = sys.modules["nfcrb.crb"], sys.modules["nfcrb.steering"]
    approx = sys.modules["nfcrb.approx"]
    names = ((crb, "own_information"), (crb, "_own_blocks"), (crb, "_element_moments"),
             (steering, "element_factors"), (approx, "_side_terms"), (cli, "_fmt"))
    calls = dict.fromkeys((name for _, name in names), 0)
    for module, name in names:
        def counted(*args, _name=name, _func=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _func(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    _, header, rows = parse_csv(run_sweep(spec))
    sides = 1 if build_scene(cfg).monostatic else 2
    assert [row["error"] for row in rows] == [""] * len(spec.grid)
    # a row: its CSV cells, the region and a marginal cell per bound
    assert len(header) + 1 + len(BOUNDS) == 36
    per_block = {"own_information": 0, "_own_blocks": 1, "element_factors": sides}
    per_point = {"_element_moments": sides, "_side_terms": 2 * sides, "_fmt": 36}
    assert calls == {**{key: 2 * n for key, n in per_block.items()},
                     **{key: n * len(spec.grid) for key, n in per_point.items()}}


# a sweep of each variable whose grid holds a point that fails, with the
# start of its error, and for range and power one past the float range, on a
# base of 7 Tx elements; the snapshots sweep holds counts past 2^64
BLOCK_SWEEPS = {
    "range": ((1e-7, 0.5, 10.0, 100.0, 1e200),
              "target.0.range = 100\ntarget.0.angle_deg = 20\ntarget.0.vx = 0.01\n",
              "target 0 is within 1e-06 m of an array element"),
    "angle": ((-60.0, 0.0, 60.0, 90.0), "target.0.range = 0.01\ntarget.0.angle_deg = 20\n",
              "target 0 is within 1e-06 m of an array element"),
    "antennas": ((1, 3, 4, 5, 9), "target.0.x = 0.005\ntarget.0.y = 1e-7\n",
                 "target 0 is within 1e-06 m of an array element"),
    "snapshots": ((1, 4, 16, 2.0 ** 64, 1e20, 1e106),
                  "target.0.range = 100\ntarget.0.angle_deg = 20\n",
                  "the CPI of 1e+106 snapshots of 0.0001 s is too long"),
    "power": ((1e293, 10.0, 0.1, 1e-3, 0.0), "target.0.range = 100\ntarget.0.angle_deg = 20\n",
              "power_w and noise_var_w must be positive"),
}


def test_sweep_blocks_equal_one_point_at_a_time(monkeypatch):
    # every variable, on 7 Rx elements (monostatic) and on 5 moved 0.5 m
    # (bistatic): the failing point sits in a block of several, the points
    # past the float range take a closed-form call of their own, and each row
    # is the one its point gives alone, with the default budgets and with 14
    # factor paths a pass, which splits the range and angle blocks into
    # passes of 1 to 3 points; the power sweep of 81 points at 256 elements
    # takes two blocks
    cases = [(var, grid, "tx.count = 7\n" + text + rx, error)
             for var, (grid, text, error) in BLOCK_SWEEPS.items()
             for rx in ("rx.count = 7\n", "rx.count = 5\nrx.centroid_x = 0.5\n")]
    cases.append(("power", (*(10.0 ** (k / 16.0) for k in range(39, -41, -1)), 0.0), DEFAULT_CFG,
                  BLOCK_SWEEPS["power"][2]))
    passes = set()
    for (var, grid, text, error), paths in itertools.product(cases, (cli.SWEEP_BLOCK_PATHS, 14)):
        monkeypatch.setattr(cli, "SWEEP_BLOCK_PATHS", paths)
        spec = SweepSpec(variable=var, grid=grid, config=parse_config(text))
        blocks = list(cli._blocks(spec, build_scene(spec.config)))
        assert [v for block in blocks for part in block for v in part] == list(grid)
        passes.update((var, len(block)) for block in blocks)
        together = run_sweep(spec)
        failed = [row for row in parse_csv(together)[2] if row["error"]]
        assert [row["error"][:len(error)] for row in failed] == [error], (var, text)
        value = float(failed[0][SWEEP_VARS[var][0]])
        assert any(sum(map(len, block)) > 1 and any(value in part for part in block)
                   for block in blocks)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "SWEEP_BLOCK_ELEMENTS", 0)  # every point alone
            assert run_sweep(spec) == together, (var, text)
    assert len(blocks) == 2
    assert {("range", 2), ("range", 3), ("angle", 2)} <= passes


def test_a_failed_closed_form_call_retries_its_points_one_at_a_time(monkeypatch):
    # a closed-form call of several points that cannot allocate is made again
    # for each point alone: only the point whose own call fails is an error
    # row, and the other rows are those of the sweep that never failed
    spec = SweepSpec(variable="power", grid=(1e293, 10.0, 0.1, 1e-3), config=parse_config(
        "tx.count = 7\nrx.count = 7\nsnapshots = 16\ntarget.0.range = 100\n"
        "target.0.angle_deg = 20\n"))
    alone = parse_csv(run_sweep(spec))[2]
    closed_forms, calls = cli.closed_forms, []

    def short_of_memory(scenes, q=0):
        calls.append([s.power_w for s in scenes])
        if len(scenes) > 1 or scenes[0].power_w == 0.1:
            raise MemoryError("Unable to allocate 1.5 GiB for an array with shape (2, 4, 1, 1, 1)")
        return closed_forms(scenes, q)

    monkeypatch.setattr(cli, "closed_forms", short_of_memory)
    rows = parse_csv(run_sweep(spec))[2]
    # the point past the float range takes a call of its own
    assert calls == [[10.0, 0.1, 1e-3], [10.0], [0.1], [1e-3], [1e293]]
    assert rows[2]["error"].startswith("Unable to allocate 1.5 GiB for an array with shape (2; 4")
    assert [rows[2][flag] for flag in REGION_FLAGS] == ["0"] * 3 and rows[2]["x_exact"] == ""
    assert rows[:2] + rows[3:] == alone[:2] + alone[3:]


def test_snapshot_counts_past_two_to_the_64_keep_their_bounds(tmp_path, capsys):
    # numpy holds an integer of 2^64 or more as an object, which frexp refuses:
    # M enters the closed forms as a float, and the cells are those the sweep
    # and eval gave when M was multiplied in as an integer. At 1e103 the
    # integer M (M^2 - 1) leaves the float range; x and vx keep the 1/M and
    # 1/M^3 laws from 1e20
    path = write_cfg(tmp_path, EXTREME_BASE)
    assert main(["sweep", path, "--var", "snapshots", "--grid",
                 "8,18446744073709551616,1e20,1e103"]) == 0
    rows = parse_csv(capsys.readouterr().out)[2]
    assert [(row["error"], row["x_exact"], row["vx_exact"]) for row in rows] == [
        ("", "0.0004100651543969997", "1608.0986463233376"),
        ("", "1.7783741250313234e-22", "1.5678515548055818e-52"),
        ("", "3.2805212351759974e-23", "9.841563715498826e-55"),
        ("", "3.2805212351759973e-106", "9.841563715498826e-304")]
    path = write_cfg(tmp_path, EXTREME_BASE.replace("snapshots = 8", "snapshots = 1e20"))
    assert main(["eval", path]) == 0
    assert "target.0.x.exact=3.2805212351759974e-23" in capsys.readouterr().out.splitlines()


def test_sweep_blocks_hold_their_element_budget(monkeypatch):
    # a sweep's blocks keep its peak within SWEEP_BLOCK_ELEMENTS x 16 B (+64
    # KiB) of one point at a time. An antennas block's smaller ULAs read the
    # element factors of the largest of their count parity; 16 points of
    # 20,000 elements, each alone, would hold 8 MB more if they were staged
    # together (the factors of both parities' largest arrays at once). Counts
    # of both parities take a closed-form pass each once the smaller parity's
    # factors pass SWEEP_BLOCK_PATHS (8,191 and 8,192 elements would hold 1.4
    # MB more in one pass), as range points do, each with its own target's
    # factors (64 points at 256 elements would hold 3.6 MB more)
    base = "snapshots = 16\ntarget.0.range = 100\ntarget.0.angle_deg = 20\n"
    # each sweep with the points of each pass in its last blocks
    sweeps = [("antennas", (*range(16, 1025, 16), *range(20000, 20016)), [[1]] * 16),
              ("antennas", (*range(1, 129), 8191, 8192), [[1, 1]]),
              ("range", tuple(50.0 + 5.0 * k for k in range(64)), [[5] * 12 + [4]])]
    budget = cli.SWEEP_BLOCK_ELEMENTS
    for variable, grid, last in sweeps:
        spec = SweepSpec(variable=variable, config=parse_config(base), grid=grid)
        blocks = [list(map(len, block)) for block in cli._blocks(spec, build_scene(spec.config))]
        assert blocks[-len(last):] == last

        def peak():
            tracemalloc.start()
            try:
                text = run_sweep(spec)
                return text, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        run_sweep(spec)  # first-call allocations outside the traced runs
        together, held = peak()
        with monkeypatch.context() as patch:
            patch.setattr(cli, "SWEEP_BLOCK_ELEMENTS", 0)
            alone, held_alone = peak()
        assert together == alone
        assert held <= held_alone + 16 * budget + 64 * 1024, (variable, held - held_alone)


@pytest.mark.parametrize("argv, lines", [
    (["eval"], ["100"]),
    (["sweep", "--var", "antennas", "--grid", "4,256"], ["100", "100", "99.6"]),
], ids=["eval", "sweep"])
def test_cli_prints_each_warning_on_one_line(tmp_path, capsys, argv, lines):
    # a strained target's warning, the base scene's and then each point's: one
    # line without a source path or line, whatever the Python version or checkout
    path = write_cfg(tmp_path, "snapshots = 8\ntx.count = 8\nrx.count = 8\ntarget.0.range = 100\n"
                               "target.0.angle_deg = 20\ntarget.0.vx = 1e6\n")
    proc = subprocess.run([sys.executable, "-m", "nfcrb", argv[0], path, *argv[1:]],
                          env=child_env(), capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr.decode() == "".join(
        f"nfcrb: warning: target 0 moves 800 m over the CPI at minimum range {r} m; the "
        "small-displacement model is strained\n" for r in lines)
    # a caller that records warnings receives each one, from main as from make_scene
    with pytest.warns(UserWarning, match="small-displacement") as caught:
        assert main([argv[0], path, *argv[1:]]) == 0
    assert len(caught) == len(lines)
    assert capsys.readouterr().err == ""
    with pytest.warns(UserWarning, match="small-displacement"):
        build_scene(parse_config(Path(path).read_text()))


@st.composite
def scaling_scenes(draw):
    """Q = 1-3 targets at 5-400 m, some dark, seen by N = 1-32 elements a side over M = 1-40."""
    def reflectivity():
        magnitude, phase = draw(st.floats(0.1, 1.0)), draw(st.floats(-math.pi, math.pi))
        return draw(st.sampled_from([(0.0, 0.0), (magnitude * math.cos(phase),
                                                  magnitude * math.sin(phase))]))

    targets = [target_at(draw(st.floats(5.0, 400.0)), draw(st.floats(-60.0, 60.0)),
                         v=(draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0))),
                         alpha=reflectivity())
               for _ in range(draw(st.integers(1, 3)))]
    tx = ula(draw(st.integers(1, 32)), 0.01)
    rx = tx if draw(st.booleans()) else ula(draw(st.integers(1, 32)), 0.01, 0.5)
    return make_scene(targets=targets, tx=tx, rx=rx, snapshots=draw(st.integers(1, 40)))


# each change of the SNR 2 P / sigma^2 and the factor it scales every bound by
SNR_CHANGES = {"power x2": ("power_w", 2.0, 0.5), "power x0.25": ("power_w", 0.25, 4.0),
               "noise x2": ("noise_var_w", 2.0, 2.0)}


@settings(derandomize=True, max_examples=50, deadline=None)
@given(scaling_scenes(), st.sampled_from(sorted(SNR_CHANGES)))
def test_eval_bound_cells_scale_exactly_with_power_and_noise(scene, change):
    # a power-of-two change of the SNR scales every bound by its inverse bit
    # for bit; relative errors, regions, the condition number, the status and
    # every empty or inf cell keep their bytes
    name, ratio, factor = SNR_CHANGES[change]
    scaled = dataclasses.replace(scene, **{name: ratio * getattr(scene, name)})
    base_lines, scaled_lines = (render_eval(s)[0].splitlines() for s in (scene, scaled))
    assert len(base_lines) == len(scaled_lines)
    for line, scaled_line in zip(base_lines, scaled_lines):
        key, _, value = line.partition("=")
        if re.fullmatch(r"target\.\d+\.\w+\.(exact|marginal|ff|nf)", key) and value not in (
                "", "inf"):
            assert scaled_line == f"{key}={float(value) * factor!r}"
        else:
            assert scaled_line == line


def in_millimetres(scene):
    """The scene with its lengths, speeds and propagation speed in millimetres."""
    def mm(geom):
        return ArrayGeometry(geom.positions * 1e3, geom.spacing * 1e3, geom.centroid_x * 1e3)

    tx = mm(scene.tx)
    rx = tx if scene.rx is scene.tx else mm(scene.rx)
    targets = [dataclasses.replace(t, x=t.x * 1e3, y=t.y * 1e3, vx=t.vx * 1e3, vy=t.vy * 1e3)
               for t in scene.targets]
    return dataclasses.replace(scene, tx=tx, rx=rx, targets=targets,
                               lightspeed=scene.lightspeed * 1e3)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(scaling_scenes())
def test_eval_cells_do_not_depend_on_units(scene):
    # in millimetres a location or velocity variance reads 1e6 times its value
    # in metres and an rcs variance the same; relative errors, regions and the
    # status keep their values. The marginals and the condition number come
    # from another float matrix and agree to 100 cond eps. That holds while
    # centring F' keeps its digits: where a parameter's centred information
    # falls far below its raw one (a far broadside target's range on a 1 cm
    # aperture), the two reports part, and so may their status
    (base, mm) = (dict(line.split("=", 1) for line in render_eval(s)[0].splitlines()
                       if "=" in line and not line.startswith("# targets"))
                  for s in (scene, in_millimetres(scene)))
    assert base.keys() == mm.keys()
    cond, mm_cond = base.pop("# condition_number"), mm.pop("# condition_number")
    tol = 100.0 * float(cond or 0.0) * np.finfo(float).eps
    assert mm_cond == cond == "" or math.isclose(float(mm_cond), float(cond), rel_tol=tol)
    for key, value in base.items():
        got, parts = mm[key], key.split(".")
        if len(parts) != 4 or value in ("", "inf"):
            assert got == value, key  # the status, a region, an empty or inf cell
        elif parts[3].startswith("relerr"):
            assert abs(float(got) - float(value)) <= 1e-13, key
        else:
            scale = 1.0 if parts[2] == "rcs" else 1e6
            rel_tol = tol if parts[3] == "marginal" else 1e-13
            assert math.isclose(float(got), float(value) * scale, rel_tol=rel_tol), key


def permutation_configs():
    """20 fixed Q=8 configs on 128-element arrays with 128 snapshots, and a target order each.

    Targets sit at 60-400 m and +-60 deg with speeds up to 5 m/s per axis and
    complex Gaussian reflectivities, each value rounded to six decimals.
    """
    cases = []
    for seed in range(20):
        rng = np.random.default_rng(2700 + seed)
        targets = [[round(float(v), 6) for v in (rng.uniform(60.0, 400.0), rng.uniform(-60.0, 60.0),
                                                 *rng.uniform(-5.0, 5.0, 2),
                                                 *rng.normal(0.0, 0.5 ** 0.5, 2))]
                   for _ in range(8)]
        cases.append((targets, rng.permutation(8).tolist()))
    return cases


def _permutation_cfg(targets):
    lines = ["tx.count = 128", "rx.count = 128", "snapshots = 128"]
    for q, values in enumerate(targets):
        lines += [f"target.{q}.{key} = {v!r}" for key, v in
                  zip(("range", "angle_deg", "vx", "vy", "rcs_re", "rcs_im"), values)]
    return "\n".join(lines) + "\n"


def test_eval_cells_move_with_their_targets_under_permutation():
    # region, exact, ff, nf and relerr cells and the status keep their bits;
    # the marginal cells and the condition number come from an inverse of the
    # permuted matrix and agree to 1e-7 (the worst reads 8.9e-9 and 7.6e-9)
    for targets, order in permutation_configs():
        base, moved = (dict(line.split("=", 1) for line in
                            render_eval(build_scene(parse_config(_permutation_cfg(ts))))[0]
                            .splitlines() if "=" in line and not line.startswith("# targets"))
                       for ts in (targets, [targets[p] for p in order]))
        assert base["# status"] == moved["# status"] == "ok"
        assert math.isclose(float(moved["# condition_number"]), float(base["# condition_number"]),
                            rel_tol=1e-7)
        cells = [key for key in base if key.startswith("target.0.")]
        assert len(cells) == 1 + 6 * len(BOUNDS)
        for j, q in enumerate(order):
            for key in cells:
                name = key.split(".", 2)[2]
                want, got = base[f"target.{q}.{name}"], moved[f"target.{j}.{name}"]
                if name.endswith(".marginal"):
                    assert math.isclose(float(got), float(want), rel_tol=1e-7), (key, q)
                else:
                    assert got == want, (key, q)


@pytest.mark.parametrize("extra", ["", "rx.centroid_x = 0.5\nrx.count = 48\n"],
                         ids=["monostatic", "bistatic"])
def test_power_sweep_halves_bound_cells_per_doubling(extra):
    text = run_sweep(SweepSpec(variable="power", grid=(0.05, 0.1, 0.2, 0.4),
                               config=parse_config(DEFAULT_CFG + extra)))
    _, header, rows = parse_csv(text)
    bound_cols = [c for c in header if c.split("_")[0] in BOUNDS]
    assert len(bound_cols) == len(BOUNDS) * len(VARIANTS)
    for row, doubled in zip(rows, rows[1:]):
        assert [doubled[c] for c in header if c not in bound_cols + ["power_w"]] == [
            row[c] for c in header if c not in bound_cols + ["power_w"]]
        assert [doubled[c] for c in bound_cols] == [repr(float(row[c]) * 0.5)
                                                    for c in bound_cols]


def test_sweep_broadside_reports_divergence_not_failure():
    spec = SweepSpec(variable="angle", grid=(-10.0, 0.0, 10.0),
                     config=parse_config(DEFAULT_CFG), bounds=("x", "vx"))
    text = run_sweep(spec)
    _, _, rows = parse_csv(text)
    broadside = rows[1]
    assert broadside["error"] == ""
    assert broadside["x_ff"] == "inf" and broadside["vx_ff"] == "inf"
    assert broadside["relerr_x_ff"] == "inf"
    assert float(broadside["x_exact"]) > 0.0
    assert float(broadside["x_nf"]) > 0.0
    assert "nan" not in text.lower()


def test_sweep_dark_target_leaves_relerr_empty():
    cfg = parse_config("target.0.range = 100\ntarget.0.angle_deg = 20\n"
                       "target.0.rcs_re = 0\ntarget.0.rcs_im = 0\n")
    text = run_sweep(SweepSpec(variable="range", grid=(100.0,), config=cfg,
                               bounds=("rcs", "x")))
    _, _, rows = parse_csv(text)
    row = rows[0]
    assert row["x_exact"] == "inf"
    assert row["relerr_x_ff"] == "" and row["relerr_x_nf"] == ""
    assert float(row["rcs_exact"]) > 0.0
    assert row["relerr_rcs_ff"] != ""


def test_free_form_arrays_leave_approximation_cells_empty():
    geom = ArrayGeometry(ula(16, 0.01).positions)
    scene = make_scene(targets=[target_at(100.0, 20.0)], tx=geom, rx=geom, snapshots=8)
    cells = _bound_cells(scene, 0, BOUNDS, VARIANTS, closed_form_single(scene, 0).targets[0])
    for bound in BOUNDS:
        assert math.isfinite(cells[f"{bound}_exact"])
        for variant in ("ff", "nf"):
            assert cells[f"{bound}_{variant}"] is None
            assert cells[f"relerr_{bound}_{variant}"] is None


@pytest.mark.parametrize("key", list(sharing_scenes()))
def test_bound_cells_equal_their_per_side_evaluation_bit_for_bit(monkeypatch, key):
    # closed forms, approximations and the region of a monostatic scene read one side
    scene = sharing_scenes()[key]
    assert scene.monostatic == key.startswith("monostatic")
    shared, unshared = shared_and_unshared(
        monkeypatch, lambda s: [_bound_cells(s, q, BOUNDS, VARIANTS,
                                             closed_form_single(s, q).targets[0])
                                for q in range(s.q_count)], scene)
    assert repr(shared) == repr(unshared)


def test_bound_cells_propagate_unexpected_value_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("broken approximation")

    monkeypatch.setattr("nfcrb.approx._closed_form", broken)
    scene = make_scene(targets=[target_at(100.0, 20.0)],
                       tx=ula(16, 0.01), rx=ula(16, 0.01), snapshots=8)
    with pytest.raises(ValueError, match="broken approximation"):
        _bound_cells(scene, 0, ("rcs",), VARIANTS, closed_form_single(scene, 0).targets[0])


def test_sweep_error_rows_are_contained():
    spec = SweepSpec(variable="power", grid=(0.1, 0.05, 0.0),
                     config=parse_config(DEFAULT_CFG), bounds=("rcs",))
    text = run_sweep(spec)
    _, header, rows = parse_csv(text)
    assert rows[0]["error"] == "" and rows[1]["error"] == ""
    assert rows[2]["error"] != ""
    assert "," not in rows[2]["error"]
    # the failed row still has the full column count
    assert len(text.splitlines()[-1].split(",")) == len(header)
    assert rows[2]["rcs_exact"] == ""


@pytest.mark.parametrize("text, var, grid", [("power_w = 0\n", "power", "0.1,0.2"),
                                              ("tx.count = 0\n", "antennas", "16,32")],
                         ids=["power", "antennas"])
def test_sweep_over_invalid_base_config_exits_with_eval_error(tmp_path, capsys, text,
                                                              var, grid):
    # the grid would replace the bad value, but the base must be a valid scene
    path = write_cfg(tmp_path, text)
    assert main(["eval", path]) == 1
    eval_err = capsys.readouterr().err
    assert main(["sweep", path, "--var", var, "--grid", grid]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == eval_err
    assert eval_err.startswith("nfcrb: error: ")


def test_sweep_spec_rejects_non_finite_grid_values():
    with pytest.raises(ValueError, match="finite"):
        SweepSpec(variable="range", grid=(50.0, math.nan), config=Config())


@pytest.mark.parametrize("grid", [(-100.0, 100.0), (0.0, 50.0)])
def test_sweep_spec_rejects_non_positive_range_grid(grid):
    # a negative range would mirror the target behind the array
    with pytest.raises(ValueError, match="range grid must be positive"):
        SweepSpec(variable="range", grid=grid, config=Config())


def test_negative_range_grid_is_a_config_error(tmp_path, capsys):
    path = write_cfg(tmp_path, DEFAULT_CFG)
    assert main(["sweep", path, "--var", "range", "--grid=-100,100"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "nfcrb: config error: range grid must be positive\n"


def test_negative_grid_reads_alike_attached_or_separate(tmp_path, capsys):
    # argparse takes a separate word that starts with a minus sign for an option
    path = write_cfg(tmp_path, DEFAULT_CFG + "tx.count = 16\nrx.count = 16\n")
    outputs = []
    for grid in (["--grid=-60,-30,0"], ["--grid", "-60,-30,0"]):
        assert main(["sweep", path, "--var", "angle", *grid]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert outputs[0].err == ""
    _, header, rows = parse_csv(outputs[0].out)
    assert [float(row[header[0]]) for row in rows] == [-60.0, -30.0, 0.0]


@pytest.mark.parametrize("value", ["-inf", "-nan,1"])
def test_non_finite_grid_reads_alike_attached_or_separate(tmp_path, capsys, value):
    # a word such as -inf is no plain number, yet it is the grid, not an option
    path = write_cfg(tmp_path, DEFAULT_CFG)
    for grid in ([f"--grid={value}"], ["--grid", value]):
        assert main(["sweep", path, "--var", "angle", *grid]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"nfcrb: config error: bad grid value in {value!r}\n"


def test_sweep_grid_must_be_monotone(tmp_path, capsys):
    path = write_cfg(tmp_path, DEFAULT_CFG)
    assert main(["sweep", path, "--var", "range", "--grid", "100,50,200"]) == 1
    assert "monotone" in capsys.readouterr().err


def test_sweep_antennas_grid_must_be_integral(tmp_path, capsys):
    path = write_cfg(tmp_path, DEFAULT_CFG)
    assert main(["sweep", path, "--var", "antennas", "--grid", "16,32.5"]) == 1
    assert "integer" in capsys.readouterr().err


@pytest.mark.parametrize("option, value, message", [
    ("bounds", "rcs,doppler", "unknown bounds"),
    ("bounds", "rcs,rcs", "bounds must be a non-empty list without repeats"),
    ("variants", "ff,ff", "variants must be a non-empty list without repeats"),
    ("bounds", "", "bounds must be a non-empty list without repeats"),
    ("variants", "", "variants must be a non-empty list without repeats"),
    ("variants", "marginal", "unknown variants"),
    ("variants", "relerr_ff", "unknown variants"),
], ids=["unknown-bound", "repeated-bounds", "repeated-variants", "empty-bounds",
        "empty-variants", "marginal-variant", "relerr-variant"])
def test_sweep_unknown_bound_rejected(tmp_path, capsys, option, value, message):
    # a repeated or empty list would write duplicate or no bound columns; sweep
    # builds no FIM, so it has no marginal cells, and relerr follows its variant
    values = tuple(v for v in value.split(",") if v)
    with pytest.raises(ValueError, match=message):
        SweepSpec(variable="range", grid=(100.0,), config=Config(), **{option: values})
    path = write_cfg(tmp_path, DEFAULT_CFG)
    assert main(["sweep", path, "--var", "range", "--grid", "10", f"--{option}", value]) == 1
    out, err = capsys.readouterr()
    assert out == "" and f"config error: {message}" in err


@pytest.mark.parametrize("flags, columns", [
    (["--bounds", "y,rcs", "--variants", "nf,exact"],
     ["y_nf", "y_exact", "relerr_y_nf", "rcs_nf", "rcs_exact", "relerr_rcs_nf"]),
    (["--variants", "nf,ff"],
     [column for bound in BOUNDS for column in
      (f"{bound}_nf", f"{bound}_ff", f"relerr_{bound}_ff", f"relerr_{bound}_nf")]),
], ids=["y-rcs-nf-exact", "nf-ff"])
def test_sweep_columns_follow_the_flags(tmp_path, capsys, flags, columns):
    # bounds and variants keep the order of the flags, the relerr columns
    # always ff before nf; each cell reads as in the default layout
    path = write_cfg(tmp_path, DEFAULT_CFG)
    argv = ["sweep", path, "--var", "range", "--grid", "50,100,400"]
    assert main(argv) == 0
    _, _, default = parse_csv(capsys.readouterr().out)
    assert main([*argv, *flags]) == 0
    _, header, rows = parse_csv(capsys.readouterr().out)
    assert header == ["range_m", *columns, *REGION_FLAGS, "error"]
    assert rows == [{key: row[key] for key in header} for row in default]


def test_sweep_unknown_variable_rejected(tmp_path, capsys):
    path = write_cfg(tmp_path, DEFAULT_CFG)
    assert main(["sweep", path, "--var", "bandwidth", "--grid", "1,2"]) == 1


def test_sweep_out_writes_file(tmp_path, capsys):
    path = write_cfg(tmp_path, DEFAULT_CFG)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", path, "--var", "snapshots", "--grid", "8,16",
                 "--bounds", "rcs", "--variants", "exact,nf", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    _, header, rows = parse_csv(out.read_text(encoding="utf-8"))
    assert header[0] == "snapshots"
    assert "rcs_exact" in header and "rcs_nf" in header and "rcs_ff" not in header
    # rcs bound then scales as 1/M
    assert float(rows[1]["rcs_exact"]) == pytest.approx(
        float(rows[0]["rcs_exact"]) / 2.0, rel=1e-12)


def test_sweep_empty_grid_rejected(tmp_path, capsys):
    path = write_cfg(tmp_path, DEFAULT_CFG)
    assert main(["sweep", path, "--var", "range", "--grid", ","]) == 1
    assert "empty" in capsys.readouterr().err


# target 1 on target 0: coincident targets cannot be told apart, so F' is singular
COINCIDENT_CFG = (DEFAULT_CFG + "target.1.range = 100\ntarget.1.angle_deg = 20\n"
                  "target.1.vx = 1\ntarget.1.vy = 4\ntarget.1.rcs_re = 1\ntarget.1.rcs_im = 0.1\n")
# two distinct targets at full aperture invert, scaled condition number 4.7e5
TWO_TARGET_CFG = (DEFAULT_CFG + "target.1.range = 150\ntarget.1.angle_deg = -45\n"
                  "target.1.vx = 4\ntarget.1.vy = 3\n")


def test_eval_renders_every_target_when_marginal_unavailable(tmp_path, capsys):
    # the singular report must still carry the per-target closed forms
    path = write_cfg(tmp_path, COINCIDENT_CFG)
    assert main(["eval", path]) == 0
    out = capsys.readouterr().out
    assert "# status=singular" in out
    kv = parse_kv_lines(out)
    assert kv["target.0.rcs.exact"] > 0.0
    assert kv["target.1.rcs.exact"] > 0.0
    assert kv["target.1.rcs.marginal"] is None
    assert kv["target.1.region"] == "fresnel"

    path = write_cfg(tmp_path, TWO_TARGET_CFG, "two.cfg")
    assert main(["eval", path]) == 0
    out = capsys.readouterr().out
    assert "# status=ok" in out
    kv = parse_kv_lines(out)
    for q in (0, 1):
        for bound in BOUNDS:
            assert kv[f"target.{q}.{bound}.marginal"] >= kv[f"target.{q}.{bound}.exact"]


@pytest.mark.parametrize("text, status", [(TWO_TARGET_CFG, "ok"),
                                          (COINCIDENT_CFG, "singular")],
                         ids=["two-targets", "coincident"])
def test_eval_text_lines_follow_fields(tmp_path, capsys, text, status):
    # per target the region line, then every bound's cells in FIELDS order;
    # test_readme pins FIELDS to the README's list
    assert main(["eval", write_cfg(tmp_path, text)]) == 0
    out = capsys.readouterr().out
    assert f"# status={status}" in out.splitlines()
    keys = [key for key in parse_kv_lines(out) if key.startswith("target.")]
    assert keys == [key for q in range(2) for key in
                    [f"target.{q}.region", *(f"target.{q}.{bound}.{field}"
                                             for bound in BOUNDS for field in FIELDS)]]


# verify


def test_verify_reports_deterministic_and_passing():
    first, second = io.StringIO(), io.StringIO()
    reports = run_verify(seed=7, battery=6, stream=first)
    run_verify(seed=7, battery=6, stream=second)
    assert first.getvalue() == second.getvalue()
    assert all(r.passed for r in reports)
    assert first.getvalue().strip().endswith(f"({len(reports)}/{len(reports)})")


def test_verify_seed_changes_battery_but_not_verdict():
    a, b = io.StringIO(), io.StringIO()
    ra = run_verify(seed=0, battery=4, stream=a)
    rb = run_verify(seed=1, battery=4, stream=b)
    assert a.getvalue() != b.getvalue()
    assert all(r.passed for r in ra) and all(r.passed for r in rb)


@pytest.mark.parametrize("seed", [0, 5])
def test_verify_report_does_not_depend_on_array_sharing(monkeypatch, seed):
    # a scene built with rx is tx has each side evaluated once by the oracles;
    # an equal but distinct Rx array evaluates both, with the same bytes
    shared = io.StringIO()
    run_verify(seed=seed, battery=20, stream=shared)
    oracle = sys.modules["nfcrb.oracle"]
    original = oracle.make_scene
    split = []

    def unshared(*args, **kwargs):
        tx = kwargs.get("tx")
        if tx is not None and kwargs.get("rx") is tx:
            kwargs["rx"] = ArrayGeometry(tx.positions.copy(), tx.spacing, tx.centroid_x)
            split.append(tx.count)
        return original(*args, **kwargs)

    monkeypatch.setattr(oracle, "make_scene", unshared)
    apart = io.StringIO()
    run_verify(seed=seed, battery=20, stream=apart)
    assert len(split) == 4  # one steering scene per (N, M) shape group
    assert apart.getvalue() == shared.getvalue()


@pytest.mark.parametrize("seed", [4, 18, 47, 137, 178, 62, 77, 82, 101])
def test_verify_steering_passes_near_broadside_batteries(seed):
    # each battery of 4 to 178 holds a scene at |theta| <= 0.15 deg, whose x
    # and vx derivatives are small against |a|; a second-order difference at
    # a fixed step (1e-6 m, 5e-3 m/s) loses them to roundoff and fails each.
    # 62 to 101 held one under the battery's earlier numpy draws and stay as
    # plain batteries
    reports = _verify_steering(seed, 20)
    assert [r.name for r in reports if not r.passed] == []


def test_verify_derivative_skew_trips_fd_checks(monkeypatch):
    # a multiplicative error on the analytic x-derivative must be caught by
    # both the steering-level and the matrix-level finite differences; the
    # steering stacks and fim's element moments both read element_factors
    steering = sys.modules["nfcrb.steering"]
    factors = steering.element_factors

    def skewed(*args):
        g, r, u, alpha, beta = factors(*args)
        x = KEYS.index("d_x") - 1  # the factor rows start at the first derivative
        alpha[x] *= 1.0 + 1e-3
        beta[x] *= 1.0 + 1e-3
        return g, r, u, alpha, beta

    monkeypatch.setattr(steering, "element_factors", skewed)
    reports = run_verify(seed=0, battery=4, stream=io.StringIO())
    failed = {r.name for r in reports if not r.passed}
    assert any(name.startswith("steering-fd") for name in failed)
    assert any(name.startswith("fim-fd") for name in failed)


def test_verify_cli_exit_codes(capsys):
    assert main(["verify", "--battery", "4", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "verify: all checks passed" in out


@pytest.mark.parametrize("option", ["seed", "battery"])
def test_verify_rejects_a_negative_count(capsys, option):
    assert main(["verify", f"--{option}", "-3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"nfcrb: config error: --{option} must be a non-negative integer" in captured.err


def test_verify_runs_an_empty_steering_battery(capsys):
    assert main(["verify", "--battery", "0"]) == 0
    out = capsys.readouterr().out
    assert "steering-fd" not in out and "verify: all checks passed" in out


def test_verify_loads_no_numpy_random():
    # verify draws its scenes and symbols from Python's random, which numpy
    # imports anyway; importing numpy.random would add some 4.7 MiB to the
    # process. A fresh child process, so no other test has loaded it
    child = ("import contextlib, io, sys\n"
             "import nfcrb.cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = nfcrb.cli.main(['verify', '--seed', '0'])\n"
             "print(code, 'numpy.random' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", child], env=child_env(), capture_output=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.split() == [b"0", b"False"]


def test_reports_identical_across_blas_thread_counts(tmp_path):
    # the thread count is set on the child processes only; BLAS may split a
    # product differently per thread, and the report bytes must not move
    path = write_cfg(tmp_path, DEFAULT_CFG.replace("snapshots = 256", "snapshots = 16")
                     + "tx.count = 16\nrx.count = 16\ntarget.1.range = 150\n"
                     "target.1.angle_deg = -45\ntarget.1.vx = 4\ntarget.1.vy = 3\n")
    # the bistatic copy runs the Tx Gram a monostatic scene shares with Rx
    text = Path(path).read_text(encoding="utf-8")
    bistatic = write_cfg(tmp_path, text + "rx.centroid_x = 0.5\n", "bistatic.cfg")
    for argv in (["eval", path], ["eval", bistatic], ["verify", "--seed", "0", "--battery", "4"]):
        outputs = []
        for threads in ("1", "2"):
            proc = subprocess.run([sys.executable, "-m", "nfcrb", *argv],
                                  env=child_env(OPENBLAS_NUM_THREADS=threads),
                                  capture_output=True, timeout=120)
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], argv
