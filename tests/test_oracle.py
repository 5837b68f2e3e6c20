"""Independent numeric checks: finite differences, brute sums, report plumbing."""

import numpy as np
import pytest

from nfcrb import Target, brute_gain, fd_fim, fim, steering_stack, ula
from nfcrb.oracle import (DEFAULT_STEPS, fd_steering_rows, make_report,
                          relative_difference)

from util import canonical_scene, small_scene, target_at


def test_relative_difference_plain_quotient():
    assert relative_difference(1.1, 1.0) == pytest.approx(0.1)
    assert relative_difference(0.0, 2.0) == 1.0


def test_relative_difference_floor_guards_zero_oracle():
    # a zero oracle value must not divide by zero
    assert relative_difference(1e-40, 0.0) == pytest.approx(1e-10)
    assert relative_difference(0.0, 0.0) == 0.0


def test_make_report_verdicts():
    good = make_report("check", 1.0 + 1e-8, 1.0, tol=1e-6)
    assert good.passed and good.rel_err < 1e-6
    bad = make_report("check", 1.1, 1.0, tol=1e-6, steps=(1e-4,))
    assert not bad.passed
    assert bad.steps == (1e-4,)
    assert bad.name == "check"


def test_fd_steering_default_steps():
    s = canonical_scene()
    a = steering_stack(s, "tx", 0)
    for kind in ("x", "y", "vx", "vy"):
        analytic = a.derivative(kind)[7]  # stack row 7 is snapshot m = 8
        numeric = fd_steering_rows(s, 0, kind, [8])["tx"][0]
        err = np.abs(analytic - numeric).max() / np.abs(analytic).max()
        assert err < 1e-5


def test_fd_step_underflow_rejected():
    s = small_scene()
    with pytest.raises(ValueError, match="underflows"):
        fd_steering_rows(s, 0, "x", [1], steps={"x": 1e-18})["tx"][0]
    with pytest.raises(ValueError, match="underflows"):
        fd_fim(s, steps={"x": 1e-18})


def test_fd_fim_error_is_second_order_in_step():
    # halving the step should cut the central-difference error by about 4
    s = canonical_scene()
    exact = fim(s).matrix
    def err(h):
        steps = {k: v * h for k, v in DEFAULT_STEPS.items()}
        numeric = fd_fim(s, steps=steps).matrix
        return np.linalg.norm(numeric - exact, "fro") / np.linalg.norm(exact, "fro")
    ratio = err(16.0) / err(8.0)
    assert 2.8 < ratio < 5.5


def test_brute_gain_hand_sums():
    geom = ula(3, 1.0)  # elements at x = -1, 0, 1
    t = Target(x=0.0, y=10.0, vx=0.0, vy=0.0, rcs_re=1.0, rcs_im=0.0)
    assert brute_gain(geom, t, "g") == pytest.approx(2.0 / 101.0 + 1.0 / 100.0, rel=1e-15)


def test_brute_gain_rejects_unknown_kind():
    for kind in ("gdot_z", "gdot_x", "cross_y"):
        with pytest.raises(ValueError, match="kind"):
            brute_gain(ula(3, 1.0), target_at(10.0, 0.0), kind)


def test_brute_gain_rejects_on_element_target():
    t = Target(x=1.0, y=0.0, vx=0.0, vy=0.0, rcs_re=1.0, rcs_im=0.0)
    with pytest.raises(ValueError, match="coincides"):
        brute_gain(ula(3, 1.0), t, "g")

