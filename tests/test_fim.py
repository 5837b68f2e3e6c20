"""Fisher information assembly: structure, oracles, and scaling laws."""

import math

import numpy as np
import pytest

from nfcrb import (brute_gain, fd_fim, fim, make_scene, monte_carlo_isotropic,
                   target_indices, ula)

from util import canonical_scene, explicit_fim, small_scene, target_at


def two_target_scene(n=8, m=8):
    return make_scene(targets=[target_at(100.0, 20.0),
                               target_at(150.0, -45.0, v=(4.0, 3.0), alpha=(0.8, -0.2))],
                      tx=ula(n, 0.01), rx=ula(n, 0.01), snapshots=m)


def rel_fro(a, b):
    return np.linalg.norm(a - b, "fro") / np.linalg.norm(b, "fro")


def test_fim_shape_and_metadata():
    s = two_target_scene()
    info = fim(s)
    assert info.matrix.shape == (12, 12)
    assert info.q_count == 2


def test_fim_symmetric():
    info = fim(canonical_scene())
    np.testing.assert_array_equal(info.matrix, info.matrix.T)


def test_fim_positive_semidefinite():
    f = fim(canonical_scene()).matrix
    w = np.linalg.eigvalsh(f)
    assert w.min() >= -1e-8 * np.linalg.norm(f, 2)


@pytest.mark.parametrize("builder", [canonical_scene, two_target_scene])
def test_fim_matches_finite_differences(builder):
    s = builder()
    analytic = fim(s).matrix
    numeric = fd_fim(s).matrix
    assert rel_fro(analytic, numeric) < 1e-5


def test_isotropic_equals_explicit_for_constant_modulus_single_tx():
    # with one transmit element, unit-modulus symbols make x_m x_m^H = P exactly
    s = make_scene(targets=[target_at(100.0, 20.0)],
                   tx=ula(1, 0.01), rx=ula(16, 0.01), snapshots=8)
    rng = np.random.default_rng(11)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=(1, s.snapshots))
    x = math.sqrt(s.power_w) * np.exp(1j * phases)
    ideal = fim(s).matrix
    concrete = explicit_fim(s, x)
    assert rel_fro(concrete, ideal) < 1e-12


def test_monte_carlo_average_converges_to_isotropic():
    s = make_scene(targets=[target_at(100.0, 20.0)],
                   tx=ula(4, 0.01), rx=ula(4, 0.01), snapshots=8)
    report = monte_carlo_isotropic(s, draws=1000, seed=0)
    assert report.passed
    assert report.rel_err <= report.tol
    # same seed, same draw sequence, same number
    again = monte_carlo_isotropic(s, draws=1000, seed=0)
    assert again.rel_err == report.rel_err


@pytest.mark.parametrize("builder", [
    lambda: make_scene(targets=None, tx=ula(4, 0.01), rx=ula(4, 0.01), snapshots=8),
    lambda: two_target_scene(n=4, m=4),
    lambda: make_scene(targets=[target_at(100.0, 20.0)],
                       tx=ula(1, 0.01), rx=ula(4, 0.01), snapshots=8),
], ids=["verify-scene", "q2", "single-tx"])
def test_monte_carlo_oracle_is_mean_of_per_draw_fims(builder):
    # the same seeded draws, one (N_t, M) matrix at a time, real part first
    s = builder()
    draws, seed = 1000, 7
    rng = np.random.default_rng(seed)
    shape = (s.tx.count, s.snapshots)
    scale = math.sqrt(s.power_w / 2.0)
    x = [scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
         for _ in range(draws)]
    mean = explicit_fim(s, np.array(x)).mean(axis=0)
    report = monte_carlo_isotropic(s, draws=draws, seed=seed)
    assert report.oracle == pytest.approx(np.linalg.norm(mean, "fro"), rel=1e-12)


def test_monte_carlo_rejects_small_sample():
    with pytest.raises(ValueError):
        monte_carlo_isotropic(small_scene(), draws=400)


def test_fim_scales_linearly_with_power():
    base = small_scene(n=16, m=8)
    doubled = make_scene(targets=base.targets, tx=base.tx, rx=base.rx,
                         snapshots=base.snapshots, power_w=2.0 * base.power_w,
                         noise_var_w=base.noise_var_w)
    np.testing.assert_allclose(fim(doubled).matrix, 2.0 * fim(base).matrix, rtol=1e-12)


def test_fim_scales_inversely_with_noise():
    base = small_scene(n=16, m=8)
    noisier = make_scene(targets=base.targets, tx=base.tx, rx=base.rx,
                         snapshots=base.snapshots, power_w=base.power_w,
                         noise_var_w=2.0 * base.noise_var_w)
    np.testing.assert_allclose(fim(noisier).matrix, 0.5 * fim(base).matrix, rtol=1e-12)


def test_diagonal_blocks_equal_single_target_fims():
    # entry (i, j) with both parameters on target q only touches q's steering
    # stacks, so the q-block of a multi-target FIM is the single-target FIM
    s = two_target_scene()
    f = fim(s).matrix
    for q in range(2):
        alone = make_scene(targets=[s.targets[q]], tx=s.tx, rx=s.rx,
                           snapshots=s.snapshots, power_w=s.power_w,
                           noise_var_w=s.noise_var_w)
        idx = target_indices(q, 2)
        np.testing.assert_array_equal(f[np.ix_(idx, idx)], fim(alone).matrix)


def test_reflectivity_block_is_scaled_identity():
    s = small_scene(n=8, m=4)
    f = fim(s).matrix
    scale = s.wavelength_m ** 2 / (16.0 * math.pi ** 2)
    big_g_tx = scale * brute_gain(s.tx, s.targets[0], "g")
    big_g_rx = scale * brute_gain(s.rx, s.targets[0], "g")
    expected = 2.0 * s.power_w * s.snapshots / s.noise_var_w * big_g_tx * big_g_rx
    i_re, i_im = 4, 5  # rcs_re and rcs_im rows of a single-target layout
    np.testing.assert_allclose(f[i_re, i_re], expected, rtol=1e-12)
    np.testing.assert_allclose(f[i_im, i_im], expected, rtol=1e-12)
    assert f[i_re, i_im] == 0.0


def test_zero_reflectivity_kills_kinematic_information():
    t = target_at(100.0, 20.0, alpha=(0.0, 0.0))
    s = make_scene(targets=[t], tx=ula(8, 0.01), rx=ula(8, 0.01), snapshots=4)
    f = fim(s).matrix
    assert np.all(f[:4, :] == 0.0)
    assert np.all(f[:, :4] == 0.0)
    assert f[4, 4] > 0.0 and f[5, 5] > 0.0


def test_target_order_permutes_blocks():
    s = two_target_scene()
    swapped = make_scene(targets=[s.targets[1], s.targets[0]], tx=s.tx, rx=s.rx,
                         snapshots=s.snapshots, power_w=s.power_w,
                         noise_var_w=s.noise_var_w)
    f, g = fim(s).matrix, fim(swapped).matrix
    perm = np.empty(12, dtype=int)
    for q in (0, 1):
        perm[target_indices(q, 2)] = target_indices(1 - q, 2)
    np.testing.assert_array_equal(g, f[np.ix_(perm, perm)])

