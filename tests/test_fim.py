"""Fisher information assembly: structure, oracles, and scaling laws."""

import dataclasses
import hashlib
import math
import os
import platform
import random
import resource
import subprocess
import sys
import threading
import tracemalloc
import types
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nfcrb
from nfcrb import (BLOCKS, Target, brute_gain, fd_fim, fim, make_scene, monte_carlo_isotropic,
                   target_indices, ula)
from nfcrb.crb import own_information
from nfcrb.fim import derivative_terms
from nfcrb.oracle import _channel_derivatives, _isotropic_symbols
from nfcrb.steering import KEYS, LOW_ROWS, side_factors, steering_stack

from util import (canonical_scene, explicit_fim, many_target_scene, rotate_scene,
                  shared_and_unshared, sharing_scenes, small_scene, target_at)


def two_target_scene(n=8, m=8):
    return make_scene(targets=[target_at(100.0, 20.0),
                               target_at(150.0, -45.0, v=(4.0, 3.0), alpha=(0.8, -0.2))],
                      tx=ula(n, 0.01), rx=ula(n, 0.01), snapshots=m)


def bistatic_scene(m=128):
    """many_target_scene(m=m) with the Rx centroid moved."""
    return dataclasses.replace(many_target_scene(m=m), rx=ula(128, 0.01, 0.5))


def unequal_counts_scene(m=128):
    """many_target_scene(m=m) with 512 Tx and 32 Rx elements, the Rx centroid
    moved: per side, the Tx fields would fit 2 snapshot rows in CHUNK_BYTES
    and the Rx fields 16."""
    return dataclasses.replace(many_target_scene(m=m), tx=ula(512, 0.01), rx=ula(32, 0.01, 0.5))


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
    # the same seeded draws, one (N_t, M) matrix at a time: Box-Muller from
    # its magnitude words, then its phase words
    s = builder()
    draws, seed = 1000, 7
    rng = random.Random(seed)
    shape = (s.tx.count, s.snapshots)

    def uniforms():  # (k + 1/2) 2^-32 of one (N_t, M) matrix of 32-bit words
        return (np.array([rng.getrandbits(32) for _ in range(math.prod(shape))])
                .reshape(shape) + 0.5) * 2.0 ** -32

    x = [np.sqrt(-s.power_w * np.log(uniforms())) * np.exp(2j * math.pi * uniforms())
         for _ in range(draws)]
    mean = explicit_fim(s, np.array(x)).mean(axis=0)
    report = monte_carlo_isotropic(s, draws=draws, seed=seed)
    assert report.oracle == pytest.approx(np.linalg.norm(mean, "fro"), rel=1e-12)


def test_isotropic_symbols_have_the_moments_of_cn_0_p():
    # one 1000 x 4 x 8 draw, as verify's Monte Carlo check makes; each sample
    # moment within 5 sigma: E x = 0 (sigma^2 = P / n), E|x|^2 = P (|x|^2 / P
    # is exponential, sigma^2 = 1 / n) and E x^2 = 0 (E|x|^4 = 2 P^2)
    power = 0.3
    x = _isotropic_symbols(power, (1000, 4, 8), 0)
    n = x.size
    assert x.shape == (1000, 4, 8) and x.dtype == complex
    assert abs(x.mean()) <= 5.0 * math.sqrt(power / n)
    assert abs((abs(x) ** 2).mean() / power - 1.0) <= 5.0 / math.sqrt(n)
    assert abs((x * x).mean()) / power <= 5.0 * math.sqrt(2.0 / n)


def test_isotropic_symbols_follow_their_seed():
    a = _isotropic_symbols(1.0, (1000, 4, 8), 0)
    assert a.tobytes() == _isotropic_symbols(1.0, (1000, 4, 8), 0).tobytes()
    assert not np.isin(a, _isotropic_symbols(1.0, (1000, 4, 8), 1)).any()
    # Python's Random would seed -1 as 1; a negative seed is an error
    with pytest.raises(ValueError, match="non-negative"):
        _isotropic_symbols(1.0, (1000, 4, 8), -1)
    with pytest.raises(ValueError, match="non-negative"):
        monte_carlo_isotropic(small_scene(), draws=1000, seed=-1)


# the magnitude word nearest 2^32 / e: sqrt(-ln u) is 1 within 1e-10
UNIT_MAGNITUDE_WORD = 1580030168
PHASE_TOL = 2e-15


def phase_errors(k):
    """|x - r e^(2 pi j (k + 1/2) 2^-32)| / r of _isotropic_symbols' symbol x for
    each 32-bit phase word k, with r = sqrt(-ln u) of the one magnitude word.

    The generator is replaced by one whose bytes are one draw's magnitude
    words and then the words k, in the (draws, 2, N_t, M) layout with
    draws = M = 1 and N_t = k.size; the reference is the direct exp of each
    whole word.
    """
    k = np.asarray(k, dtype=np.uint64)
    raw = np.stack([np.full(k.size, UNIT_MAGNITUDE_WORD), k]).astype("<u4").tobytes()
    words = types.SimpleNamespace(randbytes=lambda n: raw)
    with mock.patch.object(nfcrb.oracle, "_generator", lambda seed: words):
        x = _isotropic_symbols(1.0, (1, k.size, 1), 0).ravel()
    r = math.sqrt(-math.log((UNIT_MAGNITUDE_WORD + 0.5) * 2.0 ** -32))
    return np.abs(x - r * np.exp(2j * np.pi * (k + 0.5) * 2.0 ** -32)) / r


def test_isotropic_phases_match_the_direct_exp():
    # each byte position of the phase word runs through 0..255 with the other
    # three bytes random, then k = 0 and k = 2^32 - 1; the byte tables' product
    # must equal e^(2 pi j (k + 1/2) 2^-32) formed from the whole word
    rng = np.random.default_rng(5)
    k = rng.integers(0, 2 ** 32, (4, 256), dtype=np.uint64)
    for p in range(4):
        k[p] = k[p] & ~np.uint64(255 << 8 * p) | np.arange(256, dtype=np.uint64) << 8 * p
        assert (k[p] >> np.uint64(8 * p) & np.uint64(255) == np.arange(256)).all()
    err = phase_errors(np.append(k.ravel(), [0, 2 ** 32 - 1]))
    assert err.size == 1026 and err.max() <= PHASE_TOL


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
    big_g_tx = scale * brute_gain(s.tx, s.targets[0])
    big_g_rx = scale * brute_gain(s.rx, s.targets[0])
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


def reference_own_block(scene, q):
    """6x6 raw own block of target q from per-snapshot Grams of its steering stacks, scaled.

    Per-target einsum Grams of the whole steering stack, the upper triangle
    mirrored, then the derivative_terms products added one by one as numpy
    scalars: a reference that shares no code with fim's element moments.
    """
    grams = []
    for side in ("rx", "tx"):
        fields = steering_stack(scene, side, [q])
        gram = np.empty((len(KEYS), len(KEYS), scene.snapshots), dtype=complex)
        for i, u in enumerate(fields):
            for j in range(i, len(KEYS)):
                gram[i, j] = np.einsum("qmn,qmn->qm", u.conj(), fields[j])[0]
                gram[j, i] = gram[i, j].conj()
        grams.append(gram)
    g_rx, g_tx = grams
    terms = [[(c, KEYS.index(rk), KEYS.index(tk))
              for c, rk, tk in derivative_terms(kind, scene.targets[q].rcs)] for kind in BLOCKS]
    block = np.empty((6, 6))
    for i in range(6):
        for j in range(i, 6):
            acc = 0.0
            for ci, rki, tki in terms[i]:
                for cj, rkj, tkj in terms[j]:
                    acc += (np.conj(ci) * cj
                            * (g_rx[rki, rkj] * g_tx[tki, tkj]).sum()).real
            block[i, j] = block[j, i] = acc
    return block * (2.0 * scene.power_w / scene.noise_var_w)


def criterion_11_base():
    return make_scene(targets=[target_at(20.0, 30.0, v=(8.0, -5.0))],
                      tx=ula(128, 0.01), rx=ula(128, 0.01))


@pytest.mark.filterwarnings("ignore:target 0 moves")  # criterion 11's 20 m scene
@pytest.mark.parametrize("build", [criterion_11_base,
                                   lambda: rotate_scene(criterion_11_base(), 30.0),
                                   many_target_scene], ids=["base", "rotated", "q8"])
def test_own_blocks_match_the_single_target_reference(build):
    scene = build()
    f = fim(scene).matrix
    for q in range(scene.q_count):
        want = reference_own_block(scene, q)
        d = np.sqrt(np.diag(want))
        err = np.abs(f[q::scene.q_count, q::scene.q_count] - want) / np.outer(d, d)
        assert err.max() <= 1e-12


@pytest.mark.parametrize("build", [many_target_scene, unequal_counts_scene, canonical_scene],
                         ids=["monostatic", "bistatic", "one-target"])
def test_fim_own_blocks_are_own_information_bit_for_bit(build):
    # every bound of target q reads F'[q::Q, q::Q], so fim scales no own block again
    scene = build()
    f = fim(scene).centred
    for q in range(scene.q_count):
        tx, rx = scene.per_side(lambda side: side_factors(scene, side, [q]))
        own = own_information(scene, tx, rx, [scene.targets[q].rcs])[0][0]
        assert f[q::scene.q_count, q::scene.q_count].tobytes() == own.tobytes()


def test_one_target_fim_builds_no_steering_fields(monkeypatch):
    # its only block is its own, which fim reads from element moments
    def refuse(*args, **kwargs):
        raise AssertionError("steering._stack called")

    monkeypatch.setattr(sys.modules["nfcrb.steering"], "_stack", refuse)
    for scene in (canonical_scene(), make_scene(), dataclasses.replace(
            canonical_scene(), rx=ula(24, 0.01, 0.5))):
        assert np.all(np.isfinite(fim(scene).matrix))


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


@pytest.mark.parametrize("targets", [
    # x ties between 0.0 and -0.0, y breaks the tie against the input order
    [Target(x=0.0, y=60.0), Target(x=-0.0, y=50.0), Target(x=-5.0, y=70.0)],
    # x and y tie, the velocities and reflectivities break the ties
    [Target(x=1.0, y=50.0, vx=2.0), Target(x=1.0, y=50.0, vx=-1.0),
     Target(x=1.0, y=50.0, vx=-1.0, vy=0.0, rcs_re=0.5), Target(x=-1.0, y=50.0)],
    # rows equal but for the sign of a zero keep their input order
    [Target(x=0.0, y=50.0, vx=-0.0), Target(x=-0.0, y=50.0, vx=0.0), Target(x=0.0, y=45.0)],
], ids=["signed-zero-x", "x-and-y", "signed-zero-rows"])
def test_canonical_order_sorts_the_state_rows_as_lists(monkeypatch, targets):
    module = sys.modules["nfcrb.fim"]  # the package's fim() shadows the module name
    factors, orders = module.side_factors, []

    def recorded(scene, side, q):
        orders.append(q)
        return factors(scene, side, q)

    monkeypatch.setattr(module, "side_factors", recorded)
    scene = make_scene(targets=targets, tx=ula(8, 0.01), rx=ula(8, 0.01), snapshots=4)
    fim(scene)
    assert orders == [sorted(range(scene.q_count), key=lambda q: scene.states[q].tolist())]


def permuted(scene, order):
    """The scene with targets reordered, and the FIM row permutation that follows."""
    q_count = scene.q_count
    perm = np.empty(6 * q_count, dtype=int)
    for new, old in enumerate(order):
        perm[target_indices(new, q_count)] = target_indices(old, q_count)
    return make_scene(targets=[scene.targets[q] for q in order], tx=scene.tx, rx=scene.rx,
                      snapshots=scene.snapshots, power_w=scene.power_w,
                      noise_var_w=scene.noise_var_w), perm


def test_cyclic_target_order_permutes_full_size_fim_bit_for_bit():
    # at N = M = 128 the Grams run through BLAS kernels that tiny scenes never reach
    s = many_target_scene(q=3)
    moved, perm = permuted(s, (1, 2, 0))
    f = fim(s).matrix
    np.testing.assert_array_equal(fim(moved).matrix, f[np.ix_(perm, perm)])


def test_full_size_multi_target_fim_symmetric():
    f = fim(many_target_scene()).matrix
    np.testing.assert_array_equal(f, f.T)


def test_fim_bits_identical_across_blas_thread_counts():
    # the thread count is set on the child processes only
    here = Path(__file__).resolve().parent
    src = str(Path(nfcrb.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, str(here), os.environ.get("PYTHONPATH")]))
    child = ("import hashlib, util, nfcrb; print(hashlib.sha256("
             "nfcrb.fim(util.many_target_scene()).matrix.tobytes()).hexdigest())")
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": pythonpath}
        proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        digests.append(proc.stdout)
    assert digests[0] == digests[1]
    here_digest = hashlib.sha256(fim(many_target_scene()).matrix.tobytes()).hexdigest()
    assert digests[0].decode().strip() == here_digest


@pytest.mark.parametrize("key", list(sharing_scenes()))
def test_fim_equals_its_per_side_evaluation_bit_for_bit(monkeypatch, key):
    # a monostatic scene builds one side's Grams for both; near twins build two
    scene = sharing_scenes()[key]
    assert scene.monostatic == key.startswith("monostatic")
    shared, unshared = shared_and_unshared(monkeypatch, lambda s: fim(s).matrix, scene)
    assert shared.tobytes() == unshared.tobytes()


@pytest.mark.parametrize("rx_centroid, sides", [(0.0, ("rx",)), (0.5, ("rx", "tx"))],
                         ids=["monostatic", "bistatic"])
def test_fim_builds_one_stack_per_target_and_distinct_side(monkeypatch, rx_centroid, sides):
    module = sys.modules["nfcrb.fim"]  # the package's fim() shadows the module name
    steering = sys.modules["nfcrb.steering"]
    factors, stack, made, built = module.side_factors, steering._stack, [], []

    def recorded(scene, side, q):
        made.append((side, q, factors(scene, side, q)))
        return made[-1][2]

    def counted(scene, g, r, u, alpha, beta, m_values, out=None, table=None):
        # the side and targets whose element factors the chunk is formed from
        side, q = next((side, q) for side, q, of in made if of[1] is r)
        fields = stack(scene, g, r, u, alpha, beta, m_values, out, table)
        assert fields.shape[1:3] == (len(q), len(m_values))
        built.extend([(side, t, m - 1) for t in q for m in m_values])
        return fields

    monkeypatch.setattr(module, "side_factors", recorded)
    monkeypatch.setattr(steering, "_stack", counted)
    # a request of three snapshot rows per chunk: chunks of 2 rows
    monkeypatch.setattr(module, "CHUNK_BYTES", 3 * 8 * len(KEYS) * 3 * 2 * 8)
    scene = make_scene(targets=[target_at(100.0, 20.0), target_at(150.0, -45.0),
                                target_at(80.0, 5.0)],
                       tx=ula(8, 0.01), rx=ula(8, 0.01, rx_centroid), snapshots=4)
    fim(scene)
    assert Counter(built) == Counter([(side, q, m) for side in sides for q in range(3)
                                      for m in range(4)])


@pytest.mark.parametrize("rx, tables", [
    (None, 0), ("same", 1), (ula(8, 0.01), 1), (ula(8, 0.01, 0.5), 2)],
    ids=["one-target", "one-array-object", "equal-arrays", "bistatic"])
def test_fim_forms_one_phasor_table_per_distinct_side(monkeypatch, rx, tables):
    # a monostatic scene's Rx table stands for both sides; one target forms none
    steering = sys.modules["nfcrb.steering"]
    phasors, formed = steering._phasors, []

    def counted(scene, g, r, u, out=None):
        formed.append(r.shape)
        return phasors(scene, g, r, u, out)

    monkeypatch.setattr(steering, "_phasors", counted)
    scene = two_target_scene(m=40)
    if rx is None:
        scene = dataclasses.replace(scene, targets=scene.targets[:1])
    else:
        scene = dataclasses.replace(scene, rx=scene.tx if rx == "same" else rx)
    assert np.all(np.isfinite(fim(scene).centred))
    assert formed == [(scene.q_count, 1, 8)] * tables


def fim_bytes(scene, chunk_bytes):
    """fim(scene).matrix bytes with CHUNK_BYTES set to chunk_bytes."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys.modules["nfcrb.fim"], "CHUNK_BYTES", chunk_bytes)
        return fim(scene).matrix.tobytes()


def assert_chunking_keeps_bits(scene):
    # one snapshot row per chunk, requests of 3 and 43 rows of Tx fields
    # (chunks of 2 and 16 rows where Tx is the larger side), the default
    # chunks, and one chunk per block
    one_chunk = fim_bytes(scene, 1 << 62)
    row = 16 * len(KEYS) * scene.q_count * scene.tx.count
    for chunk_bytes in (1, 3 * row, 43 * row):
        assert fim_bytes(scene, chunk_bytes) == one_chunk
    assert fim(scene).matrix.tobytes() == one_chunk


eval_size_scenes = pytest.mark.parametrize(
    "build", [many_target_scene, bistatic_scene, unequal_counts_scene],
    ids=["monostatic", "bistatic", "bistatic-unequal-counts"])


@eval_size_scenes
def test_eval_size_fim_is_bit_identical_for_every_chunk_size(build):
    # one chunk of all 8 targets holds (8, 128, 128) complex temporaries, above
    # numpy's 256 KiB threshold for reusing a temporary in place; one-row
    # chunks hold 16 KiB ones. Elision swaps the operands of a commutative
    # ufunc, which changes the rounding of a complex product, so the steering
    # expressions must not depend on it
    assert_chunking_keeps_bits(build())


@eval_size_scenes
def test_a_partial_last_block_is_bit_identical_for_every_chunk_size(build):
    # 100 snapshots are six blocks of 16 and one of 4
    assert_chunking_keeps_bits(build(m=100))


@pytest.mark.parametrize("count, expect", [(3, 3), (None, 1)])
def test_cpu_count_without_an_affinity_call_is_the_cpu_count(monkeypatch, count, expect):
    # platforms without os.sched_getaffinity (macOS, Windows) read os.cpu_count
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert sys.modules["nfcrb.fim"]._cpu_count() == expect


def recorded_fim(monkeypatch, scene, cpus):
    """fim(scene).matrix bytes with cpus CPUs to run on, and per chunk whether
    its fields were formed on the calling thread."""
    monkeypatch.setattr(sys.modules["nfcrb.fim"], "_cpu_count", lambda: cpus)
    steering = sys.modules["nfcrb.steering"]
    stack, on_caller = steering._stack, []

    def recorded(*args):
        on_caller.append(threading.current_thread() is threading.main_thread())
        return stack(*args)

    monkeypatch.setattr(steering, "_stack", recorded)
    return fim(scene).matrix.tobytes(), on_caller


def lanes_fim(monkeypatch, scene):
    """recorded_fim on one CPU and on two, the second with the interpreter
    lock handed over as often as it can be."""
    inline, on_caller = recorded_fim(monkeypatch, scene, 1)
    assert all(on_caller)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        return inline, recorded_fim(monkeypatch, scene, 2)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("tx, rx, chunk_bytes",
                         [(ula(128, 0.01), ula(128, 0.01), None),
                          (ula(128, 0.01), ula(128, 0.01, 0.5), None),
                          (ula(128, 0.01), ula(96, 0.01, 0.5), None),
                          (ula(512, 0.01), ula(32, 0.01, 0.5), None),
                          (ula(128, 0.01), ula(128, 0.01), 1)],
                         ids=["monostatic", "bistatic", "bistatic-unequal-counts",
                              "bistatic-512-32", "one-row-chunks"])
def test_worker_thread_keeps_the_inline_bits(monkeypatch, tx, rx, chunk_bytes):
    # both sides form chunks of the rows the larger side's fields fit: 8 rows
    # with 128 Tx and 96 Rx elements, 2 rows with 512 Tx and 32 Rx elements
    scene = dataclasses.replace(many_target_scene(), tx=tx, rx=rx)
    if chunk_bytes is not None:
        monkeypatch.setattr(sys.modules["nfcrb.fim"], "CHUNK_BYTES", chunk_bytes)
    inline, (overlapped, on_caller) = lanes_fim(monkeypatch, scene)
    # each lane forms four of the eight blocks, whole
    assert on_caller.count(True) == on_caller.count(False) > 0
    assert overlapped == inline


@pytest.mark.parametrize("rx_centroid, sides", [(0.0, 1), (0.5, 2)],
                         ids=["monostatic", "bistatic"])
def test_an_odd_chunk_count_keeps_the_inline_bits(monkeypatch, rx_centroid, sides):
    # a request of 43 of the 128 snapshot rows per chunk: one 16-row chunk per
    # block, four blocks formed on the calling thread and four on the worker
    scene = dataclasses.replace(many_target_scene(), rx=ula(128, 0.01, rx_centroid))
    monkeypatch.setattr(sys.modules["nfcrb.fim"], "CHUNK_BYTES", 43 * 16 * len(KEYS) * 8 * 128)
    inline, (overlapped, on_caller) = lanes_fim(monkeypatch, scene)
    assert sorted(on_caller) == [False] * 4 * sides + [True] * 4 * sides
    assert overlapped == inline


@pytest.mark.parametrize("rows", [3, 43])
@pytest.mark.parametrize("tx, rx, sides", [(ula(128, 0.01), ula(128, 0.01), 1),
                                           (ula(128, 0.01), ula(128, 0.01, 0.5), 2),
                                           (ula(512, 0.01), ula(32, 0.01, 0.5), 2)],
                         ids=["monostatic", "bistatic", "bistatic-512-32"])
def test_a_partial_last_block_keeps_the_inline_bits(monkeypatch, tx, rx, sides, rows):
    # 100 snapshots are six blocks of 16 and one of 4, and requests of 3 and 43
    # rows of Tx fields make chunks of 2 and 16 rows on both sides: the
    # calling thread forms blocks 0, 2, 4 and 6, the worker blocks 1, 3 and
    # 5, each whole
    scene = dataclasses.replace(many_target_scene(m=100), tx=tx, rx=rx)
    monkeypatch.setattr(sys.modules["nfcrb.fim"], "CHUNK_BYTES",
                        rows * 16 * len(KEYS) * 8 * tx.count)
    chunk_rows = 2 if rows == 3 else LOW_ROWS
    chunks = [-(-min(LOW_ROWS, 100 - start) // chunk_rows) for start in range(0, 100, LOW_ROWS)]
    inline, (overlapped, on_caller) = lanes_fim(monkeypatch, scene)
    assert on_caller.count(True) == sides * sum(chunks[0::2])
    assert on_caller.count(False) == sides * sum(chunks[1::2])
    assert overlapped == inline


@pytest.mark.parametrize("rx_centroid, sides", [(0.0, 1), (0.5, 2)],
                         ids=["monostatic", "bistatic"])
def test_both_lanes_read_one_set_of_element_factors(monkeypatch, rx_centroid, sides):
    steering = sys.modules["nfcrb.steering"]
    factors, calls = steering.element_factors, []

    def counted(*args):
        calls.append(threading.current_thread() is threading.main_thread())
        return factors(*args)

    monkeypatch.setattr(steering, "element_factors", counted)
    inline, (overlapped, on_caller) = lanes_fim(
        monkeypatch, dataclasses.replace(many_target_scene(), rx=ula(128, 0.01, rx_centroid)))
    assert not all(on_caller)
    # one call per side on one CPU, and one per side on the calling thread on two
    assert calls == [True] * 2 * sides
    assert overlapped == inline


@pytest.mark.parametrize("where", ["worker", "caller"])
def test_an_error_on_either_thread_leaves_no_thread_behind(monkeypatch, where):
    module, steering = sys.modules["nfcrb.fim"], sys.modules["nfcrb.steering"]
    monkeypatch.setattr(module, "_cpu_count", lambda: 2)
    stack, calls = steering._stack, []

    def third_fails(*args):  # runs on the worker
        calls.append(None)
        if len(calls) == 3:
            raise RuntimeError("third chunk")
        return stack(*args)

    def third_flat(scene, g, r, u, alpha, beta, m_values, out=None, table=None):
        # the caller cannot unpack a chunk without its N axis
        fields = stack(scene, g, r, u, alpha, beta, m_values, out, table)
        return fields[..., 0] if m_values[0] > 1 else fields

    monkeypatch.setattr(steering, "_stack", third_fails if where == "worker" else third_flat)
    before = threading.active_count()
    with pytest.raises(RuntimeError if where == "worker" else ValueError):
        fim(many_target_scene())
    assert threading.active_count() == before


def test_an_error_on_the_calling_thread_stops_the_worker(monkeypatch):
    module, steering = sys.modules["nfcrb.fim"], sys.modules["nfcrb.steering"]
    monkeypatch.setattr(module, "_cpu_count", lambda: 2)
    monkeypatch.setattr(module, "CHUNK_BYTES", 1)  # one snapshot row per chunk: 128 a side
    stack, on_caller, on_worker, raised = steering._stack, [], [], []

    def second_fails(*args):
        if threading.current_thread() is not threading.main_thread():
            on_worker.append(None)
            return stack(*args)
        on_caller.append(None)
        if len(on_caller) == 2:
            raised.append(len(on_worker))
            raise RuntimeError("the caller's second chunk")
        return stack(*args)

    monkeypatch.setattr(steering, "_stack", second_fails)
    before = threading.active_count()
    with pytest.raises(RuntimeError):
        fim(many_target_scene())
    # the worker starts at most the chunk it had begun and one more
    assert raised and len(on_worker) - raised[0] <= 2
    assert threading.active_count() == before


def test_worker_thread_runs_under_the_callers_errstate(monkeypatch):
    steering = sys.modules["nfcrb.steering"]
    stack, seen = steering._stack, []

    def recorded(*args):
        seen.append((threading.current_thread() is threading.main_thread(),
                     np.geterr()["invalid"]))
        return stack(*args)

    monkeypatch.setattr(sys.modules["nfcrb.fim"], "_cpu_count", lambda: 2)
    monkeypatch.setattr(steering, "_stack", recorded)
    with np.errstate(invalid="raise"):
        fim(many_target_scene())
    on_worker = [invalid for on_caller, invalid in seen if not on_caller]
    assert on_worker and all(invalid == "raise" for invalid in on_worker)


@pytest.mark.parametrize("rx, m, threads", [(ula(8, 0.01), 8, 0), (ula(8, 0.01, 0.5), 8, 0),
                                            (ula(2048, 0.01, 0.5), 8, 0), (ula(8, 0.01), 32, 1)],
                         ids=["monostatic", "bistatic", "bistatic-one-chunk-tx", "two-blocks"])
def test_one_chunk_sides_start_no_thread(monkeypatch, rx, m, threads):
    # 8 snapshots of two targets are one chunk on 8 elements and four a side
    # with 2048 Rx elements, but one block, which the calling thread forms;
    # 32 snapshots are two
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(sys.modules["nfcrb.fim"], "_cpu_count", lambda: 2)
    monkeypatch.setattr(threading, "Thread", Counted)
    fim(dataclasses.replace(two_target_scene(m=m), rx=rx))
    assert len(started) == threads


def traced_peak(scene):
    """The tracemalloc peak of one fim(scene) call, in bytes."""
    tracemalloc.start()
    try:
        fim(scene)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fim_peak_memory_is_bounded():
    # the whole (5, Q, M, N) complex fields of one side would take 160 MiB here
    assert traced_peak(many_target_scene(q=8, n=1024, m=256)) < 32 * 2 ** 20


def test_fim_peak_memory_does_not_grow_with_the_snapshots():
    # pair rows of every snapshot would take 120 pairs * 1024 * 25 complex
    # values, 49 MB, at M = 1024; only the phasor table's high rows grow with M
    peaks = [traced_peak(many_target_scene(q=16, n=16, m=m)) for m in (256, 1024)]
    assert peaks[1] < 20 * 2 ** 20
    assert peaks[1] - peaks[0] < 2 ** 20


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="counts page faults under glibc's heap trimming")
def test_fim_does_not_refault_its_heap_on_every_call():
    # fim's one workspace is its largest allocation, which lifts glibc's trim
    # threshold: with separate blocks the heap is handed back and faulted in
    # again on every call, over a thousand minor faults here
    scene = many_target_scene()
    for _ in range(2):
        fim(scene)
    faults = []
    for _ in range(5):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        fim(scene)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert max(faults) < 256, faults


@st.composite
def multi_target_scenes(draw):
    """Two to four targets on small monostatic or bistatic arrays."""
    q_count = draw(st.integers(2, 4))
    offset = draw(st.sampled_from([0.0, 2.0]))
    # symmetric bistatic arrays at broadside cancel the x and vx information
    # to zero, which both forms return as rounding residue of different size
    def angle():
        if offset:
            return draw(st.floats(5.0, 80.0)) * draw(st.sampled_from([-1.0, 1.0]))
        return draw(st.floats(-80.0, 80.0))

    speed, rcs = st.floats(-5.0, 5.0), st.floats(-2.0, 2.0)
    targets = [target_at(draw(st.floats(5.0, 400.0)), angle(),
                         v=(draw(speed), draw(speed)), alpha=(draw(rcs), draw(rcs)))
               for _ in range(q_count)]
    return make_scene(targets=targets, tx=ula(draw(st.integers(1, 16)), 0.01, -offset),
                      rx=ula(draw(st.integers(1, 16)), 0.01, offset),
                      snapshots=draw(st.integers(1, 16)))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(multi_target_scenes())
def test_multi_target_fim_is_bit_identical_for_every_chunk_size(scene):
    assert_chunking_keeps_bits(scene)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(multi_target_scenes())
def test_multi_target_fim_matches_full_trace_contraction(scene):
    # 2 P / sigma^2 Re sum_m tr(D_i^H D_j) over materialized derivative stacks
    d = _channel_derivatives(scene)
    reference = (2.0 * scene.power_w / scene.noise_var_w
                 * np.einsum("imrt,jmrt->ij", d.conj(), d).real)
    diag = np.sqrt(np.diag(reference))
    diag[diag == 0.0] = 1.0
    scaled_err = np.abs(fim(scene).matrix - reference) / np.outer(diag, diag)
    assert scaled_err.max() <= 1e-12


@pytest.mark.parametrize("m", [1, 3, LOW_ROWS - 1, LOW_ROWS, LOW_ROWS + 1, 2 * LOW_ROWS + 5])
@pytest.mark.parametrize("rx_centroid", [0.0, 0.5], ids=["monostatic", "bistatic"])
def test_fim_across_phasor_rows_is_bit_identical_for_every_chunk_size(m, rx_centroid):
    # chunks of every row count from 1 to m, so that chunks start and end
    # inside and at the edges of the phasor table's high rows
    scene = make_scene(targets=[target_at(100.0, 20.0), target_at(150.0, -45.0, v=(4.0, 3.0)),
                                target_at(60.0, 70.0, v=(-9.0, 2.0), alpha=(0.3, 0.7))],
                       tx=ula(4, 0.01), rx=ula(4, 0.01, rx_centroid), snapshots=m)
    whole = fim_bytes(scene, 1 << 62)
    row_bytes = 16 * len(KEYS) * scene.q_count * scene.tx.count
    for rows in range(1, m):
        assert fim_bytes(scene, rows * row_bytes) == whole, rows
