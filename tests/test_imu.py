from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from vislam.frontend import make_tracker
from vislam.geometry import Rotation
from vislam.imu import (
    BiasState,
    ImuNoiseModel,
    ImuSamples,
    preintegrate,
)
from vislam.synth import default_intrinsics

import oracles
from oracles import (
    compose_deltas,
    correct_for_bias,
    integrate_imu_fine,
    random_periodic_signal,
)


def _stream(omega_fn, accel_fn, t0, t1, rate):
    n = int(round((t1 - t0) * rate))
    ts = t0 + (t1 - t0) * np.arange(n + 1) / n
    return ImuSamples(ts, [omega_fn(t) for t in ts], [accel_fn(t) for t in ts])


def _const_stream(omega, accel, t0=0.0, t1=1.0, rate=200.0):
    return _stream(lambda t: np.asarray(omega, float), lambda t: np.asarray(accel, float), t0, t1, rate)


def test_preintegrate_still_stream():
    d = preintegrate(_const_stream([0, 0, 0], [0, 0, 0]), BiasState(), ImuNoiseModel())
    assert np.allclose(d.delta_R.matrix(), np.eye(3))
    assert np.allclose(d.delta_v, 0.0)
    assert np.allclose(d.delta_p, 0.0)
    assert d.dt_total == pytest.approx(1.0)


def test_preintegrate_constant_acceleration_exact():
    d = preintegrate(_const_stream([0, 0, 0], [1, 0, 0]), BiasState(), ImuNoiseModel())
    assert np.allclose(d.delta_v, [1.0, 0.0, 0.0], atol=1e-14)
    assert np.allclose(d.delta_p, [0.5, 0.0, 0.0], atol=1e-14)


def test_preintegrate_rejects_short_and_non_monotone():
    noise = ImuNoiseModel()
    with pytest.raises(ValueError):
        preintegrate(ImuSamples([0.0], np.zeros((1, 3)), np.zeros((1, 3))), BiasState(), noise)
    bad = _const_stream([0, 0, 0], [0, 0, 0])
    bad.t[5] = bad.t[4]
    with pytest.raises(ValueError):
        preintegrate(bad, BiasState(), noise)


def test_preintegrate_against_fine_oracle():
    rng = np.random.default_rng(42)
    noise = ImuNoiseModel()
    for _ in range(10):
        omega_fn = random_periodic_signal(rng, amps=(0.12, 0.05))
        accel_fn = random_periodic_signal(rng, amps=(0.25, 0.1), offset=0.5)
        d = preintegrate(_stream(omega_fn, accel_fn, 0.0, 1.0, 200.0), BiasState(), noise)
        R_ref, p_ref, v_ref = integrate_imu_fine(omega_fn, accel_fn, 0.0, 1.0, 20000.0)
        rot_err = np.linalg.norm((Rotation.from_matrix(R_ref).inverse() * d.delta_R).log())
        assert rot_err <= 1e-5
        assert np.linalg.norm(d.delta_p - p_ref) <= 1e-5
        assert np.linalg.norm(d.delta_v - v_ref) <= 1e-5


def test_gravity_independence():
    # preintegration consumes only the body-frame stream; there is no gravity input
    rng = np.random.default_rng(1)
    omega_fn = random_periodic_signal(rng)
    accel_fn = random_periodic_signal(rng, amps=(1.0, 0.5), offset=9.81)
    d1 = preintegrate(_stream(omega_fn, accel_fn, 0.0, 0.5, 200.0), BiasState(), ImuNoiseModel())
    d2 = preintegrate(_stream(omega_fn, accel_fn, 0.0, 0.5, 200.0), BiasState(),
                      ImuNoiseModel(gravity_magnitude=3.71))
    assert np.allclose(d1.delta_p, d2.delta_p)
    assert np.allclose(d1.delta_v, d2.delta_v)


def test_concatenation_identity():
    rng = np.random.default_rng(2)
    omega_fn = random_periodic_signal(rng)
    accel_fn = random_periodic_signal(rng, amps=(1.0, 0.5), offset=2.0)
    noise = ImuNoiseModel()
    a = preintegrate(_stream(omega_fn, accel_fn, 0.0, 0.5, 200.0), BiasState(), noise)
    b = preintegrate(_stream(omega_fn, accel_fn, 0.5, 1.0, 200.0), BiasState(), noise)
    full = preintegrate(_stream(omega_fn, accel_fn, 0.0, 1.0, 200.0), BiasState(), noise)
    ab = compose_deltas(a, b)
    assert np.linalg.norm((ab.delta_R.inverse() * full.delta_R).log()) < 1e-9
    assert np.allclose(ab.delta_p, full.delta_p, atol=1e-9)
    assert np.allclose(ab.delta_v, full.delta_v, atol=1e-9)


def test_covariance_symmetric_psd_and_monotone():
    rng = np.random.default_rng(3)
    omega_fn = random_periodic_signal(rng)
    accel_fn = random_periodic_signal(rng, amps=(1.0, 0.5), offset=2.0)
    noise = ImuNoiseModel()
    short = preintegrate(_stream(omega_fn, accel_fn, 0.0, 0.5, 200.0), BiasState(), noise)
    long = preintegrate(_stream(omega_fn, accel_fn, 0.0, 1.0, 200.0), BiasState(), noise)
    for d in (short, long):
        assert np.max(np.abs(d.covariance - d.covariance.T)) < 1e-12
        assert np.linalg.eigvalsh(d.covariance).min() >= -1e-12
    assert np.trace(long.covariance) >= np.trace(short.covariance)


def test_covariance_against_monte_carlo():
    # propagated covariance should match the sampling spread of noisy runs
    rng = np.random.default_rng(4)
    noise = ImuNoiseModel(gyro_noise_density=5e-3, accel_noise_density=5e-2)
    rate, t1 = 200.0, 0.5
    omega = np.array([0.3, -0.2, 0.4])
    accel = np.array([1.0, 2.0, -0.5])
    clean = _const_stream(omega, accel, 0.0, t1, rate)
    ref = preintegrate(clean, BiasState(), noise)
    dt = 1.0 / rate
    sg = noise.gyro_noise_density / np.sqrt(dt)
    sa = noise.accel_noise_density / np.sqrt(dt)
    errs = []
    for _ in range(400):
        # per sample, three gyro draws then three accel draws
        z = rng.standard_normal((len(clean), 2, 3))
        noisy = ImuSamples(clean.t, clean.gyro + sg * z[:, 0], clean.accel + sa * z[:, 1])
        d = preintegrate(noisy, BiasState(), noise)
        errs.append(np.concatenate([
            (ref.delta_R.inverse() * d.delta_R).log(),
            d.delta_p - ref.delta_p,
            d.delta_v - ref.delta_v,
        ]))
    emp = np.cov(np.array(errs).T)
    prop = ref.covariance[:9, :9]
    for k in range(9):
        assert emp[k, k] == pytest.approx(prop[k, k], rel=0.35)


def test_correct_for_bias_at_lin_point_is_identity():
    rng = np.random.default_rng(5)
    omega_fn = random_periodic_signal(rng)
    accel_fn = random_periodic_signal(rng, amps=(1.0, 0.5), offset=2.0)
    bias = BiasState(np.array([0.01, -0.02, 0.005]), np.array([0.1, 0.0, -0.05]))
    d = preintegrate(_stream(omega_fn, accel_fn, 0.0, 0.5, 200.0), bias, ImuNoiseModel())
    dR, dp, dv = correct_for_bias(d, bias)
    assert np.allclose(dR.matrix(), d.delta_R.matrix())
    assert np.allclose(dp, d.delta_p)
    assert np.allclose(dv, d.delta_v)


def test_correct_for_bias_gyro_construction():
    rng = np.random.default_rng(6)
    omega_fn = random_periodic_signal(rng)
    accel_fn = random_periodic_signal(rng, amps=(1.0, 0.5), offset=2.0)
    d = preintegrate(_stream(omega_fn, accel_fn, 0.0, 0.5, 200.0), BiasState(), ImuNoiseModel())
    dbg = np.array([2e-3, -1e-3, 5e-4])
    dR, _, _ = correct_for_bias(d, BiasState(gyro_bias=dbg))
    expected = d.delta_R * Rotation.exp(d.J_rot @ dbg)
    assert np.allclose(dR.matrix(), expected.matrix(), atol=1e-12)


def _bias_correction_discrepancy(stream, bias0, db, noise):
    d0 = preintegrate(stream, bias0, noise)
    nb = BiasState(bias0.gyro_bias + db[:3], bias0.accel_bias + db[3:])
    dR_c, dp_c, dv_c = correct_for_bias(d0, nb)
    d_re = preintegrate(stream, nb, noise)
    return max(
        np.linalg.norm((d_re.delta_R.inverse() * dR_c).log()),
        np.linalg.norm(dp_c - d_re.delta_p),
        np.linalg.norm(dv_c - d_re.delta_v),
    )


def test_bias_correction_second_order():
    rng = np.random.default_rng(7)
    noise = ImuNoiseModel()
    for _ in range(5):
        omega_fn = random_periodic_signal(rng)
        accel_fn = random_periodic_signal(rng, amps=(1.0, 0.5), offset=2.0)
        stream = _stream(omega_fn, accel_fn, 0.0, 1.0, 200.0)
        db = rng.normal(size=6)
        db *= 1e-3 / np.linalg.norm(db)
        full = _bias_correction_discrepancy(stream, BiasState(), db, noise)
        half = _bias_correction_discrepancy(stream, BiasState(), 0.5 * db, noise)
        assert full / max(half, 1e-300) >= 3.5


def test_noise_model_rejects_non_positive_density():
    with pytest.raises(ValueError):
        ImuNoiseModel(gyro_noise_density=0.0)


def _random_stream(rng, n, gyro_scale):
    """n samples at jittered ~200 Hz spacing with random gyro and gravity-like accel."""
    ts = np.cumsum(rng.uniform(0.003, 0.007, n))
    gyro = rng.standard_normal((n, 3)) * gyro_scale
    accel = rng.standard_normal((n, 3)) + np.array([0.0, 0.0, 9.81])
    return ImuSamples(ts, gyro, accel)


ORACLE_CASES = ["random", "zero_gyro", "bias_offset", "three_samples"]


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_preintegrate_matches_per_sample_oracle(case):
    # the rotation prefix product and the bias Jacobians keep the per-sample
    # arithmetic exactly; position is a prefix sum, so it may round differently
    rng = np.random.default_rng(50 + ORACLE_CASES.index(case))
    noise = ImuNoiseModel()
    for _ in range(5):
        n = 3 if case == "three_samples" else int(rng.integers(20, 150))
        stream = _random_stream(rng, n, 0.0 if case == "zero_gyro" else 0.6)
        bias = (BiasState(rng.standard_normal(3) * 0.02, rng.standard_normal(3) * 0.1)
                if case == "bias_offset" else BiasState())
        got = preintegrate(stream, bias, noise)
        want = oracles.preintegrate(stream, bias, noise)
        assert got.delta_R.q.tobytes() == want.delta_R.q.tobytes()
        for name in ("J_rot", "J_pos", "J_vel"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        for name in ("delta_p", "delta_v", "covariance", "whitening"):
            a, b = getattr(got, name), getattr(want, name)
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), name
        assert got.dt_total == want.dt_total


@pytest.mark.parametrize("field,value", [("timestamp", np.nan), ("gyro", [0.0, np.inf, 0.0]),
                                         ("accel", [np.nan, 0.0, 9.81])])
def test_imu_sample_rejects_non_finite(field, value):
    # the tracker checks every slice at its intake and keeps none of a bad one
    tracker = make_tracker(SimpleNamespace(intrinsics=default_intrinsics))
    cols = {"timestamp": [0.095, 0.1], "gyro": np.zeros((2, 3)),
            "accel": np.tile([0.0, 0.0, 9.81], (2, 1))}
    cols[field][1] = value
    with pytest.raises(ValueError, match="finite"):
        tracker.buffer_imu(ImuSamples(cols["timestamp"], cols["gyro"], cols["accel"]))
    assert len(tracker.imu_buffer) == 0


def _whitening_inverts(delta):
    """W^T W against the inverse of each diagonal block of the covariance."""
    W = delta.whitening
    for blk in (slice(0, 9), slice(9, 15)):
        want = np.linalg.inv(delta.covariance[blk, blk])
        got = W[blk, blk].T @ W[blk, blk]
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()
    assert not W[:9, 9:].any() and not W[9:, :9].any()


def test_whitening_is_computed_at_construction_and_by_replace():
    rng = np.random.default_rng(60)
    d = preintegrate(_random_stream(rng, 80, 0.5), BiasState(), ImuNoiseModel())
    _whitening_inverts(d)
    cov = np.diag(rng.uniform(0.5, 2.0, 15))
    e = dataclasses.replace(d, covariance=cov)
    _whitening_inverts(e)
    assert not np.array_equal(e.whitening, d.whitening)
    np.testing.assert_allclose(e.whitening, np.diag(1.0 / np.sqrt(np.diag(cov))),
                               rtol=1e-15)


@pytest.mark.parametrize("block", [slice(0, 9), slice(9, 15)], ids=["motion", "bias_walk"])
def test_non_psd_covariance_rejected_at_construction(block):
    rng = np.random.default_rng(61)
    d = preintegrate(_random_stream(rng, 40, 0.5), BiasState(), ImuNoiseModel())
    cov = d.covariance.copy()
    cov[block, block] -= 2.0 * np.trace(cov[block, block]) * np.eye(block.stop - block.start)
    with pytest.raises(ValueError, match="non-PSD preintegration covariance"):
        dataclasses.replace(d, covariance=cov)
