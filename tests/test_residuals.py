"""Residual values and analytic Jacobians against closed forms and finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from vislam.geometry import Pose, Rotation, SimTransform, so3_exp_matrix
from vislam.imu import BiasState, ImuNoiseModel, ImuSamples, PreintegratedDelta, preintegrate
from vislam.residuals import (
    GravityModel,
    Intrinsics,
    PoseState,
    RelativePoseEdge,
    VisionEdge,
    backproject,
    inertial_residual,
    relative_pose_residual,
    sim3_vision_residual,
    vision_residual,
)
from windows import stacked

FD_STEP = 1e-6
FD_RTOL = 1e-5


def _rand_rotation(rng, scale=1.0):
    return Rotation.exp(rng.standard_normal(3) * scale)


def _rand_pose(rng, rot_scale=0.4, trans_scale=1.0):
    return Pose(_rand_rotation(rng, rot_scale), rng.standard_normal(3) * trans_scale)


def _fd_columns(f, retract, dim, step=FD_STEP):
    """Central-difference Jacobian of f over a retraction, one column per dof."""
    cols = []
    for k in range(dim):
        d = np.zeros(dim)
        d[k] = step
        rp = f(retract(d))
        rm = f(retract(-d))
        cols.append((rp - rm) / (2.0 * step))
    return np.stack(cols, axis=-1)


def _rel_err(J_analytic, J_fd):
    denom = max(np.abs(J_fd).max(), 1e-8)
    return np.abs(J_analytic - J_fd).max() / denom


def _default_intrinsics():
    return Intrinsics(fx=300.0, fy=300.0, cx=319.5, cy=239.5, width=640, height=480)


def _vision_setup(rng, n=12):
    """Pixels in frame i, true depths, exact targets in frame j."""
    k = _default_intrinsics()
    T_i = _rand_pose(rng, 0.3, 0.5)
    # keep j close to i so points stay in front of both cameras
    T_j = T_i.compose(Pose(Rotation.exp(rng.standard_normal(3) * 0.05),
                           rng.standard_normal(3) * 0.2))
    pixels = np.stack([rng.uniform(40, 600, n), rng.uniform(40, 440, n)], axis=1)
    depths = rng.uniform(2.0, 6.0, n)
    d_i = 1.0 / depths

    X_w = T_i.apply(backproject(k, pixels, d_i))
    targets = oracles.project(k, T_j.inverse().apply(X_w))
    return k, T_i, T_j, pixels, d_i, targets


def test_vision_exact_reprojection_is_zero():
    rng = np.random.default_rng(0)
    k, T_i, T_j, pixels, d_i, targets = _vision_setup(rng)
    edge = VisionEdge(0, 1, pixels, targets, np.full((len(pixels), 2), 2.0))
    out = stacked(vision_residual, [edge], [T_i], [T_j], [d_i], k)
    assert out.behind_camera[0] == 0
    assert np.abs(out.residual[0]).max() < 1e-9


def test_vision_zero_weights_zero_residual():
    rng = np.random.default_rng(1)
    k, T_i, T_j, pixels, d_i, _ = _vision_setup(rng)
    garbage = rng.uniform(-500, 500, (len(pixels), 2))
    edge = VisionEdge(0, 1, pixels, garbage, np.zeros((len(pixels), 2)))
    out = stacked(vision_residual, [edge], [T_i], [T_j], [d_i], k)
    assert np.all(out.residual[0] == 0.0)


def test_vision_nonpositive_disparity_rejected():
    rng = np.random.default_rng(2)
    k, T_i, T_j, pixels, d_i, targets = _vision_setup(rng)
    edge = VisionEdge(0, 1, pixels, targets, np.ones((len(pixels), 2)))
    bad = d_i.copy()
    bad[0] = 0.0
    with pytest.raises(ValueError):
        stacked(vision_residual, [edge], [T_i], [T_j], [bad], k)


def test_vision_behind_camera_flagged_and_zeroed():
    k = _default_intrinsics()
    T_i = Pose.identity()
    # camera j five meters ahead, still facing forward: frame-i points at
    # depth ~1 end up behind it
    T_j = Pose(Rotation.identity(), np.array([0.0, 0.0, 5.0]))
    pixels = np.array([[320.0, 240.0], [100.0, 120.0]])
    d_i = np.array([1.0, 0.9])
    edge = VisionEdge(0, 1, pixels, pixels, np.ones((2, 2)))
    out = stacked(vision_residual, [edge], [T_i], [T_j], [d_i], k)
    assert out.behind_camera[0] == 2
    assert np.all(out.residual[0] == 0.0)
    assert np.all(out.J_i[0] == 0.0)


def test_vision_jacobians_match_finite_differences():
    rng = np.random.default_rng(3)
    k, T_i, T_j, pixels, d_i, targets = _vision_setup(rng, n=8)
    targets = targets + rng.standard_normal(targets.shape) * 2.0
    weights = rng.uniform(0.2, 2.0, (len(pixels), 2))
    edge = VisionEdge(0, 1, pixels, targets, weights)

    out = stacked(vision_residual, [edge], [T_i], [T_j], [d_i], k)

    def f_i(d):
        r = stacked(vision_residual, [edge], [T_i.retract(d[:3], d[3:])], [T_j], [d_i], k)
        return r.residual[0].reshape(-1)

    def f_j(d):
        r = stacked(vision_residual, [edge], [T_i], [T_j.retract(d[:3], d[3:])], [d_i], k)
        return r.residual[0].reshape(-1)

    J_i_fd = _fd_columns(f_i, lambda d: d, 6)
    J_j_fd = _fd_columns(f_j, lambda d: d, 6)
    assert _rel_err(out.J_i[0].reshape(-1, 6), J_i_fd) < FD_RTOL
    assert _rel_err(out.J_j[0].reshape(-1, 6), J_j_fd) < FD_RTOL

    # per-pixel disparity columns
    for p in range(len(pixels)):
        def f_d(eps, p=p):
            dd = d_i.copy()
            dd[p] += eps[0]
            r = stacked(vision_residual, [edge], [T_i], [T_j], [dd], k)
            return r.residual[0][p]

        col_fd = _fd_columns(f_d, lambda e: e, 1)[:, 0]
        assert _rel_err(out.J_disparity[0][p], col_fd) < FD_RTOL


def test_vision_invariant_under_common_rigid_transform():
    rng = np.random.default_rng(5)
    k, T_i, T_j, pixels, d_i, targets = _vision_setup(rng)
    targets = targets + rng.standard_normal(targets.shape) * 3.0
    weights = rng.uniform(0.5, 1.5, (len(pixels), 2))
    edge = VisionEdge(0, 1, pixels, targets, weights)

    base = stacked(vision_residual, [edge], [T_i], [T_j], [d_i], k).residual[0]

    G = _rand_pose(rng, 1.5, 4.0)
    # moving both cameras and the scene together leaves every reprojection
    # unchanged, so the regenerated correspondences coincide with the old ones
    moved = stacked(vision_residual, [edge], [G * T_i], [G * T_j], [d_i], k).residual[0]
    assert np.abs(moved - base).max() < 1e-9


ORACLE_RTOL = 1e-12


def _edge_stack(rng, n_edges=4, n=10):
    """Edges of one pixel count with noisy targets and some zero weights;
    the last edge's target camera sits 4 m ahead, behind part of its points."""
    k = _default_intrinsics()
    edges, T_i, T_j, d_i = [], [], [], []
    for e in range(n_edges):
        _, Ti, Tj, pixels, d, targets = _vision_setup(rng, n=n)
        if e == n_edges - 1:
            Tj = Ti.compose(Pose(Rotation.identity(), np.array([0.0, 0.0, 4.0])))
        weights = rng.uniform(0.2, 2.0, (n, 2))
        weights[e] = 0.0
        weights[e + 1, 1] = 0.0
        targets = targets + rng.standard_normal(targets.shape) * 2.0
        edges.append(VisionEdge(0, 1, pixels, targets, weights))
        T_i.append(Ti)
        T_j.append(Tj)
        d_i.append(d)
    return k, edges, T_i, T_j, d_i


def _assert_close(got, want):
    assert np.abs(got - want).max() <= ORACLE_RTOL * np.abs(want).max()


def test_batched_vision_residual_matches_per_edge_oracle():
    rng = np.random.default_rng(30)
    k, edges, T_i, T_j, d_i = _edge_stack(rng)
    out = stacked(vision_residual, edges, T_i, T_j, d_i, k)
    assert out.behind_camera[-1] > 0 and out.valid[-1].any()
    for e, edge in enumerate(edges):
        want = oracles.vision_residual(edge, T_i[e], T_j[e], d_i[e], k)
        for name in ("residual", "J_i", "J_j", "J_disparity"):
            _assert_close(getattr(out, name)[e], getattr(want, name))
        assert out.behind_camera[e] == want.behind_camera
        assert np.array_equal(out.valid[e], want.valid)


def test_batched_sim3_vision_residual_matches_per_edge_oracle():
    rng = np.random.default_rng(31)
    k, edges, T_i, T_j, d_i = _edge_stack(rng)
    S_i = [SimTransform(T.rotation, T.translation, float(np.exp(rng.uniform(-0.3, 0.3))))
           for T in T_i]
    S_j = [SimTransform(T.rotation, T.translation, float(np.exp(rng.uniform(-0.3, 0.3))))
           for T in T_j]
    out = stacked(sim3_vision_residual, edges, S_i, S_j, d_i, k)
    assert out.behind_camera[-1] > 0 and out.valid[-1].any()
    for e, edge in enumerate(edges):
        want = oracles.sim3_vision_residual(edge, S_i[e], S_j[e], d_i[e], k)
        for name in ("residual", "J_i", "J_j", "J_disparity"):
            _assert_close(getattr(out, name)[e], getattr(want, name))
        assert out.behind_camera[e] == want.behind_camera
        assert np.array_equal(out.valid[e], want.valid)


# The kernels build their Jacobians on first read, without the temporaries
# of the eager formulas; every array must still match those bit for bit.
@pytest.mark.parametrize("seed", [40, 41, 42])
@pytest.mark.parametrize("similarity", [False, True], ids=["rigid", "sim3"])
def test_vision_kernel_bit_identical_to_eager_formulas(similarity, seed):
    rng = np.random.default_rng(seed)
    k, edges, T_i, T_j, d_i = _edge_stack(rng, n_edges=5, n=24)
    if similarity:
        T_i, T_j = ([SimTransform(T.rotation, T.translation,
                                  float(np.exp(rng.uniform(-0.3, 0.3)))) for T in Ts]
                    for Ts in (T_i, T_j))
    kernel = sim3_vision_residual if similarity else vision_residual
    got = stacked(kernel, edges, T_i, T_j, d_i, k)
    want = oracles.eager_vision_residual(edges, T_i, T_j, d_i, k, similarity)
    assert want.behind_camera[-1] > 0 and np.any(want.residual == 0.0)
    for name in ("residual", "valid", "behind_camera", "J_i", "J_j", "J_disparity"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert float((got.residual ** 2).sum()) == float((want.residual ** 2).sum())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("kernel", [vision_residual, sim3_vision_residual],
                         ids=["rigid", "sim3"])
def test_vision_non_finite_disparity_rejected(kernel, bad):
    rng = np.random.default_rng(2)
    k, T_i, T_j, pixels, d_i, targets = _vision_setup(rng)
    edge = VisionEdge(0, 1, pixels, targets, np.ones((len(pixels), 2)))
    states = (T_i, T_j) if kernel is vision_residual \
        else (SimTransform.from_pose(T_i), SimTransform.from_pose(T_j))
    d = d_i.copy()
    d[3] = bad
    with pytest.raises(ValueError, match="finite"):
        stacked(kernel, [edge], [states[0]], [states[1]], [d], k)


def _inertial(delta, s_i, s_j, gravity):
    """The batched inertial kernel on a stack of one edge, unstacked."""
    out = stacked(inertial_residual, [delta], [s_i], [s_j], gravity)
    return oracles.InertialResidualResult(out.residual[0], out.J_i[0], out.J_j[0],
                                          out.J_gravity[0])


def _stream(omega_fn, accel_fn, t0, t1, rate, bias=None, rng=None, noise=0.0):
    n = int(round((t1 - t0) * rate)) + 1
    ts = t0 + np.arange(n) / rate
    gyro, accel = [], []
    for t in ts:
        w = np.asarray(omega_fn(t), dtype=float)
        a = np.asarray(accel_fn(t), dtype=float)
        if bias is not None:
            w = w + bias.gyro_bias
            a = a + bias.accel_bias
        if rng is not None and noise > 0.0:
            w = w + rng.standard_normal(3) * noise
            a = a + rng.standard_normal(3) * noise
        gyro.append(w)
        accel.append(a)
    return ImuSamples(ts, gyro, accel)


def _random_delta(rng, dt=0.3, bias=None):
    amps_w = rng.uniform(-0.4, 0.4, (2, 3))
    amps_a = rng.uniform(-0.8, 0.8, (2, 3))

    def omega_fn(t):
        return amps_w[0] * np.sin(2 * np.pi * t) + amps_w[1] * np.cos(4 * np.pi * t)

    def accel_fn(t):
        return amps_a[0] * np.cos(2 * np.pi * t) + amps_a[1] * np.sin(4 * np.pi * t) + 0.3

    b = bias if bias is not None else BiasState()
    samples = _stream(omega_fn, accel_fn, 0.0, dt, 200.0, bias=b)
    return preintegrate(samples, b, ImuNoiseModel()), samples


def _forward_simulate(samples, bias, state_i, gravity):
    """Propagate a state through the same midpoint scheme the delta uses."""
    R = state_i.pose.rotation.matrix()
    p = state_i.pose.translation.copy()
    v = state_i.velocity.copy()
    g = gravity.vector()
    for k in range(len(samples) - 1):
        dt = samples.t[k + 1] - samples.t[k]
        w = 0.5 * (samples.gyro[k] + samples.gyro[k + 1]) - bias.gyro_bias
        a = 0.5 * (samples.accel[k] + samples.accel[k + 1]) - bias.accel_bias
        R_mid = R @ so3_exp_matrix(w * dt / 2.0)
        a_w = R_mid @ a + g
        p = p + v * dt + 0.5 * dt * dt * a_w
        v = v + dt * a_w
        R = R @ so3_exp_matrix(w * dt)
    return PoseState(Pose(Rotation.from_matrix(R), p), v, bias,
                     state_i.timestamp + (samples.t[-1] - samples.t[0]))


def test_inertial_zero_on_forward_simulated_states():
    rng = np.random.default_rng(7)
    bias = BiasState(rng.standard_normal(3) * 0.02, rng.standard_normal(3) * 0.05)
    delta, samples = _random_delta(rng, dt=0.4, bias=bias)
    gravity = GravityModel(Rotation.exp(rng.standard_normal(3) * 0.1))
    s_i = PoseState(_rand_pose(rng), rng.standard_normal(3) * 0.5, bias, timestamp=0.0)
    s_j = _forward_simulate(samples, bias, s_i, gravity)

    out = _inertial(delta, s_i, s_j, gravity)
    assert np.abs(out.residual).max() < 1e-8


def test_inertial_equal_biases_zero_bias_block():
    rng = np.random.default_rng(8)
    delta, _ = _random_delta(rng)
    bias = BiasState(rng.standard_normal(3) * 0.01, rng.standard_normal(3) * 0.01)
    s_i = PoseState(_rand_pose(rng), rng.standard_normal(3), bias, timestamp=0.0)
    s_j = PoseState(_rand_pose(rng), rng.standard_normal(3), bias, timestamp=0.3)
    out = _inertial(delta, s_i, s_j, GravityModel())
    assert np.abs(out.residual[9:15]).max() == 0.0


def test_inertial_timestamp_mismatch_rejected():
    rng = np.random.default_rng(9)
    delta, _ = _random_delta(rng, dt=0.3)
    s_i = PoseState(Pose.identity(), timestamp=0.0)
    s_j = PoseState(Pose.identity(), timestamp=0.5)
    with pytest.raises(ValueError):
        _inertial(delta, s_i, s_j, GravityModel())


def test_inertial_position_block_reduction():
    # identity rotations, zero bias, (numerically) zero gravity: the position
    # rows collapse to p_j - p_i - v_i dt - delta_p
    rng = np.random.default_rng(10)
    dt = 0.5
    delta = PreintegratedDelta(
        dt_total=dt,
        delta_R=Rotation.identity(),
        delta_p=rng.standard_normal(3),
        delta_v=rng.standard_normal(3),
        J_rot=np.zeros((3, 3)),
        J_pos=np.zeros((3, 6)),
        J_vel=np.zeros((3, 6)),
        covariance=np.eye(15),
        bias_lin_point=BiasState(),
    )
    p_i, p_j = rng.standard_normal(3), rng.standard_normal(3)
    v_i = rng.standard_normal(3)
    s_i = PoseState(Pose(Rotation.identity(), p_i), v_i, BiasState(), timestamp=0.0)
    s_j = PoseState(Pose(Rotation.identity(), p_j), rng.standard_normal(3),
                    BiasState(), timestamp=dt)
    out = _inertial(delta, s_i, s_j, GravityModel(magnitude=1e-30))
    expected = p_j - p_i - v_i * dt - delta.delta_p
    np.testing.assert_allclose(out.residual[3:6], expected, atol=1e-12)


def test_inertial_jacobians_match_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(4):
        bias_hat = BiasState(rng.standard_normal(3) * 0.02, rng.standard_normal(3) * 0.04)
        delta, _ = _random_delta(rng, dt=0.3, bias=bias_hat)
        b_i = BiasState(bias_hat.gyro_bias + rng.standard_normal(3) * 0.01,
                        bias_hat.accel_bias + rng.standard_normal(3) * 0.02)
        b_j = BiasState(rng.standard_normal(3) * 0.02, rng.standard_normal(3) * 0.02)
        s_i = PoseState(_rand_pose(rng), rng.standard_normal(3), b_i, timestamp=0.0)
        s_j = PoseState(_rand_pose(rng), rng.standard_normal(3), b_j, timestamp=0.3)
        gravity = GravityModel(Rotation.exp(rng.standard_normal(3) * 0.2))

        out = _inertial(delta, s_i, s_j, gravity)

        J_i_fd = _fd_columns(
            lambda d: _inertial(delta, s_i.retract(d), s_j, gravity).residual,
            lambda d: d, 15)
        J_j_fd = _fd_columns(
            lambda d: _inertial(delta, s_i, s_j.retract(d), gravity).residual,
            lambda d: d, 15)
        J_g_fd = _fd_columns(
            lambda d: _inertial(delta, s_i, s_j, gravity.retract(d)).residual,
            lambda d: d, 3)

        assert _rel_err(out.J_i, J_i_fd) < FD_RTOL
        assert _rel_err(out.J_j, J_j_fd) < FD_RTOL
        assert _rel_err(out.J_gravity, J_g_fd) < FD_RTOL


def _batched_inertial_case(rng, case):
    """E deltas with state pairs for one batched-kernel call: bias offsets
    from each delta's linearization point, one edge integrated from zero
    gyro, and, for "wide", rotation residuals of 2.4 rad about axes near
    +x, -y, +z and -x (the trace <= 0 branches of the matrix-to-quaternion
    map, each pivot, and a quaternion that needs its sign flipped)."""
    deltas, states_i, states_j = [], [], []
    for e in range(6):
        bias_hat = BiasState(rng.standard_normal(3) * 0.02, rng.standard_normal(3) * 0.04)
        if e == 0:
            samples = _stream(lambda t: np.zeros(3), lambda t: np.array([0.2, -0.1, 9.8]),
                              0.0, 0.3, 200.0, bias=bias_hat)
            delta = preintegrate(samples, bias_hat, ImuNoiseModel())
        else:
            delta, _ = _random_delta(rng, dt=0.3, bias=bias_hat)
        b_i = BiasState(bias_hat.gyro_bias + rng.standard_normal(3) * 0.01,
                        bias_hat.accel_bias + rng.standard_normal(3) * 0.02)
        s_i = PoseState(_rand_pose(rng), rng.standard_normal(3), b_i, timestamp=1.0 + e)
        if case == "wide" and e < 4:
            # R_j = R_i C Exp(2.4 rad about the axis), C the bias-corrected delta
            dbg = b_i.gyro_bias - bias_hat.gyro_bias
            C = delta.delta_R * Rotation.exp(delta.J_rot @ dbg)
            axis = (1, -1, 1, -1)[e] * np.eye(3)[e % 3] + rng.normal(0, 0.2, 3)
            rot = s_i.pose.rotation * C * Rotation.exp(2.4 * axis / np.linalg.norm(axis))
        else:
            rot = _rand_rotation(rng, 0.4)
        s_j = PoseState(Pose(rot, rng.standard_normal(3)), rng.standard_normal(3),
                        BiasState(rng.standard_normal(3) * 0.02, rng.standard_normal(3) * 0.02),
                        timestamp=1.3 + e)
        deltas.append(delta)
        states_i.append(s_i)
        states_j.append(s_j)
    return deltas, states_i, states_j


@pytest.mark.parametrize("case", ["narrow", "wide"])
def test_batched_inertial_matches_per_edge_oracle(case):
    rng = np.random.default_rng(16 if case == "narrow" else 17)
    deltas, states_i, states_j = _batched_inertial_case(rng, case)
    gravity = GravityModel(Rotation.exp(rng.standard_normal(3) * 0.2))
    got = stacked(inertial_residual, deltas, states_i, states_j, gravity)
    assert got.residual.shape == (6, 15) and got.J_gravity.shape == (6, 15, 3)
    for e, (delta, s_i, s_j) in enumerate(zip(deltas, states_i, states_j)):
        want = oracles.inertial_residual(delta, s_i, s_j, gravity)
        if case == "wide" and e < 4:
            r_rot = np.linalg.solve(delta.whitening[:3, :3], want.residual[:3])
            assert np.linalg.norm(r_rot) > 2.0 * np.pi / 3.0
        for name in ("residual", "J_i", "J_j", "J_gravity"):
            a, b = getattr(got, name)[e], getattr(want, name)
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), (e, name)


@pytest.mark.parametrize("case", ["narrow", "wide"])
def test_inertial_kernel_bit_identical_to_eager_formulas(case):
    rng = np.random.default_rng(19 if case == "narrow" else 20)
    deltas, states_i, states_j = _batched_inertial_case(rng, case)
    gravity = GravityModel(Rotation.exp(rng.standard_normal(3) * 0.2))
    got = stacked(inertial_residual, deltas, states_i, states_j, gravity)
    want = oracles.eager_inertial_residual(deltas, states_i, states_j, gravity)
    for name in ("residual", "J_i", "J_j", "J_gravity"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_batched_inertial_names_the_mismatched_edge():
    rng = np.random.default_rng(18)
    deltas, states_i, states_j = _batched_inertial_case(rng, "narrow")
    s = states_j[4]
    states_j[4] = PoseState(s.pose, s.velocity, s.bias, timestamp=s.timestamp + 0.2)
    with pytest.raises(ValueError, match="delta spans 0.300000s but states are 0.500000s apart"):
        stacked(inertial_residual, deltas, states_i, states_j, GravityModel())


def _relative(edges, T_i, T_j):
    return stacked(relative_pose_residual, edges, T_i, T_j)


def _rand_info(rng):
    A = rng.standard_normal((6, 6)) * 0.3
    return A @ A.T + np.eye(6)


def test_relative_consistent_states_zero():
    rng = np.random.default_rng(12)
    T_i, T_j = _rand_pose(rng), _rand_pose(rng)
    edge = RelativePoseEdge(0, 1, T_i.inverse() * T_j, np.eye(6))
    out = _relative([edge], [T_i], [T_j])
    assert out.residual.shape == (1, 6)
    assert np.abs(out.residual).max() < 1e-12


@settings(deadline=None, max_examples=30)
@given(angle=st.floats(0.0, 3.0), seed=st.integers(0, 2**31 - 1))
def test_relative_rotation_defect_reads_off_its_log(angle, seed):
    # turning T_j by Exp(phi) on the right moves the rotation rows by
    # exactly phi and leaves the position rows at zero; |phi| stays below
    # pi, where the log returns phi itself and not its principal twin
    rng = np.random.default_rng(seed)
    T_i, T_j = _rand_pose(rng), _rand_pose(rng)
    edge = RelativePoseEdge(0, 1, T_i.inverse() * T_j, np.eye(6))
    axis = rng.standard_normal(3)
    phi = angle * axis / np.linalg.norm(axis)
    bad = Pose(T_j.rotation * Rotation.exp(phi), T_j.translation)
    out = _relative([edge], [T_i], [bad])
    assert np.abs(out.residual[0, :3] - phi).max() < 1e-10
    assert np.abs(out.residual[0, 3:]).max() < 1e-10


def test_relative_translation_defect_reads_in_frame_i():
    # moving p_j by delta in the world moves the position rows by
    # R_i^T delta and leaves the rotation rows at zero
    rng = np.random.default_rng(13)
    T_i, T_j = _rand_pose(rng), _rand_pose(rng)
    edge = RelativePoseEdge(0, 1, T_i.inverse() * T_j, np.eye(6))
    delta = np.array([0.3, -0.2, 0.1])
    out = _relative([edge], [T_i], [Pose(T_j.rotation, T_j.translation + delta)])
    assert np.abs(out.residual[0, :3]).max() < 1e-12
    assert np.abs(out.residual[0, 3:] - T_i.rotation.inverse().apply(delta)).max() < 1e-12


def test_relative_scale_defect_with_translation():
    # the rigid residual has no scale row: a relative pose whose
    # translation is exp(sigma) times the measured one leaves the rotation
    # rows at zero and reads (exp(sigma) - 1) dp in the position rows
    rng = np.random.default_rng(13)
    sigma = 0.3
    T_i, meas = _rand_pose(rng), _rand_pose(rng)
    edge = RelativePoseEdge(0, 1, meas, np.eye(6))
    T_j_bad = T_i * Pose(meas.rotation, np.exp(sigma) * meas.translation)
    out = _relative([edge], [T_i], [T_j_bad])
    assert np.abs(out.residual[0, :3]).max() < 1e-12
    assert np.abs(out.residual[0, 3:] - np.expm1(sigma) * meas.translation).max() < 1e-12


def test_relative_jacobians_match_finite_differences():
    rng = np.random.default_rng(14)
    for _ in range(4):
        T_i, T_j, meas = _rand_pose(rng), _rand_pose(rng), _rand_pose(rng)
        edge = RelativePoseEdge(0, 1, meas, _rand_info(rng))

        out = _relative([edge], [T_i], [T_j])
        J_i_fd = _fd_columns(
            lambda d: _relative([edge], [T_i.retract(d[:3], d[3:])], [T_j]).residual[0],
            lambda d: d, 6)
        J_j_fd = _fd_columns(
            lambda d: _relative([edge], [T_i], [T_j.retract(d[:3], d[3:])]).residual[0],
            lambda d: d, 6)
        assert _rel_err(out.J_i[0], J_i_fd) < FD_RTOL
        assert _rel_err(out.J_j[0], J_j_fd) < FD_RTOL


def test_stacked_relative_residual_matches_per_edge_oracle():
    rng = np.random.default_rng(16)
    T_i = [_rand_pose(rng) for _ in range(5)]
    T_j = [_rand_pose(rng) for _ in range(5)]
    edges = [RelativePoseEdge(e, e + 1, _rand_pose(rng), _rand_info(rng)) for e in range(5)]
    out = _relative(edges, T_i, T_j)
    for e, edge in enumerate(edges):
        want = oracles.relative_pose_residual(edge, T_i[e], T_j[e])
        for name in ("residual", "J_i", "J_j"):
            got = getattr(out, name)[e]
            ref = getattr(want, name)
            assert np.abs(got - ref).max() <= 1e-12 * max(np.abs(ref).max(), 1.0), name


def test_relative_jacobians_are_built_on_first_read():
    rng = np.random.default_rng(17)
    T_i, T_j = _rand_pose(rng), _rand_pose(rng)
    out = _relative([RelativePoseEdge(0, 1, _rand_pose(rng), np.eye(6))], [T_i], [T_j])
    assert "J_i" not in vars(out) and "_kept" in vars(out)
    J_i = out.J_i
    assert "_kept" not in vars(out) and out.J_j.shape == J_i.shape == (1, 6, 6)


@pytest.mark.parametrize("info", [np.diag([1.0] * 5 + [0.0]), np.diag([1.0] * 5 + [-1e-3]),
                                  np.full((6, 6), 1.0)],
                         ids=["singular", "indefinite", "rank_one"])
def test_relative_information_must_be_positive_definite(info):
    with pytest.raises(ValueError, match="positive definite"):
        RelativePoseEdge(0, 1, Pose.identity(), info)


def test_relative_information_must_be_symmetric():
    info = np.eye(6)
    info[0, 1] = 0.5
    with pytest.raises(ValueError, match="symmetric"):
        RelativePoseEdge(0, 1, Pose.identity(), info)


def test_whitened_norms_equal_mahalanobis_energy():
    rng = np.random.default_rng(15)

    # vision family: diag(w) weighting
    k, T_i, T_j, pixels, d_i, targets = _vision_setup(rng)
    targets = targets + rng.standard_normal(targets.shape)
    w = rng.uniform(0.1, 3.0, (len(pixels), 2))
    edge = VisionEdge(0, 1, pixels, targets, w)
    out = stacked(vision_residual, [edge], [T_i], [T_j], [d_i], k)
    raw = targets - oracles.project(k, _camera_j_points(k, T_i, T_j, pixels, d_i))
    manual = float((w * raw * raw).sum())
    assert abs(float((out.residual[0] ** 2).sum()) - manual) < 1e-10 * max(manual, 1.0)

    # inertial family: full preintegration covariance
    bias = BiasState(rng.standard_normal(3) * 0.01, rng.standard_normal(3) * 0.01)
    delta, _ = _random_delta(rng, dt=0.3, bias=bias)
    s_i = PoseState(_rand_pose(rng), rng.standard_normal(3), bias, timestamp=0.0)
    s_j = PoseState(_rand_pose(rng), rng.standard_normal(3),
                    BiasState(rng.standard_normal(3) * 0.01, rng.standard_normal(3) * 0.01),
                    timestamp=0.3)
    gravity = GravityModel()
    out_i = _inertial(delta, s_i, s_j, gravity)
    raw15 = _raw_inertial_residual(delta, s_i, s_j, gravity)
    manual = float(raw15 @ np.linalg.solve(delta.covariance, raw15))
    got = float((out_i.residual ** 2).sum())
    assert abs(got - manual) < 1e-10 * max(manual, 1.0)

    # relative family: 6x6 information
    T_a, T_b, meas = _rand_pose(rng), _rand_pose(rng), _rand_pose(rng)
    info = _rand_info(rng)
    edge_r = RelativePoseEdge(0, 1, meas, info)
    out_r = _relative([edge_r], [T_a], [T_b])
    offset = meas.inverse() * T_a.inverse() * T_b
    raw6 = np.concatenate([offset.rotation.log(),
                           T_a.rotation.inverse().apply(T_b.translation - T_a.translation)
                           - meas.translation])
    manual = float(raw6 @ info @ raw6)
    assert abs(float((out_r.residual ** 2).sum()) - manual) < 1e-10 * max(manual, 1.0)


def _camera_j_points(k, T_i, T_j, pixels, d_i):
    X_i = backproject(k, pixels, d_i)
    X_w = T_i.apply(X_i)
    return T_j.inverse().apply(X_w)


def _raw_inertial_residual(delta, s_i, s_j, gravity):
    dt = s_j.timestamp - s_i.timestamp
    R_i = s_i.pose.rotation.matrix()
    R_j = s_j.pose.rotation.matrix()
    g = gravity.vector()
    db = s_i.bias.vector() - delta.bias_lin_point.vector()
    C = delta.delta_R.matrix() @ so3_exp_matrix(delta.J_rot @ db[:3])
    r_rot = Rotation.from_matrix(C.T @ R_i.T @ R_j).log()
    r_pos = R_i.T @ (s_j.pose.translation - s_i.pose.translation
                     - s_i.velocity * dt - 0.5 * dt * dt * g) \
        - (delta.delta_p + delta.J_pos @ db)
    r_vel = R_i.T @ (s_j.velocity - s_i.velocity - dt * g) \
        - (delta.delta_v + delta.J_vel @ db)
    return np.concatenate([r_rot, r_pos, r_vel, s_j.bias.vector() - s_i.bias.vector()])
