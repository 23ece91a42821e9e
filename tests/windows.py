"""Shared construction of small ground-truth solve windows for tests.

The trajectory is defined by forward-integrating randomly drawn smooth IMU
signals with the same midpoint scheme the preintegrator uses, so the
keyframe states are an exact zero-residual optimum of the inertial terms.
Vision targets are exact reprojections of backprojected source pixels, so
the vision terms are zero at ground truth as well.
"""

import numpy as np

from vislam.geometry import Pose, Rotation, so3_exp_matrix
from vislam.imu import BiasState, ImuNoiseModel, ImuSamples, preintegrate
from vislam.residuals import (
    DeltaStack,
    EdgeStack,
    GravityModel,
    Intrinsics,
    PoseState,
    RelativePoseEdge,
    RelativeStack,
    StateStack,
    VisionEdge,
    backproject,
)
from vislam.solver import FrameGraph, Keyframe

from oracles import project


def stacked(kernel, items, states_i, states_j, *rest):
    """A residual kernel on lists, stacked as a problem stacks them: vision
    edges with one state per edge end, one disparity array per edge and the
    camera; relative-pose edges with one pose per end; or preintegrated
    deltas with one state per end and the gravity."""
    ends = StateStack.of(states_i), StateStack.of(states_j)
    if isinstance(items[0], VisionEdge):
        d_i, k = rest
        return kernel(EdgeStack.of(items), *ends, np.stack(d_i), k)
    if isinstance(items[0], RelativePoseEdge):
        return kernel(RelativeStack.of(items), *ends)
    return kernel(DeltaStack.of(items), *ends, *rest)


def default_intrinsics():
    return Intrinsics(fx=300.0, fy=300.0, cx=319.5, cy=239.5, width=640, height=480)


def smooth_body_motion(rng, pos_amp=0.4, rot_amp=0.25):
    """Bounded analytic pose trajectory with analytic derivatives.

    Returns callables p(t), v(t), a(t), R(t) (matrix), omega_body(t). The
    rotation is R0 * Exp(theta(t)) so the body rate is Jr(theta) theta_dot.
    """
    from vislam.geometry import so3_right_jacobian

    amp_p = rng.uniform(0.3, 1.0, 3) * pos_amp
    f_p = rng.uniform(0.15, 0.45, 3)
    ph_p = rng.uniform(0, 2 * np.pi, 3)
    amp_r = rng.uniform(0.3, 1.0, 3) * rot_amp
    f_r = rng.uniform(0.1, 0.4, 3)
    ph_r = rng.uniform(0, 2 * np.pi, 3)
    R0 = Rotation.exp(rng.standard_normal(3) * 0.2).matrix()
    p0 = rng.standard_normal(3) * 0.3

    def p_fn(t):
        return p0 + amp_p * np.sin(2 * np.pi * f_p * t + ph_p)

    def v_fn(t):
        return amp_p * 2 * np.pi * f_p * np.cos(2 * np.pi * f_p * t + ph_p)

    def a_fn(t):
        return -amp_p * (2 * np.pi * f_p) ** 2 * np.sin(2 * np.pi * f_p * t + ph_p)

    def theta_fn(t):
        return amp_r * np.sin(2 * np.pi * f_r * t + ph_r)

    def theta_dot_fn(t):
        return amp_r * 2 * np.pi * f_r * np.cos(2 * np.pi * f_r * t + ph_r)

    def R_fn(t):
        return R0 @ so3_exp_matrix(theta_fn(t))

    def omega_fn(t):
        return so3_right_jacobian(theta_fn(t)) @ theta_dot_fn(t)

    return p_fn, v_fn, a_fn, R_fn, omega_fn


def build_window(rng, n_kf=8, n_px=30, kf_dt=0.25, rate_hz=200.0,
                 vision_weight=1.0, edge_span=2, gravity=None, bias=None,
                 bias_hat=None, noise=None):
    """Ground-truth FrameGraph plus the true states, all residuals ~0.

    bias is the true sensor bias baked into the measurements; bias_hat is the
    estimator's belief used as the preintegration linearization point and as
    the keyframe bias states (defaults to the truth).
    """
    if gravity is None:
        gravity = GravityModel()
    if bias is None:
        bias = BiasState()
    if bias_hat is None:
        bias_hat = bias
    if noise is None:
        noise = ImuNoiseModel()
    k = default_intrinsics()
    p_fn, v_fn, a_fn, R_fn, omega_fn = smooth_body_motion(rng)

    steps = int(round(kf_dt * rate_hz))
    n_samples = (n_kf - 1) * steps + 1
    ts = np.arange(n_samples) / rate_hz

    # exact measurements of the analytic motion under this gravity model
    g = gravity.vector()
    samples = ImuSamples(ts, [omega_fn(t) + bias.gyro_bias for t in ts],
                         [R_fn(t).T @ (a_fn(t) - g) + bias.accel_bias for t in ts])

    # truth states come from re-integrating the sampled measurements, so the
    # preintegrated deltas are consistent with them to machine precision
    R = R_fn(0.0)
    p = p_fn(0.0)
    v = v_fn(0.0)
    states = [PoseState(Pose(Rotation.from_matrix(R), p), v, bias, 0.0)]
    for n in range(n_samples - 1):
        dt = ts[n + 1] - ts[n]
        w = 0.5 * (samples.gyro[n] + samples.gyro[n + 1]) - bias.gyro_bias
        a = 0.5 * (samples.accel[n] + samples.accel[n + 1]) - bias.accel_bias
        R_mid = R @ so3_exp_matrix(w * dt / 2.0)
        a_w = R_mid @ a + g
        p = p + v * dt + 0.5 * dt * dt * a_w
        v = v + dt * a_w
        R = R @ so3_exp_matrix(w * dt)
        if (n + 1) % steps == 0:
            states.append(PoseState(Pose(Rotation.from_matrix(R), p),
                                    v, bias, ts[n + 1]))

    keyframes = []
    grids = []          # each keyframe's pixels, which its edges carry
    world_points = []
    for kid, s in enumerate(states):
        # oversample, then keep pixels whose world point stays comfortably in
        # front of every covisible camera so no edge sees degenerate geometry
        cand_px = np.stack([rng.uniform(60, 580, n_px * 4),
                            rng.uniform(60, 420, n_px * 4)], axis=1)
        cand_depth = rng.uniform(3.0, 7.0, n_px * 4)
        X_w = s.pose.apply(backproject(k, cand_px, 1.0 / cand_depth))
        ok = np.ones(len(cand_px), dtype=bool)
        for other in range(max(0, kid - edge_span), min(n_kf, kid + edge_span + 1)):
            z = states[other].pose.inverse().apply(X_w)[:, 2]
            ok &= z > 1.2
        pixels = cand_px[ok][:n_px]
        d = 1.0 / cand_depth[ok][:n_px]
        if len(pixels) < n_px:
            raise RuntimeError("trajectory too aggressive for the scene depth range")
        est_state = PoseState(s.pose, s.velocity, bias_hat, s.timestamp)
        keyframes.append(Keyframe(kid, est_state, d))
        grids.append(pixels)
        world_points.append(s.pose.apply(backproject(k, pixels, d)))

    vision_edges = []
    for i in range(n_kf):
        for j in range(max(0, i - edge_span), min(n_kf, i + edge_span + 1)):
            if j == i:
                continue
            X_j = states[j].pose.inverse().apply(world_points[i])
            targets = project(k, X_j)
            w = np.full((n_px, 2), vision_weight)
            vision_edges.append(VisionEdge(i, j, grids[i], targets, w))

    inertial_edges = []
    for i in range(n_kf - 1):
        chunk = samples.between(states[i].timestamp, states[i + 1].timestamp)
        inertial_edges.append((i, i + 1, preintegrate(chunk, bias_hat, noise)))

    graph = FrameGraph(keyframes, vision_edges, inertial_edges, gravity, k)
    return graph, states


def perturb_graph(graph, rng, rot_deg=2.0, trans_m=0.05, vel=0.02,
                  skip_frozen=(0,)):
    """In-place perturbation of keyframe states, leaving listed ids alone."""
    for kf in graph.keyframes:
        if kf.kid in skip_frozen:
            continue
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        dtheta = axis * np.deg2rad(rot_deg)
        dp = rng.standard_normal(3)
        dp *= trans_m / np.linalg.norm(dp)
        kf.state = PoseState(kf.state.pose.retract(dtheta, dp),
                             kf.state.velocity + rng.standard_normal(3) * vel,
                             kf.state.bias, kf.state.timestamp)


def ate_rmse(states, truth):
    err = [np.linalg.norm(s.pose.translation - t.pose.translation)
           for s, t in zip(states, truth)]
    return float(np.sqrt(np.mean(np.square(err))))
