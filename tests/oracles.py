"""Independent oracles used by the test suite.

These re-derive expected values through a different code path than the library
(vectorized quaternion scan instead of the sequential matrix loop) so that
agreement is a genuine dual-route check.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from scipy.linalg import cholesky, solve_triangular

from vislam import solver
from vislam.geometry import (
    Pose,
    Rotation,
    SimTransform,
    hat,
    so3_exp_matrix,
    so3_log_matrix,
    so3_right_jacobian,
    so3_right_jacobian_inv,
)
from vislam.gsmap import _RECORD, DEPTH_SENTINEL, Gaussian, Gaussians, RenderOutput
from vislam.imu import BiasState, ImuNoiseModel, ImuSamples, PreintegratedDelta
from vislam.loopclosure import _PoseGraphProblem
from vislam.residuals import (
    GRAVITY_TANGENT_BASIS,
    GravityModel,
    Intrinsics,
    PoseState,
    VisionEdge,
    backproject,
)


@dataclass
class VisionResidualResult:
    """A vision oracle's output, every array computed on the call: k = 6
    pose tangents (rotation, translation), or 7 with log-scale last."""

    residual: np.ndarray       # (..., n, 2) weighted
    J_i: np.ndarray            # (..., n, 2, k) weighted
    J_j: np.ndarray            # (..., n, 2, k)
    J_disparity: np.ndarray    # (..., n, 2) column block per pixel
    behind_camera: np.ndarray  # (...) pixels flagged and zero-weighted
    valid: np.ndarray          # (..., n) bool


@dataclass
class InertialResidualResult:
    """An inertial oracle's output, every array computed on the call."""

    residual: np.ndarray   # (..., 15) whitened: rot, pos, vel, bias walk
    J_i: np.ndarray        # (..., 15, 15) w.r.t. state i tangent
    J_j: np.ndarray        # (..., 15, 15)
    J_gravity: np.ndarray  # (..., 15, 3) w.r.t. right perturbation of R_wg


def _quat_from_rotvec(w: np.ndarray) -> np.ndarray:
    """Batch rotation-vector to quaternion (w, x, y, z)."""
    w = np.atleast_2d(w)
    theta = np.linalg.norm(w, axis=1)
    q = np.empty((w.shape[0], 4))
    small = theta < 1e-12
    half = 0.5 * theta
    q[:, 0] = np.cos(half)
    with np.errstate(invalid="ignore", divide="ignore"):
        s = np.where(small, 0.5, np.sin(half) / np.where(theta == 0, 1.0, theta))
    q[:, 1:] = w * s[:, None]
    return q


def _quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ], axis=-1)


def _quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate batched vectors by batched quaternions."""
    u = q[..., 1:]
    w = q[..., 0:1]
    t = 2.0 * np.cross(u, v)
    return v + w * t + np.cross(u, t)


def _quat_scan(steps: np.ndarray) -> np.ndarray:
    """Inclusive prefix products q_0, q_0 q_1, ... via a Hillis-Steele scan."""
    out = steps.copy()
    n = out.shape[0]
    shift = 1
    while shift < n:
        prev = out[:-shift]
        out[shift:] = _quat_mul(prev, out[shift:])
        shift *= 2
    norms = np.linalg.norm(out, axis=1, keepdims=True)
    return out / norms


def integrate_imu_fine(omega_fn, accel_fn, t0: float, t1: float, rate_hz: float):
    """Fine-step integration of analytic body-frame signals.

    Holds the endpoint average over each fine interval with the midpoint
    rotation for the velocity/position quadrature; at 20 kHz the residual
    discretization error is far below the coarse tolerances being checked.
    Returns (delta_R 3x3, delta_p, delta_v).
    """
    n = int(round((t1 - t0) * rate_hz))
    ts = t0 + (t1 - t0) * np.arange(n + 1) / n
    dt = np.diff(ts)
    w_all = omega_fn(ts)
    a_all = accel_fn(ts)
    w_bar = 0.5 * (w_all[:-1] + w_all[1:])
    a_bar = 0.5 * (a_all[:-1] + a_all[1:])

    step_q = _quat_from_rotvec(w_bar * dt[:, None])
    prefix = _quat_scan(step_q)
    # rotation from the segment start to the START of interval k
    q_start = np.vstack([np.array([[1.0, 0.0, 0.0, 0.0]]), prefix[:-1]])
    q_mid = _quat_mul(q_start, _quat_from_rotvec(w_bar * (0.5 * dt[:, None])))

    a_seg = _quat_rotate(q_mid, a_bar)
    dv_steps = a_seg * dt[:, None]
    dv_prefix = np.cumsum(dv_steps, axis=0)
    dv_before = np.vstack([np.zeros(3), dv_prefix[:-1]])
    dp_steps = dv_before * dt[:, None] + 0.5 * a_seg * dt[:, None] ** 2
    delta_p = dp_steps.sum(axis=0)
    delta_v = dv_prefix[-1]

    qw, qx, qy, qz = prefix[-1]
    R = np.array([
        [1 - 2 * (qy * qy + qz * qz), 2 * (qx * qy - qw * qz), 2 * (qx * qz + qw * qy)],
        [2 * (qx * qy + qw * qz), 1 - 2 * (qx * qx + qz * qz), 2 * (qy * qz - qw * qx)],
        [2 * (qx * qz - qw * qy), 2 * (qy * qz + qw * qx), 1 - 2 * (qx * qx + qy * qy)],
    ])
    return R, delta_p, delta_v


def random_periodic_signal(rng, n_harmonics=2, base_hz=1.0, amps=(0.3, 0.15), offset=0.0):
    """Random band-limited signal periodic over 1/base_hz seconds.

    Returns a closure mapping scalar or (n,) times to (..., 3) values.
    Periodicity makes the composite quadrature error of interval schemes
    telescope away at the boundaries.
    """
    amp = np.array([rng.uniform(0.2, 1.0, size=3) * amps[h] for h in range(n_harmonics)])
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(n_harmonics, 3))
    const = rng.uniform(-1.0, 1.0, size=3) * offset

    def signal(t):
        t = np.asarray(t, dtype=float)
        arg = 2.0 * np.pi * base_hz * (np.arange(n_harmonics) + 1.0)
        out = np.broadcast_to(const, t.shape + (3,)).copy()
        for h in range(n_harmonics):
            out = out + amp[h] * np.sin(arg[h] * t[..., None] + phase[h])
        return out

    return signal


def umeyama_alignment_ref(src: np.ndarray, dst: np.ndarray, with_scale: bool):
    """Reference Horn/Umeyama closed form, kept separate from the library."""
    mu_s = src.mean(axis=0)
    mu_d = dst.mean(axis=0)
    xs = src - mu_s
    xd = dst - mu_d
    C = xd.T @ xs / src.shape[0]
    U, D, Vt = np.linalg.svd(C)
    S = np.eye(3)
    if np.linalg.det(U) * np.linalg.det(Vt) < 0:
        S[2, 2] = -1.0
    R = U @ S @ Vt
    if with_scale:
        var_s = (xs ** 2).sum() / src.shape[0]
        s = np.trace(np.diag(D) @ S) / var_s
    else:
        s = 1.0
    t = mu_d - s * R @ mu_s
    return s, R, t


def raycast(scene, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """SceneModel.raycast by trying all six walls, each hit checked against
    the other faces."""
    origin = np.asarray(origin, dtype=float).reshape(3)
    dirs = np.asarray(dirs, dtype=float).reshape(-1, 3)
    L = scene.half_extent
    s_best = np.full(len(dirs), np.inf)
    for axis in range(3):
        d = dirs[:, axis]
        for sign in (-1.0, 1.0):
            with np.errstate(divide="ignore", invalid="ignore"):
                s = (sign * L - origin[axis]) / d
            ok = np.isfinite(s) & (s > 1e-9)
            if not np.any(ok):
                continue
            s_safe = np.where(ok, s, 0.0)
            hit = origin[None, :] + s_safe[:, None] * dirs
            other = [a for a in range(3) if a != axis]
            ok &= np.all(np.abs(hit[:, other]) <= L + 1e-9, axis=1)
            s_best = np.where(ok & (s_safe < s_best), s_safe, s_best)
    return s_best


def project(k: Intrinsics, points: np.ndarray) -> np.ndarray:
    """Pinhole pixels of (N, 3) camera-frame points."""
    points = np.atleast_2d(points)
    z = points[:, 2]
    return np.stack([k.fx * points[:, 0] / z + k.cx,
                     k.fy * points[:, 1] / z + k.cy], axis=1)


# Per-edge reprojection and pixel scatter: the library evaluates and
# scatters a stack of edges at once, these do one edge with einsums.

def _hat_rows(v: np.ndarray) -> np.ndarray:
    H = np.zeros((v.shape[0], 3, 3))
    H[:, 0, 1] = -v[:, 2]
    H[:, 0, 2] = v[:, 1]
    H[:, 1, 0] = v[:, 2]
    H[:, 1, 2] = -v[:, 0]
    H[:, 2, 0] = -v[:, 1]
    H[:, 2, 1] = v[:, 0]
    return H


class _Reprojection:
    """One vision edge through backprojection in camera i, the similarity
    action s*R@x + t of both keyframes, and the pinhole projection in
    camera j. The camera frame is the body frame.

    Holds what the rigid and the similarity residual share: the weighted
    residual, the disparity column, and the point derivatives with respect
    to either keyframe's rotation. The translation (and scale) columns
    depend on each state's retraction, so the callers supply those.
    """

    def __init__(self, edge: VisionEdge, d_i: np.ndarray, k: Intrinsics,
                 R_i, p_i, s_i, R_j, p_j, s_j):
        d_i = np.asarray(d_i, dtype=float).reshape(-1)
        if len(d_i) != len(edge.pixels):
            raise ValueError("disparity length must match edge pixel list")
        if np.any(d_i <= 0.0):
            raise ValueError("disparities must be strictly positive")

        X_i = backproject(k, edge.pixels, d_i)        # camera i frame
        X_w = s_i * (X_i @ R_i.T) + p_i               # world
        X_c = ((X_w - p_j) @ R_j) / s_j               # camera j frame

        z = X_c[:, 2]
        self.valid = z > 1e-6
        self.behind_camera = int(np.count_nonzero(~self.valid))
        z_safe = np.where(self.valid, z, 1.0)

        pred = np.stack([k.fx * X_c[:, 0] / z_safe + k.cx,
                         k.fy * X_c[:, 1] / z_safe + k.cy], axis=1)
        self.sw = np.sqrt(np.where(self.valid[:, None], edge.weights, 0.0))
        self.residual = self.sw * (edge.targets - pred)

        # projection Jacobian rows, (N, 2, 3)
        self.P = np.zeros((len(d_i), 2, 3))
        self.P[:, 0, 0] = k.fx / z_safe
        self.P[:, 0, 2] = -k.fx * X_c[:, 0] / z_safe ** 2
        self.P[:, 1, 1] = k.fy / z_safe
        self.P[:, 1, 2] = -k.fy * X_c[:, 1] / z_safe ** 2

        self.B = R_j.T / s_j                          # dX_c/dX_w
        self.BRi = self.B @ R_i
        self.X_i, self.X_c = X_i, X_c
        self.dX_dthi = np.einsum("ab,nbc->nac", -s_i * self.BRi, _hat_rows(X_i))
        self.dX_dthj = _hat_rows(X_c)
        dX_dd = -np.einsum("ab,nb->na", s_i * self.BRi, X_i) / d_i[:, None]
        self.J_disparity = self.sw * -np.einsum("nab,nb->na", self.P, dX_dd)

    def jacobian(self, *blocks) -> np.ndarray:
        """Weighted residual columns for (N, 3, 3) or (N, 3) point derivatives."""
        cols = [-np.einsum("nab,nbc->nac", self.P, b) if b.ndim == 3
                else -np.einsum("nab,nb->na", self.P, b)[:, :, None]
                for b in blocks]
        return self.sw[:, :, None] * np.concatenate(cols, axis=2)


def vision_residual(edge: VisionEdge, T_i: Pose, T_j: Pose, d_i: np.ndarray,
                    k: Intrinsics) -> VisionResidualResult:
    """Weighted reprojection residual u* - proj(T_ij backproj(u_i, d_i)).

    Rows are scaled by sqrt(w) per pixel component. Points landing behind the
    target camera are zero-weighted and counted, not raised. Translation
    tangents are world-frame, as in Pose.retract.
    """
    c = _Reprojection(edge, d_i, k, T_i.rotation.matrix(), T_i.translation,
                      1.0, T_j.rotation.matrix(), T_j.translation, 1.0)
    n = len(c.residual)
    return VisionResidualResult(
        residual=c.residual,
        J_i=c.jacobian(c.dX_dthi, np.broadcast_to(c.B, (n, 3, 3))),
        J_j=c.jacobian(c.dX_dthj, np.broadcast_to(-c.B, (n, 3, 3))),
        J_disparity=c.J_disparity,
        behind_camera=c.behind_camera,
        valid=c.valid,
    )


def sim3_vision_residual(edge: VisionEdge, S_i: SimTransform, S_j: SimTransform,
                         d_i: np.ndarray, k: Intrinsics) -> VisionResidualResult:
    """Reprojection residual of a vision edge under similarity keyframe states.

    Same measurement model as the rigid vision residual with the action
    s*R@x + t in place of the rigid one, so relative scale between the two
    keyframes enters the prediction. Jacobians are over right perturbations
    ordered (rotation, translation, log-scale), so translation tangents are
    body-frame, S * (Exp(omega), v, exp(sigma)). Rows are scaled by sqrt(w);
    points behind the target camera are zero-weighted and counted.
    """
    s_i = S_i.scale
    c = _Reprojection(edge, d_i, k, S_i.rotation.matrix(), S_i.translation,
                      s_i, S_j.rotation.matrix(), S_j.translation, S_j.scale)
    n = len(c.residual)
    return VisionResidualResult(
        residual=c.residual,
        J_i=c.jacobian(c.dX_dthi, np.broadcast_to(s_i * c.BRi, (n, 3, 3)),
                       s_i * (c.X_i @ c.BRi.T)),
        J_j=c.jacobian(c.dX_dthj, np.broadcast_to(-np.eye(3), (n, 3, 3)), -c.X_c),
        J_disparity=c.J_disparity,
        behind_camera=c.behind_camera,
        valid=c.valid,
    )


# The batched kernels as they were when every call built its Jacobians: the
# library's lazy kernels must reproduce them bit for bit, residuals and
# Jacobians alike. Inputs are lists, stacked here as the kernels once did.

class _EagerReprojection:
    """E vision edges of n pixels each through backprojection in camera i, the
    similarity action s*R@x + t of both bodies, and projection in camera j.

    Inputs are stacked per edge: (E, n, 2) pixels, targets and weights,
    (E, n) disparities, (E, 3, 3) rotations, (E, 3) translations and (E,)
    scales. Per-pixel arrays keep the pixel axis last ((E, 3, n) points,
    (E, 2, k, n) Jacobian rows), so each product runs along the pixels; the
    results are (E, n, 2, ...) views. Rotation and disparity columns are
    shared; translation (and scale) columns follow Pose.retract (world
    frame) or, with similarity, S * (Exp(omega), v, exp(sigma)) (body
    frame).
    """

    def __init__(self, pixels, targets, weights, d_i, k: Intrinsics,
                 R_i, p_i, s_i, R_j, p_j, s_j, similarity: bool):
        if not np.all(np.isfinite(d_i) & (d_i > 0.0)):
            raise ValueError("disparities must be finite and strictly positive")

        s_i3, s_j3 = s_i[:, None, None], s_j[:, None, None]
        X_i = np.moveaxis(backproject(k, pixels, d_i), -1, 1)           # camera i
        X_w = s_i3 * (R_i @ X_i) + p_i[:, :, None]                      # world
        R_j_T = R_j.transpose(0, 2, 1)
        X_c = (R_j_T @ (X_w - p_j[:, :, None])) / s_j3                  # camera j

        x, y, z = X_c[:, 0], X_c[:, 1], X_c[:, 2]
        valid = z > 1e-6
        z_safe = np.where(valid, z, 1.0)
        sw = np.sqrt(np.where(valid[:, None], np.moveaxis(weights, -1, 1), 0.0))
        pred = np.stack([k.fx * x / z_safe + k.cx, k.fy * y / z_safe + k.cy], axis=1)
        residual = sw * (np.moveaxis(targets, -1, 1) - pred)

        # projection rows over X_c: u is (fx/z, 0, -fx x/z^2), v (0, fy/z, -fy y/z^2)
        self._P = [a[:, None] for a in (k.fx / z_safe, -k.fx * x / z_safe ** 2,
                                        k.fy / z_safe, -k.fy * y / z_safe ** 2)]
        self._sw = -sw[:, :, None]
        del pixels, targets, weights, X_w, x, y, z

        # each row g times hat(y) is g x y; rows over the camera-j point first
        J_i = np.empty((len(d_i), 2, 7 if similarity else 6, d_i.shape[1]))
        J_j = np.empty_like(J_i)
        B = R_j_T / s_j3                                                # dX_c/dX_w
        G = self._rows(np.broadcast_to(np.eye(3), B.shape)[..., None])
        J_j[:, :, :3] = np.cross(G, X_c[:, None], axis=2)
        if similarity:
            J_j[:, :, 3:6] = -G
            J_j[:, :, 6] = -(G * X_c[:, None]).sum(axis=2)
        else:
            J_i[:, :, 3:6] = self._rows(B[..., None])
            J_j[:, :, 3:6] = -J_i[:, :, 3:6]

        s_i4 = s_i3[..., None]
        BR_i = B @ R_i
        G = self._rows(BR_i[..., None])
        np.multiply(-s_i4, np.cross(G, X_i[:, None], axis=2), out=J_i[:, :, :3])
        # dX_c/dd summed as (x + z) + y, numpy.einsum's order: far points cancel
        # here, and a vision-only window's scale gauge amplifies any rounding
        M = (s_i3 * BR_i)[..., None]
        dX = -((M[:, :, 0] * X_i[:, None, 0] + M[:, :, 2] * X_i[:, None, 2])
               + M[:, :, 1] * X_i[:, None, 1]) / d_i[:, None]
        J_d = self._rows(dX[:, :, None])[:, :, 0]
        if similarity:
            J_i[:, :, 3:6] = s_i4 * G
            J_i[:, :, 6] = s_i3 * (G * X_i[:, None]).sum(axis=2)

        self.residual = np.moveaxis(residual, 1, -1)                    # (E, n, 2)
        self.J_i = np.moveaxis(J_i, -1, 1)                              # (E, n, 2, k)
        self.J_j = np.moveaxis(J_j, -1, 1)
        self.J_disparity = np.moveaxis(J_d, 1, -1)
        self.valid = valid
        self.behind_camera = np.count_nonzero(~valid, axis=1)

    def _rows(self, V: np.ndarray) -> np.ndarray:
        """Weighted residual rows -sqrt(w) P V of derivatives V (E, 3, k, 1 or
        n) of X_c, as (E, 2, k, n)."""
        p00, p02, p11, p12 = self._P
        rows = np.stack([p00 * V[:, 0] + p02 * V[:, 2], p11 * V[:, 1] + p12 * V[:, 2]],
                        axis=1)
        rows *= self._sw
        return rows


def eager_vision_residual(edges, states_i, states_j, d_i, k: Intrinsics,
                          similarity: bool) -> VisionResidualResult:
    """E vision edges of one pixel count, each with its two states (Poses, or
    SimTransforms with similarity) and its source disparities, through
    _EagerReprojection."""
    def pose_arrays(states):
        return (np.stack([s.rotation.matrix() for s in states]),
                np.stack([s.translation for s in states]),
                np.array([s.scale if similarity else 1.0 for s in states]))

    c = _EagerReprojection(np.stack([e.pixels for e in edges]),
                           np.stack([e.targets for e in edges]),
                           np.stack([e.weights for e in edges]),
                           np.stack([np.asarray(x, dtype=float).reshape(-1) for x in d_i]),
                           k, *pose_arrays(states_i), *pose_arrays(states_j), similarity)
    return VisionResidualResult(c.residual, c.J_i, c.J_j, c.J_disparity,
                                c.behind_camera, c.valid)


def _matvec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (M @ v[..., None])[..., 0]


def eager_inertial_residual(deltas, states_i, states_j,
                            gravity: GravityModel) -> InertialResidualResult:
    """Whitened preintegration residuals with first-order bias correction,
    and their Jacobians, for E deltas with their two PoseStates each."""
    if not len(deltas) == len(states_i) == len(states_j):
        raise ValueError("one state pair per delta")
    dt = np.array([s_j.timestamp - s_i.timestamp for s_i, s_j in zip(states_i, states_j)])
    span = np.array([d.dt_total for d in deltas])
    for e in np.flatnonzero(np.abs(dt - span) > 1e-6)[:1]:
        raise ValueError(
            f"delta spans {span[e]:.6f}s but states are {dt[e]:.6f}s apart")

    def stack(items, get):
        return np.stack([get(x) for x in items])

    R_i = stack(states_i, lambda s: s.pose.rotation.matrix())
    R_j = stack(states_j, lambda s: s.pose.rotation.matrix())
    R_i_T = R_i.transpose(0, 2, 1)
    p_i = stack(states_i, lambda s: s.pose.translation)
    p_j = stack(states_j, lambda s: s.pose.translation)
    v_i = stack(states_i, lambda s: s.velocity)
    v_j = stack(states_j, lambda s: s.velocity)
    b_i = stack(states_i, lambda s: s.bias.vector())
    b_j = stack(states_j, lambda s: s.bias.vector())
    J_rot = stack(deltas, lambda d: d.J_rot)
    J_pos = stack(deltas, lambda d: d.J_pos)
    J_vel = stack(deltas, lambda d: d.J_vel)
    g = gravity.vector()
    db = b_i - stack(deltas, lambda d: d.bias_lin_point.vector())
    dt3, dt = dt[:, None, None], dt[:, None]

    corr_rot_tangent = _matvec(J_rot, db[:, :3])
    C = stack(deltas, lambda d: d.delta_R.matrix()) @ so3_exp_matrix(corr_rot_tangent)
    r_rot = so3_log_matrix(C.transpose(0, 2, 1) @ R_i_T @ R_j)
    s_pos = p_j - p_i - v_i * dt - 0.5 * dt * dt * g
    r_pos = _matvec(R_i_T, s_pos) - (stack(deltas, lambda d: d.delta_p) + _matvec(J_pos, db))
    s_vel = v_j - v_i - dt * g
    r_vel = _matvec(R_i_T, s_vel) - (stack(deltas, lambda d: d.delta_v) + _matvec(J_vel, db))
    r_bias = b_j - b_i

    Jr_inv = so3_right_jacobian_inv(r_rot)
    Jl_inv = so3_right_jacobian_inv(-r_rot)

    E = len(deltas)
    J_i = np.zeros((E, 15, 15))
    J_j = np.zeros((E, 15, 15))
    J_g = np.zeros((E, 15, 3))
    G = gravity.R_wg.matrix() @ hat(gravity.g_inertial())

    # rotation rows
    J_i[:, 0:3, 0:3] = -Jr_inv @ (R_j.transpose(0, 2, 1) @ R_i)
    J_j[:, 0:3, 0:3] = Jr_inv
    J_i[:, 0:3, 9:12] = -Jl_inv @ so3_right_jacobian(corr_rot_tangent) @ J_rot

    # position rows
    J_i[:, 3:6, 0:3] = hat(_matvec(R_i_T, s_pos))
    J_i[:, 3:6, 3:6] = -R_i_T
    J_j[:, 3:6, 3:6] = R_i_T
    J_i[:, 3:6, 6:9] = -dt3 * R_i_T
    J_i[:, 3:6, 9:15] = -J_pos
    J_g[:, 3:6, :] = 0.5 * dt3 * dt3 * R_i_T @ G

    # velocity rows
    J_i[:, 6:9, 0:3] = hat(_matvec(R_i_T, s_vel))
    J_i[:, 6:9, 6:9] = -R_i_T
    J_j[:, 6:9, 6:9] = R_i_T
    J_i[:, 6:9, 9:15] = -J_vel
    J_g[:, 6:9, :] = dt3 * R_i_T @ G

    # bias walk rows
    J_i[:, 9:15, 9:15] = -np.eye(6)
    J_j[:, 9:15, 9:15] = np.eye(6)

    W = stack(deltas, lambda d: d.whitening)
    r = np.concatenate([r_rot, r_pos, r_vel, r_bias], axis=1)
    return InertialResidualResult(residual=_matvec(W, r), J_i=W @ J_i, J_j=W @ J_j,
                                  J_gravity=W @ J_g)


@dataclass
class RelativeResidualResult:
    """A relative-pose oracle's output for one edge."""

    residual: np.ndarray   # (6,) whitened: rotation, position
    J_i: np.ndarray        # (6, 6) w.r.t. T_i's (rotation, translation) tangent
    J_j: np.ndarray        # (6, 6)


def relative_pose_residual(edge, T_i: Pose, T_j: Pose) -> RelativeResidualResult:
    """One RelativePoseEdge's whitened residual and Jacobians from Rotation
    values, one edge at a time: (Log(dR^-1 R_i^-1 R_j), R_i^-1 (p_j - p_i)
    - dp), with the right rotation and world-frame translation tangents of
    Pose.retract."""
    meas = edge.measurement
    R_i_inv = T_i.rotation.inverse()
    r_rot = (meas.rotation.inverse() * R_i_inv * T_j.rotation).log()
    pos = R_i_inv.apply(T_j.translation - T_i.translation)
    Jr_inv = so3_right_jacobian_inv(r_rot)
    Ri = T_i.rotation.matrix()
    J_i, J_j = np.zeros((6, 6)), np.zeros((6, 6))
    J_i[:3, :3] = -Jr_inv @ (T_j.rotation.inverse() * T_i.rotation).matrix()
    J_j[:3, :3] = Jr_inv
    J_i[3:, :3] = hat(pos)
    J_i[3:, 3:] = -Ri.T
    J_j[3:, 3:] = Ri.T
    W = edge.whitening
    r = np.concatenate([r_rot, pos - meas.translation])
    return RelativeResidualResult(residual=W @ r, J_i=W @ J_i, J_j=W @ J_j)


def add_pixels(system, H_pd, ci, cj, cd, Ji, Jj, Jd, r) -> None:
    """Vision rows (N, 2) of one edge with pose blocks (N, 2, k) and one
    disparity each, scattered into a vislam.solver.NormalEquations and, for
    the pose-disparity coupling, into the dense (pose vars, disparities)
    matrix H_pd."""
    H = system.H_pp
    H[np.ix_(ci, ci)] += np.einsum("nka,nkb->ab", Ji, Ji)
    H[np.ix_(cj, cj)] += np.einsum("nka,nkb->ab", Jj, Jj)
    Hij = np.einsum("nka,nkb->ab", Ji, Jj)
    H[np.ix_(ci, cj)] += Hij
    H[np.ix_(cj, ci)] += Hij.T

    # per-pixel disparity coupling
    H_pd[np.ix_(ci, cd)] += np.einsum("nka,nk->na", Ji, Jd).T
    H_pd[np.ix_(cj, cd)] += np.einsum("nka,nk->na", Jj, Jd).T
    system.H_dd[cd] += np.einsum("nk,nk->n", Jd, Jd)

    system.g_p[ci] += np.einsum("nka,nk->a", Ji, r)
    system.g_p[cj] += np.einsum("nka,nk->a", Jj, r)
    system.g_d[cd] += np.einsum("nk,nk->n", Jd, r)


def add_rows(system, blocks, r) -> None:
    """Dense residual rows r (m,) of one edge with Jacobian column blocks
    [(cols, J (m, k)), ...], scattered block by block into a
    vislam.solver.NormalEquations."""
    H, g = system.H_pp, system.g_p
    for c, J in blocks:
        H[np.ix_(c, c)] += J.T @ J
    for a, (ca, Ja) in enumerate(blocks):
        for cb, Jb in blocks[a + 1:]:
            Hab = Ja.T @ Jb
            H[np.ix_(ca, cb)] += Hab
            H[np.ix_(cb, ca)] += Hab.T
    for c, J in blocks:
        g[c] += J.T @ r


def dense_coupling(system) -> np.ndarray:
    """The (pose vars, disparities) matrix that a NormalEquations' per-source
    coupling blocks stand for."""
    lay = system.layout
    H_pd = np.zeros((lay.n_pose_vars, lay.n_disp))
    for c, d, M in system.coupling:
        np.add.at(H_pd, (c[:, None], np.arange(d.start, d.stop)[None, :]), M)
    return H_pd


def dense_step(system, lam: float) -> np.ndarray:
    """The damped step of a NormalEquations without eliminating anything:
    the full [free pose vars | disparities] system, with the same damping as
    the Schur step, solved densely."""
    lay = system.layout
    free = lay.free
    Hf = system.H_pp[free, free]
    Hfd = dense_coupling(system)[free]
    nf, nd = Hf.shape[0], lay.n_disp
    H = np.zeros((nf + nd, nf + nd))
    H[:nf, :nf] = Hf
    H[np.arange(nf), np.arange(nf)] = np.diag(Hf) * (1.0 + lam) + solver.RIDGE
    H[:nf, nf:] = Hfd
    H[nf:, :nf] = Hfd.T
    H[nf + np.arange(nd), nf + np.arange(nd)] = system.H_dd * (1.0 + lam) + solver.RIDGE
    dx = solver.solve_dense(H, -np.concatenate([system.g_p[free], system.g_d]),
                            "full system")
    return np.concatenate([np.zeros(lay.dof), dx])


class _DenseWindowProblem(solver._WindowProblem):
    def step(self, lam: float) -> np.ndarray:
        return dense_step(self.system, lam)


def solve_vi_ba_dense(graph, opts):
    """vislam.solver.solve_vi_ba with every step taken by dense_step."""
    problem = _DenseWindowProblem(graph, opts)
    report = solver.lm_solve(problem, opts)
    problem.commit()
    return report


def total_pg_energy(graph) -> float:
    """Sum of whitened squared residuals over a pose graph's chain and loop
    edges, the chain scored one edge at a time."""
    problem = _PoseGraphProblem(graph)
    problem.evaluate()
    vision, _ = problem.outs
    poses = {n.kid: n.state for n in graph.nodes}
    e = sum(float((out.residual ** 2).sum()) for out in vision)
    for edge in graph.chain:
        r = relative_pose_residual(edge, poses[edge.i], poses[edge.j]).residual
        e += float(r @ r)
    return e


def inertial_only_system(problem):
    """H, g of an evaluated vislam.initialization._InertialOnly, assembled
    edge by edge: a dense (15, 9 + 3N) Jacobian per inertial edge over
    [log-scale, gravity (2), bias (6), velocities (3 per keyframe)], then
    H += J^T J and g += J^T r."""
    graph, out = problem.graph, problem.outs[1]
    es = float(np.exp(problem.s))
    dim = 9 + 3 * len(graph.keyframes)
    H, g = np.zeros((dim, dim)), np.zeros(dim)
    kids = [kf.kid for kf in graph.keyframes]
    for e, (i, j, _) in enumerate(graph.inertial_edges):
        ki, kj = kids.index(i), kids.index(j)
        p_i = graph.kf(i).state.pose.translation
        p_j = graph.kf(j).state.pose.translation
        J = np.zeros((15, dim))
        J[:, 0] = out.J_i[e, :, 3:6] @ (es * p_i) + out.J_j[e, :, 3:6] @ (es * p_j)
        J[:, 1:3] = out.J_gravity[e] @ GRAVITY_TANGENT_BASIS
        J[:, 3:9] = out.J_i[e, :, 9:15] + out.J_j[e, :, 9:15]
        J[:, 9 + 3 * ki:12 + 3 * ki] = out.J_i[e, :, 6:9]
        J[:, 9 + 3 * kj:12 + 3 * kj] = out.J_j[e, :, 6:9]
        H += J.T @ J
        g += J.T @ out.residual[e]
    return H, g


def inertial_only_step(H, g, lam: float) -> np.ndarray:
    """The damped step on H + diag(H) lam + RIDGE I, every column free."""
    return np.linalg.solve(H + np.diag(np.diag(H)) * lam + solver.RIDGE * np.eye(len(g)), -g)


# ---------------------------------------------------------------- IMU deltas


def preintegrate(samples: ImuSamples, bias_hat: BiasState,
                 noise: ImuNoiseModel) -> PreintegratedDelta:
    """vislam.imu.preintegrate one sample interval at a time: every step
    updates the rotation, velocity, position, bias Jacobians and covariance
    in turn."""
    if len(samples) < 2:
        raise ValueError("need at least 2 samples to preintegrate")
    ts = samples.t
    if np.any(np.diff(ts) <= 0.0):
        raise ValueError("sample timestamps must be strictly increasing")

    gyro = samples.gyro - bias_hat.gyro_bias
    accel = samples.accel - bias_hat.accel_bias

    dR = np.eye(3)
    dv = np.zeros(3)
    dp = np.zeros(3)
    J_r = np.zeros((3, 3))
    J_v = np.zeros((3, 6))
    J_p = np.zeros((3, 6))
    cov9 = np.zeros((9, 9))

    sg2 = noise.gyro_noise_density ** 2
    sa2 = noise.accel_noise_density ** 2

    for k in range(len(samples) - 1):
        dt = ts[k + 1] - ts[k]
        w = 0.5 * (gyro[k] + gyro[k + 1])
        a = 0.5 * (accel[k] + accel[k + 1])

        E_full = so3_exp_matrix(w * dt)
        E_half = so3_exp_matrix(w * (0.5 * dt))
        Jr_full = so3_right_jacobian(w * dt)
        Jr_half = so3_right_jacobian(w * (0.5 * dt))
        R_mid = dR @ E_half
        a_i = R_mid @ a
        Ahat = hat(a)

        # bias Jacobian of the midpoint rotation tangent
        J_mid = E_half.T @ J_r - 0.5 * dt * Jr_half
        RA_Jmid = R_mid @ Ahat @ J_mid

        # error-state propagation, state ordered (theta, p, v)
        A = np.eye(9)
        A[0:3, 0:3] = E_full.T
        A[3:6, 0:3] = -0.5 * dt * dt * (R_mid @ Ahat @ E_half.T)
        A[3:6, 6:9] = dt * np.eye(3)
        A[6:9, 0:3] = -dt * (R_mid @ Ahat @ E_half.T)

        B = np.zeros((9, 6))
        B[0:3, 0:3] = -dt * Jr_full
        B[3:6, 0:3] = 0.25 * dt ** 3 * (R_mid @ Ahat @ Jr_half)
        B[3:6, 3:6] = -0.5 * dt * dt * R_mid
        B[6:9, 0:3] = 0.5 * dt * dt * (R_mid @ Ahat @ Jr_half)
        B[6:9, 3:6] = -dt * R_mid

        Qd = np.diag([sg2 / dt] * 3 + [sa2 / dt] * 3)
        cov9 = A @ cov9 @ A.T + B @ Qd @ B.T
        cov9 = 0.5 * (cov9 + cov9.T)

        # bias Jacobians (position before velocity: uses the pre-update J_v)
        J_p[:, 0:3] += dt * J_v[:, 0:3] - 0.5 * dt * dt * RA_Jmid
        J_p[:, 3:6] += dt * J_v[:, 3:6] - 0.5 * dt * dt * R_mid
        J_v[:, 0:3] += -dt * RA_Jmid
        J_v[:, 3:6] += -dt * R_mid
        J_r = E_full.T @ J_r - dt * Jr_full

        dp = dp + dv * dt + 0.5 * dt * dt * a_i
        dv = dv + dt * a_i
        dR = dR @ E_full

    dt_total = float(ts[-1] - ts[0])
    cov = np.zeros((15, 15))
    cov[:9, :9] = cov9
    cov[9:12, 9:12] = noise.gyro_bias_random_walk ** 2 * dt_total * np.eye(3)
    cov[12:15, 12:15] = noise.accel_bias_random_walk ** 2 * dt_total * np.eye(3)

    return PreintegratedDelta(
        dt_total=dt_total,
        delta_R=Rotation.from_matrix(dR),
        delta_p=dp,
        delta_v=dv,
        J_rot=J_r,
        J_pos=J_p,
        J_vel=J_v,
        covariance=cov,
        bias_lin_point=bias_hat,
    )


def inertial_residual(delta: PreintegratedDelta, s_i: PoseState, s_j: PoseState,
                      gravity: GravityModel) -> InertialResidualResult:
    """vislam.residuals.inertial_residual for one edge, through Rotation
    objects, whitened by Cholesky factors of the delta's covariance taken
    here: (15,) residual, (15, 15) J_i and J_j, (15, 3) J_gravity."""
    dt = s_j.timestamp - s_i.timestamp
    if abs(dt - delta.dt_total) > 1e-6:
        raise ValueError(
            f"delta spans {delta.dt_total:.6f}s but states are {dt:.6f}s apart")

    R_i = s_i.pose.rotation.matrix()
    R_j = s_j.pose.rotation.matrix()
    p_i, p_j = s_i.pose.translation, s_j.pose.translation
    v_i, v_j = s_i.velocity, s_j.velocity
    g = gravity.vector()
    db = s_i.bias.vector() - delta.bias_lin_point.vector()
    dbg = db[:3]

    corr_rot_tangent = delta.J_rot @ dbg
    C = delta.delta_R.matrix() @ so3_exp_matrix(corr_rot_tangent)
    r_rot = Rotation.from_matrix(C.T @ R_i.T @ R_j).log()
    s_pos = p_j - p_i - v_i * dt - 0.5 * dt * dt * g
    r_pos = R_i.T @ s_pos - (delta.delta_p + delta.J_pos @ db)
    s_vel = v_j - v_i - dt * g
    r_vel = R_i.T @ s_vel - (delta.delta_v + delta.J_vel @ db)
    r_bias = s_j.bias.vector() - s_i.bias.vector()

    Jr_inv = so3_right_jacobian_inv(r_rot)
    Jl_inv = so3_right_jacobian_inv(-r_rot)

    J_i = np.zeros((15, 15))
    J_j = np.zeros((15, 15))
    J_g = np.zeros((15, 3))

    # rotation rows
    J_i[0:3, 0:3] = -Jr_inv @ (R_j.T @ R_i)
    J_j[0:3, 0:3] = Jr_inv
    J_i[0:3, 9:12] = -Jl_inv @ so3_right_jacobian(corr_rot_tangent) @ delta.J_rot

    # position rows
    J_i[3:6, 0:3] = hat(R_i.T @ s_pos)
    J_i[3:6, 3:6] = -R_i.T
    J_j[3:6, 3:6] = R_i.T
    J_i[3:6, 6:9] = -dt * R_i.T
    J_i[3:6, 9:15] = -delta.J_pos
    J_g[3:6, :] = 0.5 * dt * dt * R_i.T @ gravity.R_wg.matrix() @ hat(gravity.g_inertial())

    # velocity rows
    J_i[6:9, 0:3] = hat(R_i.T @ s_vel)
    J_i[6:9, 6:9] = -R_i.T
    J_j[6:9, 6:9] = R_i.T
    J_i[6:9, 9:15] = -delta.J_vel
    J_g[6:9, :] = dt * R_i.T @ gravity.R_wg.matrix() @ hat(gravity.g_inertial())

    # bias walk rows
    J_i[9:15, 9:15] = -np.eye(6)
    J_j[9:15, 9:15] = np.eye(6)

    r = np.concatenate([r_rot, r_pos, r_vel, r_bias])
    L9 = cholesky(delta.covariance[:9, :9], lower=True)
    Lb = cholesky(delta.covariance[9:15, 9:15], lower=True)

    def whiten(rows):
        out = np.empty_like(rows)
        out[:9] = solve_triangular(L9, rows[:9], lower=True)
        out[9:] = solve_triangular(Lb, rows[9:], lower=True)
        return out

    return InertialResidualResult(
        residual=whiten(r.reshape(15, 1)).reshape(15),
        J_i=whiten(J_i),
        J_j=whiten(J_j),
        J_gravity=whiten(J_g),
    )


def correct_for_bias(delta: PreintegratedDelta, new_bias: BiasState):
    """First-order corrected (delta_R', delta_p', delta_v') at a new bias."""
    db = new_bias.vector() - delta.bias_lin_point.vector()
    dbg = db[:3]
    dR = delta.delta_R * Rotation.exp(delta.J_rot @ dbg)
    dp = delta.delta_p + delta.J_pos @ db
    dv = delta.delta_v + delta.J_vel @ db
    return dR, dp, dv


def compose_deltas(a: PreintegratedDelta, b: PreintegratedDelta) -> PreintegratedDelta:
    """Analytic concatenation of two consecutive deltas (shared boundary sample).

    Jacobians and covariance are not composed here; only the deltas, which is
    what the concatenation identity constrains. The covariance is the
    identity, a placeholder any delta can be built with.
    """
    Ra = a.delta_R.matrix()
    dR = a.delta_R * b.delta_R
    dv = a.delta_v + Ra @ b.delta_v
    dp = a.delta_p + a.delta_v * b.dt_total + Ra @ b.delta_p
    return PreintegratedDelta(
        dt_total=a.dt_total + b.dt_total,
        delta_R=dR,
        delta_p=dp,
        delta_v=dv,
        J_rot=np.zeros((3, 3)),
        J_pos=np.zeros((3, 6)),
        J_vel=np.zeros((3, 6)),
        covariance=np.eye(15),
        bias_lin_point=a.bias_lin_point,
    )


# ---------------------------------------------------------------- Gaussian map
# The per-object map: a list of Gaussian rows with an anchor index, and the
# spawn, warp, render and read that worked on it one Gaussian at a time. The
# columnar gsmap is checked against these.


def batch(rows) -> Gaussians:
    """Gaussian rows as one batch."""
    rows = list(rows)
    return Gaussians(mean=[g.mean for g in rows], scales=[g.scales for g in rows],
                     q=[g.orientation.q for g in rows], color=[g.color for g in rows],
                     opacity=[g.opacity for g in rows], anchor=[g.anchor for g in rows])


class ObjectMap:
    """Flat list of Gaussian objects plus an anchor index over contiguous id ranges."""

    def __init__(self, rows=()):
        self.gaussians = []
        self.anchor_ranges = {}
        self.insert(rows)

    def __len__(self) -> int:
        return len(self.gaussians)

    def insert(self, rows) -> None:
        for g in rows:
            start = len(self.gaussians)
            self.gaussians.append(g)
            runs = self.anchor_ranges.setdefault(g.anchor, [])
            if runs and runs[-1][1] == start:
                runs[-1] = (runs[-1][0], start + 1)
            else:
                runs.append((start, start + 1))


def object_map(gaussians) -> ObjectMap:
    """An ObjectMap holding copies of a batch's rows, in store order."""
    return ObjectMap(Gaussian(mean=g.mean.copy(), scales=g.scales.copy(),
                              orientation=Rotation(g.orientation.q.copy()),
                              color=g.color.copy(), opacity=g.opacity, anchor=g.anchor)
                     for g in gaussians)


def spawn_from_keyframe(color, depth, pose, k, stride, anchor):
    """One Gaussian object per strided pixel with valid depth; (rows, skipped)."""
    color = np.asarray(color, dtype=float)
    depth = np.asarray(depth, dtype=float)
    h, w = depth.shape
    vs, us = np.meshgrid(np.arange(0, h, stride), np.arange(0, w, stride), indexing="ij")
    us, vs = us.ravel(), vs.ravel()
    z = depth[vs, us]
    good = np.isfinite(z) & (z > 0.0)
    skipped = int(np.count_nonzero(~good))
    us, vs, z = us[good], vs[good], z[good]
    x = (us - k.cx) / k.fx * z
    y = (vs - k.cy) / k.fy * z
    pts = np.stack([x, y, z], axis=1)
    means = pts @ pose.rotation.matrix().T + pose.translation
    sizes = z * stride / k.fx
    cols = np.clip(color[vs, us], 0.0, 1.0)
    rows = [Gaussian(mean=means[i], scales=np.full(3, sizes[i]),
                     orientation=Rotation.identity(), color=cols[i],
                     opacity=0.5, anchor=anchor)
            for i in range(len(z))]
    return rows, skipped


def apply_loop_correction(gmap: ObjectMap, correction) -> ObjectMap:
    """Warp each anchored object by its keyframe's pose and scale change."""
    for anchor, runs in gmap.anchor_ranges.items():
        entry = correction.entries.get(anchor)
        if entry is None:
            continue
        ds = float(entry.scale_change)
        if ds <= 0.0:
            raise ValueError("loop correction scale change must be positive")
        if not entry.moved():
            continue
        old, new = entry.old_pose, entry.new_pose
        R_minus = old.rotation.matrix()
        R_plus = new.rotation.matrix()
        rot_delta = new.rotation * old.rotation.inverse()
        for start, stop in runs:
            rows = gmap.gaussians[start:stop]
            means = np.array([g.mean for g in rows])
            local = ds * ((means - old.translation) @ R_minus)
            warped = local @ R_plus.T + new.translation
            for g, mu in zip(rows, warped):
                g.mean = mu
                g.scales = g.scales * ds
                g.orientation = rot_delta * g.orientation
    return gmap


def render(gmap: ObjectMap, pose, k, background=None, min_z=1e-2, guard=0.15) -> RenderOutput:
    """Splat one object at a time, front to back, skipping an object at or
    before min_z or its own largest scale, or whose centre projects more
    than `guard` of the image size outside the image's edges."""
    h, w = k.height, k.width
    bg = np.zeros(3) if background is None else np.asarray(background, dtype=float).reshape(3)
    color_acc = np.zeros((h, w, 3))
    depth_acc = np.zeros((h, w))
    transmit = np.ones((h, w))
    if len(gmap):
        T_cw = pose.inverse()
        R_cw = T_cw.rotation.matrix()
        means = np.array([g.mean for g in gmap.gaussians])
        cam = means @ R_cw.T + T_cw.translation
        order = np.lexsort((np.arange(len(cam)), cam[:, 2]))
        for idx in order:
            g = gmap.gaussians[idx]
            p = cam[idx]
            z = p[2]
            if z <= min_z or z <= max(g.scales):
                continue
            u = k.fx * p[0] / z + k.cx
            v = k.fy * p[1] / z + k.cy
            if not (-0.5 - guard * w <= u <= w - 0.5 + guard * w
                    and -0.5 - guard * h <= v <= h - 0.5 + guard * h):
                continue
            J = np.array([[k.fx / z, 0.0, -k.fx * p[0] / z ** 2],
                          [0.0, k.fy / z, -k.fy * p[1] / z ** 2]])
            R = g.orientation.matrix()
            cov_cam = R_cw @ (R @ np.diag(g.scales ** 2) @ R.T) @ R_cw.T
            cov2 = J @ cov_cam @ J.T + 1e-9 * np.eye(2)
            radius = 3.0 * np.sqrt(np.linalg.eigvalsh(cov2).max()) + 1.0
            u0 = max(int(np.floor(u - radius)), 0)
            u1 = min(int(np.ceil(u + radius)) + 1, w)
            v0 = max(int(np.floor(v - radius)), 0)
            v1 = min(int(np.ceil(v + radius)) + 1, h)
            if u0 >= u1 or v0 >= v1:
                continue
            uu, vv = np.meshgrid(np.arange(u0, u1), np.arange(v0, v1))
            d = np.stack([uu - u, vv - v], axis=-1)
            P = np.linalg.inv(cov2)
            q = np.einsum("...a,ab,...b->...", d, P, d)
            a = g.opacity * np.exp(-0.5 * q)
            tile = transmit[v0:v1, u0:u1]
            contrib = tile * a
            color_acc[v0:v1, u0:u1] += contrib[..., None] * g.color
            depth_acc[v0:v1, u0:u1] += contrib * z
            transmit[v0:v1, u0:u1] = tile * (1.0 - a)
    alpha = 1.0 - transmit
    color = color_acc + transmit[..., None] * bg
    covered = alpha > 0.0
    depth = np.full((h, w), DEPTH_SENTINEL)
    depth[covered] = depth_acc[covered] / alpha[covered]
    return RenderOutput(color=color, depth=depth, alpha=alpha)


def read_vgsm(path) -> ObjectMap:
    """Load a map file record by record into Gaussian objects."""
    with open(path, "rb") as f:
        if f.read(4) != b"VGSM":
            raise ValueError("not a Gaussian map file")
        version, count = struct.unpack("<IQ", f.read(12))
        size = count * _RECORD.itemsize
        if os.fstat(f.fileno()).st_size - f.tell() < size:
            raise ValueError("truncated Gaussian map file")
        records = np.frombuffer(f.read(size), dtype=_RECORD)
    return ObjectMap(Gaussian(mean=r["mean"].astype(float),
                              scales=r["scales"].astype(float),
                              orientation=Rotation(r["q"].astype(float)),
                              color=np.clip(r["color"].astype(float), 0.0, 1.0),
                              opacity=min(max(float(r["opacity"]), 0.0), 1.0),
                              anchor=int(r["anchor"]))
                     for r in records)
