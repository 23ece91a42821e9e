"""Weighted residuals and analytic Jacobians for the three energy families.

Vision: dense reprojection of strided pixels against refined correspondences,
weighted per pixel, for a stack of edges of one pixel count in one pass.
Inertial: preintegrated motion discrepancy plus a bias random-walk block,
for a stack of preintegrated deltas in one pass, whitened by the factor each
delta computed from its covariance when it was built. Relative pose: Sim(3)
log of a measured relative transform against two states.

States are world-from-body poses and the camera frame is the body frame; the
inertial residual is purely body-frame.
Pose tangents are (rotation, translation); per-keyframe state tangents are
ordered (rotation, translation, velocity, gyro bias, accel bias).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import cholesky

from .geometry import (
    Pose,
    Rotation,
    SimTransform,
    hat,
    readonly,
    sim3_right_jacobian_inv,
    so3_exp_matrix,
    so3_log_matrix,
    so3_right_jacobian,
    so3_right_jacobian_inv,
)
from .imu import BiasState


@dataclass(frozen=True)
class PoseState:
    pose: Pose
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))
    bias: BiasState = field(default_factory=BiasState)
    timestamp: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "velocity", readonly(self.velocity, (3,)))

    def retract(self, dx: np.ndarray) -> "PoseState":
        """15-dof update ordered (rotation, translation, velocity, bias)."""
        dx = np.asarray(dx, dtype=float).reshape(15)
        bias = BiasState(self.bias.gyro_bias + dx[9:12], self.bias.accel_bias + dx[12:15])
        return replace(self, pose=self.pose.retract(dx[0:3], dx[3:6]),
                       velocity=self.velocity + dx[6:9], bias=bias)


@dataclass
class Intrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")
        if not (0.0 <= self.cx < self.width and 0.0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")

    def scaled(self, width: int, height: int) -> "Intrinsics":
        sx = width / self.width
        sy = height / self.height
        return Intrinsics(self.fx * sx, self.fy * sy,
                          (self.cx + 0.5) * sx - 0.5, (self.cy + 0.5) * sy - 0.5,
                          width, height)


def backproject(k: Intrinsics, pixels: np.ndarray, disparity: np.ndarray) -> np.ndarray:
    """Camera-frame points from (..., 2) pixels and (...) inverse depths."""
    pixels = np.atleast_2d(pixels)
    z = 1.0 / np.asarray(disparity, dtype=float)
    x = (pixels[..., 0] - k.cx) / k.fx * z
    y = (pixels[..., 1] - k.cy) / k.fy * z
    return np.stack([x, y, z], axis=-1)


@dataclass
class VisionEdge:
    i: int
    j: int
    pixels: np.ndarray        # (N, 2) source pixel coordinates
    targets: np.ndarray       # (N, 2) refined correspondences u* in frame j
    weights: np.ndarray       # (N, 2) per-pixel confidence, >= 0

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=float).reshape(-1, 2)
        self.targets = np.asarray(self.targets, dtype=float).reshape(-1, 2)
        self.weights = np.asarray(self.weights, dtype=float).reshape(-1, 2)
        n = len(self.pixels)
        if len(self.targets) != n or len(self.weights) != n:
            raise ValueError("pixels, targets and weights must have equal length")
        if np.any(self.weights < 0.0):
            raise ValueError("weights must be non-negative")


@dataclass(frozen=True)
class GravityModel:
    R_wg: Rotation = field(default_factory=Rotation.identity)
    magnitude: float = 9.81

    def __post_init__(self):
        if not self.magnitude > 0.0:
            raise ValueError("gravity magnitude must be positive")

    def g_inertial(self) -> np.ndarray:
        return np.array([0.0, 0.0, self.magnitude])

    def vector(self) -> np.ndarray:
        """Gravity acceleration in the world frame."""
        return self.R_wg.apply(self.g_inertial())

    def retract(self, dphi: np.ndarray) -> "GravityModel":
        """Right-perturbation of R_wg by a rotation vector."""
        return GravityModel(self.R_wg * Rotation.exp(dphi), self.magnitude)


# 2-dof gravity tangent basis, orthogonal to g_I (yaw about gravity excluded)
GRAVITY_TANGENT_BASIS = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])


@dataclass
class RelativePoseEdge:
    i: int
    j: int
    measurement: SimTransform
    information: np.ndarray   # 7x7 information weight
    # W with W^T W = information; relative_pose_residual whitens with it
    whitening: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.information = np.asarray(self.information, dtype=float).reshape(7, 7)
        if np.max(np.abs(self.information - self.information.T)) > 1e-9:
            raise ValueError("information must be symmetric")
        if np.linalg.eigvalsh(self.information).min() < -1e-9:
            raise ValueError("information must be PSD")
        try:
            L = cholesky(self.information, lower=True)
        except np.linalg.LinAlgError:
            # PSD but rank-deficient information: fall back to the
            # square root from its eigendecomposition
            vals, vecs = np.linalg.eigh(self.information)
            L = vecs @ np.diag(np.sqrt(np.maximum(vals, 0.0)))
        self.whitening = L.T


def map_eigenvalues(M: np.ndarray, fn) -> np.ndarray:
    """The symmetric part of M rebuilt with fn applied to its eigenvalues;
    RelativePoseEdge information blocks clamp them with it."""
    vals, vecs = np.linalg.eigh(0.5 * (M + M.T))
    out = vecs @ (fn(vals)[:, None] * vecs.T)
    return 0.5 * (out + out.T)


@dataclass
class VisionResidualResult:
    """vision_residual's and sim3_vision_residual's output: k = 6 pose
    tangents (rotation, translation), or 7 with log-scale last."""

    residual: np.ndarray       # (E, n, 2) weighted
    J_i: np.ndarray            # (E, n, 2, k) weighted
    J_j: np.ndarray            # (E, n, 2, k)
    J_disparity: np.ndarray    # (E, n, 2) column block per pixel
    behind_camera: np.ndarray  # (E,) pixels flagged and zero-weighted
    valid: np.ndarray          # (E, n) bool


class _Reprojection:
    """E vision edges of n pixels each through backprojection in camera i, the
    similarity action s*R@x + t of both bodies, and projection in camera j.

    Inputs are stacked per edge: (E, n, 2) pixels, targets and weights,
    (E, n) disparities, (E, 3, 3) rotations, (E, 3) translations and (E,)
    scales. Per-pixel arrays keep the pixel axis last ((E, 3, n) points,
    (E, 2, k, n) Jacobian rows), so each product runs along the pixels; the
    results are (E, n, 2, ...) views. Rotation and disparity columns are
    shared; translation (and scale) columns follow Pose.retract (world
    frame) or, with similarity, SimTransform.retract (body frame).
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


def _reproject(edges, states_i, states_j, d_i, k: Intrinsics,
               similarity: bool) -> _Reprojection:
    """Stack E edges of one pixel count with their states and run the kernel."""
    if not len(edges) == len(states_i) == len(states_j) == len(d_i):
        raise ValueError("one state pair and one disparity array per edge")
    d = [np.asarray(x, dtype=float).reshape(-1) for x in d_i]
    if any(len(x) != len(e.pixels) for e, x in zip(edges, d)):
        raise ValueError("disparity length must match edge pixel list")

    def pose_arrays(states):
        return (np.stack([s.rotation.matrix() for s in states]),
                np.stack([s.translation for s in states]),
                np.array([s.scale if similarity else 1.0 for s in states]))

    return _Reprojection(np.stack([e.pixels for e in edges]),
                         np.stack([e.targets for e in edges]),
                         np.stack([e.weights for e in edges]), np.stack(d), k,
                         *pose_arrays(states_i), *pose_arrays(states_j), similarity)


def vision_residual(edges, T_i, T_j, d_i, k: Intrinsics) -> VisionResidualResult:
    """Weighted reprojection residuals u* - proj(T_j^-1 T_i backproj(u_i, d_i)).

    edges is a sequence of E VisionEdges of one pixel count; T_i, T_j and
    d_i give each edge its two poses (its cameras) and its source
    disparities. Rows are scaled by sqrt(w) per pixel component. Points
    landing behind the target camera are zero-weighted and counted, not
    raised. Translation tangents are world-frame, as in Pose.retract.
    """
    c = _reproject(edges, T_i, T_j, d_i, k, similarity=False)
    return VisionResidualResult(c.residual, c.J_i, c.J_j, c.J_disparity,
                                c.behind_camera, c.valid)


def sim3_vision_residual(edges, S_i, S_j, d_i, k: Intrinsics) -> VisionResidualResult:
    """Reprojection residuals of vision edges under similarity keyframe states.

    Same measurement model, cameras and stacking as vision_residual with the
    action s*R@x + t in place of the rigid one, so relative scale between the
    two keyframes enters the prediction. Jacobians are over right
    perturbations ordered (rotation, translation, log-scale), so translation
    tangents are body-frame, as in SimTransform.retract. Rows are scaled by
    sqrt(w); points behind the target camera are zero-weighted and counted.
    """
    c = _reproject(edges, S_i, S_j, d_i, k, similarity=True)
    return VisionResidualResult(c.residual, c.J_i, c.J_j, c.J_disparity,
                                c.behind_camera, c.valid)


@dataclass
class InertialResidualResult:
    residual: np.ndarray   # (E, 15) whitened: rot, pos, vel, bias walk
    J_i: np.ndarray        # (E, 15, 15) w.r.t. state i tangent
    J_j: np.ndarray        # (E, 15, 15)
    J_gravity: np.ndarray  # (E, 15, 3) w.r.t. right perturbation of R_wg


def _matvec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (M @ v[..., None])[..., 0]


def inertial_residual(deltas, states_i, states_j,
                      gravity: GravityModel) -> InertialResidualResult:
    """Whitened preintegration residuals with first-order bias correction.

    deltas is a sequence of E PreintegratedDeltas; states_i and states_j give
    each its two PoseStates. Rows 0:9 are (rot, pos, vel) and rows 9:15 are
    b_j - b_i, each block whitened by the delta's own factor (W^T W is the
    inverse of that block of its covariance).
    """
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
    residual: np.ndarray  # (7,) whitened
    J_i: np.ndarray       # (7, 7) w.r.t. right perturbation of S_i
    J_j: np.ndarray       # (7, 7)


def relative_pose_residual(edge: RelativePoseEdge, S_i: SimTransform,
                           S_j: SimTransform) -> RelativeResidualResult:
    """Whitened log(T_meas S_i S_j^-1), tangent ordering (rot, trans, log-scale)."""
    M = edge.measurement * S_i * S_j.inverse()
    r = M.log()
    Jr_inv = sim3_right_jacobian_inv(r)
    adj_j = S_j.adjoint()
    J_i = Jr_inv @ adj_j
    J_j = -J_i
    W = edge.whitening
    return RelativeResidualResult(residual=W @ r, J_i=W @ J_i, J_j=W @ J_j)
