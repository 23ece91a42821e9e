"""Weighted residuals and analytic Jacobians for the three energy families.

Vision: dense reprojection of strided pixels against refined correspondences,
weighted per pixel. Inertial: preintegrated motion discrepancy plus a bias
random-walk block, whitened by the preintegration covariance. Relative pose:
Sim(3) log of a measured relative transform against two states.

States are world-from-body poses; the vision residual converts to the camera
frame through a constant extrinsic, the inertial residual is purely body-frame.
Pose tangents are (rotation, translation); per-keyframe state tangents are
ordered (rotation, translation, velocity, gyro bias, accel bias).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cholesky, solve_triangular

from .geometry import (
    Pose,
    Rotation,
    SimTransform,
    hat,
    sim3_right_jacobian_inv,
    so3_exp_matrix,
    so3_right_jacobian,
    so3_right_jacobian_inv,
)
from .imu import BiasState, PreintegratedDelta


@dataclass
class PoseState:
    pose: Pose
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))
    bias: BiasState = field(default_factory=BiasState)
    timestamp: float = 0.0

    def __post_init__(self):
        self.velocity = np.asarray(self.velocity, dtype=float).reshape(3)

    def retract(self, dx: np.ndarray) -> "PoseState":
        """15-dof update ordered (rotation, translation, velocity, bias)."""
        dx = np.asarray(dx, dtype=float).reshape(15)
        return PoseState(
            pose=self.pose.retract(dx[0:3], dx[3:6]),
            velocity=self.velocity + dx[6:9],
            bias=BiasState(self.bias.gyro_bias + dx[9:12], self.bias.accel_bias + dx[12:15]),
            timestamp=self.timestamp,
        )

    def copy(self) -> "PoseState":
        return PoseState(self.pose.copy(), self.velocity.copy(), self.bias.copy(), self.timestamp)


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
    """Camera-frame points from pixels and inverse depth."""
    pixels = np.atleast_2d(pixels)
    z = 1.0 / np.asarray(disparity, dtype=float)
    x = (pixels[:, 0] - k.cx) / k.fx * z
    y = (pixels[:, 1] - k.cy) / k.fy * z
    return np.stack([x, y, z], axis=1)


def project(k: Intrinsics, points: np.ndarray) -> np.ndarray:
    points = np.atleast_2d(points)
    z = points[:, 2]
    return np.stack([k.fx * points[:, 0] / z + k.cx,
                     k.fy * points[:, 1] / z + k.cy], axis=1)


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


@dataclass
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

    def copy(self) -> "GravityModel":
        return GravityModel(Rotation(self.R_wg.q.copy()), self.magnitude)


# 2-dof gravity tangent basis, orthogonal to g_I (yaw about gravity excluded)
GRAVITY_TANGENT_BASIS = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])


@dataclass
class RelativePoseEdge:
    i: int
    j: int
    measurement: SimTransform
    information: np.ndarray   # 7x7 information weight

    def __post_init__(self):
        self.information = np.asarray(self.information, dtype=float).reshape(7, 7)
        if np.max(np.abs(self.information - self.information.T)) > 1e-9:
            raise ValueError("information must be symmetric")
        if np.linalg.eigvalsh(self.information).min() < -1e-9:
            raise ValueError("information must be PSD")


@dataclass
class VisionResidualResult:
    residual: np.ndarray      # (N, 2) weighted
    J_pose_i: np.ndarray      # (N, 2, 6) weighted, tangent (rotation, translation)
    J_pose_j: np.ndarray      # (N, 2, 6)
    J_disparity: np.ndarray   # (N, 2) column block per pixel
    behind_camera: int        # pixels flagged and zero-weighted
    valid: np.ndarray         # (N,) bool


@dataclass
class Sim3VisionResult:
    residual: np.ndarray      # (N, 2) weighted
    J_i: np.ndarray           # (N, 2, 7), tangent (rotation, translation, log-scale)
    J_j: np.ndarray           # (N, 2, 7)
    J_disparity: np.ndarray   # (N, 2)
    behind_camera: int
    valid: np.ndarray


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
    """One vision edge through backprojection, the similarity action
    s*R@x + t of both keyframes, and the pinhole projection.

    Holds what the rigid and the similarity residual share: the weighted
    residual, the disparity column, and the point derivatives with respect
    to either keyframe's rotation. The translation (and scale) columns
    depend on each state's retraction, so the callers supply those.
    """

    def __init__(self, edge: VisionEdge, d_i: np.ndarray, k: Intrinsics,
                 T_cb: Pose | None, R_i, p_i, s_i, R_j, p_j, s_j):
        d_i = np.asarray(d_i, dtype=float).reshape(-1)
        if len(d_i) != len(edge.pixels):
            raise ValueError("disparity length must match edge pixel list")
        if np.any(d_i <= 0.0):
            raise ValueError("disparities must be strictly positive")

        T_bc = Pose.identity() if T_cb is None else T_cb.inverse()
        R_bc = T_bc.rotation.matrix()
        p_bc = T_bc.translation

        X_i = backproject(k, edge.pixels, d_i)        # camera i frame
        Y_i = X_i @ R_bc.T + p_bc                     # body i frame
        X_w = s_i * (Y_i @ R_i.T) + p_i               # world
        V_j = ((X_w - p_j) @ R_j) / s_j               # body j frame
        X_c = (V_j - p_bc) @ R_bc                     # camera j frame

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

        self.B = (R_bc.T @ R_j.T) / s_j               # dX_c/dX_w
        self.BRi = self.B @ R_i
        self.Y_i, self.V_j, self.R_bc = Y_i, V_j, R_bc
        self.dX_dthi = np.einsum("ab,nbc->nac", -s_i * self.BRi, _hat_rows(Y_i))
        self.dX_dthj = np.einsum("ab,nbc->nac", R_bc.T, _hat_rows(V_j))
        dX_dd = -np.einsum("ab,nb->na", s_i * (self.BRi @ R_bc), X_i) / d_i[:, None]
        self.J_disparity = self.sw * -np.einsum("nab,nb->na", self.P, dX_dd)

    def jacobian(self, *blocks) -> np.ndarray:
        """Weighted residual columns for (N, 3, 3) or (N, 3) point derivatives."""
        cols = [-np.einsum("nab,nbc->nac", self.P, b) if b.ndim == 3
                else -np.einsum("nab,nb->na", self.P, b)[:, :, None]
                for b in blocks]
        return self.sw[:, :, None] * np.concatenate(cols, axis=2)


def vision_residual(edge: VisionEdge, T_i: Pose, T_j: Pose, d_i: np.ndarray,
                    k: Intrinsics, T_cb: Pose | None = None) -> VisionResidualResult:
    """Weighted reprojection residual u* - proj(T_ij backproj(u_i, d_i)).

    Rows are scaled by sqrt(w) per pixel component. Points landing behind the
    target camera are zero-weighted and counted, not raised. Translation
    tangents are world-frame, as in Pose.retract.
    """
    c = _Reprojection(edge, d_i, k, T_cb, T_i.rotation.matrix(), T_i.translation,
                      1.0, T_j.rotation.matrix(), T_j.translation, 1.0)
    n = len(c.residual)
    return VisionResidualResult(
        residual=c.residual,
        J_pose_i=c.jacobian(c.dX_dthi, np.broadcast_to(c.B, (n, 3, 3))),
        J_pose_j=c.jacobian(c.dX_dthj, np.broadcast_to(-c.B, (n, 3, 3))),
        J_disparity=c.J_disparity,
        behind_camera=c.behind_camera,
        valid=c.valid,
    )


def sim3_vision_residual(edge: VisionEdge, S_i: SimTransform, S_j: SimTransform,
                         d_i: np.ndarray, k: Intrinsics,
                         T_cb: Pose | None = None) -> Sim3VisionResult:
    """Reprojection residual of a vision edge under similarity keyframe states.

    Same measurement model as the rigid vision residual with the action
    s*R@x + t in place of the rigid one, so relative scale between the two
    keyframes enters the prediction. Jacobians are over right perturbations
    ordered (rotation, translation, log-scale), so translation tangents are
    body-frame, as in SimTransform.retract. Rows are scaled by sqrt(w);
    points behind the target camera are zero-weighted and counted.
    """
    s_i = S_i.scale
    c = _Reprojection(edge, d_i, k, T_cb, S_i.rotation.matrix(), S_i.translation,
                      s_i, S_j.rotation.matrix(), S_j.translation, S_j.scale)
    n = len(c.residual)
    return Sim3VisionResult(
        residual=c.residual,
        J_i=c.jacobian(c.dX_dthi, np.broadcast_to(s_i * c.BRi, (n, 3, 3)),
                       s_i * (c.Y_i @ c.BRi.T)),
        J_j=c.jacobian(c.dX_dthj, np.broadcast_to(-c.R_bc.T, (n, 3, 3)),
                       -(c.V_j @ c.R_bc)),
        J_disparity=c.J_disparity,
        behind_camera=c.behind_camera,
        valid=c.valid,
    )


@dataclass
class InertialResidualResult:
    residual: np.ndarray   # (15,) whitened: rot, pos, vel, bias walk
    J_i: np.ndarray        # (15, 15) w.r.t. state i tangent
    J_j: np.ndarray        # (15, 15)
    J_gravity: np.ndarray  # (15, 3) w.r.t. right perturbation of R_wg


def inertial_residual(delta: PreintegratedDelta, s_i: PoseState, s_j: PoseState,
                      gravity: GravityModel) -> InertialResidualResult:
    """Whitened preintegration residual with first-order bias correction.

    Rows 0:9 are (rot, pos, vel) whitened by the Cholesky factor of the delta
    covariance; rows 9:15 are b_j - b_i whitened by the random-walk block.
    """
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
    cov9 = delta.covariance[:9, :9]
    covb = delta.covariance[9:15, 9:15]
    try:
        L9 = cholesky(cov9, lower=True)
        Lb = cholesky(covb, lower=True)
    except np.linalg.LinAlgError as exc:
        raise ValueError("non-PSD preintegration covariance") from exc

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
    try:
        L = cholesky(edge.information, lower=True)
    except np.linalg.LinAlgError:
        # PSD but rank-deficient information: fall back to a symmetric sqrt
        vals, vecs = np.linalg.eigh(edge.information)
        L = vecs @ np.diag(np.sqrt(np.maximum(vals, 0.0)))
    W = L.T
    return RelativeResidualResult(residual=W @ r, J_i=W @ J_i, J_j=W @ J_j)
