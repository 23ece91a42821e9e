"""Weighted residuals and analytic Jacobians for the three energy families.

Vision: dense reprojection of strided pixels against refined correspondences,
weighted per pixel, for a stack of edges of one pixel count in one pass.
Inertial: preintegrated motion discrepancy plus a bias random-walk block,
for a stack of preintegrated deltas in one pass, whitened by the factor each
delta computed from its covariance when it was built. Relative pose: the
rotation log and body-frame position discrepancy of measured relative poses
against two poses each, for a stack of edges in one pass.

The kernels take their inputs stacked (EdgeStack, DeltaStack or
RelativeStack, built once per problem, and a StateStack per edge end) and
compute the residual when called. Their Jacobians are built on the first
read, from intermediates the call keeps and that read drops, so a score
that is never linearized (a rejected trial, the last score of a solve, a
re-score of the window) builds none.

States are world-from-body poses and the camera frame is the body frame; the
inertial residual is purely body-frame.
Pose tangents are (rotation, translation); per-keyframe state tangents are
ordered (rotation, translation, velocity, gyro bias, accel bias).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
from scipy.linalg import cholesky

from .geometry import (
    Pose,
    Rotation,
    SimTransform,
    hat,
    readonly,
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
    measurement: Pose         # T_i^-1 T_j
    information: np.ndarray   # 6x6 information weight, positive definite
    # W with W^T W = information; relative_pose_residual whitens with it
    whitening: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.information = np.asarray(self.information, dtype=float).reshape(6, 6)
        if np.max(np.abs(self.information - self.information.T)) > 1e-9:
            raise ValueError("information must be symmetric")
        try:
            self.whitening = cholesky(self.information, lower=True).T
        except np.linalg.LinAlgError as exc:
            raise ValueError("information must be positive definite") from exc


def map_eigenvalues(M: np.ndarray, fn) -> np.ndarray:
    """The symmetric part of M rebuilt with fn applied to its eigenvalues;
    RelativePoseEdge information blocks clamp them with it."""
    vals, vecs = np.linalg.eigh(0.5 * (M + M.T))
    out = vecs @ (fn(vals)[:, None] * vecs.T)
    return 0.5 * (out + out.T)


class StateStack(NamedTuple):
    """States stacked along a leading axis, as the kernels read them:
    (N, 3, 3) rotations and (N, 3) translations, then what the states have
    of (N,) scales, (N, 3) velocities, (N, 6) biases and (N,) timestamps,
    None for what they have not. A problem stacks its nodes once per
    evaluation and takes each edge end's rows."""

    R: np.ndarray
    p: np.ndarray
    s: np.ndarray | None = None
    v: np.ndarray | None = None
    b: np.ndarray | None = None
    t: np.ndarray | None = None

    @classmethod
    def of(cls, states) -> "StateStack":
        """Poses, SimTransforms (with scales) or PoseStates (with velocities,
        biases and timestamps), stacked."""
        if isinstance(states[0], PoseState):
            return cls.of([s.pose for s in states])._replace(
                v=np.stack([s.velocity for s in states]),
                b=np.stack([s.bias.vector() for s in states]),
                t=np.array([s.timestamp for s in states]))
        stack = cls(np.stack([s.rotation.matrix() for s in states]),
                    np.stack([s.translation for s in states]))
        if isinstance(states[0], SimTransform):
            return stack._replace(s=np.array([s.scale for s in states]))
        return stack

    def take(self, idx) -> "StateStack":
        """The states at positions idx, one row each."""
        return StateStack(*(None if a is None else a[idx] for a in self))


class EdgeStack(NamedTuple):
    """E vision edges of n pixels each, stacked once per problem: (E, n, 2)
    pixels, targets and weights."""

    pixels: np.ndarray
    targets: np.ndarray
    weights: np.ndarray

    @classmethod
    def of(cls, edges) -> "EdgeStack":
        return cls(*map(np.stack, zip(*[(e.pixels, e.targets, e.weights) for e in edges])))


class DeltaStack(NamedTuple):
    """E preintegrated deltas stacked once per problem, in the fields that
    inertial_residual reads."""

    span: np.ndarray     # (E,) dt_total
    R: np.ndarray        # (E, 3, 3) delta_R
    p: np.ndarray        # (E, 3) delta_p
    v: np.ndarray        # (E, 3) delta_v
    J_rot: np.ndarray    # (E, 3, 3)
    J_pos: np.ndarray    # (E, 3, 6)
    J_vel: np.ndarray    # (E, 3, 6)
    bias: np.ndarray     # (E, 6) linearization point
    W: np.ndarray        # (E, 15, 15) whitening

    @classmethod
    def of(cls, deltas) -> "DeltaStack":
        return cls(*map(np.stack, zip(*[
            (d.dt_total, d.delta_R.matrix(), d.delta_p, d.delta_v, d.J_rot, d.J_pos,
             d.J_vel, d.bias_lin_point.vector(), d.whitening) for d in deltas])))


class _LazyJacobians:
    """A kernel's result. The call computes the residual; the Jacobians named
    in JACOBIANS are built on the first read of any of them, by
    _jacobians(*kept) from the intermediates the call kept, which that read
    drops. A result that is only scored never builds them."""

    JACOBIANS = ()

    def __getattr__(self, name):
        # reached only for an attribute not set: a Jacobian not built yet
        if name not in self.JACOBIANS or "_kept" not in vars(self):
            raise AttributeError(name)
        vars(self).update(zip(self.JACOBIANS, self._jacobians(*vars(self).pop("_kept"))))
        return vars(self)[name]


class VisionResidualResult(_LazyJacobians):
    """vision_residual's and sim3_vision_residual's output for E edges of n
    pixels, with k = 6 pose tangents (rotation, translation), or 7 with
    log-scale last:

        residual       (E, n, 2) weighted
        valid          (E, n) bool
        behind_camera  (E,) pixels flagged and zero-weighted
        J              (E, n, 2, 2k) weighted, J_i then J_j, built on first read
        J_i, J_j       (E, n, 2, k) views of J
        J_disparity    (E, n, 2) column block per pixel, built on first read

    The kernel takes each edge's pixels through backprojection in camera i,
    the similarity action s*R@x + t of both bodies, and projection in camera
    j. Per-pixel arrays keep the pixel axis last ((E, 3, n) points, (E, 2,
    k, n) Jacobian rows), so each product runs along the pixels; the results
    are (E, n, ...) views. Rotation and disparity columns are shared;
    translation (and scale) columns follow Pose.retract (world frame) or,
    with similarity, the right perturbation of geometry's Sim(3) tangent
    (body frame).
    """

    JACOBIANS = ("J", "J_i", "J_j", "J_disparity")

    def __init__(self, edges: EdgeStack, T_i: StateStack, T_j: StateStack,
                 d_i: np.ndarray, k: Intrinsics, similarity: bool):
        if not len(edges.pixels) == len(T_i.R) == len(T_j.R) == len(d_i):
            raise ValueError("one state pair and one disparity row per edge")
        if d_i.shape != edges.pixels.shape[:2]:
            raise ValueError("disparity length must match edge pixel list")
        if not np.all(np.isfinite(d_i) & (d_i > 0.0)):
            raise ValueError("disparities must be finite and strictly positive")

        X_i = np.moveaxis(backproject(k, edges.pixels, d_i), -1, 1)     # camera i
        X_w = T_i.R @ X_i                                              # world
        if similarity:
            X_w = T_i.s[:, None, None] * X_w
        X_w += T_i.p[:, :, None]
        R_j_T = T_j.R.transpose(0, 2, 1)
        X_c = R_j_T @ (X_w - T_j.p[:, :, None])                         # camera j
        if similarity:
            X_c /= T_j.s[:, None, None]

        x, y, z = X_c[:, 0], X_c[:, 1], X_c[:, 2]
        valid = z > 1e-6
        z_safe = np.where(valid, z, 1.0)
        sw = np.sqrt(np.where(valid[:, None], np.moveaxis(edges.weights, -1, 1), 0.0))
        pred = np.stack([k.fx * x / z_safe + k.cx, k.fy * y / z_safe + k.cy], axis=1)
        residual = sw * (np.moveaxis(edges.targets, -1, 1) - pred)
        self.residual = np.moveaxis(residual, 1, -1)
        self.valid = valid
        self.behind_camera = np.count_nonzero(~valid, axis=1)
        self._kept = (X_i, X_c, z_safe, sw, T_i.R, R_j_T, T_i.s, T_j.s, d_i, k,
                      similarity)

    def _jacobians(self, X_i, X_c, z_safe, sw, R_i, R_j_T, s_i, s_j, d_i, k,
                   similarity):
        E, _, n = X_c.shape
        x, y, z = X_c[:, 0], X_c[:, 1], X_c[:, 2]
        # projection rows over X_c, u (fx/z, 0, -fx x/z^2) and v (0, fy/z,
        # -fy y/z^2), each weighted by -sqrt(w)
        z2 = z_safe ** 2
        P = [a[:, None] for a in (k.fx / z_safe, -k.fx * x / z2, k.fy / z_safe, -k.fy * y / z2)]
        m = -sw[:, :, None]

        def rows(V, out):
            """-sqrt(w) P V of derivatives V (E, 3, k, 1 or n) of X_c, into
            out (E, 2, k, n), each row written once."""
            for r in (0, 1):
                t = P[2 * r] * V[:, r]
                t += P[2 * r + 1] * V[:, 2]
                np.multiply(t, m[:, r], out=out[:, r])
            return out

        # both ends' columns in one array, source then target
        dof = 7 if similarity else 6
        J = np.empty((E, 2, 2 * dof, n))
        J_i, J_j = J[:, :, :dof], J[:, :, dof:]
        B = R_j_T / s_j[:, None, None] if similarity else R_j_T.copy()  # dX_c/dX_w

        # target rotation: each row g of -sqrt(w) P times hat(X_c) is g x X_c;
        # g is (gu0, 0, gu2) or (0, gv1, gv2), so these are numpy.cross's
        # products less the ones by zero
        gu0, gu2 = P[0][:, 0] * m[:, 0, 0], P[1][:, 0] * m[:, 0, 0]
        gv1, gv2 = P[2][:, 0] * m[:, 1, 0], P[3][:, 0] * m[:, 1, 0]
        Ju, Jv = J_j[:, 0], J_j[:, 1]
        np.negative(gu2 * y, out=Ju[:, 0])
        np.subtract(gu2 * x, gu0 * z, out=Ju[:, 1])
        np.multiply(gu0, y, out=Ju[:, 2])
        np.subtract(gv1 * z, gv2 * y, out=Jv[:, 0])
        np.multiply(gv2, x, out=Jv[:, 1])
        np.negative(gv1 * x, out=Jv[:, 2])
        if similarity:
            np.negative(gu0, out=Ju[:, 3])
            Ju[:, 4] = 0.0
            np.negative(gu2, out=Ju[:, 5])
            Jv[:, 3] = 0.0
            np.negative(gv1, out=Jv[:, 4])
            np.negative(gv2, out=Jv[:, 5])
            np.negative(gu0 * x + gu2 * z, out=Ju[:, 6])
            np.negative(gv1 * y + gv2 * z, out=Jv[:, 6])

        # source rotation: -s_i times the rows G over R_i's columns, each
        # crossed with X_i (g x X_i negated by swapping its products); G is
        # built where the source translation columns go
        BR_i = B @ R_i
        G = rows(BR_i[..., None], J_i[:, :, 3:6])
        g0, g1, g2 = G[:, :, 0], G[:, :, 1], G[:, :, 2]
        x0, x1, x2 = X_i[:, None, 0], X_i[:, None, 1], X_i[:, None, 2]
        np.subtract(g2 * x1, g1 * x2, out=J_i[:, :, 0])
        np.subtract(g0 * x2, g2 * x0, out=J_i[:, :, 1])
        np.subtract(g1 * x0, g0 * x1, out=J_i[:, :, 2])
        if similarity:
            s_i4 = s_i[:, None, None, None]
            J_i[:, :, 6] = s_i[:, None, None] * ((g0 * x0 + g1 * x1) + g2 * x2)
            J_i[:, :, :6] *= s_i4
        else:
            rows(B[..., None], J_i[:, :, 3:6])
            np.negative(J_i[:, :, 3:6], out=J_j[:, :, 3:6])
        # dX_c/dd summed as (x + z) + y, numpy.einsum's order: far points cancel
        # here, and a vision-only window's scale gauge amplifies any rounding
        M = (s_i[:, None, None] * BR_i if similarity else BR_i)[..., None]
        dX = M[:, :, 0] * x0
        dX += M[:, :, 2] * x2
        dX += M[:, :, 1] * x1
        np.negative(dX, out=dX)
        dX /= d_i[:, None]
        J_d = rows(dX[:, :, None], np.empty((E, 2, 1, n)))[:, :, 0]
        J = np.moveaxis(J, -1, 1)
        return J, J[..., :dof], J[..., dof:], np.moveaxis(J_d, 1, -1)


def vision_residual(edges: EdgeStack, T_i: StateStack, T_j: StateStack,
                    d_i: np.ndarray, k: Intrinsics) -> VisionResidualResult:
    """Weighted reprojection residuals u* - proj(T_j^-1 T_i backproj(u_i, d_i)).

    edges stacks E VisionEdges of one pixel count; T_i, T_j (their
    rotations and translations) and the rows of d_i (E, n) give each edge
    its two poses (its cameras) and its source disparities. Rows are scaled
    by sqrt(w) per pixel component. Points landing behind the target camera
    are zero-weighted and counted, not raised. Translation tangents are
    world-frame, as in Pose.retract.
    """
    return VisionResidualResult(edges, T_i, T_j, d_i, k, similarity=False)


def sim3_vision_residual(edges: EdgeStack, S_i: StateStack, S_j: StateStack,
                         d_i: np.ndarray, k: Intrinsics) -> VisionResidualResult:
    """Reprojection residuals of vision edges under similarity keyframe states.

    Same measurement model, cameras and stacking as vision_residual with the
    action s*R@x + t in place of the rigid one, so relative scale between the
    two keyframes enters the prediction. Jacobians are over right
    perturbations ordered (rotation, translation, log-scale), so translation
    tangents are body-frame. Rows are scaled by sqrt(w); points behind the
    target camera are zero-weighted and counted.
    """
    return VisionResidualResult(edges, S_i, S_j, d_i, k, similarity=True)


def _matvec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (M @ v[..., None])[..., 0]


class InertialResidualResult(_LazyJacobians):
    """inertial_residual's output for E deltas:

        residual   (E, 15) whitened: rot, pos, vel, bias walk
        J_i, J_j   (E, 15, 15) w.r.t. the state tangents, built on first read
        J_gravity  (E, 15, 3) w.r.t. right perturbation of R_wg, likewise
    """

    JACOBIANS = ("J_i", "J_j", "J_gravity")

    def __init__(self, deltas: DeltaStack, states_i: StateStack, states_j: StateStack,
                 gravity: GravityModel):
        if not len(deltas.span) == len(states_i.R) == len(states_j.R):
            raise ValueError("one state pair per delta")
        dt, span = states_j.t - states_i.t, deltas.span
        for e in np.flatnonzero(np.abs(dt - span) > 1e-6)[:1]:
            raise ValueError(
                f"delta spans {span[e]:.6f}s but states are {dt[e]:.6f}s apart")

        R_i_T = states_i.R.transpose(0, 2, 1)
        g = gravity.vector()
        db = states_i.b - deltas.bias
        dt3, dt = dt[:, None, None], dt[:, None]

        corr_rot_tangent = _matvec(deltas.J_rot, db[:, :3])
        C = deltas.R @ so3_exp_matrix(corr_rot_tangent)
        r_rot = so3_log_matrix(C.transpose(0, 2, 1) @ R_i_T @ states_j.R)
        s_pos = states_j.p - states_i.p - states_i.v * dt - 0.5 * dt * dt * g
        pos = _matvec(R_i_T, s_pos)
        r_pos = pos - (deltas.p + _matvec(deltas.J_pos, db))
        s_vel = states_j.v - states_i.v - dt * g
        vel = _matvec(R_i_T, s_vel)
        r_vel = vel - (deltas.v + _matvec(deltas.J_vel, db))
        r_bias = states_j.b - states_i.b

        r = np.concatenate([r_rot, r_pos, r_vel, r_bias], axis=1)
        self.residual = _matvec(deltas.W, r)
        self._kept = (deltas, states_i.R, states_j.R, r_rot, corr_rot_tangent, pos, vel,
                      dt3, gravity)

    def _jacobians(self, deltas, R_i, R_j, r_rot, corr_rot_tangent, pos, vel, dt3,
                   gravity):
        R_i_T = R_i.transpose(0, 2, 1)
        Jr_inv = so3_right_jacobian_inv(r_rot)
        Jl_inv = so3_right_jacobian_inv(-r_rot)

        E = len(r_rot)
        J_i = np.zeros((E, 15, 15))
        J_j = np.zeros((E, 15, 15))
        J_g = np.zeros((E, 15, 3))
        G = gravity.R_wg.matrix() @ hat(gravity.g_inertial())

        # rotation rows
        J_i[:, 0:3, 0:3] = -Jr_inv @ (R_j.transpose(0, 2, 1) @ R_i)
        J_j[:, 0:3, 0:3] = Jr_inv
        J_i[:, 0:3, 9:12] = -Jl_inv @ so3_right_jacobian(corr_rot_tangent) @ deltas.J_rot

        # position rows
        J_i[:, 3:6, 0:3] = hat(pos)
        J_i[:, 3:6, 3:6] = -R_i_T
        J_j[:, 3:6, 3:6] = R_i_T
        J_i[:, 3:6, 6:9] = -dt3 * R_i_T
        J_i[:, 3:6, 9:15] = -deltas.J_pos
        J_g[:, 3:6, :] = 0.5 * dt3 * dt3 * R_i_T @ G

        # velocity rows
        J_i[:, 6:9, 0:3] = hat(vel)
        J_i[:, 6:9, 6:9] = -R_i_T
        J_j[:, 6:9, 6:9] = R_i_T
        J_i[:, 6:9, 9:15] = -deltas.J_vel
        J_g[:, 6:9, :] = dt3 * R_i_T @ G

        # bias walk rows
        J_i[:, 9:15, 9:15] = -np.eye(6)
        J_j[:, 9:15, 9:15] = np.eye(6)

        W = deltas.W
        return W @ J_i, W @ J_j, W @ J_g


def inertial_residual(deltas: DeltaStack, states_i: StateStack, states_j: StateStack,
                      gravity: GravityModel) -> InertialResidualResult:
    """Whitened preintegration residuals with first-order bias correction.

    deltas stacks E PreintegratedDeltas; states_i and states_j (PoseStates
    stacked) give each its two states. Rows 0:9 are (rot, pos, vel) and rows
    9:15 are b_j - b_i, each block whitened by the delta's own factor (W^T W
    is the inverse of that block of its covariance).
    """
    return InertialResidualResult(deltas, states_i, states_j, gravity)


class RelativeStack(NamedTuple):
    """E relative-pose edges stacked once per problem: (E, 3, 3) measured
    rotations, (E, 3) measured translations and (E, 6, 6) whitenings."""

    R: np.ndarray
    p: np.ndarray
    W: np.ndarray

    @classmethod
    def of(cls, edges) -> "RelativeStack":
        return cls(*map(np.stack, zip(*[
            (e.measurement.rotation.matrix(), e.measurement.translation, e.whitening)
            for e in edges])))


class RelativeResidualResult(_LazyJacobians):
    """relative_pose_residual's output for E edges:

        residual   (E, 6) whitened: rotation, position
        J_i, J_j   (E, 6, 6) w.r.t. the pose tangents, built on first read
    """

    JACOBIANS = ("J_i", "J_j")

    def __init__(self, edges: RelativeStack, T_i: StateStack, T_j: StateStack):
        if not len(edges.R) == len(T_i.R) == len(T_j.R):
            raise ValueError("one pose pair per relative edge")
        R_i_T = T_i.R.transpose(0, 2, 1)
        r_rot = so3_log_matrix(edges.R.transpose(0, 2, 1) @ R_i_T @ T_j.R)
        pos = _matvec(R_i_T, T_j.p - T_i.p)
        r = np.concatenate([r_rot, pos - edges.p], axis=1)
        self.residual = _matvec(edges.W, r)
        self._kept = (edges.W, T_i.R, T_j.R, r_rot, pos)

    def _jacobians(self, W, R_i, R_j, r_rot, pos):
        # the rotation and position rows of inertial_residual's Jacobians
        R_i_T = R_i.transpose(0, 2, 1)
        Jr_inv = so3_right_jacobian_inv(r_rot)
        E = len(r_rot)
        J_i = np.zeros((E, 6, 6))
        J_j = np.zeros((E, 6, 6))
        J_i[:, 0:3, 0:3] = -Jr_inv @ (R_j.transpose(0, 2, 1) @ R_i)
        J_j[:, 0:3, 0:3] = Jr_inv
        J_i[:, 3:6, 0:3] = hat(pos)
        J_i[:, 3:6, 3:6] = -R_i_T
        J_j[:, 3:6, 3:6] = R_i_T
        return W @ J_i, W @ J_j


def relative_pose_residual(edges: RelativeStack, T_i: StateStack,
                           T_j: StateStack) -> RelativeResidualResult:
    """Whitened residuals of measured relative poses T_i^-1 T_j.

    edges stacks E RelativePoseEdges; T_i and T_j (poses stacked) give each
    its two poses. With dR, dp the measurement, the residual is
    (Log(dR^T R_i^T R_j), R_i^T (p_j - p_i) - dp), whitened by the edge's
    factor. Translation tangents are world-frame, as in Pose.retract.
    """
    return RelativeResidualResult(edges, T_i, T_j)
