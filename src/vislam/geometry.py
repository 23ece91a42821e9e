"""Rotation, rigid-body and similarity transforms with their tangent-space maps.

Conventions used across the package:

* quaternions are stored (w, x, y, z) with w >= 0 and unit norm,
* SO(3) tangent vectors are rotation vectors (axis * angle),
* pose tangents are (rotation, translation), retraction R <- R Exp(dtheta),
  p <- p + dp,
* Sim(3) tangents are ordered (rotation, translation, log-scale) and
  perturb on the right, S <- S * (Exp(omega), v, exp(sigma)) to first
  order; only the two-view loop alignment moves a similarity, at fixed
  scale, while the map warp and trajectory alignment apply and compose them,
* rotations, poses and similarities (and the states built from them) are
  immutable values whose arrays are read-only: they are shared, never
  copied, and updated by building a new value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SMALL_ANGLE = 1e-8


# hat() fills these entries of the row-major 3x3 from these components,
# with these signs
_HAT_SLOTS = [1, 2, 3, 5, 6, 7]
_HAT_SOURCE = [2, 1, 2, 0, 1, 0]
_HAT_SIGN = np.array([-1.0, 1.0, 1.0, -1.0, -1.0, 1.0])


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis; on one vector this rounds as
    np.linalg.norm does."""
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def readonly(a, shape: tuple) -> np.ndarray:
    """A read-only float array of the given shape that owns its data, as the
    immutable values keep their arrays: such an array is shared, any other
    input copied."""
    if not (isinstance(a, np.ndarray) and a.shape == shape and a.dtype == float
            and a.flags.owndata and not a.flags.writeable):
        a = np.array(np.reshape(a, shape), dtype=float)
        a.flags.writeable = False
    return a


def hat(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrices such that hat(v) @ w == cross(v, w), over (..., 3)."""
    v = np.asarray(v, dtype=float)
    K = np.zeros(v.shape[:-1] + (9,))
    K[..., _HAT_SLOTS] = v[..., _HAT_SOURCE] * _HAT_SIGN
    return K.reshape(v.shape[:-1] + (3, 3))


def _so3_terms(omega: np.ndarray):
    """Angle, small-angle mask, hat and its square of (..., 3) rotation
    vectors, the angle broadcast as (..., 1, 1) and set to 1 under the mask
    so the closed forms stay finite where the Taylor forms are taken."""
    omega = np.asarray(omega, dtype=float)
    theta = _norm(omega)[..., None, None]
    small = theta < _SMALL_ANGLE
    K = hat(omega)
    return np.where(small, 1.0, theta), small, K, K @ K


def so3_exp_matrix(omega: np.ndarray) -> np.ndarray:
    """Rodrigues formula over (..., 3) rotation vectors, with a Taylor
    fallback below the small-angle cutoff."""
    theta, small, K, KK = _so3_terms(omega)
    # second-order Taylor keeps exp(log(R)) round trips at machine precision
    taylor = np.eye(3) + K + 0.5 * KK
    a = np.sin(theta) / theta
    b = (1.0 - np.cos(theta)) / (theta * theta)
    return np.where(small, taylor, np.eye(3) + a * K + b * KK)


def so3_right_jacobian(omega: np.ndarray) -> np.ndarray:
    """Right Jacobian of SO(3) over (..., 3): Exp(w + dw) ~= Exp(w) Exp(Jr(w) dw)."""
    theta, small, K, KK = _so3_terms(omega)
    taylor = np.eye(3) - 0.5 * K + KK / 6.0
    t2 = theta * theta
    a = (1.0 - np.cos(theta)) / t2
    b = (theta - np.sin(theta)) / (t2 * theta)
    return np.where(small, taylor, np.eye(3) - a * K + b * KK)


def so3_right_jacobian_inv(omega: np.ndarray) -> np.ndarray:
    """Inverse right Jacobian of SO(3) over (..., 3)."""
    theta, small, K, KK = _so3_terms(omega)
    taylor = np.eye(3) + 0.5 * K + KK / 12.0
    cot = 1.0 / np.tan(0.5 * theta)
    b = (1.0 / (theta * theta)) * (1.0 - theta * cot / 2.0)
    return np.where(small, taylor, np.eye(3) + 0.5 * K + b * KK)


def quat_from_matrix(R: np.ndarray) -> np.ndarray:
    """Quaternions (w, x, y, z) of (E, 3, 3) rotation matrices, not yet
    normalized or sign-fixed: the trace > 0 form, else the one pivoted on
    the largest diagonal entry."""
    R = np.asarray(R, dtype=float)
    q = np.empty((len(R), 4))
    pos = np.trace(R, axis1=1, axis2=2) > 0.0
    Rp = R[pos]
    s = np.sqrt(np.trace(Rp, axis1=1, axis2=2) + 1.0) * 2.0
    q[pos] = np.stack([0.25 * s, (Rp[:, 2, 1] - Rp[:, 1, 2]) / s,
                       (Rp[:, 0, 2] - Rp[:, 2, 0]) / s,
                       (Rp[:, 1, 0] - Rp[:, 0, 1]) / s], axis=1)
    pivot = np.argmax(np.diagonal(R, axis1=1, axis2=2), axis=1)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        lo, hi = sorted((j, k))
        sel = ~pos & (pivot == i)
        Ri = R[sel]
        s = np.sqrt(1.0 + Ri[:, i, i] - Ri[:, lo, lo] - Ri[:, hi, hi]) * 2.0
        qi = np.empty((len(Ri), 4))
        qi[:, 0] = (Ri[:, k, j] - Ri[:, j, k]) / s
        qi[:, 1 + i] = 0.25 * s
        qi[:, 1 + j] = (Ri[:, i, j] + Ri[:, j, i]) / s
        qi[:, 1 + k] = (Ri[:, i, k] + Ri[:, k, i]) / s
        q[sel] = qi
    return q


def so3_log_matrix(R: np.ndarray) -> np.ndarray:
    """Rotation vectors of (E, 3, 3) rotation matrices.

    The stacked form of Rotation.from_matrix(R).log(): the canonical unit
    quaternion of quat_from_matrix, then its log.
    """
    q = quat_from_matrix(R)
    q = q / _norm(q)[:, None]
    q = np.where(q[:, :1] < 0.0, -q, q)
    w, v = q[:, 0], q[:, 1:]
    n = _norm(v)
    small = n < _SMALL_ANGLE
    # first-order in the vector part below the cutoff, as Rotation.log
    scale = np.where(small, 2.0 / w, 2.0 * np.arctan2(n, w) / np.where(small, 1.0, n))
    return scale[:, None] * v


class Rotation:
    """Unit quaternion rotation, canonicalized to w >= 0; q is read-only."""

    __slots__ = ("q",)

    def __init__(self, q: np.ndarray):
        q = np.asarray(q, dtype=float)
        q = q / np.linalg.norm(q)
        self.q = -q if q[0] < 0.0 else q
        self.q.flags.writeable = False

    @staticmethod
    def identity() -> "Rotation":
        return Rotation(np.array([1.0, 0.0, 0.0, 0.0]))

    @staticmethod
    def exp(omega: np.ndarray) -> "Rotation":
        omega = np.asarray(omega, dtype=float)
        theta = np.linalg.norm(omega)
        if theta < _SMALL_ANGLE:
            # exp of a tiny rotation vector, first-order quaternion
            q = np.concatenate(([1.0], 0.5 * omega))
        else:
            axis = omega / theta
            q = np.concatenate(([np.cos(0.5 * theta)], np.sin(0.5 * theta) * axis))
        return Rotation(q)

    @staticmethod
    def from_matrix(R: np.ndarray) -> "Rotation":
        return Rotation(quat_from_matrix(np.asarray(R, dtype=float)[None])[0])

    def matrix(self) -> np.ndarray:
        w, x, y, z = self.q
        return np.array([
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ])

    def log(self) -> np.ndarray:
        w = self.q[0]
        v = self.q[1:]
        n = np.linalg.norm(v)
        if n < _SMALL_ANGLE:
            # first-order in the vector part; w is 1 up to O(n^2)
            return (2.0 / w) * v
        theta = 2.0 * np.arctan2(n, w)
        return (theta / n) * v

    def inverse(self) -> "Rotation":
        w, x, y, z = self.q
        return Rotation(np.array([w, -x, -y, -z]))

    def apply(self, v: np.ndarray) -> np.ndarray:
        return np.asarray(v, dtype=float) @ self.matrix().T

    def __mul__(self, other: "Rotation") -> "Rotation":
        w1, x1, y1, z1 = self.q
        w2, x2, y2, z2 = other.q
        return Rotation(np.array([
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ]))

    def __repr__(self) -> str:
        return f"Rotation(q={self.q})"


@dataclass(frozen=True)
class Pose:
    """Rigid transform x_out = R @ x + t."""

    rotation: Rotation
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "translation", readonly(self.translation, (3,)))

    @staticmethod
    def identity() -> "Pose":
        return Pose(Rotation.identity(), np.zeros(3))

    def matrix(self) -> np.ndarray:
        T = np.eye(4)
        T[:3, :3] = self.rotation.matrix()
        T[:3, 3] = self.translation
        return T

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.rotation.apply(x) + self.translation

    def compose(self, other: "Pose") -> "Pose":
        return Pose(self.rotation * other.rotation,
                    self.rotation.apply(other.translation) + self.translation)

    def __mul__(self, other: "Pose") -> "Pose":
        return self.compose(other)

    def inverse(self) -> "Pose":
        Rinv = self.rotation.inverse()
        return Pose(Rinv, -Rinv.apply(self.translation))

    def retract(self, dtheta: np.ndarray, dp: np.ndarray) -> "Pose":
        """Right rotation update, additive world-frame translation update."""
        return Pose(self.rotation * Rotation.exp(dtheta), self.translation + dp)

    def copy(self) -> "Pose":
        """The pose itself: an immutable value needs no copy."""
        return self


@dataclass(frozen=True)
class SimTransform:
    """Similarity transform x_out = scale * R @ x + t, scale > 0."""

    rotation: Rotation
    translation: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "translation", readonly(self.translation, (3,)))
        object.__setattr__(self, "scale", float(self.scale))
        if not self.scale > 0.0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    @staticmethod
    def identity() -> "SimTransform":
        return SimTransform(Rotation.identity(), np.zeros(3), 1.0)

    @staticmethod
    def from_pose(pose: Pose, scale: float = 1.0) -> "SimTransform":
        return SimTransform(pose.rotation, pose.translation, scale)

    def pose(self) -> Pose:
        """Rigid part (scale dropped)."""
        return Pose(self.rotation, self.translation)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.scale * self.rotation.apply(x) + self.translation

    def compose(self, other: "SimTransform") -> "SimTransform":
        return SimTransform(
            self.rotation * other.rotation,
            self.scale * self.rotation.apply(other.translation) + self.translation,
            self.scale * other.scale,
        )

    def __mul__(self, other: "SimTransform") -> "SimTransform":
        return self.compose(other)

    def inverse(self) -> "SimTransform":
        Rinv = self.rotation.inverse()
        inv_s = 1.0 / self.scale
        return SimTransform(Rinv, -inv_s * Rinv.apply(self.translation), inv_s)
