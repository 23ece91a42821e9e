"""IMU preintegration between keyframe timestamps.

Forster-style preintegrated deltas with bias Jacobians and a discrete-time
linearized covariance. Each sample interval holds the average of its endpoint
measurements constant (midpoint scheme); position and velocity accumulate with
the rotation taken at the interval midpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Rotation, hat, so3_exp_matrix, so3_right_jacobian


@dataclass
class ImuSample:
    timestamp: float
    gyro: np.ndarray
    accel: np.ndarray

    def __post_init__(self):
        self.gyro = np.asarray(self.gyro, dtype=float).reshape(3)
        self.accel = np.asarray(self.accel, dtype=float).reshape(3)


@dataclass
class BiasState:
    gyro_bias: np.ndarray = field(default_factory=lambda: np.zeros(3))
    accel_bias: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.gyro_bias = np.asarray(self.gyro_bias, dtype=float).reshape(3)
        self.accel_bias = np.asarray(self.accel_bias, dtype=float).reshape(3)
        if not (np.all(np.isfinite(self.gyro_bias)) and np.all(np.isfinite(self.accel_bias))):
            raise ValueError("bias must be finite")

    def vector(self) -> np.ndarray:
        return np.concatenate([self.gyro_bias, self.accel_bias])

    def copy(self) -> "BiasState":
        return BiasState(self.gyro_bias.copy(), self.accel_bias.copy())


@dataclass
class ImuNoiseModel:
    """Continuous-time noise densities and the gravity magnitude."""

    gyro_noise_density: float = 1.7e-4       # rad/s/sqrt(Hz)
    accel_noise_density: float = 2e-3        # m/s^2/sqrt(Hz)
    gyro_bias_random_walk: float = 1e-5      # rad/s^2/sqrt(Hz)
    accel_bias_random_walk: float = 1e-4     # m/s^3/sqrt(Hz)
    gravity_magnitude: float = 9.81          # m/s^2

    def __post_init__(self):
        for name in ("gyro_noise_density", "accel_noise_density",
                     "gyro_bias_random_walk", "accel_bias_random_walk"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0")


@dataclass
class PreintegratedDelta:
    dt_total: float
    delta_R: Rotation
    delta_p: np.ndarray
    delta_v: np.ndarray
    J_rot: np.ndarray      # d(delta_R tangent)/d(gyro bias), 3x3
    J_pos: np.ndarray      # d(delta_p)/d(bias), 3x6, bias ordered (gyro, accel)
    J_vel: np.ndarray      # d(delta_v)/d(bias), 3x6
    covariance: np.ndarray  # 15x15, blocks (rot, pos, vel, bias walk)
    bias_lin_point: BiasState


def preintegrate(samples: list, bias_hat: BiasState, noise: ImuNoiseModel) -> PreintegratedDelta:
    """Integrate a gravity-free body-frame delta over a sample stream.

    The measurement held over [t_k, t_{k+1}] is the endpoint average, giving
    second-order equivalence with fine-step integration of the underlying
    signal. Covariance rows/cols are ordered (rot, pos, vel, bias walk) and
    the bias-walk block is the random-walk covariance over dt_total.
    """
    if len(samples) < 2:
        raise ValueError("need at least 2 samples to preintegrate")
    ts = np.array([s.timestamp for s in samples], dtype=float)
    if np.any(np.diff(ts) <= 0.0):
        raise ValueError("sample timestamps must be strictly increasing")

    gyro = np.stack([s.gyro for s in samples]) - bias_hat.gyro_bias
    accel = np.stack([s.accel for s in samples]) - bias_hat.accel_bias

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
        bias_lin_point=bias_hat.copy(),
    )
