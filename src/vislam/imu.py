"""IMU preintegration between keyframe timestamps.

Forster-style preintegrated deltas with bias Jacobians and a discrete-time
linearized covariance (Forster et al., "On-Manifold Preintegration for
Real-Time Visual-Inertial Odometry", T-RO 2017). Each sample interval holds
the average of its endpoint measurements constant (midpoint scheme); position
and velocity accumulate with the rotation taken at the interval midpoint.

An IMU stream is one ImuSamples record of columns: (n,) times and (n, 3)
gyro and accel rows, sliced by time with between(). The record does not
check its values; the tracker checks each slice once, at its intake.

preintegrate works on the stream's columns: every interval's Exp and right
Jacobian, at the full and the half step, come from one stacked Rodrigues
call, and the velocity and position terms are prefix sums. Only the rotation
prefix product, the gyro-bias Jacobian of the rotation and the 9x9
covariance are sequential recursions, and only they run per interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import block_diag, cholesky, solve_triangular

from .geometry import Rotation, hat, readonly, so3_exp_matrix, so3_right_jacobian


@dataclass(frozen=True)
class ImuSamples:
    """An IMU stream as columns: (n,) times t, (n, 3) gyro and accel rows."""

    t: np.ndarray
    gyro: np.ndarray
    accel: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float).reshape(-1)
        object.__setattr__(self, "t", t)
        for name in ("gyro", "accel"):
            object.__setattr__(self, name, np.asarray(
                getattr(self, name), dtype=float).reshape(len(t), 3))

    def __len__(self) -> int:
        return len(self.t)

    def between(self, t0: float, t1: float) -> ImuSamples:
        """The samples stamped in [t0, t1], both ends widened by 1e-9 s;
        the times must be sorted."""
        lo = int(np.searchsorted(self.t, t0 - 1e-9, side="left"))
        hi = int(np.searchsorted(self.t, t1 + 1e-9, side="right"))
        return ImuSamples(self.t[lo:hi], self.gyro[lo:hi], self.accel[lo:hi])


@dataclass(frozen=True)
class BiasState:
    gyro_bias: np.ndarray = field(default_factory=lambda: np.zeros(3))
    accel_bias: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "gyro_bias", readonly(self.gyro_bias, (3,)))
        object.__setattr__(self, "accel_bias", readonly(self.accel_bias, (3,)))
        if not (np.all(np.isfinite(self.gyro_bias)) and np.all(np.isfinite(self.accel_bias))):
            raise ValueError("bias must be finite")

    def vector(self) -> np.ndarray:
        return np.concatenate([self.gyro_bias, self.accel_bias])


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
                     "gyro_bias_random_walk", "accel_bias_random_walk",
                     "gravity_magnitude"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")


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
    # block-diagonal W = diag(L9^-1, Lb^-1) from the Cholesky factors of the
    # (rot, pos, vel) and bias-walk blocks; inertial_residual whitens with it
    whitening: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.covariance = np.asarray(self.covariance, dtype=float).reshape(15, 15)
        try:
            L9 = cholesky(self.covariance[:9, :9], lower=True)
            Lb = cholesky(self.covariance[9:, 9:], lower=True)
        except np.linalg.LinAlgError as exc:
            raise ValueError("non-PSD preintegration covariance") from exc
        self.whitening = block_diag(solve_triangular(L9, np.eye(9), lower=True),
                                    solve_triangular(Lb, np.eye(6), lower=True))


def _running_sums(steps: np.ndarray) -> np.ndarray:
    """Sums of steps[:k] for k = 0..n, accumulated from +0.0 in order, as a
    loop adding each step to zeros would (so a -0.0 step sums to +0.0)."""
    return np.cumsum(np.concatenate([np.zeros((1,) + steps.shape[1:]), steps]), axis=0)


def preintegrate(samples: ImuSamples, bias_hat: BiasState,
                 noise: ImuNoiseModel) -> PreintegratedDelta:
    """Integrate a gravity-free body-frame delta over a sample stream.

    The measurement held over [t_k, t_{k+1}] is the endpoint average, giving
    second-order equivalence with fine-step integration of the underlying
    signal. Covariance rows/cols are ordered (rot, pos, vel, bias walk) and
    the bias-walk block is the random-walk covariance over dt_total.
    """
    if len(samples) < 2:
        raise ValueError("need at least 2 samples to preintegrate")
    ts = samples.t
    if np.any(np.diff(ts) <= 0.0):
        raise ValueError("sample timestamps must be strictly increasing")

    gyro = samples.gyro - bias_hat.gyro_bias
    accel = samples.accel - bias_hat.accel_bias

    # per interval k, stacked: dt (n, 1, 1) against matrices, dt1 (n, 1)
    # against vectors
    n = len(samples) - 1
    dt = np.diff(ts)[:, None, None]
    dt1 = dt[:, 0]
    w = 0.5 * (gyro[:-1] + gyro[1:])
    a = 0.5 * (accel[:-1] + accel[1:])
    rotvecs = np.concatenate([w * dt1, w * (0.5 * dt1)])
    E_full, E_half = np.split(so3_exp_matrix(rotvecs), 2)
    Jr_full, Jr_half = np.split(so3_right_jacobian(rotvecs), 2)

    # dR[k] and J_r[k] hold the values before interval k
    dR = np.empty((n + 1, 3, 3))
    J_r = np.empty((n + 1, 3, 3))
    dR[0] = np.eye(3)
    J_r[0] = 0.0
    for k in range(n):
        dR[k + 1] = dR[k] @ E_full[k]
        J_r[k + 1] = E_full[k].T @ J_r[k] - dt[k] * Jr_full[k]

    R_mid = dR[:-1] @ E_half
    E_half_T = E_half.transpose(0, 2, 1)
    RA = R_mid @ hat(a)
    a_i = (R_mid @ a[..., None])[..., 0]
    # bias Jacobian of the midpoint rotation tangent
    J_mid = E_half_T @ J_r[:-1] - 0.5 * dt * Jr_half
    RA_Jmid = RA @ J_mid

    # error-state propagation, state ordered (theta, p, v)
    RAE = RA @ E_half_T
    A = np.tile(np.eye(9), (n, 1, 1))
    A[:, 0:3, 0:3] = E_full.transpose(0, 2, 1)
    A[:, 3:6, 0:3] = -0.5 * dt * dt * RAE
    A[:, 3:6, 6:9] = dt * np.eye(3)
    A[:, 6:9, 0:3] = -dt * RAE

    RAJ = RA @ Jr_half
    B = np.zeros((n, 9, 6))
    B[:, 0:3, 0:3] = -dt * Jr_full
    B[:, 3:6, 0:3] = 0.25 * dt ** 3 * RAJ
    B[:, 3:6, 3:6] = -0.5 * dt * dt * R_mid
    B[:, 6:9, 0:3] = 0.5 * dt * dt * RAJ
    B[:, 6:9, 3:6] = -dt * R_mid
    # B Q_d B^T with Q_d = diag(sg2/dt (x3), sa2/dt (x3))
    q_d = np.repeat([noise.gyro_noise_density ** 2, noise.accel_noise_density ** 2], 3) / dt1
    BQB = (B * q_d[:, None, :]) @ B.transpose(0, 2, 1)

    cov9 = np.zeros((9, 9))
    for k in range(n):
        cov9 = A[k] @ cov9 @ A[k].T + BQB[k]
        cov9 = 0.5 * (cov9 + cov9.T)

    # bias Jacobians, velocity and position as running sums, laid out as dR;
    # position reads velocity and its Jacobian before their update
    d_bias = np.concatenate([RA_Jmid, R_mid], axis=2)
    J_vel = _running_sums(-dt * d_bias)
    J_pos = _running_sums(dt * J_vel[:-1] - 0.5 * dt * dt * d_bias)
    dv = _running_sums(dt1 * a_i)
    dp = _running_sums(dv[:-1] * dt1 + 0.5 * dt1 * dt1 * a_i)

    dt_total = float(ts[-1] - ts[0])
    cov = np.zeros((15, 15))
    cov[:9, :9] = cov9
    cov[9:12, 9:12] = noise.gyro_bias_random_walk ** 2 * dt_total * np.eye(3)
    cov[12:15, 12:15] = noise.accel_bias_random_walk ** 2 * dt_total * np.eye(3)

    # copies, so the delta does not keep every interval's rows alive
    return PreintegratedDelta(
        dt_total=dt_total,
        delta_R=Rotation.from_matrix(dR[-1]),
        delta_p=dp[-1].copy(),
        delta_v=dv[-1].copy(),
        J_rot=J_r[-1].copy(),
        J_pos=J_pos[-1].copy(),
        J_vel=J_vel[-1].copy(),
        covariance=cov,
        bias_lin_point=bias_hat,
    )
