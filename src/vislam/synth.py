"""Synthetic trajectories, IMU streams, scenes, and pixel correspondences.

Everything here is analytic and seeded so tests and end-to-end runs are
reproducible bit for bit. A trajectory model (a circle or a figure-eight)
gives closed-form position, velocity, acceleration, and orientation on both
the frame grid and the IMU grid; the IMU synthesizer maps those through the
measurement model (body rates, specific force with gravity removed in the
body frame, bias, optional noise) into one ImuSamples record; the scene is
the interior of a colored box that every camera ray is guaranteed to hit;
correspondences are exact reprojections of raycast surface points with
optional Gaussian pixel noise and uniformly redrawn outliers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Pose, Rotation, quat_from_matrix
from .imu import BiasState, ImuNoiseModel, ImuSamples
from .residuals import GravityModel, Intrinsics, VisionEdge

TRAJECTORY_FAMILIES = ("circle", "figure8")
YAW_POLICIES = ("tangent", "fixed")

# z ripple as a fraction of amplitude, keeps the figure-eight out of a plane
FIGURE8_HEIGHT_RATIO = 0.1
RATE_FD_STEP = 1e-5


@dataclass
class TrajectoryModel:
    """Closed-form trajectory family with C2 position and bounded body rates."""

    family: str = "figure8"
    amplitude: float = 1.0
    period: float = 40.0
    duration: float = 60.0
    yaw_policy: str = "tangent"

    def __post_init__(self):
        if self.family not in TRAJECTORY_FAMILIES:
            raise ValueError(f"unknown trajectory family {self.family!r}")
        if self.yaw_policy not in YAW_POLICIES:
            raise ValueError(f"unknown yaw policy {self.yaw_policy!r}")
        if not 0.0 < self.period < np.inf:
            raise ValueError("period must be positive and finite")
        if not 0.0 < self.duration < np.inf:
            raise ValueError("duration must be positive and finite")
        if not 0.0 <= self.amplitude < np.inf:
            raise ValueError("amplitude must be non-negative and finite")
        if self.yaw_policy == "tangent" and self.amplitude == 0.0:
            raise ValueError("tangent heading is undefined for a static trajectory")


class _Kinematics:
    """Vectorized position/velocity/acceleration plus per-time orientation."""

    def __init__(self, model: TrajectoryModel):
        self.model = model

    def position(self, t):
        t = np.asarray(t, dtype=float)
        A, w = self.model.amplitude, 2.0 * np.pi / self.model.period
        if self.model.family == "circle":
            return np.stack([A * (np.cos(w * t) - 1.0),
                             A * np.sin(w * t),
                             np.zeros_like(t)], axis=-1)
        return np.stack([A * np.sin(w * t),
                         0.5 * A * np.sin(2.0 * w * t),
                         FIGURE8_HEIGHT_RATIO * A * np.sin(2.0 * w * t)], axis=-1)

    def velocity(self, t):
        t = np.asarray(t, dtype=float)
        A, w = self.model.amplitude, 2.0 * np.pi / self.model.period
        if self.model.family == "circle":
            return np.stack([-A * w * np.sin(w * t),
                             A * w * np.cos(w * t),
                             np.zeros_like(t)], axis=-1)
        return np.stack([A * w * np.cos(w * t),
                         A * w * np.cos(2.0 * w * t),
                         2.0 * FIGURE8_HEIGHT_RATIO * A * w * np.cos(2.0 * w * t)],
                        axis=-1)

    def acceleration(self, t):
        t = np.asarray(t, dtype=float)
        A, w = self.model.amplitude, 2.0 * np.pi / self.model.period
        if self.model.family == "circle":
            return np.stack([-A * w * w * np.cos(w * t),
                             -A * w * w * np.sin(w * t),
                             np.zeros_like(t)], axis=-1)
        return np.stack([-A * w * w * np.sin(w * t),
                         -2.0 * A * w * w * np.sin(2.0 * w * t),
                         -4.0 * FIGURE8_HEIGHT_RATIO * A * w * w * np.sin(2.0 * w * t)],
                        axis=-1)

    def rotation_matrices(self, t) -> np.ndarray:
        """Camera-to-world rotations, (n, 3, 3); camera z is the direction
        of travel and camera y leans toward world +z."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if self.model.yaw_policy == "fixed":
            return np.broadcast_to(np.eye(3), (len(t), 3, 3)).copy()
        v = self.velocity(t)
        speed = np.linalg.norm(v, axis=-1)
        if np.any(speed < 1e-9):
            raise ValueError("tangent heading undefined at zero velocity")
        forward = v / speed[:, None]
        lateral = -forward[:, 2:3] * forward
        lateral[:, 2] += 1.0
        norm = np.linalg.norm(lateral, axis=-1)
        if np.any(norm < 1e-6):
            raise ValueError("viewing direction too close to vertical")
        y_axis = lateral / norm[:, None]
        x_axis = np.cross(y_axis, forward)
        return np.stack([x_axis, y_axis, forward], axis=2)

    def body_rates(self, t) -> np.ndarray:
        """Angular velocity in the body frame by central differencing."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if self.model.yaw_policy == "fixed":
            return np.zeros((len(t), 3))
        h = RATE_FD_STEP
        Ra = self.rotation_matrices(t - h)
        Rb = self.rotation_matrices(t + h)
        M = np.einsum("nji,njk->nik", Ra, Rb)
        w = 0.5 * np.stack([M[:, 2, 1] - M[:, 1, 2],
                            M[:, 0, 2] - M[:, 2, 0],
                            M[:, 1, 0] - M[:, 0, 1]], axis=1)
        sin_theta = np.linalg.norm(w, axis=1)
        theta = np.arcsin(np.clip(sin_theta, 0.0, 1.0))
        factor = np.where(sin_theta > 1e-30, theta / np.maximum(sin_theta, 1e-300), 1.0)
        return w * factor[:, None] / (2.0 * h)


@dataclass
class TrajectorySamples:
    """Trajectory evaluated on the frame grid and the IMU grid.

    IMU-grid orientations are stored as an (n, 3, 3) stack of body-to-world
    rotation matrices so the measurement synthesis can stay vectorized.
    """

    model: TrajectoryModel
    frame_times: np.ndarray
    frame_poses: list
    frame_velocities: np.ndarray
    imu_times: np.ndarray
    imu_rotation_matrices: np.ndarray
    imu_body_rates: np.ndarray
    imu_world_accels: np.ndarray


def generate_trajectory(model: TrajectoryModel, frame_rate: float,
                        imu_rate: float) -> TrajectorySamples:
    """Sample the model analytically on the frame and IMU time grids.

    The IMU rate must be an integer multiple of the frame rate so every frame
    timestamp coincides exactly with an IMU sample.
    """
    if not 0.0 < frame_rate < np.inf:
        raise ValueError("frame_rate must be positive and finite")
    if not frame_rate <= imu_rate < np.inf:
        raise ValueError("imu_rate must be finite and at least the frame rate")
    ratio = imu_rate / frame_rate
    if abs(ratio - round(ratio)) > 1e-9:
        raise ValueError("imu_rate must be an integer multiple of frame_rate")

    kin = _Kinematics(model)
    n_frames = int(np.floor(model.duration * frame_rate + 1e-9)) + 1
    n_imu = int(np.floor(model.duration * imu_rate + 1e-9)) + 1
    frame_times = np.arange(n_frames) / frame_rate
    imu_times = np.arange(n_imu) / imu_rate

    frame_pos = kin.position(frame_times)
    frame_vel = kin.velocity(frame_times)
    frame_q = quat_from_matrix(kin.rotation_matrices(frame_times))
    frame_poses = [Pose(Rotation(frame_q[i]), frame_pos[i])
                   for i in range(n_frames)]
    imu_R = kin.rotation_matrices(imu_times)
    imu_rates = kin.body_rates(imu_times)
    imu_accels = kin.acceleration(imu_times)
    return TrajectorySamples(model, frame_times, frame_poses, frame_vel,
                             imu_times, imu_R, imu_rates, imu_accels)


def synthesize_imu(traj: TrajectorySamples, gravity: GravityModel,
                   bias: BiasState | None = None,
                   noise: ImuNoiseModel | None = None,
                   seed: int = 0) -> ImuSamples:
    """IMU stream for a sampled trajectory, on its IMU time grid.

    Gyro is the body angular rate plus bias; accel is the specific force
    R^T (a_world - g) plus bias. The bias is constant over the stream. With
    a noise model, white noise scaled by density * sqrt(rate) is added;
    without one the stream is exact. Deterministic for a given seed.
    """
    if bias is None:
        bias = BiasState()
    g_vec = gravity.vector()
    n = len(traj.imu_times)
    rate = (n - 1) / (traj.imu_times[-1] - traj.imu_times[0]) if n > 1 else 1.0

    gyro = traj.imu_body_rates + bias.gyro_bias
    accel = np.einsum("nji,nj->ni", traj.imu_rotation_matrices,
                      traj.imu_world_accels - g_vec[None, :])
    accel = accel + bias.accel_bias

    if noise is not None:
        rng = np.random.default_rng(seed)
        gyro = gyro + noise.gyro_noise_density * np.sqrt(rate) * rng.standard_normal((n, 3))
        accel = accel + noise.accel_noise_density * np.sqrt(rate) * rng.standard_normal((n, 3))

    return ImuSamples(traj.imu_times, gyro, accel)


@dataclass
class SceneModel:
    """Interior of an axis-aligned colored box centered at the origin.

    The box is convex, so any camera inside it sees exactly one wall along
    every ray and there is no occlusion to resolve. Wall color is a smooth
    per-channel sinusoid of the hit point, drawn from a generator of seed 0,
    so every scene has the same wall pattern.
    """

    half_extent: float = 5.0
    _freqs: np.ndarray = field(init=False, repr=False)
    _phases: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not 0.0 < self.half_extent < np.inf:
            raise ValueError("scene_half_extent must be positive and finite")
        rng = np.random.default_rng(0)
        self._freqs = rng.uniform(0.6, 2.2, size=(3, 3))
        self._phases = rng.uniform(0.0, 2.0 * np.pi, size=3)

    def contains(self, p: np.ndarray) -> bool:
        return bool(np.all(np.abs(np.asarray(p)) < self.half_extent))

    def raycast(self, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        """Ray parameter of the first wall hit for rays origin + s * dirs.

        With camera-frame directions of unit z component the parameter is the
        camera depth of the hit. The origin must be inside the box.
        """
        origin = np.asarray(origin, dtype=float).reshape(3)
        if not self.contains(origin):
            raise ValueError("ray origin outside the scene box")
        dirs = np.asarray(dirs, dtype=float).reshape(-1, 3)
        # a ray from inside leaves through the nearest of the three walls it
        # heads toward; a zero component never reaches its walls (+inf)
        with np.errstate(divide="ignore"):
            s = (np.copysign(self.half_extent, dirs) - origin) / dirs
        return s.min(axis=1)

    def color_at(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float).reshape(-1, 3)
        phase = points @ self._freqs.T + self._phases[None, :]
        return 0.5 + 0.45 * np.sin(phase)


def default_intrinsics() -> Intrinsics:
    return Intrinsics(fx=300.0, fy=300.0, cx=319.5, cy=239.5, width=640, height=480)


def _pixel_grid(width: int, height: int, stride: int) -> np.ndarray:
    us = np.arange(stride // 2, width, stride, dtype=float)
    vs = np.arange(stride // 2, height, stride, dtype=float)
    uu, vv = np.meshgrid(us, vs)
    return np.stack([uu.ravel(), vv.ravel()], axis=1)


def _camera_dirs(k: Intrinsics, pixels: np.ndarray) -> np.ndarray:
    x = (pixels[:, 0] - k.cx) / k.fx
    y = (pixels[:, 1] - k.cy) / k.fy
    return np.stack([x, y, np.ones_like(x)], axis=1)


@dataclass
class SyntheticDataset:
    """Ground-truth trajectory, IMU stream, scene, and noise settings."""

    scene: SceneModel
    intrinsics: Intrinsics
    gravity: GravityModel
    imu_noise: ImuNoiseModel | None
    sigma_px: float
    outlier_rate: float
    seed: int
    frame_rate: float
    imu_rate: float
    traj: TrajectorySamples
    imu: ImuSamples

    def n_frames(self) -> int:
        return len(self.traj.frame_times)

    def frame_time(self, i: int) -> float:
        return float(self.traj.frame_times[i])

    def frame_pose(self, i: int) -> Pose:
        return self.traj.frame_poses[i]

    def depth_at(self, i: int, pixels: np.ndarray) -> np.ndarray:
        """Camera depth of the scene surface behind each pixel of frame i."""
        pose = self.frame_pose(i)
        dirs_cam = _camera_dirs(self.intrinsics, np.asarray(pixels, dtype=float))
        dirs_world = dirs_cam @ pose.rotation.matrix().T
        return self.scene.raycast(pose.translation, dirs_world)

    def raster(self, i: int, scale: int):
        """Rendered (color, depth) images of frame i at 1/scale resolution."""
        k = self.intrinsics
        w, h = k.width // scale, k.height // scale
        pixels = _pixel_grid(w, h, 1)
        pose = self.frame_pose(i)
        dirs_cam = _camera_dirs(k.scaled(w, h), pixels)
        dirs_world = dirs_cam @ pose.rotation.matrix().T
        depth = self.scene.raycast(pose.translation, dirs_world)
        hits = pose.translation[None, :] + depth[:, None] * dirs_world
        color = self.scene.color_at(hits)
        return (color.reshape(h, w, 3).astype(np.float32),
                depth.reshape(h, w).astype(np.float32))


def make_dataset(model: TrajectoryModel, scene: SceneModel | None = None,
                 intrinsics: Intrinsics | None = None,
                 gravity: GravityModel | None = None,
                 bias: BiasState | None = None,
                 imu_noise: ImuNoiseModel | None = None,
                 sigma_px: float = 0.5, outlier_rate: float = 0.0,
                 seed: int = 0, frame_rate: float = 25.0,
                 imu_rate: float = 200.0) -> SyntheticDataset:
    """Build a dataset: trajectory samples and the IMU stream.

    Ground truth is read from the samples: frame_pose(i) and
    traj.frame_velocities[i]; the IMU bias is the constant `bias`.
    """
    scene = scene if scene is not None else SceneModel()
    intrinsics = intrinsics if intrinsics is not None else default_intrinsics()
    gravity = gravity if gravity is not None else GravityModel()
    bias = bias if bias is not None else BiasState()
    if not (0.0 <= sigma_px < np.inf and 0.0 <= outlier_rate < 1.0):
        raise ValueError("sigma_px must be non-negative and finite, outlier_rate in [0, 1)")

    traj = generate_trajectory(model, frame_rate, imu_rate)
    extent = np.max(np.abs(np.stack([p.translation for p in traj.frame_poses])))
    if extent > scene.half_extent - 0.5:
        raise ValueError("trajectory leaves the scene box (or comes closer "
                         "than 0.5 m to a wall)")
    imu = synthesize_imu(traj, gravity, bias=bias, noise=imu_noise, seed=seed)
    return SyntheticDataset(scene, intrinsics, gravity, imu_noise, sigma_px,
                            outlier_rate, seed, frame_rate, imu_rate, traj, imu)


def synthesize_correspondences(dataset: SyntheticDataset, kf_i: int, kf_j: int,
                               seed: int | None = None,
                               stride: int = 8) -> VisionEdge:
    """Correspondence edge from frame kf_i to frame kf_j.

    Source pixels are the full strided grid in frame i, so the edge's rows
    align with the source keyframe's disparity list. Targets are the exact
    reprojections of the raycast surface points into frame j, plus the
    dataset's Gaussian pixel noise; pixels without a valid match get weight
    zero and their own coordinates as placeholder targets. A fraction
    (the dataset's outlier rate) of live targets is redrawn uniformly in
    the image at full weight, so the edge does not say which rows are bad.
    Live weights are 1/sigma^2 (1.0 when sigma is 0). Raises if no grid
    pixel is covisible.
    """
    sigma_px, outlier_rate = dataset.sigma_px, dataset.outlier_rate
    seed = dataset.seed if seed is None else seed
    k = dataset.intrinsics

    pixels = _pixel_grid(k.width, k.height, stride)
    depths = dataset.depth_at(kf_i, pixels)
    dirs_cam = _camera_dirs(k, pixels)
    pose_i = dataset.frame_pose(kf_i)
    pose_j = dataset.frame_pose(kf_j)
    points_w = pose_i.translation[None, :] + \
        (depths[:, None] * dirs_cam) @ pose_i.rotation.matrix().T

    T_ji = pose_j.inverse()
    pts_j = points_w @ T_ji.rotation.matrix().T + T_ji.translation[None, :]
    z = pts_j[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = k.fx * pts_j[:, 0] / z + k.cx
        v = k.fy * pts_j[:, 1] / z + k.cy
    alive = (z > 0.05) & (u >= 0.0) & (u <= k.width - 1.0) \
        & (v >= 0.0) & (v <= k.height - 1.0) & np.isfinite(depths)
    if not np.any(alive):
        raise ValueError(f"no covisible pixels between frames {kf_i} and {kf_j}")

    targets = np.where(alive[:, None], np.stack([u, v], axis=1), pixels)
    n = len(pixels)
    weight_val = 1.0 / (sigma_px * sigma_px) if sigma_px > 0.0 else 1.0
    weights = np.full((n, 2), weight_val)
    weights[~alive] = 0.0

    rng = np.random.default_rng(seed)
    if sigma_px > 0.0:
        noise = sigma_px * rng.standard_normal((n, 2))
        targets = np.where(alive[:, None], targets + noise, targets)
    if outlier_rate > 0.0:
        bad = (rng.random(n) < outlier_rate) & alive
        n_bad = int(np.count_nonzero(bad))
        if n_bad:
            redrawn = np.stack([rng.uniform(0.0, k.width - 1.0, n_bad),
                                rng.uniform(0.0, k.height - 1.0, n_bad)], axis=1)
            targets[bad] = redrawn
    return VisionEdge(i=kf_i, j=kf_j, pixels=pixels, targets=targets, weights=weights)


def edge_seed(base_seed: int, i: int, j: int) -> int:
    """Stable per-edge seed so repeated runs draw identical noise."""
    return (base_seed * 1000003 + 7919 * i + j) % (2 ** 31)


# image pixels per keyframe-raster pixel
RASTER_SCALE = 5


class SyntheticProvider:
    """Correspondence and depth provider backed by a synthetic dataset.

    The tracking frontend is written against this interface: edge(i, j)
    returns a correspondence edge between two frame indices, keyframe_image
    returns (color, depth) rasters for map building.
    """

    def __init__(self, dataset: SyntheticDataset, stride: int = 8):
        side = min(dataset.intrinsics.width, dataset.intrinsics.height)
        if not 1 <= stride < 2 * side:
            raise ValueError("stride must leave at least one grid pixel in the image")
        self.dataset = dataset
        self.stride = stride

    def edge(self, i: int, j: int) -> VisionEdge:
        return synthesize_correspondences(
            self.dataset, i, j, seed=edge_seed(self.dataset.seed, i, j),
            stride=self.stride)

    def grid_pixels(self) -> np.ndarray:
        """The tracked pixel grid every edge of this provider is built on."""
        k = self.dataset.intrinsics
        return _pixel_grid(k.width, k.height, self.stride)

    def depth_hint(self, i: int, pixels: np.ndarray) -> np.ndarray:
        return self.dataset.depth_at(i, pixels)

    def keyframe_image(self, i: int):
        return self.dataset.raster(i, RASTER_SCALE)

    def intrinsics(self) -> Intrinsics:
        return self.dataset.intrinsics
