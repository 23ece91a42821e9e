"""Trajectory alignment and accuracy metrics.

Estimated and ground-truth trajectories are associated by nearest timestamp
within a fixed window, aligned by a closed-form least-squares similarity or
rigid transform, and compared by translation RMSE (reported in centimeters)
and by recall against a distance threshold. Ground-truth poses that attract
no estimate within the window count as misses for recall.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Pose, Rotation, SimTransform

ASSOCIATION_WINDOW_S = 0.02


@dataclass
class Trajectory:
    timestamps: np.ndarray
    poses: list

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=float).reshape(-1)
        if len(self.timestamps) != len(self.poses):
            raise ValueError("one pose per timestamp")
        if len(self.timestamps) > 1 and np.any(np.diff(self.timestamps) <= 0):
            raise ValueError("timestamps must be strictly increasing")

    def positions(self) -> np.ndarray:
        if not self.poses:
            return np.zeros((0, 3))
        return np.stack([p.translation for p in self.poses])

    def __len__(self) -> int:
        return len(self.poses)


def write_tum(path, traj: Trajectory, comment: str | None = None) -> None:
    """Text lines `timestamp tx ty tz qx qy qz qw`, '#' for comments."""
    with open(path, "w") as f:
        if comment:
            f.write(f"# {comment}\n")
        for t, pose in zip(traj.timestamps, traj.poses):
            w, x, y, z = (float(v) for v in pose.rotation.q)
            tx, ty, tz = (float(v) for v in pose.translation)
            f.write(f"{float(t)!r} {tx!r} {ty!r} {tz!r} {x!r} {y!r} {z!r} {w!r}\n")


def read_tum(path) -> Trajectory:
    times = []
    poses = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 8:
                raise ValueError(f"{path}:{lineno}: expected 8 fields, got {len(parts)}")
            try:
                vals = [float(p) for p in parts]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric field") from exc
            t, tx, ty, tz, qx, qy, qz, qw = vals
            if not np.all(np.isfinite(vals[:4])):
                raise ValueError(f"{path}:{lineno}: non-finite timestamp or translation")
            norm = np.sqrt(qx * qx + qy * qy + qz * qz + qw * qw)
            if not np.isfinite(norm) or abs(norm - 1.0) > 1e-3:
                raise ValueError(f"{path}:{lineno}: quaternion not unit")
            q = np.array([qw, qx, qy, qz]) / norm
            times.append(t)
            poses.append(Pose(Rotation(q), np.array([tx, ty, tz])))
    return Trajectory(np.array(times), poses)


def associate(est: Trajectory, gt: Trajectory,
              window: float = ASSOCIATION_WINDOW_S) -> list:
    """(gt index, est index) pairs by nearest timestamp within the window."""
    pairs = []
    if len(est) == 0:
        return pairs
    et = est.timestamps
    for gi, t in enumerate(gt.timestamps):
        k = int(np.searchsorted(et, t))
        best, best_dt = -1, window
        for cand in (k - 1, k):
            if 0 <= cand < len(et):
                dt = abs(et[cand] - t)
                if dt <= best_dt:
                    best, best_dt = cand, dt
        if best >= 0:
            pairs.append((gi, best))
    return pairs


def umeyama(src: np.ndarray, dst: np.ndarray, with_scale: bool) -> SimTransform:
    """Least-squares s R src + t = dst over paired 3D point sets."""
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    n = len(src)
    if n < 3:
        raise ValueError("need at least 3 point pairs")
    mu_s = src.mean(axis=0)
    mu_d = dst.mean(axis=0)
    xs = src - mu_s
    xd = dst - mu_d
    cov = xd.T @ xs / n
    U, D, Vt = np.linalg.svd(cov)
    sing = np.linalg.svd(xs, compute_uv=False)
    if sing[1] <= 1e-9 * max(sing[0], 1e-12):
        raise ValueError("degenerate (collinear) point configuration")
    S = np.eye(3)
    if np.linalg.det(U) * np.linalg.det(Vt) < 0:
        S[2, 2] = -1.0
    R = U @ S @ Vt
    if with_scale:
        var_s = (xs ** 2).sum() / n
        scale = float(np.trace(np.diag(D) @ S) / var_s)
    else:
        scale = 1.0
    t = mu_d - scale * (R @ mu_s)
    return SimTransform(Rotation.from_matrix(R), t, scale)


def align_umeyama(est: Trajectory, gt: Trajectory, mode: str = "se3") -> SimTransform:
    """Alignment transform mapping estimated positions onto ground truth."""
    mode = mode.lower()
    if mode not in ("se3", "sim3", "none"):
        raise ValueError(f"unknown alignment mode {mode!r}")
    if mode == "none":
        return SimTransform.identity()
    pairs = associate(est, gt)
    if len(pairs) < 3:
        raise ValueError("fewer than 3 associated pose pairs")
    src = np.stack([est.poses[e].translation for _, e in pairs])
    dst = np.stack([gt.poses[g].translation for g, _ in pairs])
    return umeyama(src, dst, with_scale=(mode == "sim3"))


def ate_rmse(est: Trajectory, gt: Trajectory, mode: str = "se3") -> float:
    """Translation RMSE in centimeters after alignment."""
    S = align_umeyama(est, gt, mode)
    pairs = associate(est, gt)
    if not pairs:
        raise ValueError("no associated pose pairs")
    err2 = 0.0
    for g, e in pairs:
        d = S.apply(est.poses[e].translation) - gt.poses[g].translation
        err2 += float(d @ d)
    return float(np.sqrt(err2 / len(pairs))) * 100.0


def recall_at(est: Trajectory, gt: Trajectory, threshold_cm: float,
              mode: str = "se3") -> float:
    """Percent of ground-truth poses within threshold after alignment.

    Ground-truth poses with no estimate inside the association window are
    misses; an empty or unalignable estimate scores 0.
    """
    if len(gt) == 0:
        raise ValueError("empty ground truth")
    pairs = associate(est, gt)
    try:
        S = align_umeyama(est, gt, mode)
    except ValueError:
        return 0.0
    thr_m = threshold_cm / 100.0
    hits = 0
    for g, e in pairs:
        d = S.apply(est.poses[e].translation) - gt.poses[g].translation
        if np.linalg.norm(d) < thr_m:
            hits += 1
    return 100.0 * hits / len(gt)
