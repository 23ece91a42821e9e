"""Anchored 3D-Gaussian scene map.

Gaussians are spawned by unprojecting keyframe depth, each anchored to the
keyframe that created it. When loop closure moves keyframes, the per-keyframe
pose and scale changes are pushed to the anchored Gaussians as a batch warp,
so the map stays consistent without rebuilding. A small forward splatting
renderer and the color/depth/isotropy losses support evaluation; Gaussians
are never refined by gradient descent here.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .geometry import Pose, Rotation
from .residuals import Intrinsics

DEPTH_SENTINEL = -1.0    # rendered depth where nothing was hit
_MIN_Z = 1e-2            # camera-space near plane for splatting


@dataclass
class Gaussian:
    """One anisotropic Gaussian: geometry in world frame, direct RGB color."""

    mean: np.ndarray
    scales: np.ndarray            # per-axis standard deviations
    orientation: Rotation
    color: np.ndarray             # RGB in [0, 1]
    opacity: float
    anchor: int                   # keyframe id this Gaussian came from

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float).reshape(3)
        self.scales = np.asarray(self.scales, dtype=float).reshape(3)
        self.color = np.asarray(self.color, dtype=float).reshape(3)
        self.opacity = float(self.opacity)
        if np.any(self.scales <= 0.0):
            raise ValueError("Gaussian scales must be strictly positive")
        if not 0.0 <= self.opacity <= 1.0:
            raise ValueError("opacity must lie in [0, 1]")
        if np.any(self.color < 0.0) or np.any(self.color > 1.0):
            raise ValueError("color channels must lie in [0, 1]")

    def covariance(self) -> np.ndarray:
        R = self.orientation.matrix()
        return R @ np.diag(self.scales ** 2) @ R.T


class GaussianMap:
    """Flat Gaussian store plus an anchor index over contiguous id ranges."""

    def __init__(self):
        self.gaussians = []
        self.anchor_ranges = {}       # anchor id -> list of (start, stop)

    def __len__(self) -> int:
        return len(self.gaussians)

    def insert(self, gaussians) -> None:
        """Append a batch, extending each anchor's range list."""
        for g in gaussians:
            start = len(self.gaussians)
            self.gaussians.append(g)
            runs = self.anchor_ranges.setdefault(g.anchor, [])
            if runs and runs[-1][1] == start:
                runs[-1] = (runs[-1][0], start + 1)
            else:
                runs.append((start, start + 1))

    def by_anchor(self, anchor: int) -> list:
        return [self.gaussians[i]
                for start, stop in self.anchor_ranges.get(anchor, [])
                for i in range(start, stop)]

    def check_index(self) -> None:
        """Assert the anchor index covers every Gaussian exactly once."""
        seen = np.zeros(len(self.gaussians), dtype=int)
        for anchor, runs in self.anchor_ranges.items():
            for start, stop in runs:
                for i in range(start, stop):
                    if self.gaussians[i].anchor != anchor:
                        raise AssertionError(
                            f"index claims anchor {anchor} for Gaussian {i}")
                seen[start:stop] += 1
        if len(self.gaussians) and not np.all(seen == 1):
            raise AssertionError("anchor index does not cover the store "
                                 "exactly once")


def spawn_from_keyframe(color: np.ndarray, depth: np.ndarray, pose: Pose,
                        k: Intrinsics, stride: int, anchor: int):
    """Unproject a keyframe's depth into new world-frame Gaussians.

    One Gaussian per strided pixel with valid (finite, positive) depth:
    mean at the unprojected point, isotropic scale equal to the world size
    of a stride-wide pixel footprint at that depth, pixel color, opacity
    0.5. Returns (gaussians, skipped) where skipped counts the strided
    pixels dropped for invalid depth.
    """
    if stride < 1:
        raise ValueError("stride must be at least 1")
    color = np.asarray(color, dtype=float)
    depth = np.asarray(depth, dtype=float)
    if color.shape[:2] != depth.shape or color.shape[2:] != (3,):
        raise ValueError("color must be (h, w, 3) matching the depth image")
    h, w = depth.shape

    vs, us = np.meshgrid(np.arange(0, h, stride), np.arange(0, w, stride),
                         indexing="ij")
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

    gaussians = [Gaussian(mean=means[i], scales=np.full(3, sizes[i]),
                          orientation=Rotation.identity(), color=cols[i],
                          opacity=0.5, anchor=anchor)
                 for i in range(len(z))]
    return gaussians, skipped


def apply_loop_correction(gmap: GaussianMap, correction) -> GaussianMap:
    """Rewarp anchored Gaussians by their keyframe's pose and scale change.

    Per entry with old pose (R-, t-), new pose (R+, t+) and scale change ds:
    means go through mu+ = R+(ds * R-^T (mu- - t-)) + t+, covariances become
    R+ (ds^2 R-^T Sigma R-) R+^T, which keeps the stored factored form by
    rotating the orientation with R+ R-^T and multiplying scales by ds.
    Color and opacity are untouched. Anchors without an entry, and entries
    whose pose and scale did not move, are skipped so those Gaussians stay
    bit-identical.
    """
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
            batch = gmap.gaussians[start:stop]
            means = np.array([g.mean for g in batch])
            local = ds * ((means - old.translation) @ R_minus)
            warped = local @ R_plus.T + new.translation
            for g, mu in zip(batch, warped):
                g.mean = mu
                g.scales = g.scales * ds
                g.orientation = rot_delta * g.orientation
    return gmap


@dataclass
class RenderOutput:
    color: np.ndarray      # (h, w, 3)
    depth: np.ndarray      # (h, w), DEPTH_SENTINEL where alpha is 0
    alpha: np.ndarray      # (h, w) accumulated opacity in [0, 1]


def render(gmap: GaussianMap, pose: Pose, k: Intrinsics,
           background: np.ndarray | None = None) -> RenderOutput:
    """Forward-splat the map into a camera at the given world pose.

    Gaussians are projected with the first-order perspective approximation,
    composited front to back in camera depth order (ties broken by store
    id), and alpha-blended: color picks up the background through the
    remaining transmittance, depth is the alpha-weighted mean of Gaussian
    camera depths. Pixels nothing touched keep the background color, a
    sentinel depth of -1, and alpha 0.
    """
    h, w = k.height, k.width
    bg = np.zeros(3) if background is None else \
        np.asarray(background, dtype=float).reshape(3)
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
            if z <= _MIN_Z:
                continue
            u = k.fx * p[0] / z + k.cx
            v = k.fy * p[1] / z + k.cy
            J = np.array([[k.fx / z, 0.0, -k.fx * p[0] / z ** 2],
                          [0.0, k.fy / z, -k.fy * p[1] / z ** 2]])
            cov_cam = R_cw @ g.covariance() @ R_cw.T
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


@dataclass
class MappingLosses:
    color: float
    depth: float
    iso: float


def mapping_losses(rendered: RenderOutput, ref_color: np.ndarray,
                   ref_depth: np.ndarray, gaussians) -> MappingLosses:
    """Color, depth and isotropy losses of a rendered view.

    Color: mean absolute error over every pixel and channel. Depth: mean
    absolute error over pixels with valid (positive, finite) reference depth
    and nonzero rendered alpha; zero when no pixel qualifies. Isotropy: per
    Gaussian the L1 deviation of its three scales from their mean, averaged
    over the given Gaussians. The three terms are reported apart; a caller
    that needs one weighted objective brings its own weights.
    """
    ref_color = np.asarray(ref_color, dtype=float)
    ref_depth = np.asarray(ref_depth, dtype=float)
    if rendered.color.shape != ref_color.shape:
        raise ValueError("reference color shape does not match the render")
    if rendered.depth.shape != ref_depth.shape:
        raise ValueError("reference depth shape does not match the render")

    l_c = float(np.mean(np.abs(rendered.color - ref_color)))
    mask = np.isfinite(ref_depth) & (ref_depth > 0.0) & (rendered.alpha > 0.0)
    l_d = float(np.mean(np.abs(rendered.depth[mask] - ref_depth[mask]))) \
        if np.any(mask) else 0.0
    if len(gaussians):
        scales = np.array([g.scales for g in gaussians])
        # |s - mean(s)| written as |3s - sum(s)|/3 so perfectly isotropic
        # Gaussians come out exactly zero
        dev = np.abs(3.0 * scales - scales.sum(axis=1, keepdims=True)) / 3.0
        l_iso = float(np.mean(dev.sum(axis=1)))
    else:
        l_iso = 0.0
    return MappingLosses(l_c, l_d, l_iso)


_MAGIC = b"VGSM"
_VERSION = 1
_RECORD = np.dtype([
    ("mean", "<f4", 3),
    ("scales", "<f4", 3),
    ("q", "<f4", 4),          # w, x, y, z
    ("color", "<f4", 3),
    ("opacity", "<f4"),
    ("anchor", "<u4"),
])


def write_vgsm(path, gmap: GaussianMap) -> None:
    """Write the map as a little-endian binary record stream."""
    records = np.zeros(len(gmap), dtype=_RECORD)
    for i, g in enumerate(gmap.gaussians):
        records[i] = (g.mean, g.scales, g.orientation.q, g.color,
                      g.opacity, g.anchor)
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<IQ", _VERSION, len(gmap)))
        f.write(records.tobytes())


def read_vgsm(path) -> GaussianMap:
    """Load a map; a foreign, truncated or corrupt file raises ValueError."""
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != _MAGIC:
            raise ValueError("not a Gaussian map file")
        version, count = struct.unpack("<IQ", f.read(12))
        if version != _VERSION:
            raise ValueError(f"unsupported map file version {version}")
        size = count * _RECORD.itemsize
        # check against the file before reading, so a corrupt count cannot
        # ask for more memory than the file holds
        if os.fstat(f.fileno()).st_size - f.tell() < size:
            raise ValueError("truncated Gaussian map file")
        buf = f.read(size)
    records = np.frombuffer(buf, dtype=_RECORD)
    for name in ("mean", "scales", "q", "color", "opacity"):
        if not np.all(np.isfinite(records[name])):
            raise ValueError(f"corrupt Gaussian map record: non-finite {name}")
    if np.any(np.all(records["q"] == 0.0, axis=1)):
        raise ValueError("corrupt Gaussian map record: zero-norm quaternion")
    gmap = GaussianMap()
    gmap.insert([Gaussian(mean=r["mean"].astype(float),
                          scales=r["scales"].astype(float),
                          orientation=Rotation(r["q"].astype(float)),
                          color=np.clip(r["color"].astype(float), 0.0, 1.0),
                          opacity=min(max(float(r["opacity"]), 0.0), 1.0),
                          anchor=int(r["anchor"]))
                 for r in records])
    return gmap
