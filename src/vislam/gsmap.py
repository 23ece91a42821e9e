"""Anchored 3D-Gaussian scene map, stored as columns.

Gaussians are spawned by unprojecting keyframe depth, each anchored to the
keyframe that created it, and kept as one checked `Gaussians` batch (a
column per field of the map file's record). Loop closure warps each run of
one anchor in the anchor column by one batched similarity. A small
forward splatting renderer and the color/depth/isotropy losses support
evaluation; Gaussians are never refined by gradient descent here. The
renderer culls as the 3DGS rasterizer does (Kerbl et al., SIGGRAPH 2023):
a near plane at each splat's own largest scale, and a guard band around
the image for its centre. It composites tile by tile, a chunk of splats at
a time, so its working memory does not grow with splats times pixels.
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
# A splat must also lie past this many of its own largest scale (three would
# cull a 0.5 m splat 1 m away), and its centre must project within the image
# widened by _GUARD of its size per side: 1.3 half fields of view, as in 3DGS.
_NEAR_SCALES = 1.0
_GUARD = 0.15
_TILE = 8                # side of a compositing tile, pixels
_CHUNK = 512             # Gaussians composited at once within a tile

_F32 = np.finfo(np.float32)   # the map file's float range

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


@dataclass
class Gaussian:
    """One anisotropic Gaussian: geometry in world frame, direct RGB color."""

    mean: np.ndarray
    scales: np.ndarray            # per-axis standard deviations
    orientation: Rotation
    color: np.ndarray             # RGB in [0, 1]
    opacity: float
    anchor: int                   # keyframe id this Gaussian came from


class Gaussians:
    """Gaussians as columns: mean (N, 3), scales (N, 3), unit q (N, 4, w first
    and >= 0), color (N, 3), opacity (N,) and anchor (N,), checked once when
    built. Iteration makes `Gaussian` rows that view the columns, one at a
    time."""

    def __init__(self, mean=(), scales=(), q=(), color=(), opacity=(), anchor=()):
        self.mean = np.asarray(mean, dtype=float).reshape(-1, 3)
        n = len(self.mean)
        self.scales = np.asarray(scales, dtype=float).reshape(n, 3)
        self.q = np.asarray(q, dtype=float).reshape(n, 4)
        self.color = np.asarray(color, dtype=float).reshape(n, 3)
        self.opacity = np.asarray(opacity, dtype=float).reshape(n)
        self.anchor = np.asarray(anchor, dtype=np.int64).reshape(n)
        self.check()

    def check(self) -> None:
        """Raise ValueError unless every row keeps the rules, read_vgsm's too,
        at the float32 that write_vgsm stores: mean, scales and q within its
        range, scales and each q's L1 norm at least its smallest normal. Each
        is a negated comparison, so NaN fails it; a range reads min, max."""
        if not len(self):
            return
        if not -_F32.max <= self.mean.min() <= self.mean.max() <= _F32.max:
            raise ValueError("Gaussian mean must be finite in float32")
        q_l1 = np.abs(self.q) @ np.ones(4)
        if not _F32.tiny <= q_l1.min() <= q_l1.max() <= _F32.max:
            raise ValueError("Gaussian q must be finite and non-zero in float32")
        if not _F32.tiny <= self.scales.min() <= self.scales.max() <= _F32.max:
            raise ValueError("Gaussian scales must be positive and finite in float32")
        if not 0.0 <= self.opacity.min() <= self.opacity.max() <= 1.0:
            raise ValueError("opacity must lie in [0, 1]")
        if not 0.0 <= self.color.min() <= self.color.max() <= 1.0:
            raise ValueError("color channels must lie in [0, 1]")
        if not 0 <= self.anchor.min() <= self.anchor.max() < 2 ** 32:
            raise ValueError("anchor must lie in [0, 2**32)")

    def columns(self) -> tuple:
        return self.mean, self.scales, self.q, self.color, self.opacity, self.anchor

    def __len__(self) -> int:
        return len(self.mean)

    def __iter__(self):
        for mean, scales, q, color, opacity, anchor in zip(
                self.mean, self.scales, self.q, self.color,
                self.opacity.tolist(), self.anchor.tolist()):
            yield Gaussian(mean, scales, _rotation(q), color, opacity, anchor)


def _rotation(q: np.ndarray) -> Rotation:
    """A Rotation of q as given (unit, w >= 0); q (4, N) gives matrix() (3, 3, N)."""
    rotation = object.__new__(Rotation)
    rotation.q = q
    return rotation


def _canonical(q: np.ndarray) -> np.ndarray:
    """Rows of q scaled to unit norm with w >= 0, as Rotation stores them."""
    w, x, y, z = q.T
    norm = np.sqrt(w * w + x * x + y * y + z * z)
    return q / np.where(w < 0.0, -norm, norm)[:, None]


class GaussianMap:
    """The map's Gaussians: one checked batch, in insertion order."""

    def __init__(self):
        self.gaussians = Gaussians()

    def __len__(self) -> int:
        return len(self.gaussians)

    def insert(self, batch: Gaussians) -> None:
        """Append a batch's columns to the store's.

        The batch was checked when it was built, so nothing is checked again.
        """
        store = object.__new__(Gaussians)
        (store.mean, store.scales, store.q, store.color, store.opacity,
         store.anchor) = map(np.concatenate, zip(self.gaussians.columns(), batch.columns()))
        self.gaussians = store


def spawn_from_keyframe(color: np.ndarray, depth: np.ndarray, pose: Pose,
                        k: Intrinsics, stride: int, anchor: int):
    """Unproject a keyframe's depth into new world-frame Gaussians.

    One Gaussian per strided pixel with valid (finite, positive) depth:
    mean at the unprojected point, isotropic scale equal to the world size
    of a stride-wide pixel footprint at that depth, pixel color, opacity
    0.5. Returns (batch, skipped) where skipped counts the strided pixels
    dropped for invalid depth.
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
    return Gaussians(means, np.repeat(sizes[:, None], 3, axis=1),
                     np.tile(Rotation.identity().q, (len(z), 1)), np.clip(color[vs, us], 0.0, 1.0),
                     np.full(len(z), 0.5), np.full(len(z), anchor)), skipped


def apply_loop_correction(gmap: GaussianMap, correction) -> GaussianMap:
    """Rewarp anchored Gaussians by their keyframe's pose and scale change.

    Per entry with old pose (R-, t-), new pose (R+, t+) and scale change ds:
    means go through mu+ = R+(ds * R-^T (mu- - t-)) + t+, covariances become
    R+ (ds^2 R-^T Sigma R-) R+^T, which keeps the stored factored form by
    rotating the orientation with R+ R-^T and multiplying scales by ds, one
    run of equal ids in the anchor column at a time (an anchor may have
    several). Color and opacity are untouched. Anchors without an entry, and
    entries whose pose and scale did not move, are skipped so those
    Gaussians stay bit-identical. An entry whose scale change is not
    positive and finite raises before any warp, and a warped batch that fails
    its check raises before it replaces the store.
    """
    if not all(0.0 < e.scale_change < np.inf for e in correction.entries.values()):
        raise ValueError("loop correction scale change must be positive and finite")
    g = gmap.gaussians
    mean, scales, q = g.mean.copy(), g.scales.copy(), g.q.copy()
    starts = np.flatnonzero(np.diff(g.anchor, prepend=-1)).tolist()
    for start, stop in zip(starts, starts[1:] + [len(g)]):
        entry = correction.entries.get(int(g.anchor[start]))
        if entry is None or not entry.moved():
            continue
        ds = float(entry.scale_change)
        old, new = entry.old_pose, entry.new_pose
        R_minus = old.rotation.matrix()
        R_plus = new.rotation.matrix()
        # the product delta * q of quaternion rows is q @ L^T, with L the
        # left-multiplication matrix of delta = (w, x, y, z)
        w, x, y, z = (new.rotation * old.rotation.inverse()).q
        L_T = np.array([[w, x, y, z], [-x, w, z, -y], [-y, -z, w, x], [-z, y, -x, w]])
        run = slice(start, stop)
        local = ds * ((mean[run] - old.translation) @ R_minus)
        mean[run] = local @ R_plus.T + new.translation
        scales[run] *= ds
        q[run] = _canonical(q[run] @ L_T)
    gmap.gaussians = Gaussians(mean, scales, q, g.color, g.opacity, g.anchor)
    return gmap


@dataclass
class RenderOutput:
    color: np.ndarray      # (h, w, 3)
    depth: np.ndarray      # (h, w), DEPTH_SENTINEL where alpha is 0
    alpha: np.ndarray      # (h, w) accumulated opacity in [0, 1]


def render(gmap: GaussianMap, pose: Pose, k: Intrinsics,
           background: np.ndarray | None = None) -> RenderOutput:
    """Forward-splat the map into a camera at the given world pose.

    A Gaussian is culled unless its camera depth is past both `_MIN_Z` and
    its own largest scale, and its centre projects inside the image widened
    by `_GUARD` of the image size on each side; the rest are projected with
    the first-order perspective approximation and splatted over a box of
    three standard deviations plus a pixel. Compositing runs per
    `_TILE`-square tile over the boxes that overlap it, front to back in
    camera depth order (ties broken by store id), `_CHUNK` Gaussians at a
    time with the transmittance carried from chunk to chunk. Color picks
    up the background through the remaining transmittance, depth is the
    alpha-weighted mean of Gaussian camera depths. Pixels nothing touched
    keep the background color, a sentinel depth of -1, and alpha 0.
    """
    h, w = k.height, k.width
    bg = np.zeros(3) if background is None else \
        np.asarray(background, dtype=float).reshape(3)
    color_acc = np.zeros((h, w, 3))
    depth_acc = np.zeros((h, w))
    transmit = np.ones((h, w))

    g = gmap.gaussians
    if len(g):
        T_cw = pose.inverse()
        R_cw = T_cw.rotation.matrix()
        cam = g.mean @ R_cw.T + T_cw.translation
        order = np.flatnonzero(cam[:, 2] > np.maximum(_MIN_Z, _NEAR_SCALES * g.scales.max(axis=1)))
        x, y, z = cam[order].T
        u = k.fx * x / z + k.cx
        v = k.fy * y / z + k.cy
        # pixel centres sit at integers, so the image's edges are -0.5 and w - 0.5
        gu, gv = _GUARD * w, _GUARD * h
        kept = np.flatnonzero((u >= -0.5 - gu) & (u <= w - 0.5 + gu)
                              & (v >= -0.5 - gv) & (v <= h - 0.5 + gv))
        kept = kept[np.argsort(z[kept], kind="stable")]    # store order among equal depths
        order, x, y, z, u, v = order[kept], x[kept], y[kept], z[kept], u[kept], v[kept]
        J = np.zeros((len(order), 2, 3))
        J[:, 0, 0], J[:, 0, 2] = k.fx / z, -k.fx * x / z ** 2
        J[:, 1, 1], J[:, 1, 2] = k.fy / z, -k.fy * y / z ** 2
        R = np.moveaxis(_rotation(g.q[order].T).matrix(), -1, 0)
        cov = R @ (g.scales[order, :, None] ** 2 * np.eye(3)) @ R.mT
        cov2 = J @ (R_cw @ cov @ R_cw.T) @ J.mT + 1e-9 * np.eye(2)
        r = 3.0 * np.sqrt(np.linalg.eigvalsh(cov2).max(axis=1)) + 1.0      # box radius
        boxes = np.clip(np.stack([np.floor(u - r), np.ceil(u + r) + 1, np.floor(v - r),
                                  np.ceil(v + r) + 1], axis=1), 0, [w, w, h, h]).astype(int)

        # the exponent -q/2 is e_uu du^2 + e_uv du dv + e_vv dv^2 at an offset (du, dv)
        P = np.linalg.inv(cov2)
        e_uu, e_uv, e_vv = -0.5 * P[:, 0, 0], -0.5 * (P[:, 0, 1] + P[:, 1, 0]), -0.5 * P[:, 1, 1]
        opacity, rgb = g.opacity[order], g.color[order]
        u0, u1, v0, v1 = boxes.T
        for y0 in range(0, h, _TILE):
            y1 = min(y0 + _TILE, h)
            vs = np.arange(y0, y1)[:, None]
            rows = np.flatnonzero((v0 < y1) & (v1 > y0))
            for x0 in range(0, w, _TILE):
                x1 = min(x0 + _TILE, w)
                us = np.arange(x0, x1)[:, None]
                hits = rows[(u0[rows] < x1) & (u1[rows] > x0)]    # still in depth order
                T = np.ones(((y1 - y0) * (x1 - x0), 1))
                for start in range(0, len(hits), _CHUNK):
                    i = hits[start:start + _CHUNK]
                    du, dv = us - u[i], vs - v[i]                  # (tile w, n), (tile h, n)
                    # -inf outside the box makes alpha exactly 0 there
                    eu = np.where((us >= u0[i]) & (us < u1[i]), e_uu[i] * du * du, -np.inf)
                    ev = np.where((vs >= v0[i]) & (vs < v1[i]), e_vv[i] * dv * dv, -np.inf)
                    e = dv[:, None] * (e_uv[i] * du) + eu + ev[:, None]     # (tile h, tile w, n)
                    a = opacity[i] * np.exp(e.reshape(len(T), len(i)))
                    # each row: the tile's transmittance carried in, then times (1 - a) per Gaussian
                    before = np.cumprod(np.concatenate([T, 1.0 - a], axis=1), axis=1)
                    contrib = before[:, :-1] * a
                    color_acc[y0:y1, x0:x1] += (contrib @ rgb[i]).reshape(y1 - y0, x1 - x0, 3)
                    depth_acc[y0:y1, x0:x1] += (contrib @ z[i]).reshape(y1 - y0, x1 - x0)
                    T = before[:, -1:]
                transmit[y0:y1, x0:x1] = T.reshape(y1 - y0, x1 - x0)

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
                   ref_depth: np.ndarray, gaussians: Gaussians) -> MappingLosses:
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
    # |s - mean(s)| written as |3s - sum(s)|/3 so perfectly isotropic
    # Gaussians come out exactly zero
    s = gaussians.scales
    dev = np.abs(3.0 * s - s.sum(axis=1, keepdims=True)) / 3.0
    l_iso = float(np.mean(dev.sum(axis=1))) if len(s) else 0.0
    return MappingLosses(l_c, l_d, l_iso)


def write_vgsm(path, gmap: GaussianMap) -> None:
    """Write the map as a little-endian binary record stream."""
    records = np.zeros(len(gmap), dtype=_RECORD)
    for name, column in zip(_RECORD.names, gmap.gaussians.columns()):
        records[name] = column
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<IQ", _VERSION, len(gmap)))
        f.write(records.tobytes())


def read_vgsm(path) -> GaussianMap:
    """Load a map; a foreign, truncated or corrupt file raises ValueError."""
    with open(path, "rb") as f:
        header = f.read(16)
        if header[:4] != _MAGIC:
            raise ValueError("not a Gaussian map file")
        if len(header) < 16:
            raise ValueError("truncated Gaussian map file")
        version, count = struct.unpack("<IQ", header[4:])
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
    if np.any(records["scales"] <= 0.0):
        raise ValueError("corrupt Gaussian map record: non-positive scales")
    gmap = GaussianMap()
    q, color = _canonical(records["q"].astype(float)), np.clip(records["color"], 0.0, 1.0)
    gmap.insert(Gaussians(records["mean"], records["scales"], q, color,
                          np.clip(records["opacity"], 0.0, 1.0), records["anchor"]))
    return gmap
