"""Keyframe tracking loop.

Flow-gated keyframe selection, inertial pose propagation with a covariance
fallback, and sliding-window frame-graph upkeep. The tracker owns a
FrameGraph and drives the staged initializer as the window fills; evicted
keyframes leave behind a rigid relative-pose chain edge and an archived pose
for the global pose graph. The archive and the window are the one record of
every keyframe's pose, provider frame and chain edge: KeyframeView reads
them for the loop worker, and its corrections fold back into them as new
poses through apply_correction. The tracker buffers IMU as one ImuSamples
record, checking each incoming slice once (finite, in time order, no gap
over MAX_IMU_GAP_PERIODS sample periods), and preintegrates the keyframe
interval sliced from it with the record's between().

Correspondences come from a provider object with the interface
edge(frame_i, frame_j) -> VisionEdge, grid_pixels(), depth_hint(frame, px),
intrinsics(). Edges must keep the full pixel grid (dead rows weight zero) so
every edge row aligns with the source keyframe's disparity list.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .evaluation import Trajectory
from .geometry import Pose
from .imu import (
    BiasState,
    ImuNoiseModel,
    ImuSamples,
    PreintegratedDelta,
    preintegrate,
)
from .initialization import init_vision, run_full_initialization
from .residuals import (
    GravityModel,
    PoseState,
    RelativePoseEdge,
    VisionEdge,
    map_eigenvalues,
)
from .solver import FrameGraph, Keyframe, SolveOptions, solve_vi_ba

PHASE_VISION = "vision"
PHASE_INERTIAL = "inertial"
PHASE_FULL = "full"
PHASES = (PHASE_VISION, PHASE_INERTIAL, PHASE_FULL)

MAX_IMU_GAP_PERIODS = 5.0
MAX_INTERVAL = 3.0               # seconds without a keyframe
COV_TRACE_THRESHOLD = 1e-4       # propagation fallback gate
# image pixels per coarse-grid pixel: the 1/8-resolution flow grid of
# DROID-SLAM (Teed & Deng, 2021)
FLOW_SCALE = 8.0


@dataclass
class KeyframePolicy:
    """Keyframe gating threshold and window bookkeeping.

    Each field is the config key tracker.<field> with this default.
    flow_threshold and the loop gates are coarse-grid pixels: raw
    image-space flow is divided by FLOW_SCALE before any comparison.
    """

    flow_threshold: float = 7.0          # coarse-grid pixels
    window_size: int = 12
    covis_radius: int = 3                # nearest neighbors wired per insertion
    solve_iterations: int = 4            # window solve per insertion

    def __post_init__(self):
        if not self.flow_threshold > 0.0:
            raise ValueError("flow_threshold must be positive")
        if self.window_size < 2:
            raise ValueError("window_size must be at least 2")
        for name in ("covis_radius", "solve_iterations"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")


@dataclass
class InitConfig:
    """Window sizes at which the tracker initializes: the vision-only
    stage at n_vis_init keyframes, all three stages at n_iner_init. Each
    field is the config key init.<field> with this default."""

    n_vis_init: int = 10
    n_iner_init: int = 20

    def __post_init__(self):
        if not 2 <= self.n_vis_init <= self.n_iner_init:
            raise ValueError("need n_iner_init >= n_vis_init >= 2")


def keyframe_decision(mean_flow: float, dt_since_last: float,
                      policy: KeyframePolicy) -> bool:
    """True when a frame should become a keyframe.

    Fires on image motion against the last keyframe or on too much elapsed
    time without one, whichever comes first.
    """
    if mean_flow < 0.0 or dt_since_last < 0.0:
        raise ValueError("flow and elapsed time must be non-negative")
    return mean_flow > policy.flow_threshold or dt_since_last >= MAX_INTERVAL


def flow_magnitude(edge: VisionEdge) -> float:
    """Mean correspondence displacement in coarse-grid pixels.

    Zero-weight rows are placeholders for pixels without a valid match and
    are excluded; an edge with no live rows reads as infinite flow.
    """
    live = edge.weights[:, 0] > 0.0
    if not np.any(live):
        return float("inf")
    disp = edge.targets[live] - edge.pixels[live]
    return float(np.mean(np.linalg.norm(disp, axis=1)) / FLOW_SCALE)


def propagate_keyframe_state(prev: PoseState, delta: PreintegratedDelta,
                             gravity: GravityModel) -> PoseState:
    """Seed the next keyframe state from the preintegrated interval.

    Velocity and bias always carry over (velocity through the delta); the
    pose is propagated only while the preintegration covariance trace stays
    at most COV_TRACE_THRESHOLD, otherwise the previous pose is kept and the
    vision solve must pull the keyframe into place.
    """
    dt = delta.dt_total
    g = gravity.vector()
    R_i = prev.pose.rotation
    velocity = prev.velocity + g * dt + R_i.apply(delta.delta_v)
    pose = prev.pose
    if float(np.trace(delta.covariance)) <= COV_TRACE_THRESHOLD:
        pose = Pose(R_i * delta.delta_R,
                    prev.pose.translation + prev.velocity * dt
                    + 0.5 * dt * dt * g + R_i.apply(delta.delta_p))
    return PoseState(pose, velocity, prev.bias, prev.timestamp + dt)


@dataclass
class KeyframeRow:
    """One keyframe as the tracker holds it now: id, provider frame, time
    and current pose."""
    kid: int
    frame_index: int
    timestamp: float
    pose: Pose


@dataclass
class ArchivedKeyframe(KeyframeRow):
    """A keyframe that left the local window, with the chain edge to the
    keyframe that followed it."""
    chain_edge: RelativePoseEdge


def eviction_edge(kid_i: int, kid_j: int, state_i: PoseState,
                  state_j: PoseState, delta: PreintegratedDelta) -> RelativePoseEdge:
    """Rigid chain constraint left behind by an evicted keyframe.

    The measurement is the current relative pose T_i^-1 T_j. Its rotation
    and position information blocks come from the inverted preintegration
    covariance, floored and capped so whitening never goes singular.
    """
    info = np.zeros((6, 6))
    for b in (slice(0, 3), slice(3, 6)):
        info[b, b] = map_eigenvalues(
            delta.covariance[b, b],
            lambda vals: np.clip(1.0 / np.maximum(vals, 1e-12), 1e-3, 1e8))
    return RelativePoseEdge(kid_i, kid_j, state_i.pose.inverse() * state_j.pose, info)


@dataclass
class TrackerState:
    """Everything the tracking loop mutates."""

    provider: object
    policy: KeyframePolicy
    init_cfg: InitConfig
    noise: ImuNoiseModel
    graph: FrameGraph
    phase: str = PHASE_VISION
    imu_buffer: ImuSamples = field(
        default_factory=lambda: ImuSamples([], [], []))
    next_kid: int = 0
    frame_of: dict = field(default_factory=dict)      # live kid -> provider frame
    archive: list = field(default_factory=list)       # ArchivedKeyframe
    degraded: list = field(default_factory=list)      # inertial-only kids
    imu_period: float = 0.005

    def __post_init__(self):
        if self.phase not in PHASES:
            raise ValueError(f"unknown phase {self.phase!r}")

    def buffer_imu(self, samples: ImuSamples) -> None:
        """Append one IMU slice, checked as a whole before any of it is kept.

        A first sample within 1e-12 s of the newest buffered one is the
        boundary sample of the previous slice sent again and is dropped.
        Raises ValueError on a non-finite value, a sample not after the one
        before it, or a gap over MAX_IMU_GAP_PERIODS sample periods.
        """
        buf = self.imu_buffer
        if len(buf) and len(samples) and abs(samples.t[0] - buf.t[-1]) <= 1e-12:
            samples = ImuSamples(samples.t[1:], samples.gyro[1:], samples.accel[1:])
        if not (np.all(np.isfinite(samples.t)) and np.all(np.isfinite(samples.gyro))
                and np.all(np.isfinite(samples.accel))):
            raise ValueError("IMU samples must be finite")
        gaps = np.diff(np.concatenate([buf.t[-1:], samples.t]))
        if np.any(gaps <= 0.0):
            raise ValueError("IMU samples must arrive in time order")
        if np.any(gaps > MAX_IMU_GAP_PERIODS * self.imu_period):
            raise ValueError(
                f"IMU gap of {gaps.max():.4f}s exceeds "
                f"{MAX_IMU_GAP_PERIODS:g} sample periods")
        self.imu_buffer = ImuSamples(np.concatenate([buf.t, samples.t]),
                                     np.concatenate([buf.gyro, samples.gyro]),
                                     np.concatenate([buf.accel, samples.accel]))


def make_tracker(provider, policy: KeyframePolicy | None = None,
                 init_cfg: InitConfig | None = None,
                 noise: ImuNoiseModel | None = None,
                 imu_period: float = 0.005) -> TrackerState:
    """Fresh tracker with an empty window in the provider's camera model."""
    policy = policy if policy is not None else KeyframePolicy()
    init_cfg = init_cfg if init_cfg is not None else InitConfig()
    noise = noise if noise is not None else ImuNoiseModel()
    graph = FrameGraph([], [], [], GravityModel(magnitude=noise.gravity_magnitude),
                       provider.intrinsics())
    return TrackerState(provider, policy, init_cfg, noise, graph,
                        imu_period=imu_period)


def process_frame(tracker: TrackerState, frame_index: int, timestamp: float,
                  imu_samples: ImuSamples | None = None) -> bool:
    """Feed one camera frame plus its IMU slice; True if it keyframed.

    The slice goes through buffer_imu, which drops a first sample that
    repeats the newest buffered one, so callers can pass inclusive
    per-frame slices; an older sample raises ValueError.
    """
    if imu_samples is not None:
        tracker.buffer_imu(imu_samples)
    if not tracker.graph.keyframes:
        add_keyframe(tracker, frame_index, timestamp)
        return True
    last = tracker.graph.keyframes[-1]
    try:
        probe = tracker.provider.edge(tracker.frame_of[last.kid], frame_index)
        flow = flow_magnitude(probe)
    except ValueError:
        flow = float("inf")
    if keyframe_decision(flow, timestamp - last.state.timestamp,
                         tracker.policy):
        add_keyframe(tracker, frame_index, timestamp)
        return True
    return False


def add_keyframe(tracker: TrackerState, frame_index: int,
                 timestamp: float) -> None:
    """Insert one keyframe and run the window solve; mutates the tracker.

    Preintegrates the buffered IMU into an edge to the previous keyframe,
    seeds the new state (inertial propagation once initialized, previous
    pose before that), wires correspondence edges to the nearest window
    neighbors in both directions, fires the staged initializer at the
    configured keyframe counts, then solves and evicts down to the window
    size. A neighbour pair is wired only when both of its edges have a
    live row (weight > 0); a correspondence provider failure or an all-dead
    edge degrades the keyframe to inertial-only instead of raising.
    """
    graph = tracker.graph
    provider = tracker.provider
    kid = tracker.next_kid

    depth = np.asarray(provider.depth_hint(frame_index, provider.grid_pixels()),
                       dtype=float).reshape(-1)
    good = np.isfinite(depth) & (depth > 1e-3)
    disparities = np.where(good, 1.0 / np.where(good, depth, 1.0), 1.0)

    delta = None
    if graph.keyframes:
        last = graph.keyframes[-1]
        chunk = tracker.imu_buffer.between(last.state.timestamp, timestamp)
        if len(chunk) < 2:
            raise ValueError("IMU buffer does not cover the keyframe interval")
        delta = preintegrate(chunk, last.state.bias, tracker.noise)
        state = last.state
        if tracker.phase == PHASE_FULL:
            state = propagate_keyframe_state(state, delta, graph.gravity)
        state = replace(state, timestamp=timestamp)
    else:
        state = PoseState(Pose.identity(), np.zeros(3), BiasState(),
                          timestamp)

    vision_edges = []
    wired = 0
    for neighbor in graph.keyframes[-tracker.policy.covis_radius:]:
        n_frame = tracker.frame_of[neighbor.kid]
        try:
            e_out = provider.edge(frame_index, n_frame)
            e_in = provider.edge(n_frame, frame_index)
        except ValueError:
            continue
        if not (np.any(e_out.weights > 0.0) and np.any(e_in.weights > 0.0)):
            continue
        vision_edges.append(VisionEdge(kid, neighbor.kid, e_out.pixels,
                                       e_out.targets, e_out.weights))
        vision_edges.append(VisionEdge(neighbor.kid, kid, e_in.pixels,
                                       e_in.targets, e_in.weights))
        wired += 1
    if graph.keyframes and wired == 0:
        tracker.degraded.append(kid)

    if delta is not None:
        graph.inertial_edges.append((graph.keyframes[-1].kid, kid, delta))
    graph.keyframes.append(Keyframe(kid, state, disparities))
    graph.vision_edges.extend(vision_edges)
    tracker.frame_of[kid] = frame_index
    tracker.next_kid = kid + 1
    tracker.imu_buffer = tracker.imu_buffer.between(timestamp, np.inf)

    n = len(graph.keyframes)
    if tracker.phase == PHASE_VISION and n >= tracker.init_cfg.n_vis_init:
        init_vision(graph)
        tracker.phase = PHASE_INERTIAL
    elif tracker.phase == PHASE_INERTIAL and n >= tracker.init_cfg.n_iner_init:
        run_full_initialization(graph)
        tracker.phase = PHASE_FULL
    else:
        _tracking_solve(tracker)

    if tracker.phase == PHASE_FULL:
        _evict(tracker)


def _tracking_solve(tracker: TrackerState) -> None:
    """Per-insertion window refinement; vision-only until initialized."""
    graph = tracker.graph
    if len(graph.keyframes) < 2 or not graph.vision_edges:
        return
    opts = SolveOptions(max_iterations=tracker.policy.solve_iterations)
    solve_vi_ba(graph if tracker.phase == PHASE_FULL else graph.vision_only(), opts)


def _evict(tracker: TrackerState) -> None:
    """Shrink the window to size, archiving each evicted keyframe.

    The oldest keyframe leaves first, since removing a mid-chain keyframe
    would break the consecutive inertial cover. Its provider frame moves
    from frame_of into its archive row, so frame_of holds the live window.
    """
    graph = tracker.graph
    evicted = set()
    while len(graph.keyframes) > tracker.policy.window_size:
        old, succ = graph.keyframes.pop(0), graph.keyframes[0]
        _, _, delta = graph.inertial_edges.pop(0)
        tracker.archive.append(ArchivedKeyframe(
            old.kid, tracker.frame_of.pop(old.kid), old.state.timestamp,
            old.state.pose,
            eviction_edge(old.kid, succ.kid, old.state, succ.state, delta)))
        evicted.add(old.kid)
    graph.vision_edges = [e for e in graph.vision_edges
                          if e.i not in evicted and e.j not in evicted]


@dataclass
class KeyframeView:
    """The tracker's record of every keyframe, read in kid order: the
    archive, then the live window. It copies nothing, so each read sees the
    current estimates, with every correction that apply_correction folded
    in."""

    tracker: TrackerState

    def rows(self) -> list:
        """The archived rows themselves, then a KeyframeRow per window
        keyframe."""
        t = self.tracker
        return t.archive + [KeyframeRow(kf.kid, t.frame_of[kf.kid], kf.state.timestamp,
                                        kf.state.pose) for kf in t.graph.keyframes]

    def chain(self) -> list:
        """Relative edges over consecutive kids: each archived row's
        eviction edge, then the window's inertial pairs, built fresh from
        the current estimates at each call."""
        graph = self.tracker.graph
        return ([a.chain_edge for a in self.tracker.archive]
                + [eviction_edge(i, j, graph.kf(i).state, graph.kf(j).state, delta)
                   for i, j, delta in graph.inertial_edges])


def estimated_trajectory(tracker: TrackerState) -> Trajectory:
    """Every keyframe's current pose, archive then window, in time order."""
    rows = KeyframeView(tracker).rows()
    return Trajectory(np.asarray([r.timestamp for r in rows], dtype=float),
                      [r.pose for r in rows])


def apply_correction(tracker: TrackerState, correction) -> int:
    """Fold a rigid pose-graph correction into the window and the archive.

    Every moved keyframe, live or archived, takes its entry's solved pose
    as is, and a window keyframe's world velocity turns by the entry's
    rotation change. Entries whose pose did not move are skipped so
    untouched keyframes stay bit-identical. Raises ValueError, before
    changing anything, on an entry whose scale change is not 1. Returns the
    number of keyframes updated.
    """
    entries = correction.entries
    if any(e.scale_change != 1.0 for e in entries.values()):
        raise ValueError("a tracker correction must be rigid")
    applied = 0
    for kf in tracker.graph.keyframes:
        entry = entries.get(kf.kid)
        if entry is None or not entry.moved():
            continue
        turn = entry.new_pose.rotation * entry.old_pose.rotation.inverse()
        kf.state = replace(kf.state, pose=entry.new_pose,
                           velocity=turn.apply(kf.state.velocity))
        applied += 1
    for row in tracker.archive:
        entry = entries.get(row.kid)
        if entry is None or not entry.moved():
            continue
        row.pose = entry.new_pose
        applied += 1
    return applied
