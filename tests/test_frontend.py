"""Tracking loop tests: keyframe gating, propagation, window upkeep."""

import dataclasses

import numpy as np
import pytest

from vislam import frontend
from vislam.cli import _init_diagnostics
from vislam.evaluation import Trajectory, align_umeyama, ate_rmse, umeyama
from vislam.frontend import (
    MAX_INTERVAL,
    InitConfig,
    KeyframePolicy,
    KeyframeView,
    PHASE_FULL,
    PHASE_INERTIAL,
    PHASE_VISION,
    add_keyframe,
    estimated_trajectory,
    eviction_edge,
    flow_magnitude,
    keyframe_decision,
    make_tracker,
    process_frame,
    propagate_keyframe_state,
)
from vislam.geometry import Pose, Rotation
from vislam.imu import BiasState, ImuNoiseModel, ImuSamples, preintegrate
from vislam.residuals import (
    GravityModel,
    PoseState,
    VisionEdge,
    relative_pose_residual,
)
from vislam.solver import SolveOptions, solve_vi_ba
from vislam.synth import SyntheticProvider, TrajectoryModel, make_dataset
from windows import stacked


# figure8 rather than circle: constant-rate circular motion has constant
# body-frame centripetal acceleration, so a global scale change is exactly
# absorbed by a constant accel bias and scale becomes a gauge direction;
# the figure-eight's varying acceleration keeps scale observable.
FAST_MODEL = TrajectoryModel(family="figure8", amplitude=1.5, period=12.0,
                             duration=12.0, yaw_policy="tangent")


@pytest.fixture(scope="module")
def clean_dataset():
    return make_dataset(FAST_MODEL, sigma_px=0.0)


def _check_window_order(tracker):
    """The inertial edges are the live consecutive pairs in keyframe order,
    oldest first, and no vision edge touches an evicted keyframe."""
    graph = tracker.graph
    ids = [kf.kid for kf in graph.keyframes]
    assert [(i, j) for i, j, _ in graph.inertial_edges] \
        == list(zip(ids, ids[1:]))
    evicted = {row.kid for row in tracker.archive}
    for e in graph.vision_edges:
        assert e.i not in evicted and e.j not in evicted


# These tests keyframe at 2.4 coarse pixels of flow, below the pipeline's
# 7.0, so that the short sequences fill the window quickly.
POLICY = KeyframePolicy(flow_threshold=2.4)


class _Driver:
    """Feeds dataset frames with their IMU slices into a tracker, checking
    the window's order after every frame."""

    def __init__(self, ds, stride=20, policy=POLICY, init_cfg=None):
        self.ds = ds
        self.provider = SyntheticProvider(ds, stride=stride)
        self.tracker = make_tracker(self.provider, policy=policy,
                                    init_cfg=init_cfg,
                                    imu_period=1.0 / ds.imu_rate)
        self.cursor = 0

    def run(self, n_frames):
        end = min(self.cursor + n_frames, self.ds.n_frames())
        for f in range(self.cursor, end):
            t = self.ds.frame_time(f)
            imu = None if f == 0 else \
                self.ds.imu.between(self.ds.frame_time(f - 1), t)
            process_frame(self.tracker, f, t, imu)
            _check_window_order(self.tracker)
        self.cursor = end
        return self.tracker


SMALL_INIT = InitConfig(n_vis_init=6, n_iner_init=10)
SMALL_POLICY = KeyframePolicy(flow_threshold=2.4, window_size=8)


def _record_calls(mp, name, calls):
    """Patch frontend.<name>, where add_keyframe looks it up, to append each
    call's result to calls[name]."""
    inner = getattr(frontend, name)

    def recorded(*args, **kwargs):
        out = inner(*args, **kwargs)
        calls.setdefault(name, []).append(out)
        return out
    mp.setattr(frontend, name, recorded)


@pytest.fixture(scope="module")
def pipeline(clean_dataset):
    """Tracker driven well past full initialization and several evictions;
    init_calls holds what each initializer call returned."""
    driver = _Driver(clean_dataset, policy=SMALL_POLICY, init_cfg=SMALL_INIT)
    driver.init_calls = {}
    with pytest.MonkeyPatch.context() as mp:
        for name in ("init_vision", "run_full_initialization"):
            _record_calls(mp, name, driver.init_calls)
        driver.run(110)
    return driver


class TestKeyframeDecision:
    def test_flow_gate_fires(self):
        assert keyframe_decision(3.0, 0.2, POLICY) is True

    def test_interval_gate_fires(self):
        assert keyframe_decision(1.0, 3.5, POLICY) is True

    def test_quiet_frame_passes(self):
        assert keyframe_decision(1.0, 0.5, POLICY) is False

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            keyframe_decision(-0.1, 0.5, POLICY)
        with pytest.raises(ValueError):
            keyframe_decision(1.0, -0.5, POLICY)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            KeyframePolicy(flow_threshold=0.0)
        with pytest.raises(ValueError):
            KeyframePolicy(window_size=1)
        with pytest.raises(ValueError):
            KeyframePolicy(covis_radius=0)
        with pytest.raises(ValueError):
            KeyframePolicy(solve_iterations=0)


class TestFlowMagnitude:
    def test_dead_rows_excluded(self):
        edge = VisionEdge(
            0, 1,
            pixels=np.array([[10.0, 10.0], [20.0, 10.0], [30.0, 10.0]]),
            targets=np.array([[18.0, 10.0], [28.0, 10.0], [30.0, 10.0]]),
            weights=np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]]))
        assert flow_magnitude(edge) == pytest.approx(1.0)

    def test_all_dead_reads_infinite(self):
        edge = VisionEdge(0, 1, pixels=np.array([[10.0, 10.0]]),
                          targets=np.array([[10.0, 10.0]]),
                          weights=np.zeros((1, 2)))
        assert flow_magnitude(edge) == float("inf")


def _stationary_delta(duration=0.4, rate=200.0, gravity=None,
                      sigma_cov=None):
    """Preintegrated rest interval; optionally overrides the covariance."""
    g = (gravity if gravity is not None else GravityModel()).vector()
    ts = np.arange(int(duration * rate) + 1) / rate
    samples = ImuSamples(ts, np.zeros((len(ts), 3)), np.tile(-g, (len(ts), 1)))
    delta = preintegrate(samples, BiasState(), ImuNoiseModel())
    if sigma_cov is not None:
        delta = dataclasses.replace(delta, covariance=np.eye(15) * (sigma_cov / 15.0))
    return delta


class TestPropagation:
    def test_stationary_state_is_unchanged(self):
        delta = _stationary_delta()
        assert float(np.trace(delta.covariance)) <= 1e-4
        prev = PoseState(Pose.identity(), np.zeros(3), BiasState(), 0.0)
        out = propagate_keyframe_state(prev, delta, GravityModel())
        assert np.linalg.norm(out.pose.translation) < 1e-9
        assert np.linalg.norm((prev.pose.rotation.inverse()
                               * out.pose.rotation).log()) < 1e-9
        assert np.linalg.norm(out.velocity) < 1e-9
        assert out.timestamp == pytest.approx(0.4, abs=1e-12)

    def test_constant_velocity_advances_position(self):
        delta = _stationary_delta()
        v0 = np.array([0.3, -0.2, 0.1])
        prev = PoseState(Pose.identity(), v0.copy(), BiasState(), 1.0)
        out = propagate_keyframe_state(prev, delta, GravityModel())
        assert np.allclose(out.pose.translation, v0 * delta.dt_total,
                           atol=1e-12)
        assert np.allclose(out.velocity, v0, atol=1e-12)

    def test_high_covariance_falls_back_to_previous_pose(self):
        delta = _stationary_delta(sigma_cov=2e-4)
        v0 = np.array([0.3, -0.2, 0.1])
        bias = BiasState([0.01, 0.0, 0.0], [0.0, 0.02, 0.0])
        prev = PoseState(Pose(Rotation.identity(), np.array([1.0, 2.0, 3.0])),
                         v0.copy(), bias, 0.0)
        out = propagate_keyframe_state(prev, delta, GravityModel())
        assert np.array_equal(out.pose.rotation.q, prev.pose.rotation.q)
        assert np.array_equal(out.pose.translation, prev.pose.translation)
        # velocity still comes through the preintegrated delta
        assert np.allclose(out.velocity, v0, atol=1e-12)
        assert np.array_equal(out.bias.gyro_bias, bias.gyro_bias)
        assert np.array_equal(out.bias.accel_bias, bias.accel_bias)

    def test_matches_synthetic_ground_truth_segment(self, clean_dataset):
        ds = clean_dataset
        t0, t5 = ds.frame_time(0), ds.frame_time(5)
        chunk = ds.imu.between(t0, t5)
        delta = preintegrate(chunk, BiasState(), ImuNoiseModel())
        start = PoseState(ds.frame_pose(0), ds.traj.frame_velocities[0])
        out = propagate_keyframe_state(start, delta, ds.gravity)
        truth = ds.frame_pose(5)
        assert np.linalg.norm(out.pose.translation
                              - truth.translation) < 1e-5
        assert np.linalg.norm((out.pose.rotation.inverse()
                               * truth.rotation).log()) < 1e-5
        assert np.linalg.norm(out.velocity
                              - ds.traj.frame_velocities[5]) < 1e-4


def _slice(*stamps):
    """A still IMU slice at the given times."""
    return ImuSamples(stamps, np.zeros((len(stamps), 3)), np.zeros((len(stamps), 3)))


class TestImuBuffer:
    """The tracker checks each IMU slice once, at intake, and keeps none of
    a rejected one."""

    def test_gap_rejected(self):
        tracker = _Driver(make_dataset(FAST_MODEL)).tracker
        tracker.buffer_imu(_slice(0.0))
        with pytest.raises(ValueError, match="gap"):
            tracker.buffer_imu(_slice(0.05))
        # inside one slice as well as across slices
        with pytest.raises(ValueError, match="gap"):
            tracker.buffer_imu(_slice(0.005, 0.01, 0.06))
        assert tracker.imu_buffer.t.tolist() == [0.0]

    def test_disorder_rejected(self):
        tracker = _Driver(make_dataset(FAST_MODEL)).tracker
        tracker.buffer_imu(_slice(0.10))
        with pytest.raises(ValueError, match="order"):
            tracker.buffer_imu(_slice(0.10, 0.10))
        with pytest.raises(ValueError, match="order"):
            tracker.buffer_imu(_slice(0.105, 0.11, 0.11))
        assert tracker.imu_buffer.t.tolist() == [0.10]

    def test_process_frame_skips_boundary_duplicates(self, clean_dataset):
        driver = _Driver(clean_dataset)
        driver.run(3)
        stamps = driver.tracker.imu_buffer.t
        assert len(stamps) > 1 and np.all(np.diff(stamps) > 0.0)

    def test_process_frame_rejects_an_older_sample(self, clean_dataset):
        driver = _Driver(clean_dataset)
        tracker = driver.run(3)
        before = tracker.imu_buffer
        stale = _slice(tracker.imu_buffer.t[-1] - 0.0025)
        with pytest.raises(ValueError, match="order"):
            process_frame(tracker, 3, clean_dataset.frame_time(3), stale)
        assert tracker.imu_buffer is before


class TestEvictionEdge:
    def test_measurement_and_information(self):
        s_i = PoseState(Pose(Rotation.exp([0.1, -0.2, 0.3]),
                             np.array([1.0, 0.0, -1.0])), np.zeros(3))
        s_j = PoseState(Pose(Rotation.exp([-0.2, 0.1, 0.1]),
                             np.array([1.5, 0.4, -0.8])), np.zeros(3))
        delta = _stationary_delta()
        edge = eviction_edge(3, 4, s_i, s_j, delta)
        assert edge.i == 3 and edge.j == 4
        assert isinstance(edge.measurement, Pose)
        out = stacked(relative_pose_residual, [edge], [s_i.pose], [s_j.pose])
        assert np.linalg.norm(out.residual) < 1e-9
        # a rigid edge: the two blocks and no coupling between them
        assert edge.information.shape == (6, 6)
        assert np.all(edge.information[:3, 3:] == 0.0)
        rot_eigs = np.linalg.eigvalsh(edge.information[0:3, 0:3])
        pos_eigs = np.linalg.eigvalsh(edge.information[3:6, 3:6])
        for eigs in (rot_eigs, pos_eigs):
            assert eigs.min() >= 1e-3 - 1e-12
            assert eigs.max() <= 1e8 + 1e-4


class TestPipeline:
    def test_reaches_full_phase_with_staged_reports(self, pipeline):
        assert pipeline.tracker.phase == PHASE_FULL
        calls = pipeline.init_calls
        assert len(calls["init_vision"]) == 1
        [result] = calls["run_full_initialization"]
        assert sorted(result.reports) == ["inertial", "joint", "vision"]

    def test_stage1_fires_exactly_once(self, clean_dataset, monkeypatch):
        calls = {}
        _record_calls(monkeypatch, "init_vision", calls)
        driver = _Driver(clean_dataset, policy=SMALL_POLICY,
                         init_cfg=SMALL_INIT)
        tracker = driver.tracker
        while len(tracker.graph.keyframes) < SMALL_INIT.n_vis_init:
            driver.run(1)
        assert tracker.phase == PHASE_INERTIAL
        assert len(calls["init_vision"]) == 1
        while len(tracker.graph.keyframes) < SMALL_INIT.n_iner_init - 1:
            driver.run(1)
        assert tracker.phase == PHASE_INERTIAL
        assert len(calls["init_vision"]) == 1

    def test_window_holds_at_capacity(self, pipeline):
        tracker = pipeline.tracker
        assert len(tracker.graph.keyframes) == SMALL_POLICY.window_size
        assert len(tracker.archive) >= 3
        kids = [a.kid for a in tracker.archive]
        assert kids == list(range(len(kids)))
        assert [(a.chain_edge.i, a.chain_edge.j) for a in tracker.archive] \
            == [(k, k + 1) for k in kids]

    def test_inertial_edges_cover_consecutive_pairs_only(self, pipeline):
        graph = pipeline.tracker.graph
        ids = [kf.kid for kf in graph.keyframes]
        expected = {(a, b) for a, b in zip(ids, ids[1:])}
        covered = {(i, j) for i, j, _ in graph.inertial_edges}
        assert covered == expected

    def test_keyframe_intervals_bounded(self, pipeline):
        tracker = pipeline.tracker
        traj = estimated_trajectory(tracker)
        gaps = np.diff(traj.timestamps)
        frame_period = 1.0 / pipeline.ds.frame_rate
        assert np.all(gaps <= MAX_INTERVAL + frame_period + 1e-9)

    def test_window_ate_after_polish(self, pipeline):
        tracker = pipeline.tracker
        graph = tracker.graph
        solve_vi_ba(graph, SolveOptions(max_iterations=25))
        stamps = np.array([kf.state.timestamp for kf in graph.keyframes])
        est = Trajectory(stamps, [kf.state.pose for kf in graph.keyframes])
        gt = Trajectory(stamps, [pipeline.ds.frame_pose(
            tracker.frame_of[kf.kid]) for kf in graph.keyframes])
        assert ate_rmse(est, gt, mode="se3") < 1e-3   # cm

    def test_gravity_and_scale_recovered(self, pipeline):
        tracker = pipeline.tracker
        ds = pipeline.ds
        # estimation frame is the body frame of the first keyframe
        R0 = ds.frame_pose(tracker.frame_of[0] if 0 in tracker.frame_of
                           else tracker.archive[0].frame_index).rotation
        g_true_est_frame = R0.inverse().apply(ds.gravity.vector())
        g_est = tracker.graph.gravity.vector()
        cosang = np.dot(g_est, g_true_est_frame) / (
            np.linalg.norm(g_est) * np.linalg.norm(g_true_est_frame))
        assert np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))) < 1.0
        # the window is metric after initialization: sim3 alignment against
        # ground truth needs no residual scale correction
        graph = tracker.graph
        stamps = np.array([kf.state.timestamp for kf in graph.keyframes])
        est = Trajectory(stamps, [kf.state.pose for kf in graph.keyframes])
        gt = Trajectory(stamps, [ds.frame_pose(tracker.frame_of[kf.kid])
                                 for kf in graph.keyframes])
        align = align_umeyama(est, gt, mode="sim3")
        assert abs(align.scale - 1.0) < 0.01
        assert np.isfinite(pipeline.init_calls["run_full_initialization"][0].log_scale)

    def test_estimated_trajectory_is_ordered_and_complete(self, pipeline):
        tracker = pipeline.tracker
        traj = estimated_trajectory(tracker)
        assert len(traj) == len(tracker.archive) + len(tracker.graph.keyframes)
        assert np.all(np.diff(traj.timestamps) > 0)

    def test_exported_chain_is_sequential(self, pipeline):
        for row in pipeline.tracker.archive:
            e = row.chain_edge
            assert e.j == e.i + 1
            assert isinstance(e.measurement, Pose)

    def test_frame_of_holds_only_the_live_window(self, pipeline):
        tracker = pipeline.tracker
        assert tracker.archive
        assert sorted(tracker.frame_of) \
            == [kf.kid for kf in tracker.graph.keyframes]
        # every keyframe's frame is kept once, archive rows then the window
        frames = [row.frame_index for row in tracker.archive] \
            + [tracker.frame_of[kf.kid] for kf in tracker.graph.keyframes]
        assert len(frames) == tracker.next_kid
        assert np.all(np.diff(frames) > 0)

    def test_init_diagnostics_read_an_archived_first_keyframe(self, pipeline):
        assert 0 not in pipeline.tracker.frame_of
        diag = _init_diagnostics(pipeline.tracker, pipeline.ds)
        assert diag["gravity_err_deg"] < 1.0
        # the scale is scored over every keyframe, archived ones included
        rows = KeyframeView(pipeline.tracker).rows()
        S = umeyama(np.stack([r.pose.translation for r in rows]),
                    np.stack([pipeline.ds.frame_pose(r.frame_index).translation
                              for r in rows]), with_scale=True)
        assert diag["scale_err_pct"] == abs(S.scale - 1.0) * 100.0


class _FlakyProvider:
    """Delegating provider that fails for a chosen set of frames: it raises,
    or with dead=True gives their edges the full grid at weight zero."""

    def __init__(self, inner, bad_frames, dead=False):
        self.inner = inner
        self.bad = set(bad_frames)
        self.dead = dead

    def edge(self, i, j):
        if i in self.bad or j in self.bad:
            if self.dead:
                e = self.inner.edge(i, j)
                return VisionEdge(i, j, e.pixels, e.targets, np.zeros_like(e.weights))
            raise ValueError(f"no covisible pixels between frames {i} and {j}")
        return self.inner.edge(i, j)

    def grid_pixels(self):
        return self.inner.grid_pixels()

    def depth_hint(self, i, pixels):
        return self.inner.depth_hint(i, pixels)

    def intrinsics(self):
        return self.inner.intrinsics()


class TestDegraded:
    def test_provider_failure_degrades_keyframe(self, clean_dataset):
        # a raising provider and one whose edges are all dead alike
        ds = clean_dataset
        inner = SyntheticProvider(ds, stride=20)
        bad_frame = 7
        for dead in (False, True):
            provider = _FlakyProvider(inner, [bad_frame], dead)
            tracker = make_tracker(provider, POLICY, imu_period=1.0 / ds.imu_rate)
            for f in range(12):
                t = ds.frame_time(f)
                imu = None if f == 0 else ds.imu.between(ds.frame_time(f - 1), t)
                process_frame(tracker, f, t, imu)
                _check_window_order(tracker)
            assert len(tracker.degraded) == 1
            bad_kid = tracker.degraded[0]
            assert tracker.frame_of[bad_kid] == bad_frame
            for e in tracker.graph.vision_edges:
                assert bad_kid not in (e.i, e.j)
            # later keyframes keep wiring normally
            assert tracker.graph.keyframes[-1].kid not in tracker.degraded


class TestBootstrap:
    def test_first_frame_always_keyframes(self, clean_dataset):
        driver = _Driver(clean_dataset)
        driver.run(1)
        tracker = driver.tracker
        assert len(tracker.graph.keyframes) == 1
        assert tracker.phase == PHASE_VISION
        kf = tracker.graph.keyframes[0]
        assert np.array_equal(kf.state.pose.rotation.q,
                              Rotation.identity().q)
        assert len(kf.disparities) == len(driver.provider.grid_pixels())

    def test_missing_imu_coverage_raises(self, clean_dataset):
        ds = clean_dataset
        provider = SyntheticProvider(ds, stride=20)
        tracker = make_tracker(provider, imu_period=1.0 / ds.imu_rate)
        add_keyframe(tracker, 0, ds.frame_time(0))
        with pytest.raises(ValueError, match="cover"):
            add_keyframe(tracker, 5, ds.frame_time(5))
