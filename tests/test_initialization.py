from dataclasses import replace

import numpy as np
import pytest

from vislam.evaluation import umeyama
from vislam.frontend import InitConfig
from vislam.geometry import Pose, Rotation
from vislam.imu import BiasState, ImuNoiseModel, ImuSamples, preintegrate
from vislam.initialization import (
    _InertialOnly,
    init_inertial_only,
    init_joint,
    init_vision,
    linear_alignment,
    run_full_initialization,
)
from vislam.residuals import GravityModel, PoseState
from vislam.solver import FrameGraph, Keyframe, SolveOptions, lm_solve, total_energy

import oracles
from windows import build_window, default_intrinsics, perturb_graph


def _vision_energy(graph):
    return total_energy(graph.vision_only())


def _rescale_graph(graph, k):
    """Scale the window's positions by k (and compensate disparities)."""
    for kf in graph.keyframes:
        st = kf.state
        kf.state = PoseState(Pose(st.pose.rotation, k * st.pose.translation),
                             k * st.velocity, st.bias, st.timestamp)
        kf.disparities = kf.disparities / k


def _seed(graph):
    """Write linear_alignment's velocities and gravity into the window, as
    run_full_initialization does before stage 2."""
    velocities, graph.gravity = linear_alignment(graph)
    for kf, v in zip(graph.keyframes, velocities):
        kf.state = replace(kf.state, velocity=v)


def _init_inertial_from_seed(graph):
    """Stage 2 from run_full_initialization's seed."""
    _seed(graph)
    return init_inertial_only(graph)


class TestInitConfig:
    def test_vision_count_lower_bound(self):
        with pytest.raises(ValueError):
            InitConfig(n_vis_init=1, n_iner_init=5)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            InitConfig(n_vis_init=10, n_iner_init=5)


class TestInitVision:
    def test_recovers_geometry_up_to_similarity(self):
        rng = np.random.default_rng(0)
        graph, truth = build_window(rng, n_kf=8)
        perturb_graph(graph, rng, rot_deg=1.5, trans_m=0.04)
        for kf in graph.keyframes:
            kf.disparities = kf.disparities * rng.uniform(0.97, 1.03, len(kf.disparities))
        report = init_vision(graph)
        assert report.final_cost < report.initial_cost
        est = np.stack([kf.state.pose.translation for kf in graph.keyframes])
        gt = np.stack([t.pose.translation for t in truth])
        S = umeyama(est, gt, with_scale=True)
        aligned = np.stack([S.apply(p) for p in est])
        assert np.max(np.linalg.norm(aligned - gt, axis=1)) < 1e-6

    def test_empty_window_rejected(self):
        graph = FrameGraph(keyframes=[], vision_edges=[], inertial_edges=[],
                           gravity=GravityModel(),
                           intrinsics=build_window(np.random.default_rng(1))[0].intrinsics)
        with pytest.raises(ValueError, match="empty"):
            init_vision(graph)

    def test_depth_rescale_preserves_vision_energy(self):
        rng = np.random.default_rng(2)
        graph, _ = build_window(rng, n_kf=5)
        perturb_graph(graph, rng, rot_deg=0.5, trans_m=0.02)
        before = _vision_energy(graph)
        _rescale_graph(graph, 3.7)
        after = _vision_energy(graph)
        assert abs(after - before) <= 1e-10 * max(before, 1.0)


def _stationary_window(accel_body, n_kf=4, dt=0.25, rate=200.0):
    """A window of keyframes at rest at the origin, with no vision edge,
    whose deltas are preintegrated from constant measurements."""
    keyframes = [Keyframe(k, PoseState(Pose(Rotation.identity(), np.zeros(3)),
                                       np.zeros(3), BiasState(), k * dt))
                 for k in range(n_kf)]
    n_samp = int(dt * rate) + 1
    edges = []
    for k in range(n_kf - 1):
        ts = k * dt + np.arange(n_samp) / rate
        samples = ImuSamples(ts, np.zeros((len(ts), 3)),
                             np.tile(np.asarray(accel_body, dtype=float), (len(ts), 1)))
        edges.append((k, k + 1, preintegrate(samples, BiasState(), ImuNoiseModel())))
    return FrameGraph(keyframes, [], edges, GravityModel(), default_intrinsics())


class TestAlignGravity:
    """The gravity, and the velocities, that linear_alignment fits."""

    def test_stationary_level_rig_gives_identity(self):
        velocities, g = linear_alignment(_stationary_window([0.0, 0.0, -9.81]))
        assert np.linalg.norm(g.R_wg.log()) < 1e-6
        assert g.magnitude == 9.81
        assert np.abs(velocities).max() < 1e-9

    def test_pitched_rig_direction_recovered(self):
        rng = np.random.default_rng(3)
        tilt = Rotation.exp([np.deg2rad(10.0), 0.0, 0.0])
        gravity = GravityModel(tilt)
        graph, _ = build_window(rng, n_kf=6, gravity=gravity)
        graph.gravity = GravityModel()
        _, est = linear_alignment(graph)
        g_true = gravity.vector()
        g_est = est.vector()
        cosang = g_true @ g_est / (np.linalg.norm(g_true) * np.linalg.norm(g_est))
        assert np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))) < 0.1

    def test_estimate_has_no_yaw_component(self):
        rng = np.random.default_rng(4)
        gravity = GravityModel(Rotation.exp([0.15, -0.1, 0.0]))
        graph, _ = build_window(rng, n_kf=5, gravity=gravity)
        _, est = linear_alignment(graph)
        assert abs(est.R_wg.log()[2]) < 1e-12

    def test_energy_invariant_under_yaw_about_gravity(self):
        rng = np.random.default_rng(5)
        graph, _ = build_window(rng, n_kf=5)
        base = total_energy(graph)
        v_base, g_base = linear_alignment(graph)
        yaw = Rotation.exp([0.0, 0.0, 0.8])
        for kf in graph.keyframes:
            st = kf.state
            kf.state = PoseState(Pose(yaw * st.pose.rotation,
                                      yaw.apply(st.pose.translation)),
                                 yaw.apply(st.velocity), st.bias,
                                 st.timestamp)
        rotated = total_energy(graph)
        assert abs(rotated - base) <= 1e-10 * max(base, 1.0)
        # the fit turns with the window: the same gravity, yawed velocities
        v_yawed, g_yawed = linear_alignment(graph)
        assert np.abs(g_yawed.vector() - g_base.vector()).max() < 1e-9
        assert np.abs(v_yawed - yaw.apply(v_base)).max() < 1e-9

    def test_unobservable_direction_rejected(self):
        graph = _stationary_window([0.0, 0.0, 0.0], n_kf=3)
        with pytest.raises(ValueError, match="unobservable"):
            linear_alignment(graph)

    @pytest.mark.parametrize("k", [0.37, 2.5])
    def test_scaled_window_gives_metric_velocities_and_gravity(self, k):
        # noise-free stage-1 positions off by a known factor: the free
        # scale takes the factor, and velocities and gravity come out metric
        rng = np.random.default_rng(17)
        gravity = GravityModel(Rotation.exp([0.12, -0.07, 0.0]))
        graph, truth = build_window(rng, n_kf=6, gravity=gravity)
        graph.gravity = GravityModel()
        for kf in graph.keyframes:
            st = kf.state
            kf.state = replace(st, pose=Pose(st.pose.rotation, k * st.pose.translation),
                               velocity=np.zeros(3))
        velocities, est = linear_alignment(graph)
        assert np.abs(velocities - np.stack([t.velocity for t in truth])).max() < 1e-9
        assert np.abs(est.vector() - gravity.vector()).max() / 9.81 < 1e-9


class TestInertialOnly:
    def test_recovers_doubled_scale(self):
        rng = np.random.default_rng(6)
        graph, _ = build_window(rng, n_kf=8)
        _rescale_graph(graph, 0.5)
        result = _init_inertial_from_seed(graph)
        assert abs(np.exp(result.log_scale) - 2.0) < 0.02

    def test_recovers_injected_gyro_bias(self):
        rng = np.random.default_rng(7)
        true_bias = BiasState([0.01, -0.02, 0.005], [0.03, -0.01, 0.02])
        graph, _ = build_window(rng, n_kf=8, bias=true_bias, bias_hat=BiasState())
        _init_inertial_from_seed(graph)
        for kf in graph.keyframes:
            err = np.linalg.norm(kf.state.bias.gyro_bias - true_bias.gyro_bias)
            assert err < 0.05 * np.linalg.norm(true_bias.gyro_bias)

    def test_metric_input_gives_zero_log_scale(self):
        rng = np.random.default_rng(8)
        graph, _ = build_window(rng, n_kf=8)
        result = _init_inertial_from_seed(graph)
        assert abs(result.log_scale) < 1e-4

    def test_scale_equivariance(self):
        rng = np.random.default_rng(9)
        graph_a, _ = build_window(rng, n_kf=6)
        rng = np.random.default_rng(9)
        graph_b, _ = build_window(rng, n_kf=6)
        k = 1.7
        _rescale_graph(graph_b, k)
        s_a = _init_inertial_from_seed(graph_a).log_scale
        s_b = _init_inertial_from_seed(graph_b).log_scale
        assert abs((s_b - s_a) - (-np.log(k))) < 1e-6

    @pytest.mark.parametrize("lam", [1e-4, 1.0, 1e4])
    def test_assembly_and_step_match_per_edge_oracle(self, lam):
        rng = np.random.default_rng(14)
        graph, _ = build_window(
            rng, n_kf=5, bias=BiasState([0.01, -0.02, 0.005], [0.03, -0.01, 0.02]),
            bias_hat=BiasState([0.004, 0.01, -0.003], [-0.02, 0.015, 0.01]))
        problem = _InertialOnly(graph)
        problem.retract(rng.normal(0.0, 0.05, 9 + 3 * len(graph.keyframes)))
        assert problem.s != 0.0 and np.all(np.abs(problem.velocities) > 0)
        problem.evaluate()
        H, g = oracles.inertial_only_system(problem)
        problem.linearize()
        system = problem.system
        assert np.abs(system.H_pp - H).max() <= 1e-12 * np.abs(H).max()
        assert np.abs(system.g_p - g).max() <= 1e-12 * np.abs(g).max()
        want = oracles.inertial_only_step(H, g, lam)
        assert np.abs(problem.step(lam) - want).max() <= 1e-9 * np.abs(want).max()

    def test_commit_writes_the_solution_into_the_window_once(self):
        rng = np.random.default_rng(15)
        graph, _ = build_window(rng, n_kf=6)
        _rescale_graph(graph, 0.5)
        _seed(graph)
        before = [(kf.state, kf.disparities) for kf in graph.keyframes]
        gravity, vision = graph.gravity, _vision_energy(graph)
        problem = _InertialOnly(graph)
        lm_solve(problem, SolveOptions(max_iterations=5))
        assert problem.s != 0.0
        # the solve moved the problem's values only
        assert graph.gravity is gravity
        for kf, (state, d) in zip(graph.keyframes, before):
            assert kf.state is state and kf.disparities is d
        problem.commit()
        es = float(np.exp(problem.s))
        assert graph.gravity is problem.gravity
        for kf, (state, d), v in zip(graph.keyframes, before, problem.velocities):
            assert np.array_equal(kf.state.pose.translation, es * state.pose.translation)
            assert kf.state.pose.rotation is state.pose.rotation
            assert np.array_equal(kf.disparities, d / es)
            assert np.array_equal(kf.state.velocity, v)
            assert kf.state.bias is problem.bias
        assert abs(_vision_energy(graph) - vision) <= 1e-10 * max(vision, 1.0)

    def test_window_chain_is_checked_when_the_problem_is_built(self):
        rng = np.random.default_rng(16)
        graph, _ = build_window(rng, n_kf=5)
        edges = graph.inertial_edges
        graph.inertial_edges = edges[:1] + edges[2:]
        with pytest.raises(ValueError, match="consecutive"):
            init_inertial_only(graph)
        i, _, delta = edges[0]
        graph.inertial_edges = [(i, 99, delta)] + edges[1:]
        with pytest.raises(ValueError, match="consecutive"):
            init_inertial_only(graph)

    def test_too_few_keyframes_rejected(self):
        rng = np.random.default_rng(10)
        graph, _ = build_window(rng, n_kf=3)
        graph.keyframes = graph.keyframes[:1]
        graph.vision_edges = []
        graph.inertial_edges = []
        with pytest.raises(ValueError):
            init_inertial_only(graph)


class TestJointAndPipeline:
    def test_joint_energy_not_above_stage2(self):
        rng = np.random.default_rng(11)
        graph, _ = build_window(rng, n_kf=8)
        _rescale_graph(graph, 0.6)
        _init_inertial_from_seed(graph)
        stage2_energy = total_energy(graph)
        init_joint(graph)
        assert total_energy(graph) <= stage2_energy + 1e-12

    def test_already_optimal_converges_immediately(self):
        rng = np.random.default_rng(12)
        graph, _ = build_window(rng, n_kf=6)
        report = init_joint(graph)
        assert report.iterations <= 2

    def test_full_pipeline_recovers_gravity_scale_and_bias(self):
        rng = np.random.default_rng(13)
        true_bias = BiasState([0.008, -0.012, 0.004], [0.02, 0.01, -0.015])
        gravity = GravityModel(Rotation.exp([0.06, -0.09, 0.0]))
        graph, truth = build_window(rng, n_kf=10, gravity=gravity,
                                    bias=true_bias, bias_hat=BiasState())
        _rescale_graph(graph, 0.5)
        perturb_graph(graph, rng, rot_deg=0.3, trans_m=0.01, vel=0.01)
        result = run_full_initialization(graph)

        g_true = gravity.vector()
        g_est = graph.gravity.vector()
        cosang = g_true @ g_est / (np.linalg.norm(g_true) * np.linalg.norm(g_est))
        assert np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))) < 0.5
        assert abs(np.exp(result.log_scale) - 2.0) < 0.02
        err = np.linalg.norm(graph.keyframes[-1].state.bias.gyro_bias - true_bias.gyro_bias)
        assert err < 0.05 * np.linalg.norm(true_bias.gyro_bias)
        assert set(result.reports) == {"vision", "inertial", "joint"}

    def test_pipeline_with_pixel_noise_stays_within_tolerance(self):
        rng = np.random.default_rng(14)
        graph, _ = build_window(rng, n_kf=10, n_px=40, vision_weight=1.0 / 0.25 ** 2)
        for edge in graph.vision_edges:
            edge.targets = edge.targets + 0.25 * rng.standard_normal(edge.targets.shape)
        _rescale_graph(graph, 0.5)
        result = run_full_initialization(graph)
        g_est = graph.gravity.vector()
        g_true = GravityModel().vector()
        cosang = g_true @ g_est / (np.linalg.norm(g_true) * np.linalg.norm(g_est))
        assert np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))) < 0.5
        assert abs(np.exp(result.log_scale) - 2.0) < 0.02
