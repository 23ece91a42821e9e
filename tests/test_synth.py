import numpy as np
import pytest

import oracles
from vislam.geometry import Pose, Rotation
from vislam.imu import BiasState, ImuNoiseModel, preintegrate
from vislam.residuals import GravityModel, vision_residual
from vislam.synth import (
    SceneModel,
    SyntheticDataset,
    SyntheticProvider,
    TrajectoryModel,
    TrajectorySamples,
    default_intrinsics,
    edge_seed,
    generate_trajectory,
    make_dataset,
    synthesize_correspondences,
    synthesize_imu,
)
from windows import stacked

# Named trajectory models the tests synthesize from; no test edits one.
MODELS = {
    "circle": TrajectoryModel("circle", amplitude=1.5, period=24.0,
                              duration=30.0, yaw_policy="tangent"),
    "figure8": TrajectoryModel("figure8", amplitude=1.6, period=45.0,
                               duration=60.0, yaw_policy="tangent"),
    "static": TrajectoryModel("circle", amplitude=0.0, period=10.0,
                              duration=10.0, yaw_policy="fixed"),
}


class TestTrajectoryModel:
    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="family"):
            TrajectoryModel(family="helix")

    def test_zero_period_rejected(self):
        with pytest.raises(ValueError, match="period"):
            TrajectoryModel(period=0.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            TrajectoryModel(duration=-1.0)

    def test_static_tangent_rejected(self):
        with pytest.raises(ValueError, match="static|tangent"):
            TrajectoryModel(amplitude=0.0, yaw_policy="tangent")


class TestGenerateTrajectory:
    def test_circle_speed_and_centripetal_accel(self):
        model = TrajectoryModel("circle", amplitude=1.0, period=2.0 * np.pi,
                                duration=6.0)
        traj = generate_trajectory(model, frame_rate=25.0, imu_rate=100.0)
        speeds = np.linalg.norm(traj.frame_velocities, axis=1)
        assert np.max(np.abs(speeds - 1.0)) < 1e-12
        accel_mags = np.linalg.norm(traj.imu_world_accels, axis=1)
        assert np.max(np.abs(accel_mags - 1.0)) < 1e-12

    def test_fixed_yaw_has_zero_body_rate(self):
        model = TrajectoryModel("circle", amplitude=1.0, period=8.0,
                                duration=4.0, yaw_policy="fixed")
        traj = generate_trajectory(model, frame_rate=10.0, imu_rate=50.0)
        assert np.all(traj.imu_body_rates == 0.0)
        assert np.all(traj.imu_rotation_matrices == np.eye(3)[None, :, :])

    @pytest.mark.parametrize("family", ["circle", "figure8"])
    def test_fd_velocity_converges_quadratically(self, family):
        model = MODELS[family]
        errs = []
        for rate in (25.0, 50.0):
            traj = generate_trajectory(model, frame_rate=rate, imu_rate=200.0)
            pos = np.stack([p.translation for p in traj.frame_poses])
            h = 1.0 / rate
            fd = (pos[2:] - pos[:-2]) / (2.0 * h)
            errs.append(np.max(np.abs(fd - traj.frame_velocities[1:-1])))
        ratio = errs[0] / errs[1]
        assert 3.0 < ratio < 5.0

    def test_frame_times_are_exact_imu_times(self):
        model = MODELS["figure8"]
        traj = generate_trajectory(model, frame_rate=25.0, imu_rate=200.0)
        imu_set = set(traj.imu_times.tolist())
        assert all(t in imu_set for t in traj.frame_times.tolist())

    def test_tangent_frames_are_orthonormal_and_forward(self):
        model = MODELS["figure8"]
        traj = generate_trajectory(model, frame_rate=5.0, imu_rate=5.0)
        for i, pose in enumerate(traj.frame_poses):
            R = pose.rotation.matrix()
            assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-12
            assert abs(np.linalg.det(R) - 1.0) < 1e-12
            v = traj.frame_velocities[i]
            forward = v / np.linalg.norm(v)
            assert np.max(np.abs(R[:, 2] - forward)) < 1e-12
            assert R[2, 1] > 0.0  # image-down axis has positive world-z part

    def test_imu_rate_below_frame_rate_rejected(self):
        model = MODELS["circle"]
        with pytest.raises(ValueError, match="at least"):
            generate_trajectory(model, frame_rate=25.0, imu_rate=10.0)

    def test_non_integer_rate_ratio_rejected(self):
        model = MODELS["circle"]
        with pytest.raises(ValueError, match="integer multiple"):
            generate_trajectory(model, frame_rate=25.0, imu_rate=60.0)


class TestSynthesizeImu:
    def test_stationary_measurements(self):
        model = MODELS["static"]
        traj = generate_trajectory(model, frame_rate=10.0, imu_rate=100.0)
        samples = synthesize_imu(traj, GravityModel())
        assert np.array_equal(samples.t, traj.imu_times)
        assert np.all(samples.gyro == 0.0)
        assert np.max(np.abs(np.linalg.norm(samples.accel, axis=1) - 9.81)) < 1e-12

    def test_bias_adds_exactly_without_noise(self):
        model = MODELS["circle"]
        traj = generate_trajectory(model, frame_rate=10.0, imu_rate=100.0)
        bias = BiasState([0.01, -0.02, 0.005], [0.1, 0.02, -0.05])
        clean = synthesize_imu(traj, GravityModel())
        biased = synthesize_imu(traj, GravityModel(), bias=bias)
        assert np.max(np.abs(biased.gyro - clean.gyro - bias.gyro_bias)) < 1e-15
        assert np.max(np.abs(biased.accel - clean.accel - bias.accel_bias)) < 1e-15

    def test_same_seed_is_bit_identical(self):
        model = MODELS["figure8"]
        traj = generate_trajectory(model, frame_rate=25.0, imu_rate=100.0)
        noise = ImuNoiseModel()
        a = synthesize_imu(traj, GravityModel(), noise=noise, seed=11)
        b = synthesize_imu(traj, GravityModel(), noise=noise, seed=11)
        c = synthesize_imu(traj, GravityModel(), noise=noise, seed=12)
        assert np.array_equal(a.gyro, b.gyro) and np.array_equal(a.accel, b.accel)
        assert not np.array_equal(a.gyro, c.gyro)

    def test_noise_magnitude_matches_density(self):
        model = MODELS["static"]
        traj = generate_trajectory(model, frame_rate=10.0, imu_rate=200.0)
        noise = ImuNoiseModel(gyro_noise_density=1e-3, accel_noise_density=1e-2)
        samples = synthesize_imu(traj, GravityModel(), noise=noise, seed=3)
        measured = samples.gyro.std()
        expected = 1e-3 * np.sqrt(200.0)
        assert abs(measured / expected - 1.0) < 0.1

    @pytest.mark.parametrize("name", ["circle", "figure8", "static"])
    def test_round_trip_against_preintegration(self, name):
        """Preintegrating the synthesized stream reproduces the ground-truth
        relative motion between frames, up to the integrator's O(h^2) error."""
        model = MODELS[name]
        bias = BiasState([0.002, -0.001, 0.003], [0.02, -0.01, 0.015])
        gravity = GravityModel(Rotation.exp([0.05, -0.03, 0.0]))
        ds = make_dataset(model, gravity=gravity, bias=bias, seed=0,
                          frame_rate=25.0, imu_rate=200.0)
        g_w = gravity.vector()
        step = 25  # 1 s apart
        n_pairs = 0
        for fi in range(0, ds.n_frames() - step, 4 * step):
            fj = fi + step
            t_i, t_j = ds.frame_time(fi), ds.frame_time(fj)
            delta = preintegrate(ds.imu.between(t_i, t_j), bias, ImuNoiseModel())
            p_i, p_j = ds.frame_pose(fi), ds.frame_pose(fj)
            v_i = ds.traj.frame_velocities[fi]
            v_j = ds.traj.frame_velocities[fj]
            R_i = p_i.rotation.matrix()
            dt = t_j - t_i
            dR_gt = R_i.T @ p_j.rotation.matrix()
            dp_gt = R_i.T @ (p_j.translation - p_i.translation
                             - v_i * dt - 0.5 * dt * dt * g_w)
            dv_gt = R_i.T @ (v_j - v_i - dt * g_w)
            assert np.max(np.abs(delta.delta_R.matrix() - dR_gt)) < 1e-5
            assert np.max(np.abs(delta.delta_p - dp_gt)) < 1e-5
            assert np.max(np.abs(delta.delta_v - dv_gt)) < 1e-5
            n_pairs += 1
        assert n_pairs >= 1


class TestSceneModel:
    def test_axis_ray_depth(self):
        scene = SceneModel(half_extent=5.0)
        s = scene.raycast(np.zeros(3), np.array([[1.0, 0.0, 0.0],
                                                 [0.0, -1.0, 0.0],
                                                 [0.0, 0.0, 1.0]]))
        assert np.max(np.abs(s - 5.0)) < 1e-12

    def test_off_center_ray(self):
        scene = SceneModel(half_extent=5.0)
        s = scene.raycast(np.array([3.0, 0.0, 0.0]), np.array([[1.0, 0.0, 0.0]]))
        assert abs(s[0] - 2.0) < 1e-12

    def test_diagonal_ray_hits_nearest_wall(self):
        scene = SceneModel(half_extent=5.0)
        d = np.array([[1.0, 1.0, 0.0]])
        s = scene.raycast(np.array([4.0, 0.0, 0.0]), d)
        hit = np.array([4.0, 0.0, 0.0]) + s[0] * d[0]
        assert abs(hit[0] - 5.0) < 1e-12
        assert abs(hit[1] - 1.0) < 1e-12

    def test_origin_outside_rejected(self):
        scene = SceneModel(half_extent=2.0)
        with pytest.raises(ValueError, match="outside"):
            scene.raycast(np.array([3.0, 0.0, 0.0]), np.array([[1.0, 0.0, 0.0]]))

    def test_colors_stay_in_unit_range(self):
        scene = SceneModel()
        rng = np.random.default_rng(0)
        c = scene.color_at(rng.uniform(-5, 5, size=(500, 3)))
        assert np.all(c >= 0.0) and np.all(c <= 1.0)

    def test_matches_six_wall_oracle_bit_for_bit(self):
        scene = SceneModel(half_extent=4.0)
        rng = np.random.default_rng(5)
        dirs = rng.normal(size=(400, 3))
        # signed zero components: rays parallel to one or two walls
        dirs[rng.random(dirs.shape) < 0.2] = 0.0
        dirs[rng.random(dirs.shape) < 0.1] = -0.0
        assert np.any(np.signbit(dirs) & (dirs == 0.0))
        dirs = dirs[np.any(dirs != 0.0, axis=1)]
        for origin in rng.uniform(-3.9, 3.9, size=(20, 3)):
            s = scene.raycast(origin, dirs)
            assert np.all(np.isfinite(s) & (s > 0.0))
            assert np.array_equal(s, oracles.raycast(scene, origin, dirs))

    def test_batch_matches_single_rays(self):
        scene = SceneModel(half_extent=4.0)
        rng = np.random.default_rng(1)
        o = np.array([0.5, -1.0, 2.0])
        dirs = rng.normal(size=(40, 3))
        batch = scene.raycast(o, dirs)
        singles = np.array([scene.raycast(o, d[None, :])[0] for d in dirs])
        assert np.array_equal(batch, singles)


class TestDataset:
    def test_trajectory_must_stay_inside_scene(self):
        model = TrajectoryModel("circle", amplitude=6.0, period=20.0, duration=5.0)
        with pytest.raises(ValueError, match="scene box"):
            make_dataset(model)

    def test_depths_are_bounded_by_box_geometry(self):
        ds = make_dataset(MODELS["circle"])
        rng = np.random.default_rng(2)
        pixels = np.stack([rng.uniform(0, 639, 100), rng.uniform(0, 479, 100)], axis=1)
        depths = ds.depth_at(0, pixels)
        assert np.all(depths > 0.5)
        assert np.all(depths < 2.0 * np.sqrt(3.0) * ds.scene.half_extent)

    def test_raster_geometry_matches_depth_query(self):
        ds = make_dataset(MODELS["figure8"])
        color, depth = ds.raster(0, scale=5)
        assert color.shape == (96, 128, 3) and depth.shape == (96, 128)
        assert np.all(depth > 0.0)
        assert np.all((color >= 0.0) & (color <= 1.0))
        ks = ds.intrinsics.scaled(128, 96)
        u, v = 64, 48
        full_px = np.array([[(u + 0.5) / 128.0 * 640.0 - 0.5,
                             (v + 0.5) / 96.0 * 480.0 - 0.5]])
        dir_scaled = np.array([(u - ks.cx) / ks.fx, (v - ks.cy) / ks.fy, 1.0])
        dir_full = np.array([(full_px[0, 0] - 319.5) / 300.0,
                             (full_px[0, 1] - 239.5) / 300.0, 1.0])
        assert np.max(np.abs(dir_scaled - dir_full)) < 1e-12
        assert abs(float(depth[v, u]) - float(ds.depth_at(0, full_px)[0])) < 1e-5

    def test_imu_between_matches_a_full_scan(self):
        model = TrajectoryModel("figure8", amplitude=1.5, period=30.0,
                                duration=2.0)
        ds = make_dataset(model, seed=4)
        rng = np.random.default_rng(4)
        times = ds.traj.imu_times
        frames = [ds.frame_time(f) for f in range(ds.n_frames())]
        intervals = list(zip(frames, frames[1:]))
        intervals += [tuple(np.sort(rng.uniform(-0.1, 2.1, 2)))
                      for _ in range(50)]
        # ends a hair inside and outside the inclusive 1e-9 s margin
        for k in rng.choice(len(times), 20, replace=False):
            for eps in (-2e-9, -1e-9, 0.0, 1e-9, 2e-9):
                intervals += [(times[k] + eps, times[k] + 0.05),
                              (times[k] - 0.05, times[k] + eps)]
        intervals.append((1.0, 0.5))                   # reversed
        for t0, t1 in intervals:
            keep = (t0 - 1e-9 <= times) & (times <= t1 + 1e-9)
            got = ds.imu.between(t0, t1)
            for name in ("t", "gyro", "accel"):
                assert np.array_equal(getattr(got, name),
                                      getattr(ds.imu, name)[keep]), (t0, t1)


def _two_opposed_cameras_dataset():
    """Hand-built dataset with two cameras facing away from each other."""
    model = TrajectoryModel("circle", amplitude=1.0, period=10.0, duration=1.0,
                            yaw_policy="fixed")
    scene = SceneModel(half_extent=5.0)
    p0 = Pose(Rotation.identity(), np.array([0.0, 0.0, -4.0]))
    p1 = Pose(Rotation.exp([0.0, np.pi, 0.0]), np.array([0.0, 0.0, 4.0]))
    traj = TrajectorySamples(
        model=model,
        frame_times=np.array([0.0, 0.04]),
        frame_poses=[p0, p1],
        frame_velocities=np.zeros((2, 3)),
        imu_times=np.array([0.0, 0.04]),
        imu_rotation_matrices=np.stack([np.eye(3), np.eye(3)]),
        imu_body_rates=np.zeros((2, 3)),
        imu_world_accels=np.zeros((2, 3)),
    )
    return SyntheticDataset(scene, default_intrinsics(), GravityModel(),
                            None, 0.0, 0.0, 0, 25.0, 25.0, traj, [])


def live(edge):
    """Rows of a full-grid edge that have a match (weight > 0)."""
    return edge.weights[:, 0] > 0.0


class TestCorrespondences:
    def test_exact_mode_reprojects_with_zero_residual(self):
        ds = make_dataset(MODELS["figure8"], sigma_px=0.0)
        edge = synthesize_correspondences(ds, 10, 14, stride=16)
        d_i = 1.0 / ds.depth_at(10, edge.pixels)
        res = stacked(vision_residual, [edge], [ds.frame_pose(10)], [ds.frame_pose(14)],
                      [d_i], ds.intrinsics)
        assert np.count_nonzero(live(edge)) > 100
        assert np.all(res.valid[0][live(edge)])
        assert np.max(np.abs(res.residual[0][live(edge)])) < 1e-9

    def test_unit_sigma_rms_is_one(self):
        model = MODELS["figure8"]
        exact_ds = make_dataset(model, sigma_px=0.0)
        noisy_ds = make_dataset(model, sigma_px=1.0)
        resids = []
        for fi, fj in ((0, 4), (20, 25), (40, 44)):
            exact = synthesize_correspondences(exact_ds, fi, fj, stride=4)
            noisy = synthesize_correspondences(noisy_ds, fi, fj, stride=4,
                                               seed=edge_seed(7, fi, fj))
            assert np.array_equal(live(exact), live(noisy))
            resids.append((noisy.targets - exact.targets)[live(exact)].ravel())
        all_res = np.concatenate(resids)
        assert all_res.size >= 10_000
        rms = float(np.sqrt(np.mean(all_res ** 2)))
        assert 0.9 < rms < 1.1

    def test_outliers_are_redrawn_at_full_weight(self):
        # the same seed without outliers draws the same noise, so the rows
        # whose targets differ are the redrawn ones
        model = MODELS["circle"]
        clean = synthesize_correspondences(make_dataset(model, sigma_px=0.5), 0, 3,
                                           seed=5, stride=8)
        edge = synthesize_correspondences(
            make_dataset(model, sigma_px=0.5, outlier_rate=0.2), 0, 3, seed=5, stride=8)
        assert np.array_equal(live(edge), live(clean))
        weights, targets = edge.weights[live(edge)], edge.targets[live(edge)]
        is_out = np.any(targets != clean.targets[live(clean)], axis=1)
        assert 0.14 < is_out.mean() < 0.26
        # every live row, redrawn or not, keeps the inlier weight 1/sigma^2
        assert np.all(weights == 1.0 / 0.25)
        # redrawn uniformly in the image; noisy inliers may cross its edge
        redrawn = targets[is_out]
        assert np.all(redrawn[:, 0] >= 0.0) and np.all(redrawn[:, 0] <= 639.0)
        assert np.all(redrawn[:, 1] >= 0.0) and np.all(redrawn[:, 1] <= 479.0)

    def test_no_covisible_pixels_is_an_error(self):
        ds = _two_opposed_cameras_dataset()
        with pytest.raises(ValueError, match="covisible"):
            synthesize_correspondences(ds, 0, 1, stride=8)

    def test_same_seed_reproduces_edge(self):
        ds = make_dataset(MODELS["figure8"], sigma_px=0.8,
                          outlier_rate=0.1)
        a = synthesize_correspondences(ds, 2, 6, seed=42)
        b = synthesize_correspondences(ds, 2, 6, seed=42)
        assert np.array_equal(a.targets, b.targets)
        assert np.array_equal(a.weights, b.weights)

    @pytest.mark.parametrize("name", ["circle", "figure8"])
    def test_nearby_keyframes_share_at_least_100_pixels(self, name):
        ds = make_dataset(MODELS[name], sigma_px=0.0)
        fps = ds.frame_rate
        for gap_s in (0.5, 1.0, 2.0):
            step = int(gap_s * fps)
            for fi in range(0, ds.n_frames() - step, max(1, ds.n_frames() // 6)):
                edge = synthesize_correspondences(ds, fi, fi + step, stride=8)
                assert np.count_nonzero(live(edge)) >= 100


class TestProvider:
    def test_provider_edges_are_deterministic_per_pair(self):
        ds = make_dataset(MODELS["figure8"], sigma_px=0.5, seed=3)
        prov = SyntheticProvider(ds, stride=16)
        e1 = prov.edge(1, 4)
        e2 = prov.edge(1, 4)
        e3 = prov.edge(1, 5)
        assert np.array_equal(e1.targets, e2.targets)
        assert e3.j == 5 and not np.array_equal(e1.targets[: len(e3.targets)],
                                                e3.targets[: len(e1.targets)])

    def test_keyframe_image_is_deterministic(self):
        ds = make_dataset(MODELS["circle"])
        prov = SyntheticProvider(ds)
        c1, d1 = prov.keyframe_image(2)
        c2, d2 = prov.keyframe_image(2)
        assert np.array_equal(c1, c2) and np.array_equal(d1, d2)
