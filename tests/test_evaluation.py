import numpy as np
import pytest

from vislam.evaluation import (
    Trajectory,
    align_umeyama,
    associate,
    ate_rmse,
    read_tum,
    recall_at,
    umeyama,
    write_tum,
)
from vislam.geometry import Pose, Rotation, SimTransform

from oracles import umeyama_alignment_ref


def _random_pose(rng):
    return Pose(Rotation.exp(rng.normal(size=3)), rng.normal(size=3))


def _random_trajectory(rng, n=20, dt=0.1):
    times = dt * np.arange(n)
    poses = [_random_pose(rng) for _ in range(n)]
    return Trajectory(times, poses)


def _transform_trajectory(traj, S: SimTransform):
    poses = []
    for p in traj.poses:
        poses.append(Pose(S.rotation * p.rotation, S.apply(p.translation)))
    return Trajectory(traj.timestamps.copy(), poses)


class TestUmeyama:
    @pytest.mark.parametrize("with_scale", [False, True])
    def test_matches_reference_solution(self, with_scale):
        rng = np.random.default_rng(0)
        for _ in range(20):
            src = rng.normal(size=(12, 3))
            R_true = Rotation.exp(rng.normal(size=3)).matrix()
            s_true = float(np.exp(rng.normal() * 0.3)) if with_scale else 1.0
            dst = s_true * src @ R_true.T + rng.normal(size=3)
            dst += 0.01 * rng.normal(size=dst.shape)
            got = umeyama(src, dst, with_scale=with_scale)
            s_ref, R_ref, t_ref = umeyama_alignment_ref(src, dst, with_scale)
            assert abs(got.scale - s_ref) < 1e-12
            assert np.max(np.abs(got.rotation.matrix() - R_ref)) < 1e-10
            assert np.max(np.abs(got.translation - t_ref)) < 1e-10

    def test_is_least_squares_optimal(self):
        rng = np.random.default_rng(1)
        src = rng.normal(size=(15, 3))
        dst = 1.7 * src @ Rotation.exp([0.3, -0.2, 0.5]).matrix().T + [1, 2, 3]
        dst += 0.05 * rng.normal(size=dst.shape)
        S = umeyama(src, dst, with_scale=True)

        def cost(T):
            mapped = np.stack([T.apply(p) for p in src])
            return float(((mapped - dst) ** 2).sum())

        c0 = cost(S)
        for _ in range(30):
            xi = 1e-3 * rng.normal(size=7)
            moved = S * SimTransform(Rotation.exp(xi[:3]), xi[3:6], np.exp(xi[6]))
            assert cost(moved) >= c0 - 1e-12

    def test_collinear_points_rejected(self):
        src = np.outer(np.arange(5.0), [1.0, 2.0, -0.5])
        with pytest.raises(ValueError, match="collinear|degenerate"):
            umeyama(src, src.copy(), with_scale=False)

    def test_too_few_points_rejected(self):
        pts = np.eye(3)[:2]
        with pytest.raises(ValueError):
            umeyama(pts, pts, with_scale=False)


class TestAlignment:
    def test_identical_trajectories_give_identity(self):
        rng = np.random.default_rng(2)
        traj = _random_trajectory(rng)
        S = align_umeyama(traj, traj, "sim3")
        assert abs(S.scale - 1.0) < 1e-9
        assert np.linalg.norm(S.translation) < 1e-9
        assert np.linalg.norm(S.rotation.log()) < 1e-9

    def test_recovers_rigid_offset(self):
        rng = np.random.default_rng(3)
        gt = _random_trajectory(rng)
        G = SimTransform(Rotation.exp([0.2, -0.4, 0.6]), np.array([1.0, -2.0, 0.5]), 1.0)
        est = _transform_trajectory(gt, G.inverse())
        S = align_umeyama(est, gt, "se3")
        offset = S.inverse() * G
        assert np.linalg.norm(offset.rotation.log()) < 1e-9
        assert np.linalg.norm(offset.translation) < 1e-9
        assert abs(offset.scale - 1.0) < 1e-12

    def test_recovers_scale_factor(self):
        rng = np.random.default_rng(4)
        gt = _random_trajectory(rng)
        est = Trajectory(
            gt.timestamps.copy(),
            [Pose(p.rotation, 0.5 * p.translation) for p in gt.poses],
        )
        S = align_umeyama(est, gt, "sim3")
        assert abs(S.scale - 2.0) < 1e-9

    def test_se3_mode_forces_unit_scale(self):
        rng = np.random.default_rng(5)
        gt = _random_trajectory(rng)
        est = Trajectory(
            gt.timestamps.copy(),
            [Pose(p.rotation, 0.5 * p.translation) for p in gt.poses],
        )
        assert align_umeyama(est, gt, "se3").scale == 1.0

    def test_unknown_mode_rejected(self):
        rng = np.random.default_rng(6)
        traj = _random_trajectory(rng)
        with pytest.raises(ValueError, match="mode"):
            align_umeyama(traj, traj, "procrustes")


class TestAteRmse:
    def test_identical_trajectories_score_zero(self):
        rng = np.random.default_rng(7)
        traj = _random_trajectory(rng)
        assert ate_rmse(traj, traj, "se3") < 1e-12

    def test_half_offset_without_alignment(self):
        n = 10
        times = 0.1 * np.arange(n)
        gt = Trajectory(times, [Pose(Rotation.identity(), np.array([float(i), 0, 0]))
                                for i in range(n)])
        poses = []
        for i in range(n):
            off = 0.02 if i % 2 == 0 else 0.0
            poses.append(Pose(Rotation.identity(), np.array([float(i), off, 0.0])))
        est = Trajectory(times, poses)
        assert abs(ate_rmse(est, gt, "none") - np.sqrt(2.0)) < 1e-9

    def test_rigidly_displaced_estimate_scores_zero(self):
        rng = np.random.default_rng(8)
        gt = _random_trajectory(rng)
        G = SimTransform(Rotation.exp([0.1, 0.7, -0.3]), np.array([4.0, 0.0, -1.0]), 1.0)
        est = _transform_trajectory(gt, G)
        assert ate_rmse(est, gt, "se3") < 1e-9

    def test_invariant_to_common_rigid_motion(self):
        rng = np.random.default_rng(9)
        gt = _random_trajectory(rng)
        noisy = Trajectory(
            gt.timestamps.copy(),
            [Pose(p.rotation, p.translation + 0.01 * rng.normal(size=3)) for p in gt.poses],
        )
        base = ate_rmse(noisy, gt, "se3")
        G = SimTransform(Rotation.exp([-0.5, 0.2, 0.9]), np.array([10.0, -3.0, 2.0]), 1.0)
        moved = _transform_trajectory(noisy, G)
        assert abs(ate_rmse(moved, gt, "se3") - base) < 1e-9

    def test_sim3_never_beats_se3_by_less(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            gt = _random_trajectory(rng, n=15)
            est = Trajectory(
                gt.timestamps.copy(),
                [Pose(p.rotation, 1.1 * p.translation + 0.05 * rng.normal(size=3))
                 for p in gt.poses],
            )
            assert ate_rmse(est, gt, "sim3") <= ate_rmse(est, gt, "se3") + 1e-12

    def test_no_association_is_an_error(self):
        rng = np.random.default_rng(11)
        gt = _random_trajectory(rng)
        est = Trajectory(gt.timestamps + 100.0, list(gt.poses))
        with pytest.raises(ValueError):
            ate_rmse(est, gt, "se3")


class TestRecall:
    def test_identical_trajectories_full_recall(self):
        rng = np.random.default_rng(12)
        traj = _random_trajectory(rng)
        assert recall_at(traj, traj, 5.0, "se3") == 100.0

    def test_empty_estimate_scores_zero(self):
        rng = np.random.default_rng(13)
        gt = _random_trajectory(rng)
        est = Trajectory(np.zeros(0), [])
        assert recall_at(est, gt, 10.0, "se3") == 0.0

    def test_uncovered_ground_truth_counts_as_miss(self):
        n = 10
        times = 0.1 * np.arange(n)
        poses = [Pose(Rotation.identity(), np.array([float(i), (i % 3) * 0.5, (i % 2) * 0.3]))
                 for i in range(n)]
        gt = Trajectory(times, poses)
        est = Trajectory(times[:5], poses[:5])
        assert abs(recall_at(est, gt, 1.0, "se3") - 50.0) < 1e-12

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(14)
        gt = _random_trajectory(rng)
        est = Trajectory(
            gt.timestamps.copy(),
            [Pose(p.rotation, p.translation + 0.03 * rng.normal(size=3)) for p in gt.poses],
        )
        values = [recall_at(est, gt, thr, "se3") for thr in (1.0, 2.0, 5.0, 10.0)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_empty_ground_truth_rejected(self):
        rng = np.random.default_rng(15)
        est = _random_trajectory(rng)
        with pytest.raises(ValueError):
            recall_at(est, Trajectory(np.zeros(0), []), 5.0)


class TestAssociation:
    def test_nearest_within_window(self):
        gt = Trajectory(np.array([0.0, 1.0, 2.0]),
                        [Pose(Rotation.identity(), np.zeros(3)) for _ in range(3)])
        est = Trajectory(np.array([0.015, 1.5, 2.001]),
                         [Pose(Rotation.identity(), np.zeros(3)) for _ in range(3)])
        pairs = associate(est, gt)
        assert pairs == [(0, 0), (2, 2)]


class TestTumFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(16)
        traj = _random_trajectory(rng)
        path = tmp_path / "traj.txt"
        write_tum(path, traj, comment="estimated trajectory")
        back = read_tum(path)
        assert np.array_equal(back.timestamps, traj.timestamps)
        for a, b in zip(back.poses, traj.poses):
            assert np.max(np.abs(a.translation - b.translation)) == 0.0
            assert np.max(np.abs(a.rotation.q - b.rotation.q)) < 1e-15

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "traj.txt"
        path.write_text("# header\n\n0.0 1 2 3 0 0 0 1\n")
        traj = read_tum(path)
        assert len(traj) == 1
        assert np.array_equal(traj.poses[0].translation, [1.0, 2.0, 3.0])

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "traj.txt"
        path.write_text("0.0 1 2 3 0 0 0 1\n0.1 oops 2 3 0 0 0 1\n")
        with pytest.raises(ValueError, match=":2:"):
            read_tum(path)

    @pytest.mark.parametrize("bad", ["nan 1 2 3 0 0 0 1",
                                     "0.1 1 inf 3 0 0 0 1"],
                             ids=["nan_timestamp", "inf_translation"])
    def test_non_finite_field_reports_line_number(self, tmp_path, bad):
        path = tmp_path / "traj.txt"
        path.write_text(f"0.0 1 2 3 0 0 0 1\n{bad}\n")
        with pytest.raises(ValueError, match=":2: non-finite"):
            read_tum(path)

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "traj.txt"
        path.write_text("0.0 1 2 3\n")
        with pytest.raises(ValueError, match="8 fields"):
            read_tum(path)

    def test_non_unit_quaternion_rejected(self, tmp_path):
        path = tmp_path / "traj.txt"
        path.write_text("0.0 1 2 3 0 0 0 2\n")
        with pytest.raises(ValueError, match="quaternion"):
            read_tum(path)


class TestTrajectoryValidation:
    def test_non_increasing_timestamps_rejected(self):
        poses = [Pose(Rotation.identity(), np.zeros(3)) for _ in range(2)]
        with pytest.raises(ValueError, match="increasing"):
            Trajectory(np.array([1.0, 1.0]), poses)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), [Pose(Rotation.identity(), np.zeros(3))])
