"""Gaussian map: spawning, loop rewarping, splatting, losses, export."""

import copy
import struct
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from vislam.cli import build_config, materialize
from vislam.geometry import Pose, Rotation
from vislam.gsmap import (
    _CHUNK,
    _GUARD,
    _MIN_Z,
    _TILE,
    DEPTH_SENTINEL,
    Gaussian,
    GaussianMap,
    Gaussians,
    MappingLosses,
    RenderOutput,
    apply_loop_correction,
    mapping_losses,
    read_vgsm,
    render,
    spawn_from_keyframe,
    write_vgsm,
)
from vislam.loopclosure import CorrectionEntry, LoopCorrection
from vislam.residuals import Intrinsics

import oracles
from oracles import batch

MAP_K = Intrinsics(fx=64.0, fy=64.0, cx=32.0, cy=24.0, width=64, height=48)


def make_gaussian(rng=None, anchor=0, **kw):
    rng = rng or np.random.default_rng(0)
    defaults = dict(mean=rng.normal(0, 1, 3),
                    scales=rng.uniform(0.1, 0.5, 3),
                    orientation=Rotation.exp(rng.normal(0, 0.4, 3)),
                    color=rng.uniform(0, 1, 3),
                    opacity=float(rng.uniform(0.2, 1.0)),
                    anchor=anchor)
    defaults.update(kw)
    return Gaussian(**defaults)


def by_anchor(m: GaussianMap, anchor: int) -> Gaussians:
    """The map's Gaussians of one anchor, in store order."""
    return Gaussians(*(c[m.gaussians.anchor == anchor] for c in m.gaussians.columns()))


def covariance(g: Gaussian) -> np.ndarray:
    R = g.orientation.matrix()
    return R @ np.diag(g.scales ** 2) @ R.T


class TestGaussian:
    """A row is a plain record; its rules apply when it joins a batch."""

    def test_rejects_nonpositive_scales(self):
        with pytest.raises(ValueError, match="scales"):
            batch([make_gaussian(scales=np.array([0.1, 0.0, 0.1]))])

    @pytest.mark.parametrize("o", [-0.1, 1.1])
    def test_rejects_out_of_range_opacity(self, o):
        with pytest.raises(ValueError, match="opacity"):
            batch([make_gaussian(opacity=o)])

    def test_rejects_out_of_range_color(self):
        with pytest.raises(ValueError, match="color"):
            batch([make_gaussian(color=np.array([0.5, 1.2, 0.0]))])


class TestGaussians:
    @pytest.mark.parametrize("field, value, match", [
        ("scales", [0.1, 0.0, 0.1], "scales"),
        ("opacity", 1.1, "opacity"),
        ("opacity", np.nan, "opacity"),
        ("color", [0.5, -0.2, 0.0], "color"),
        # each of these wrote a map file that read_vgsm rejects or misreads
        ("scales", [0.1, np.nan, 0.1], "scales"),
        ("color", [0.5, np.nan, 0.0], "color"),
        ("mean", [np.inf, 0.0, 1.0], "mean"),
        ("q", [0.0, 0.0, 0.0, 0.0], "q"),
        ("anchor", -1, "anchor"),
        # each of these is finite, or positive, in float64 but not in the
        # float32 that write_vgsm stores
        ("mean", [1e39, 0.0, 1.0], "mean"),
        ("scales", [0.1, 1e-50, 0.1], "scales"),
    ])
    def test_batch_applies_the_row_rules(self, field, value, match):
        rows = [make_gaussian(anchor=1) for _ in range(3)]
        cols = dict(zip(("mean", "scales", "q", "color", "opacity", "anchor"),
                        (c.copy() for c in batch(rows).columns())))
        cols[field][1] = value
        with pytest.raises(ValueError, match=match):
            Gaussians(**cols)

    def test_rows_view_the_columns(self):
        rows = [make_gaussian(np.random.default_rng(i), anchor=i)
                for i in range(3)]
        b = batch(rows)
        assert len(b) == 3
        for row, want in zip(b, rows):
            assert np.array_equal(row.mean, want.mean)
            assert np.array_equal(row.scales, want.scales)
            assert np.array_equal(row.orientation.q, want.orientation.q)
            assert np.array_equal(row.color, want.color)
            assert row.opacity == want.opacity
            assert row.anchor == want.anchor
            assert np.shares_memory(row.mean, b.mean)
            assert np.shares_memory(row.scales, b.scales)
            assert np.shares_memory(row.orientation.q, b.q)

    def test_accepted_batches_round_trip_the_map_file(self, tmp_path):
        # the extremes of each float32 rule that the check still accepts
        f32 = np.finfo(np.float32)
        b = Gaussians(mean=[[f32.max, -f32.max, 0.0]] * 2,
                      scales=[[f32.tiny, f32.max, 1.0]] * 2,
                      q=[[f32.tiny, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]],
                      color=[[0.0, 1.0, 0.5]] * 2, opacity=[0.0, 1.0], anchor=[0, 2 ** 32 - 1])
        m = GaussianMap()
        m.insert(b)
        write_vgsm(tmp_path / "map.vgsm", m)
        back = read_vgsm(tmp_path / "map.vgsm")
        assert back.gaussians.mean.tobytes() == b.mean.astype(np.float32).astype(float).tobytes()
        assert back.gaussians.scales.tobytes() == b.scales.astype(np.float32).astype(float).tobytes()
        assert np.array_equal(back.gaussians.q, [[1.0, 0.0, 0.0, 0.0]] * 2)
        assert np.array_equal(back.gaussians.anchor, b.anchor)

    def test_iteration_keeps_no_row(self):
        b = batch([make_gaussian(anchor=0) for _ in range(3)])
        rows = iter(b)
        first = weakref.ref(next(rows))
        next(rows)
        assert first() is None


class TestGaussianMap:
    def test_insert_appends_to_the_anchor_column(self):
        m = GaussianMap()
        m.insert(batch([make_gaussian(anchor=1) for _ in range(3)]))
        m.insert(batch([make_gaussian(anchor=2) for _ in range(2)]))
        m.insert(batch([make_gaussian(anchor=1) for _ in range(1)]))
        assert len(m) == 6
        assert m.gaussians.anchor.tolist() == [1, 1, 1, 2, 2, 1]
        assert len(by_anchor(m, 1)) == 4
        assert len(by_anchor(m, 2)) == 2
        assert len(by_anchor(m, 99)) == 0

    def test_insert_runs_no_check(self, monkeypatch):
        m = GaussianMap()
        m.insert(batch([make_gaussian(anchor=1) for _ in range(3)]))
        new = batch([make_gaussian(anchor=2) for _ in range(2)])
        checked = []
        check = Gaussians.check
        monkeypatch.setattr(Gaussians, "check", lambda g: checked.append(g) or check(g))
        m.insert(new)
        assert checked == []

    def test_inserts_concatenate_the_batches_bytewise(self):
        rng = np.random.default_rng(31)
        batches = [batch([make_gaussian(rng, anchor=a) for _ in range(n)])
                   for a, n in ((1, 3), (2, 0), (2, 1), (1, 4))]
        m = GaussianMap()
        for b in batches:
            m.insert(b)
        want = Gaussians(*map(np.concatenate, zip(*(b.columns() for b in batches))))
        for got_column, want_column in zip(m.gaussians.columns(), want.columns()):
            assert got_column.dtype == want_column.dtype
            assert got_column.shape == want_column.shape
            assert got_column.tobytes() == want_column.tobytes()

    @pytest.mark.parametrize("field, value", [
        ("scales", -1.0), ("opacity", 1.5), ("color", -0.1)])
    def test_bad_batch_raises_and_leaves_the_map_unchanged(self, field, value):
        m = GaussianMap()
        m.insert(batch([make_gaussian(anchor=1) for _ in range(3)]))
        columns = [c.copy() for c in m.gaussians.columns()]
        bad = batch([make_gaussian(anchor=2) for _ in range(2)])
        cols = dict(zip(("mean", "scales", "q", "color", "opacity", "anchor"), bad.columns()))
        cols[field][1] = value
        with pytest.raises(ValueError, match=field):
            m.insert(Gaussians(**cols))           # the batch raises as it is built
        assert all(a.tobytes() == b.tobytes() for a, b in zip(m.gaussians.columns(), columns))


class TestSpawn:
    def blank(self, center_depth=None):
        color = np.zeros((48, 64, 3))
        depth = np.zeros((48, 64))
        if center_depth is not None:
            depth[24, 32] = center_depth
        return color, depth

    def test_center_pixel_depth_two_identity_pose(self):
        color, depth = self.blank(center_depth=2.0)
        color[24, 32] = (0.2, 0.4, 0.6)
        gaussians, skipped = spawn_from_keyframe(color, depth,
                                                 Pose.identity(), MAP_K,
                                                 stride=8, anchor=7)
        assert len(gaussians) == 1
        g, = gaussians
        assert np.allclose(g.mean, [0.0, 0.0, 2.0], atol=1e-12)
        assert g.opacity == 0.5
        assert np.allclose(g.color, [0.2, 0.4, 0.6])
        assert g.anchor == 7
        # isotropic footprint of a stride-wide pixel at that depth
        assert np.allclose(g.scales, 2.0 * 8 / 64.0)
        assert skipped == 6 * 8 - 1

    def test_all_depths_invalid(self):
        color, depth = self.blank()
        gaussians, skipped = spawn_from_keyframe(color, depth,
                                                 Pose.identity(), MAP_K,
                                                 stride=8, anchor=0)
        assert len(gaussians) == 0
        assert skipped == 48

    def test_world_frame_unprojection(self):
        color, depth = self.blank()
        depth[8, 16] = 1.5
        pose = Pose(Rotation.exp(np.array([0.2, -0.1, 0.4])),
                    np.array([1.0, -2.0, 0.5]))
        gaussians, _ = spawn_from_keyframe(color, depth, pose, MAP_K,
                                           stride=8, anchor=0)
        cam = np.array([(16 - 32.0) / 64.0 * 1.5,
                        (8 - 24.0) / 64.0 * 1.5, 1.5])
        assert np.allclose(gaussians.mean[0],
                           pose.rotation.apply(cam) + pose.translation,
                           atol=1e-12)

    def test_nan_depth_skipped(self):
        color, depth = self.blank(center_depth=2.0)
        depth[0, 0] = np.nan
        depth[0, 8] = -1.0
        gaussians, skipped = spawn_from_keyframe(color, depth,
                                                 Pose.identity(), MAP_K,
                                                 stride=8, anchor=0)
        assert len(gaussians) == 1
        assert skipped == 47

    def test_input_validation(self):
        color, depth = self.blank()
        with pytest.raises(ValueError, match="stride"):
            spawn_from_keyframe(color, depth, Pose.identity(), MAP_K,
                                stride=0, anchor=0)
        with pytest.raises(ValueError, match="color"):
            spawn_from_keyframe(color[:, :, :2], depth, Pose.identity(),
                                MAP_K, stride=8, anchor=0)


def entry(kid, old, new, ds):
    return CorrectionEntry(kid, old, new, ds)


def random_pose(rng):
    return Pose(Rotation.exp(rng.normal(0, 0.5, 3)), rng.normal(0, 1, 3))


def two_anchor_map(rng=None):
    rng = rng or np.random.default_rng(42)
    m = GaussianMap()
    m.insert(batch([make_gaussian(rng, anchor=5) for _ in range(4)]))
    m.insert(batch([make_gaussian(rng, anchor=9) for _ in range(3)]))
    return m


class TestLoopCorrectionUpdate:
    def test_identity_correction_leaves_map_bitwise_untouched(self):
        m = two_anchor_map()
        pose = random_pose(np.random.default_rng(1))
        means = m.gaussians.mean.copy()
        corr = LoopCorrection({5: entry(5, pose, pose, 1.0)})
        apply_loop_correction(m, corr)
        assert m.gaussians.mean.tobytes() == means.tobytes()

    def test_pure_translation_moves_means_only(self):
        m = two_anchor_map()
        rng = np.random.default_rng(3)
        old = random_pose(rng)
        shift = np.array([0.3, -0.2, 0.7])
        new = Pose(Rotation(old.rotation.q.copy()), old.translation + shift)
        covs = [covariance(g) for g in by_anchor(m, 5)]
        means = [g.mean.copy() for g in by_anchor(m, 5)]
        apply_loop_correction(m, LoopCorrection({5: entry(5, old, new, 1.0)}))
        for g, mu, cov in zip(by_anchor(m, 5), means, covs):
            assert np.allclose(g.mean, mu + shift, atol=1e-12)
            assert np.allclose(covariance(g), cov, atol=1e-12)

    def test_anchor_local_coordinates_invariant(self):
        m = two_anchor_map()
        rng = np.random.default_rng(4)
        old, new = random_pose(rng), random_pose(rng)
        ds = 1.7
        locals_before = [(old.rotation.matrix().T @ (g.mean - old.translation),
                          old.rotation.matrix().T @ covariance(g)
                          @ old.rotation.matrix())
                         for g in by_anchor(m, 5)]
        apply_loop_correction(m, LoopCorrection({5: entry(5, old, new, ds)}))
        Rn = new.rotation.matrix()
        for g, (loc, cov_loc) in zip(by_anchor(m, 5), locals_before):
            assert np.allclose(Rn.T @ (g.mean - new.translation) / ds,
                               loc, atol=1e-9)
            assert np.allclose(Rn.T @ covariance(g) @ Rn / ds ** 2,
                               cov_loc, atol=1e-9)

    def test_corrections_compose(self):
        rng = np.random.default_rng(5)
        p0, p1, p2 = (random_pose(rng) for _ in range(3))
        ds_a, ds_b = 1.3, 0.8
        m_seq = two_anchor_map()
        m_once = copy.deepcopy(m_seq)
        apply_loop_correction(m_seq, LoopCorrection({5: entry(5, p0, p1, ds_a)}))
        apply_loop_correction(m_seq, LoopCorrection({5: entry(5, p1, p2, ds_b)}))
        apply_loop_correction(m_once,
                              LoopCorrection({5: entry(5, p0, p2, ds_a * ds_b)}))
        for a, b in zip(by_anchor(m_seq, 5), by_anchor(m_once, 5)):
            assert np.allclose(a.mean, b.mean, atol=1e-9)
            assert np.allclose(covariance(a), covariance(b), atol=1e-9)

    def test_color_opacity_and_other_anchors_untouched(self):
        m = two_anchor_map()
        rng = np.random.default_rng(6)
        colors = m.gaussians.color.copy()
        opac = [g.opacity for g in m.gaussians]
        other = [(g.mean.copy(), g.scales.copy()) for g in by_anchor(m, 9)]
        corr = LoopCorrection({5: entry(5, random_pose(rng),
                                        random_pose(rng), 1.4)})
        apply_loop_correction(m, corr)
        assert m.gaussians.color.tobytes() == colors.tobytes()
        for g, o in zip(m.gaussians, opac):
            assert g.opacity == o
        for g, (mu, sc) in zip(by_anchor(m, 9), other):
            assert np.array_equal(g.mean, mu)
            assert np.array_equal(g.scales, sc)

    def test_bad_entry_leaves_the_map_bit_identical(self):
        m = two_anchor_map()
        before = [c.copy() for c in m.gaussians.columns()]
        rng = np.random.default_rng(7)
        good = entry(5, random_pose(rng), random_pose(rng), 1.2)
        bad = SimpleNamespace(scale_change=-1.0, old_pose=random_pose(rng),
                              new_pose=random_pose(rng))
        with pytest.raises(ValueError, match="positive"):
            apply_loop_correction(m, SimpleNamespace(entries={5: good, 9: bad}))
        for col, old in zip(m.gaussians.columns(), before):
            assert col.tobytes() == old.tobytes()

    def test_warp_out_of_the_file_range_leaves_the_map_bit_identical(self, tmp_path):
        # a finite scale change passes the entry's guard, but 1e39 takes the
        # means and scales out of the float32 that the map file stores
        m = two_anchor_map()
        before = [c.copy() for c in m.gaussians.columns()]
        rng = np.random.default_rng(9)
        old, new = random_pose(rng), random_pose(rng)
        with pytest.raises(ValueError, match="float32"):
            apply_loop_correction(m, LoopCorrection({5: entry(5, old, new, 1e39)}))
        for col, was in zip(m.gaussians.columns(), before):
            assert col.tobytes() == was.tobytes()
        write_vgsm(tmp_path / "map.vgsm", m)
        back = read_vgsm(tmp_path / "map.vgsm")
        assert back.gaussians.anchor.tolist() == m.gaussians.anchor.tolist()

    def test_scale_change_must_be_positive(self):
        m = two_anchor_map()
        rng = np.random.default_rng(7)
        old, new = random_pose(rng), random_pose(rng)
        for ds in (-0.5, 0.0, np.inf, np.nan):
            bad = SimpleNamespace(scale_change=ds, old_pose=old, new_pose=new)
            with pytest.raises(ValueError, match="positive and finite"):
                apply_loop_correction(m, SimpleNamespace(entries={5: bad}))
            with pytest.raises(ValueError, match="positive and finite"):
                CorrectionEntry(5, old, new, ds)


def on_axis(z, color, opacity=1.0, scale=0.5, anchor=0):
    return Gaussian(mean=np.array([0.0, 0.0, z]), scales=np.full(3, scale),
                    orientation=Rotation.identity(), color=np.array(color),
                    opacity=opacity, anchor=anchor)


CENTER = (24, 32)     # row, col of the optical axis in MAP_K


def seen_at(u, v, z):
    """The point at depth z that MAP_K at the identity pose sees at pixel (u, v)."""
    return np.array([(u - MAP_K.cx) / MAP_K.fx * z, (v - MAP_K.cy) / MAP_K.fy * z, z])


class TestRender:
    def test_empty_map(self):
        out = render(GaussianMap(), Pose.identity(), MAP_K,
                     background=np.array([0.1, 0.2, 0.3]))
        assert np.all(out.color == np.array([0.1, 0.2, 0.3]))
        assert np.all(out.depth == DEPTH_SENTINEL)
        assert np.all(out.alpha == 0.0)

    def test_single_opaque_gaussian_on_axis(self):
        m = GaussianMap()
        m.insert(batch([on_axis(2.0, [0.9, 0.3, 0.1])]))
        out = render(m, Pose.identity(), MAP_K)
        r, c = CENTER
        assert np.allclose(out.color[r, c], [0.9, 0.3, 0.1], atol=1e-6)
        assert abs(out.depth[r, c] - 2.0) < 1e-6
        assert abs(out.alpha[r, c] - 1.0) < 1e-6

    def test_front_to_back_order(self):
        m = GaussianMap()
        m.insert(batch([on_axis(2.0, [0.0, 0.0, 1.0]),     # blue behind
                        on_axis(1.0, [1.0, 0.0, 0.0])]))   # red in front
        out = render(m, Pose.identity(), MAP_K)
        r, c = CENTER
        assert np.allclose(out.color[r, c], [1.0, 0.0, 0.0], atol=1e-6)
        assert abs(out.depth[r, c] - 1.0) < 1e-6

    def test_half_opacity_blends_with_background(self):
        m = GaussianMap()
        m.insert(batch([on_axis(2.0, [1.0, 0.0, 0.0], opacity=0.5)]))
        out = render(m, Pose.identity(), MAP_K,
                     background=np.array([0.0, 0.0, 1.0]))
        r, c = CENTER
        assert np.allclose(out.color[r, c], [0.5, 0.0, 0.5], atol=1e-9)
        assert abs(out.alpha[r, c] - 0.5) < 1e-9
        # alpha-weighted depth normalizes back to the Gaussian's depth
        assert abs(out.depth[r, c] - 2.0) < 1e-9

    def test_store_permutation_does_not_change_the_image(self):
        rng = np.random.default_rng(8)
        gaussians = [make_gaussian(rng, anchor=0,
                                   mean=np.array([rng.uniform(-0.5, 0.5),
                                                  rng.uniform(-0.4, 0.4),
                                                  rng.uniform(1.0, 3.0)]))
                     for _ in range(12)]
        m1, m2 = GaussianMap(), GaussianMap()
        m1.insert(batch(gaussians))
        perm = list(rng.permutation(len(gaussians)))
        m2.insert(batch([gaussians[i] for i in perm]))
        out1 = render(m1, Pose.identity(), MAP_K)
        out2 = render(m2, Pose.identity(), MAP_K)
        assert np.array_equal(out1.color, out2.color)
        assert np.array_equal(out1.depth, out2.depth)
        assert np.array_equal(out1.alpha, out2.alpha)

    def test_render_is_deterministic(self):
        m = GaussianMap()
        rng = np.random.default_rng(9)
        m.insert(batch([make_gaussian(rng, anchor=0,
                                      mean=np.array([0.1, -0.1, 2.0]))
                        for _ in range(5)]))
        a = render(m, Pose.identity(), MAP_K)
        b = render(m, Pose.identity(), MAP_K)
        assert np.array_equal(a.color, b.color)
        assert np.array_equal(a.depth, b.depth)

    def test_alpha_stays_in_unit_interval(self):
        rng = np.random.default_rng(10)
        m = GaussianMap()
        m.insert(batch([make_gaussian(rng, anchor=0,
                                      mean=np.array([rng.uniform(-1, 1),
                                                     rng.uniform(-0.7, 0.7),
                                                     rng.uniform(0.5, 4.0)]))
                        for _ in range(20)]))
        out = render(m, Pose.identity(), MAP_K)
        assert out.alpha.min() >= 0.0
        assert out.alpha.max() <= 1.0
        covered = out.alpha > 0
        assert np.all(out.depth[covered] > 0)
        assert np.all(out.depth[~covered] == DEPTH_SENTINEL)

    def test_gaussians_behind_camera_ignored(self):
        m = GaussianMap()
        m.insert(batch([on_axis(-1.0, [1.0, 0.0, 0.0])]))
        out = render(m, Pose.identity(), MAP_K)
        assert np.all(out.alpha == 0.0)

    def test_posed_camera_sees_the_gaussian(self):
        # camera shifted back 1 m along its own axis sees the point 1 m
        # deeper
        m = GaussianMap()
        m.insert(batch([on_axis(2.0, [0.2, 0.9, 0.4])]))
        cam = Pose(Rotation.identity(), np.array([0.0, 0.0, -1.0]))
        out = render(m, cam, MAP_K)
        r, c = CENTER
        assert abs(out.depth[r, c] - 3.0) < 1e-6

    @pytest.mark.parametrize("z, culled", [(1.5 * _MIN_Z, True), (0.029, True), (0.031, False)])
    def test_splat_within_its_own_largest_scale_is_culled(self, z, culled):
        # past the near plane but within its largest scale (0.03) of the
        # camera, such a splat would cover the whole image
        near = Gaussian(mean=np.array([0.0, 0.0, z]), scales=np.array([0.005, 0.03, 0.01]),
                        orientation=Rotation.identity(), color=np.array([1.0, 0.0, 0.0]),
                        opacity=0.9, anchor=0)
        far = on_axis(2.0, [0.0, 0.0, 1.0], opacity=0.5)
        alone, both = GaussianMap(), GaussianMap()
        alone.insert(batch([far]))
        both.insert(batch([near, far]))
        want, got = render(alone, Pose.identity(), MAP_K), render(both, Pose.identity(), MAP_K)
        untouched = all(np.array_equal(getattr(got, name), getattr(want, name))
                        for name in ("color", "depth", "alpha"))
        assert untouched == culled

    @pytest.mark.parametrize("side", ["left", "right", "top", "bottom"])
    @pytest.mark.parametrize("inside", [True, False])
    def test_guard_band_keeps_a_tail_just_inside(self, side, inside):
        # a centre just inside the band still reaches the image with its tail
        w, h = MAP_K.width, MAP_K.height
        step = 0.01 if inside else -0.01
        u, v = MAP_K.cx, MAP_K.cy
        if side == "left":
            u = -0.5 - _GUARD * w + step
        elif side == "right":
            u = w - 0.5 + _GUARD * w - step
        elif side == "top":
            v = -0.5 - _GUARD * h + step
        else:
            v = h - 0.5 + _GUARD * h - step
        g = Gaussian(mean=seen_at(u, v, 2.0), scales=np.full(3, 0.2),
                     orientation=Rotation.identity(), color=np.array([0.2, 0.9, 0.4]),
                     opacity=1.0, anchor=0)
        m = GaussianMap()
        m.insert(batch([g]))
        out = render(m, Pose.identity(), MAP_K)
        if inside:
            assert out.alpha.max() > 0.1
        else:
            assert np.all(out.alpha == 0.0)


def test_held_out_view_of_a_short_figure8_has_its_depth():
    """Four keyframes of a 4 s figure8 sequence, rendered at a frame between
    two of them. With no near-plane cull a splat just past `_MIN_Z` covered
    the image at about 0.01 m depth, for a depth L1 of 4.2 m."""
    cfg = build_config("figure8", None, {"dataset.duration": 4.0, "run.seed": 1})
    plan = materialize(cfg)
    ds, provider = plan.dataset, plan.provider
    frames = np.linspace(0, ds.n_frames() - 1, 4).astype(int)
    m = GaussianMap()
    for kid, frame in enumerate(frames):
        color, depth = provider.keyframe_image(frame)
        k = provider.intrinsics().scaled(depth.shape[1], depth.shape[0])
        m.insert(spawn_from_keyframe(color, depth, ds.frame_pose(frame), k,
                                     cfg["map.stride"], kid)[0])
    held_out = (frames[1] + frames[2]) // 2
    color, depth = provider.keyframe_image(held_out)
    out = render(m, ds.frame_pose(held_out), k)
    losses = mapping_losses(out, color, depth, m.gaussians)
    assert np.mean(out.alpha > 0.5) > 0.5
    assert losses.depth < 1.0


class TestMappingLosses:
    def flat_render(self, color_val, depth_val, alpha_val, shape=(4, 6)):
        h, w = shape
        return RenderOutput(color=np.full((h, w, 3), color_val),
                            depth=np.full((h, w), depth_val),
                            alpha=np.full((h, w), alpha_val))

    def test_perfect_render_has_zero_losses(self):
        out = self.flat_render(0.4, 2.0, 1.0)
        losses = mapping_losses(out, out.color.copy(), out.depth.copy(), Gaussians())
        assert losses.color == 0.0
        assert losses.depth == 0.0
        assert losses.iso == 0.0

    def test_constant_color_offset(self):
        out = self.flat_render(0.3, 2.0, 1.0)
        losses = mapping_losses(out, out.color - 0.1, out.depth.copy(), Gaussians())
        assert losses.color == pytest.approx(0.1, abs=1e-12)

    def test_isotropic_gaussians_have_zero_iso_loss(self):
        gs = [make_gaussian(scales=np.full(3, s)) for s in (0.1, 0.5, 2.0)]
        out = self.flat_render(0.3, 2.0, 1.0)
        losses = mapping_losses(out, out.color.copy(), out.depth.copy(),
                                batch(gs))
        assert losses.iso == 0.0

    def test_anisotropy_measured_as_l1_spread(self):
        g = make_gaussian(scales=np.array([1.0, 2.0, 3.0]))
        out = self.flat_render(0.3, 2.0, 1.0)
        losses = mapping_losses(out, out.color.copy(), out.depth.copy(),
                                batch([g]))
        assert losses.iso == pytest.approx(2.0, abs=1e-12)

    def test_depth_loss_masked_to_valid_and_covered(self):
        out = self.flat_render(0.3, 2.0, 1.0)
        ref_depth = np.full_like(out.depth, 3.0)
        ref_depth[0, :] = 0.0                    # invalid reference rows
        out.alpha[1, :] = 0.0                    # uncovered render rows
        out.depth[1, :] = 99.0                   # would poison an unmasked mean
        losses = mapping_losses(out, out.color.copy(), ref_depth, Gaussians())
        assert losses.depth == pytest.approx(1.0, abs=1e-12)

    def test_depth_loss_zero_when_nothing_qualifies(self):
        out = self.flat_render(0.3, 2.0, 0.0)
        ref_depth = np.zeros_like(out.depth)
        losses = mapping_losses(out, out.color.copy(), ref_depth, Gaussians())
        assert losses.depth == 0.0

    def test_shape_mismatch_rejected(self):
        out = self.flat_render(0.3, 2.0, 1.0)
        with pytest.raises(ValueError, match="color"):
            mapping_losses(out, np.zeros((3, 6, 3)), out.depth.copy(), Gaussians())
        with pytest.raises(ValueError, match="depth"):
            mapping_losses(out, out.color.copy(), np.zeros((3, 6)), Gaussians())


class TestExport:
    def build_map(self):
        rng = np.random.default_rng(12)
        m = GaussianMap()
        m.insert(batch([make_gaussian(rng, anchor=3) for _ in range(2)]))
        m.insert(batch([make_gaussian(rng, anchor=11)]))
        return m

    def test_header_and_record_layout(self, tmp_path):
        m = self.build_map()
        path = tmp_path / "map.vgsm"
        write_vgsm(path, m)
        blob = path.read_bytes()
        assert blob[:4] == b"VGSM"
        version, count = struct.unpack_from("<IQ", blob, 4)
        assert version == 1
        assert count == 3
        record = 60                              # bytes per Gaussian
        assert len(blob) == 16 + record * count
        g = next(iter(m.gaussians))
        vals = struct.unpack_from("<3f3f4f3ffI", blob, 16)
        assert np.allclose(vals[0:3], g.mean.astype(np.float32))
        assert np.allclose(vals[3:6], g.scales.astype(np.float32))
        assert np.allclose(vals[6:10], g.orientation.q.astype(np.float32))
        assert np.allclose(vals[10:13], g.color.astype(np.float32))
        assert vals[13] == np.float32(g.opacity)
        assert vals[14] == 3

    def test_round_trip(self, tmp_path):
        m = self.build_map()
        path = tmp_path / "map.vgsm"
        write_vgsm(path, m)
        back = read_vgsm(path)
        assert len(back) == len(m)
        for a, b in zip(m.gaussians, back.gaussians):
            assert np.array_equal(b.mean, a.mean.astype(np.float32))
            assert np.array_equal(b.scales, a.scales.astype(np.float32))
            assert np.allclose(b.orientation.q, a.orientation.q, atol=1e-7)
            assert np.array_equal(b.color, a.color.astype(np.float32))
            assert b.opacity == np.float32(a.opacity)
            assert b.anchor == a.anchor

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.vgsm"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(ValueError, match="map file"):
            read_vgsm(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "v2.vgsm"
        path.write_bytes(b"VGSM" + struct.pack("<IQ", 2, 0))
        with pytest.raises(ValueError, match="version"):
            read_vgsm(path)

    def test_truncated_file_rejected(self, tmp_path):
        m = self.build_map()
        path = tmp_path / "map.vgsm"
        write_vgsm(path, m)
        blob = path.read_bytes()
        # a cut record stream, headers cut after the magic, inside the
        # version and inside the count, and bare headers whose record count
        # the file cannot hold: 2**40 records would not fit in memory, and
        # the byte count of 2**62 overflows a read size
        for data in (blob[:-20], blob[:4], blob[:8], blob[:15],
                     b"VGSM" + struct.pack("<IQ", 1, 2 ** 40),
                     b"VGSM" + struct.pack("<IQ", 1, 2 ** 62)):
            path.write_bytes(data)
            with pytest.raises(ValueError, match="truncated"):
                read_vgsm(path)

    @pytest.mark.parametrize("offset, values", [
        pytest.param(0, [np.nan], id="nan_mean"),
        pytest.param(12, [np.nan], id="nan_scale"),
        pytest.param(16, [0.0], id="zero_scale"),
        pytest.param(12, [-1.0], id="negative_scale"),
        pytest.param(24, [0.0] * 4, id="zero_quaternion"),
        pytest.param(40, [np.inf], id="inf_color"),
    ])
    def test_corrupt_record_rejected(self, tmp_path, offset, values):
        path = tmp_path / "map.vgsm"
        write_vgsm(path, self.build_map())
        blob = bytearray(path.read_bytes())
        # overwrite fields of the second record, at its byte offset
        struct.pack_into(f"<{len(values)}f", blob, 16 + 60 + offset, *values)
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="corrupt"):
            read_vgsm(path)

    def test_empty_map_round_trip(self, tmp_path):
        path = tmp_path / "empty.vgsm"
        write_vgsm(path, GaussianMap())
        assert len(read_vgsm(path)) == 0


def keyframe_rasters(rng, k=MAP_K):
    """A depth image with invalid holes, and a color image with values
    just outside [0, 1] that spawning clips."""
    depth = rng.uniform(0.5, 4.0, (k.height, k.width))
    depth[rng.random(depth.shape) < 0.1] = 0.0
    depth[rng.random(depth.shape) < 0.05] = np.nan
    color = rng.uniform(-0.05, 1.05, (k.height, k.width, 3))
    return color, depth


def spawned_map(seed=20, keyframes=4, stride=4):
    rng = np.random.default_rng(seed)
    m = GaussianMap()
    poses = []
    for kid in range(keyframes):
        pose = random_pose(rng)
        color, depth = keyframe_rasters(rng)
        m.insert(spawn_from_keyframe(color, depth, pose, MAP_K, stride, kid)[0])
        poses.append(pose)
    return m, poses


def assert_same_rows(columns: Gaussians, rows, q_atol=0.0):
    assert len(columns) == len(rows)
    want = batch(rows)
    for name in ("mean", "scales", "color", "opacity", "anchor"):
        assert getattr(columns, name).tobytes() == getattr(want, name).tobytes(), name
    assert np.max(np.abs(columns.q - want.q), initial=0.0) <= q_atol


class TestAgainstObjectOracle:
    """The columnar map against the per-object implementations it replaced."""

    def test_spawn_is_bit_identical(self):
        rng = np.random.default_rng(21)
        pose = random_pose(rng)
        color, depth = keyframe_rasters(rng)
        got, skipped = spawn_from_keyframe(color, depth, pose, MAP_K, 2, 6)
        want, want_skipped = oracles.spawn_from_keyframe(color, depth, pose,
                                                         MAP_K, 2, 6)
        assert skipped == want_skipped > 0
        assert len(got) > 500
        assert_same_rows(got, want)

    def test_warp_matches_per_object_warp(self):
        one_run, poses = spawned_map()
        two_runs, _ = spawned_map()
        # anchor 0 again after anchor 3: its Gaussians lie in two runs
        color, depth = keyframe_rasters(np.random.default_rng(28))
        two_runs.insert(spawn_from_keyframe(color, depth, poses[0], MAP_K, 4, 0)[0])
        assert two_runs.gaussians.anchor[0] == two_runs.gaussians.anchor[-1] == 0
        for m in (one_run, two_runs):
            ref = oracles.object_map(m.gaussians)
            rng = np.random.default_rng(22)
            corr = LoopCorrection({
                0: entry(0, poses[0], random_pose(rng), 1.3),
                1: entry(1, poses[1], poses[1], 1.0),            # did not move
                3: entry(3, poses[3], random_pose(rng), 0.7),    # anchor 2 has none
            })
            apply_loop_correction(m, corr)
            oracles.apply_loop_correction(ref, corr)
            assert_same_rows(m.gaussians, ref.gaussians, q_atol=1e-15)

    def test_read_back_matches_per_object_read(self, tmp_path):
        m, poses = spawned_map()
        rng = np.random.default_rng(23)
        apply_loop_correction(m, LoopCorrection(
            {kid: entry(kid, p, random_pose(rng), 1.1) for kid, p in enumerate(poses)}))
        path = tmp_path / "map.vgsm"
        write_vgsm(path, m)
        back = read_vgsm(path)
        assert_same_rows(back.gaussians, oracles.read_vgsm(path).gaussians)
        assert np.array_equal(back.gaussians.anchor, m.gaussians.anchor)

    def test_render_matches_per_object_render(self):
        rng = np.random.default_rng(24)
        rows = [make_gaussian(rng, anchor=i % 3,
                              mean=np.array([rng.uniform(-1, 1),
                                             rng.uniform(-0.7, 0.7),
                                             rng.uniform(0.5, 4.0)]))
                for i in range(20)]
        rows.append(on_axis(-1.0, [1.0, 0.0, 0.0]))          # behind the camera
        m = GaussianMap()
        m.insert(batch(rows))
        cam = Pose(Rotation.exp(np.array([0.05, -0.1, 0.02])),
                   np.array([0.1, 0.0, -0.3]))
        bg = np.array([0.2, 0.3, 0.4])
        got = render(m, cam, MAP_K, background=bg)
        want = oracles.render(oracles.object_map(m.gaussians), cam, MAP_K,
                              background=bg)
        assert np.any(want.alpha > 0.5)
        for name in ("color", "depth", "alpha"):
            assert np.max(np.abs(getattr(got, name) - getattr(want, name))) <= 1e-12

    def render_both(self, rows, bg):
        """Render with the map and with the per-object oracle; they agree to
        1e-12 on every output. Returns the oracle's render."""
        m = GaussianMap()
        m.insert(batch(rows))
        got = render(m, Pose.identity(), MAP_K, background=bg)
        want = oracles.render(oracles.object_map(m.gaussians), Pose.identity(), MAP_K,
                              background=bg)
        for name in ("color", "depth", "alpha"):
            assert np.max(np.abs(getattr(got, name) - getattr(want, name))) <= 1e-12, name
        return want

    def test_transmittance_carries_across_chunks(self):
        # more faint splats over the centre tile than one chunk holds, so
        # the last chunk still adds to what the first ones left
        rng = np.random.default_rng(25)
        rows = [on_axis(z, rng.uniform(0, 1, 3), opacity=0.004, scale=0.1)
                for z in rng.uniform(1.0, 3.0, _CHUNK + 100)]
        want = self.render_both(rows, bg=np.array([0.3, 0.1, 0.6]))
        r, c = CENTER
        assert 0.5 < want.alpha[r, c] < 0.99

    def test_boxes_straddling_tiles_and_empty_tiles(self):
        # small splats centred on tile corners, all in the left half: each
        # box spans four tiles, and the right half's tiles stay empty
        rng = np.random.default_rng(26)
        corners = [(_TILE * a - 0.5, _TILE * b - 0.5) for a in (1, 2, 3) for b in (1, 2, 3, 4, 5)]
        rows = [Gaussian(mean=seen_at(u, v, 2.0), scales=rng.uniform(0.02, 0.05, 3),
                         orientation=Rotation.exp(rng.normal(0, 0.5, 3)),
                         color=rng.uniform(0, 1, 3), opacity=0.8, anchor=0)
                for u, v in corners]
        bg = np.array([0.5, 0.25, 0.75])
        want = self.render_both(rows, bg)
        for u, v in corners:
            c, r = int(u + 0.5), int(v + 0.5)
            assert want.alpha[r - 1, c - 1] > 0.0 and want.alpha[r, c] > 0.0
        assert np.all(want.alpha[:, 32:] == 0.0)
        assert np.all(want.color[:, 32:] == bg)

    def test_equal_depths_composite_in_store_order(self):
        red = on_axis(2.0, [1.0, 0.0, 0.0], opacity=0.9, scale=0.1)
        blue = on_axis(2.0, [0.0, 0.0, 1.0], opacity=0.9, scale=0.1)
        shifted = Gaussian(mean=np.array([0.02, 0.0, 2.0]), scales=np.full(3, 0.1),
                           orientation=Rotation.identity(), color=np.array([0.0, 1.0, 0.0]),
                           opacity=0.9, anchor=0)
        bg = np.array([0.1, 0.1, 0.1])
        r, c = CENTER
        red_first = self.render_both([red, shifted, blue], bg)
        blue_first = self.render_both([blue, shifted, red], bg)
        assert red_first.color[r, c, 0] > 0.8 > red_first.color[r, c, 2]
        assert blue_first.color[r, c, 2] > 0.8 > blue_first.color[r, c, 0]
        # two interleaved groups of ties, enough that an unstable sort
        # would reorder them
        rng = np.random.default_rng(27)
        ties = [make_gaussian(rng, mean=np.array([*rng.uniform(-0.3, 0.3, 2), 2.0 + i % 2]),
                              scales=np.full(3, 0.1)) for i in range(80)]
        self.render_both(ties, bg)


def test_render_working_memory_is_bounded():
    """Rendering 12,000 Gaussians in view, several thousand over each tile,
    peaks under 16 MB of traced allocations. The per-Gaussian compositing
    loop peaked at 7.9 MB on this map and the chunked tiles at 7.2 MB;
    unchunked tiles took 19.5 MB, and one (Gaussians x pixels) float array
    alone would be 295 MB."""
    rng = np.random.default_rng(30)
    n = 12_000
    z = rng.uniform(1.0, 4.0, n)
    mean = np.stack([rng.uniform(-0.5, 0.5, n) * z, rng.uniform(-0.375, 0.375, n) * z, z],
                    axis=1)
    m = GaussianMap()
    m.insert(Gaussians(mean, rng.uniform(0.05, 0.15, (n, 3)), np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)),
                       rng.uniform(0, 1, (n, 3)), rng.uniform(0.1, 0.6, n), np.zeros(n)))
    tracemalloc.start()
    try:
        out = render(m, Pose.identity(), MAP_K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(out.alpha > 0.9)
    assert peak < 16e6


def test_insert_holds_the_columns_and_no_more():
    """A spawned batch costs the map its column bytes, not an object per
    Gaussian."""
    color = np.full((100, 200, 3), 0.5)
    depth = np.full((100, 200), 2.0)
    m = GaussianMap()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        m.insert(spawn_from_keyframe(color, depth, Pose.identity(), MAP_K, 1, 0)[0])
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(m) == 20_000
    column_bytes = sum(c.nbytes for c in m.gaussians.columns())
    assert grown < 2 * column_bytes
