"""Loop gating, the alignment's Sim(3) reprojection, two-view alignment,
rigid pose-graph solve."""

import math
import tracemalloc

import numpy as np
import pytest

from vislam.frontend import (PHASE_FULL, ArchivedKeyframe, InitConfig,
                             KeyframeRow, KeyframeView, TrackerState,
                             apply_correction, eviction_edge)
from vislam.geometry import Pose, Rotation, SimTransform
from vislam.imu import BiasState, ImuNoiseModel, ImuSamples, preintegrate
from vislam.loopclosure import (
    CorrectionEntry,
    LoopCorrection,
    LoopEdge,
    LoopPolicy,
    LoopWorker,
    PoseGraph,
    _PoseGraphProblem,
    align_loop_pair,
    detect_loops,
    sim3_vision_residual,
    solve_pgba,
)
from vislam.residuals import (
    GravityModel,
    Intrinsics,
    PoseState,
    RelativePoseEdge,
    VisionEdge,
    map_eigenvalues,
    vision_residual,
)
from vislam.solver import FrameGraph, Keyframe, NormalEquations, SolveOptions
from vislam.synth import SyntheticProvider, TrajectoryModel, make_dataset

import oracles
from oracles import total_pg_energy
from windows import stacked

MODEL = TrajectoryModel(family="figure8", amplitude=1.5, period=12.0,
                        duration=12.0, yaw_policy="tangent")

CHAIN_INFO = np.diag([4e4] * 3 + [1e4] * 3)


def kf_row(kid, yaw=0.0):
    """A keyframe row at the origin, turned by yaw about z."""
    return KeyframeRow(kid, kid, 0.0, Pose(Rotation.exp(np.array([0.0, 0.0, yaw])),
                                           np.zeros(3)))


def flows(table):
    """detect_loops' flow argument from an {old kid: flow} table; a kid
    missing from the table has no flow."""
    return lambda old: table.get(old.kid, math.inf)


@pytest.fixture(scope="module")
def synth():
    ds = make_dataset(MODEL, sigma_px=0.0)
    prov = SyntheticProvider(ds, stride=40)
    return ds, prov, prov.grid_pixels(), prov.intrinsics()


class TestLoopPolicy:
    def test_defaults(self):
        p = LoopPolicy()
        assert p.min_gap == 55

    @pytest.mark.parametrize("kw", [
        {"min_gap": 0}, {"min_gap": -3}, {"solve_iterations": 0},
        {"solve_every": 0}, {"solve_every": -2},
    ])
    def test_rejects_nonpositive_gates(self, kw):
        with pytest.raises(ValueError):
            LoopPolicy(**kw)


class TestDetectLoops:
    def test_small_gap_excluded_regardless_of_flow(self):
        new = kf_row(10)
        assert detect_loops(new, [kf_row(0)], flows({0: 0.001})) == []

    def test_large_flow_excluded(self):
        new = kf_row(100)
        assert detect_loops(new, [kf_row(0)], flows({0: 30.0})) == []

    def test_gap_100_flow_10_ang_60_accepted(self):
        new = kf_row(100, yaw=math.radians(60.0))
        assert detect_loops(new, [kf_row(0)], flows({0: 10.0})) == [(0, 100)]

    def test_gap_boundary_is_inclusive(self):
        new = kf_row(55)
        assert detect_loops(new, [kf_row(0), kf_row(1)],
                            flows({0: 1.0, 1: 1.0})) == [(0, 55)]

    def test_flow_gate_is_strict(self):
        new = kf_row(100)
        assert detect_loops(new, [kf_row(0), kf_row(1)],
                            flows({0: 22.0, 1: 21.999})) == [(1, 100)]

    def test_orientation_gate_brackets(self):
        # the exact 120.0 boundary is not representable through the
        # quaternion round trip, so bracket it tightly from both sides
        hist = [kf_row(0, yaw=math.radians(120.05)),
                kf_row(1, yaw=math.radians(119.95))]
        new = kf_row(100)
        assert detect_loops(new, hist, flows({0: 1.0, 1: 1.0})) == [(1, 100)]

    def test_missing_flow_counts_as_infinite(self):
        new = kf_row(100)
        assert detect_loops(new, [kf_row(0)], flows({})) == []

    def test_candidates_ordered_by_ascending_flow(self):
        hist = [kf_row(k) for k in range(4)]
        new = kf_row(100)
        table = {0: 9.0, 1: 2.0, 2: 5.0, 3: 2.0}
        assert detect_loops(new, hist, flows(table)) \
            == [(1, 100), (3, 100), (2, 100), (0, 100)]

    @pytest.mark.parametrize("mutate", ["gap", "flow", "ang"])
    def test_each_gate_individually_necessary(self, mutate):
        # base pair passes all three gates; flipping any single gate
        # flips candidacy
        old_kid, yaw, flow = 0, math.radians(30.0), 5.0
        if mutate == "gap":
            old_kid = 50
        elif mutate == "flow":
            flow = 25.0
        else:
            yaw = math.radians(150.0)
        new = kf_row(100, yaw=yaw)
        assert detect_loops(new, [kf_row(old_kid)],
                            flows({old_kid: flow})) == []
        good = kf_row(100, yaw=math.radians(30.0))
        assert detect_loops(good, [kf_row(0)], flows({0: 5.0})) == [(0, 100)]

    def test_flow_asked_only_past_gap_and_orientation_gates(self):
        # kid 50 fails the gap gate, kid 1 the orientation gate; only
        # kids 0 and 2 may cost a provider flow
        hist = [kf_row(0), kf_row(1, yaw=math.radians(150.0)), kf_row(2),
                kf_row(50)]
        asked = []

        def flow(old):
            asked.append(old.kid)
            return {0: 3.0, 2: 30.0}[old.kid]

        assert detect_loops(kf_row(100), hist, flow) == [(0, 100)]
        assert asked == [0, 2]


PINHOLE = Intrinsics(fx=320.0, fy=320.0, cx=320.0, cy=240.0,
                     width=640, height=480)
PIX = np.array([[300.0, 200.0], [340.0, 260.0]])
PIX_D = np.array([0.5, 0.4])        # a loop source's disparities for PIX


def unit_rel(i, j, meas=None, info=None):
    meas = meas if meas is not None else Pose.identity()
    info = info if info is not None else np.eye(6)
    return RelativePoseEdge(i, j, meas, info)


def vision_edge(i, j, targets=PIX):
    return VisionEdge(i, j, PIX, targets, np.ones_like(PIX))


def loop_edge(i, j, vis=None):
    return LoopEdge(i, j, unit_rel(i, j), vision_edge(i, j) if vis is None else vis)


def exact_loop(i, j, T_i, T_j):
    """A loop whose targets are the kernel's own predictions at T_i, T_j and
    the PIX_D disparities, so its rows are exactly zero there."""
    pred = -stacked(vision_residual, [vision_edge(i, j, np.zeros_like(PIX))],
                    [T_i], [T_j], [PIX_D], PINHOLE).residual[0]
    return loop_edge(i, j, vision_edge(i, j, pred))


class TestLoopEdgeValidation:
    def test_requires_increasing_endpoints(self):
        with pytest.raises(ValueError, match="i < j"):
            loop_edge(5, 5)

    def test_relative_endpoints_must_match(self):
        with pytest.raises(ValueError, match="relative"):
            LoopEdge(0, 60, unit_rel(0, 59), vision_edge(0, 60))

    def test_vision_endpoints_must_match(self):
        with pytest.raises(ValueError, match="vision"):
            loop_edge(0, 60, vision_edge(1, 60))


def int_state(t):
    return Pose(Rotation.identity(), np.array(t, dtype=float))


def chain_from(states, info=None):
    info = CHAIN_INFO if info is None else info
    return [RelativePoseEdge(k, k + 1, states[k].inverse() * states[k + 1], info)
            for k in range(len(states) - 1)]


class TestPoseGraphValidation:
    def make_nodes(self, n):
        """n nodes one metre apart, the first a loop source of PIX_D."""
        return [Keyframe(k, int_state([k, 0, 0]), PIX_D if k == 0 else ())
                for k in range(n)]

    def solve(self, nodes, chain, loop=None):
        """solve_pgba over a graph with one loop, whose Layout checks the
        ids, the chain and the loop ends."""
        loop = loop if loop is not None else loop_edge(0, 9)
        return solve_pgba(PoseGraph(nodes, chain, [loop], PINHOLE))

    def test_duplicate_kids_rejected(self):
        nodes = self.make_nodes(10)
        chain = chain_from([n.state for n in nodes])
        with pytest.raises(ValueError, match="duplicate"):
            self.solve(nodes + [Keyframe(1, int_state([9, 0, 0]))], chain)

    def test_chain_must_cover_consecutive_pairs(self):
        nodes = self.make_nodes(10)
        chain = chain_from([n.state for n in nodes])
        with pytest.raises(ValueError, match="consecutive"):
            self.solve(nodes, chain[:1] + [unit_rel(1, 3)] + chain[3:])

    def test_repeated_chain_edge_rejected(self):
        nodes = self.make_nodes(10)
        chain = chain_from([n.state for n in nodes])
        with pytest.raises(ValueError, match="each once"):
            self.solve(nodes, chain + chain[:1])

    def test_loop_endpoints_must_exist(self):
        nodes = self.make_nodes(10)
        with pytest.raises(ValueError, match="unknown"):
            self.solve(nodes, chain_from([n.state for n in nodes]), loop_edge(0, 99))
        # a loop whose source is not a node passes the snapshot rule
        graph = PoseGraph(nodes[1:], chain_from([n.state for n in nodes])[1:],
                          [loop_edge(0, 9)], PINHOLE)
        with pytest.raises(ValueError, match="unknown"):
            solve_pgba(graph)

    def test_vision_loop_needs_intrinsics_and_snapshot(self):
        nodes = self.make_nodes(10)
        loop = loop_edge(0, 9)
        chain = chain_from([n.state for n in nodes])
        with pytest.raises(ValueError, match="intrinsics"):
            PoseGraph(nodes, chain, [loop])
        k = Intrinsics(fx=100.0, fy=100.0, cx=50.0, cy=50.0,
                       width=100, height=100)
        nodes[0].disparities = np.zeros(0)         # no snapshot
        with pytest.raises(ValueError, match="snapshot"):
            PoseGraph(nodes, chain, [loop], intrinsics=k)
        nodes[0].disparities = np.array([0.5])    # wrong length
        with pytest.raises(ValueError, match="align"):
            PoseGraph(nodes, chain, [loop], intrinsics=k)

    def test_lookup_by_kid(self):
        nodes = self.make_nodes(3)
        g = PoseGraph(nodes[::-1], chain_from([n.state for n in nodes]), [])
        assert [n.kid for n in g.nodes] == [0, 1, 2]
        assert g.node(2) is nodes[2]
        assert g.node(99) is None


def sim_retract(S, xi):
    """S moved by the right perturbation (Exp(omega), v, exp(sigma)) of the
    similarity kernel's tangent xi = (omega, v, sigma)."""
    return S * SimTransform(Rotation.exp(xi[:3]), xi[3:6], np.exp(xi[6]))


def rand_state(rng, scale=1.0):
    return SimTransform(Rotation.exp(rng.normal(0, 0.1, 3)),
                        rng.normal(0, 0.3, 3), scale)


def make_edge(rng, n=6):
    pix = np.stack([rng.uniform(100, 540, n), rng.uniform(80, 400, n)], axis=1)
    tgt = pix + rng.normal(0, 2.0, (n, 2))
    w = np.full((n, 2), 1.7)
    w[2] = 0.4
    return VisionEdge(1, 9, pix, tgt, w)


class TestSim3VisionResidual:
    def test_zero_at_true_geometry(self, synth):
        ds, prov, grid, k = synth
        edge = prov.edge(0, 4)
        vis = VisionEdge(0, 1, edge.pixels, edge.targets, edge.weights)
        d = 1.0 / prov.depth_hint(0, grid)
        out = stacked(sim3_vision_residual, [vis], [SimTransform.from_pose(ds.frame_pose(0))],
                      [SimTransform.from_pose(ds.frame_pose(4))], [d], k)
        assert out.behind_camera[0] == 0
        assert np.max(np.abs(out.residual[0])) < 1e-9

    def test_global_gauge_invariance(self):
        rng = np.random.default_rng(7)
        edge = make_edge(rng)
        d = rng.uniform(0.2, 0.9, 6)
        S_i, S_j = rand_state(rng, 1.2), rand_state(rng, 0.8)
        G = SimTransform(Rotation.exp(np.array([0.3, -0.2, 0.9])),
                         np.array([2.0, -1.0, 0.5]), 1.7)
        r0 = stacked(sim3_vision_residual, [edge], [S_i], [S_j], [d], PINHOLE).residual[0]
        r1 = stacked(sim3_vision_residual, [edge], [G * S_i], [G * S_j], [d], PINHOLE).residual[0]
        assert np.max(np.abs(r0 - r1)) < 1e-9

    def test_state_jacobians_match_finite_differences(self):
        rng = np.random.default_rng(3)
        edge = make_edge(rng)
        d = rng.uniform(0.2, 0.9, 6)
        S_i, S_j = rand_state(rng, 1.1), rand_state(rng, 0.93)
        out = stacked(sim3_vision_residual, [edge], [S_i], [S_j], [d], PINHOLE)
        assert out.valid[0].all()
        h = 1e-6
        for which, J in (("i", out.J_i[0]), ("j", out.J_j[0])):
            for c in range(7):
                e = np.zeros(7)
                e[c] = h
                if which == "i":
                    rp = stacked(sim3_vision_residual, [edge], [sim_retract(S_i, e)], [S_j], [d],
                                 PINHOLE).residual[0]
                    rm = stacked(sim3_vision_residual, [edge], [sim_retract(S_i, -e)], [S_j], [d],
                                 PINHOLE).residual[0]
                else:
                    rp = stacked(sim3_vision_residual, [edge], [S_i], [sim_retract(S_j, e)], [d],
                                 PINHOLE).residual[0]
                    rm = stacked(sim3_vision_residual, [edge], [S_i], [sim_retract(S_j, -e)], [d],
                                 PINHOLE).residual[0]
                fd = (rp - rm) / (2 * h)
                err = np.max(np.abs(fd - J[:, :, c])) / max(1.0, np.max(np.abs(fd)))
                assert err < 1e-4, f"J_{which} column {c}"

    def test_disparity_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        edge = make_edge(rng)
        d = rng.uniform(0.2, 0.9, 6)
        S_i, S_j = rand_state(rng, 1.1), rand_state(rng, 0.93)
        out = stacked(sim3_vision_residual, [edge], [S_i], [S_j], [d], PINHOLE)
        h = 1e-6
        for m in range(6):
            dp, dm = d.copy(), d.copy()
            dp[m] += h
            dm[m] -= h
            rp = stacked(sim3_vision_residual, [edge], [S_i], [S_j], [dp], PINHOLE).residual[0][m]
            rm = stacked(sim3_vision_residual, [edge], [S_i], [S_j], [dm], PINHOLE).residual[0][m]
            fd = (rp - rm) / (2 * h)
            assert np.max(np.abs(fd - out.J_disparity[0][m])) < 1e-4

    def test_scale_of_target_state_is_blind_with_identity_extrinsic(self):
        # with a camera at the body origin, scaling the target state
        # rescales the camera-frame point uniformly, which a pinhole
        # projection cannot see
        rng = np.random.default_rng(9)
        edge = make_edge(rng)
        d = rng.uniform(0.2, 0.9, 6)
        out = stacked(sim3_vision_residual, [edge], [rand_state(rng)], [rand_state(rng)], [d],
                      PINHOLE)
        assert np.max(np.abs(out.J_j[0][:, :, 6])) < 1e-10

    def test_points_behind_target_camera_are_masked(self):
        rng = np.random.default_rng(4)
        edge = make_edge(rng)
        d = rng.uniform(0.2, 0.9, 6)
        S_i = SimTransform.identity()
        S_j = SimTransform(Rotation.exp(np.array([0.0, math.pi, 0.0])),
                           np.zeros(3), 1.0)
        out = stacked(sim3_vision_residual, [edge], [S_i], [S_j], [d], PINHOLE)
        assert out.behind_camera[0] == 6
        assert not out.valid[0].any()
        assert np.all(out.residual[0] == 0.0)
        assert np.all(out.J_i[0] == 0.0) and np.all(out.J_j[0] == 0.0)

    def test_rejects_bad_disparities(self):
        rng = np.random.default_rng(4)
        edge = make_edge(rng)
        with pytest.raises(ValueError, match="length"):
            stacked(sim3_vision_residual, [edge], [SimTransform.identity()],
                    [SimTransform.identity()],
                    [np.ones(5)], PINHOLE)
        d = np.ones(6)
        d[3] = 0.0
        with pytest.raises(ValueError, match="positive"):
            stacked(sim3_vision_residual, [edge], [SimTransform.identity()],
                    [SimTransform.identity()], [d], PINHOLE)


class TestAlignLoopPair:
    def test_recovers_true_relative_pose(self, synth):
        ds, prov, grid, k = synth
        edge_raw = prov.edge(0, 6)
        vis = VisionEdge(0, 6, edge_raw.pixels, edge_raw.targets,
                         edge_raw.weights)
        d = 1.0 / prov.depth_hint(0, grid)
        T_i = ds.frame_pose(0)
        T_j_gt = ds.frame_pose(6)
        rng = np.random.default_rng(11)
        T_j = T_j_gt.retract(rng.normal(0, 0.02, 3), rng.normal(0, 0.05, 3))
        rel = align_loop_pair(vis, d, T_i, T_j, k)
        assert (rel.i, rel.j) == (0, 6)
        # a rigid measurement, T_i^-1 T_j
        assert isinstance(rel.measurement, Pose)
        T_rec = T_i * rel.measurement
        rot_err = np.linalg.norm(
            (T_rec.rotation.inverse() * T_j_gt.rotation).log())
        assert rot_err < 1e-9
        assert np.linalg.norm(T_rec.translation - T_j_gt.translation) < 1e-9

    def test_information_is_clamped_and_symmetric(self, synth):
        ds, prov, grid, k = synth
        edge_raw = prov.edge(0, 6)
        vis = VisionEdge(0, 6, edge_raw.pixels, edge_raw.targets,
                         edge_raw.weights)
        d = 1.0 / prov.depth_hint(0, grid)
        rel = align_loop_pair(vis, d, ds.frame_pose(0), ds.frame_pose(6), k)
        info = rel.information
        assert info.shape == (6, 6)
        assert np.array_equal(info, info.T)
        vals = np.linalg.eigvalsh(info)
        # eigendecomposition round-off scales with the largest eigenvalue
        slack = 64 * np.finfo(float).eps * vals.max()
        assert vals.min() >= 1e-3 - slack
        assert vals.max() <= 1e8 * (1 + 1e-9)

    def test_information_is_the_rigid_hessian_in_frame_i(self, synth):
        # the alignment's Hessian is over T_j's body-frame translation, in
        # the similarity kernel; the rigid kernel's is over its world-frame
        # translation, and the relative residual reads R_i^T dp: both routes
        # must give one information
        ds, prov, grid, k = synth
        edge_raw = prov.edge(0, 6)
        vis = VisionEdge(0, 6, edge_raw.pixels, edge_raw.targets,
                         edge_raw.weights)
        d = 1.0 / prov.depth_hint(0, grid)
        T_i = ds.frame_pose(0)
        rel = align_loop_pair(vis, d, T_i, ds.frame_pose(6), k)
        J = stacked(vision_residual, [vis], [T_i], [T_i * rel.measurement], [d],
                    k).J_j[0].reshape(-1, 6)
        B = np.eye(6)
        B[3:, 3:] = T_i.rotation.matrix()
        want = map_eigenvalues(B.T @ (J.T @ J) @ B, lambda v: np.clip(v, 1e-3, 1e8))
        assert np.abs(rel.information - want).max() <= 1e-6 * np.abs(want).max()


def drifted_vision_graph(synth):
    """Six keyframes along the noise-free figure8 whose poses and chain
    drift rigidly, with one dense loop from the first to the last. Returns
    (graph, ground truth, the loop source's true disparities).

    Keyframe n is turned about the first keyframe's centre by n/5 of the
    rotation vector (0.1, -0.1, 0.3) rad, so the end keyframe is 0.14 m
    off. The drift keeps each keyframe's distance from the first: a loop
    whose source disparities are free sees the relative pose up to the
    length of its baseline, which only the chain measures."""
    ds, prov, grid, k = synth
    frames = [0, 2, 4, 6, 8, 10]
    gt = [ds.frame_pose(f) for f in frames]
    p0 = gt[0].translation
    drifted = [gt[0]]
    for n in range(1, 6):
        R = Rotation.exp(n / 5.0 * np.array([0.1, -0.1, 0.3]))
        drifted.append(Pose(R, p0 - R.apply(p0)) * gt[n])
    edge_raw = prov.edge(frames[0], frames[-1])
    vis = VisionEdge(0, 5, edge_raw.pixels, edge_raw.targets,
                     edge_raw.weights)
    d0 = 1.0 / prov.depth_hint(frames[0], grid)
    rel = align_loop_pair(vis, d0, drifted[0], drifted[5], k)
    nodes = [Keyframe(n, drifted[n], d0.copy() if n == 0 else ())
             for n in range(6)]
    g = PoseGraph(nodes, chain_from(drifted), [LoopEdge(0, 5, rel, vis)],
                  intrinsics=k)
    return g, gt, d0


class TestSolvePgba:
    def exact_graph(self):
        states = [int_state([k, 2.0 * k % 7, -(k % 3)]) for k in range(61)]
        nodes = [Keyframe(k, s, PIX_D if k == 0 else ()) for k, s in enumerate(states)]
        return PoseGraph(nodes, chain_from(states),
                         [exact_loop(0, 60, states[0], states[60])], PINHOLE)

    def test_exactly_consistent_graph_is_untouched(self):
        g = self.exact_graph()
        before = [(n.state.rotation.q.copy(), n.state.translation.copy())
                  for n in g.nodes]
        assert total_pg_energy(g) == 0.0
        report, corr = solve_pgba(g)
        assert report.final_cost == 0.0
        for node, (q, t) in zip(g.nodes, before):
            assert np.array_equal(node.state.rotation.q, q)
            assert np.array_equal(node.state.translation, t)
        for e in corr.entries.values():
            assert e.scale_change == 1.0 and not e.moved()

    def test_requires_a_loop_edge(self):
        states = [int_state([k, 0, 0]) for k in range(5)]
        nodes = [Keyframe(k, s) for k, s in enumerate(states)]
        g = PoseGraph(nodes, chain_from(states), [])
        with pytest.raises(ValueError, match="no loop edges"):
            solve_pgba(g)

    def test_rejects_disconnected_graph(self):
        nodes = [Keyframe(0, int_state([0, 0, 0]), PIX_D),
                 Keyframe(60, int_state([5, 0, 0]))]
        g = PoseGraph(nodes, [], [loop_edge(0, 60)], PINHOLE)
        with pytest.raises(ValueError, match="disconnected"):
            solve_pgba(g)

    def test_non_finite_energy_raises(self):
        g = self.exact_graph()
        bad = g.chain[30]
        g.chain[30] = RelativePoseEdge(bad.i, bad.j, Pose(
            Rotation.identity(), np.array([np.nan, 0.0, 0.0])), bad.information)
        with pytest.raises(RuntimeError, match="finite"):
            solve_pgba(g)

    def test_gauge_state_is_bit_identical(self, synth):
        g, _, _ = drifted_vision_graph(synth)
        q0 = g.nodes[0].state.rotation.q.copy()
        t0 = g.nodes[0].state.translation.copy()
        solve_pgba(g)
        assert np.array_equal(g.nodes[0].state.rotation.q, q0)
        assert np.array_equal(g.nodes[0].state.translation, t0)

    def test_vision_loop_refines_states_and_disparities(self, synth):
        g, gt, d0 = drifted_vision_graph(synth)
        err_before = np.linalg.norm(g.nodes[5].state.translation - gt[5].translation)
        report, _ = solve_pgba(g, SolveOptions(max_iterations=15))
        err_after = np.linalg.norm(g.nodes[5].state.translation
                                   - gt[5].translation)
        assert report.final_cost < report.initial_cost / 100.0
        assert err_after < err_before / 4.0
        assert not np.array_equal(g.nodes[0].disparities, d0)
        assert np.all(g.nodes[0].disparities > 0.0)


def vision_loop_graph(rng, n_nodes, sources):
    """A pose graph with a chain over n_nodes poses near a line and one loop
    vision edge per (i, j) of each source's pixel count: sources maps source
    kid -> (pixel count, [loop ends j])."""
    states = [Pose(Rotation.exp(rng.normal(0, 0.02, 3)),
                   np.array([0.05 * k, 0.0, 0.0]) + rng.normal(0, 0.01, 3))
              for k in range(n_nodes)]
    nodes = [Keyframe(k, s) for k, s in enumerate(states)]
    loops = []
    for i, (n, ends) in sources.items():
        pixels = np.stack([rng.uniform(100, 540, n), rng.uniform(80, 400, n)], axis=1)
        nodes[i].disparities = rng.uniform(0.2, 0.5, n)
        for j in ends:
            vis = VisionEdge(i, j, pixels, pixels + rng.normal(0, 2.0, (n, 2)),
                             np.full((n, 2), 1.3))
            loops.append(LoopEdge(i, j, unit_rel(i, j), vis))
    return PoseGraph(nodes, chain_from(states), loops, intrinsics=PINHOLE)


def test_pose_graph_schur_step_matches_dense_step():
    # node 1 sources two loops, so its Schur block holds the cross terms of
    # two edges; node 2 sources one loop of another pixel count
    rng = np.random.default_rng(41)
    g = vision_loop_graph(rng, 9, {1: (12, [5, 8]), 2: (9, [7])})
    problem = _PoseGraphProblem(g)
    assert sorted((len(group.edges), len(group.edges[0].pixels))
                  for group in problem.groups) == [(1, 9), (2, 12)]
    problem.evaluate()
    problem.linearize()
    for lam in (1e-4, 1.0):
        got = problem.step(lam)
        want = oracles.dense_step(problem.system, lam)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def test_pose_graph_rows_match_per_edge_scatter():
    # the chain's stacked relative-pose rows against the eager per-edge
    # oracle scattered block by block
    rng = np.random.default_rng(43)
    g = vision_loop_graph(rng, 9, {1: (12, [5, 8])})
    for node in g.nodes[1:]:
        node.state = node.state.retract(rng.normal(0, 0.02, 3), rng.normal(0, 0.02, 3))
    problem = _PoseGraphProblem(g)
    problem.evaluate()
    lay = problem.layout
    want = NormalEquations(lay)
    for group, out in zip(problem.groups, problem.outs[0]):
        want.add_pixels(group, out.J, out.J_disparity, out.residual)
    for edge in g.chain:
        out = oracles.relative_pose_residual(edge, g.node(edge.i).state,
                                             g.node(edge.j).state)
        oracles.add_rows(want, [(lay.cols(edge.i, 6), out.J_i),
                                (lay.cols(edge.j, 6), out.J_j)], out.residual)
    problem.linearize()
    for name in ("H_pp", "g_p"):
        got, ref = getattr(problem.system, name), getattr(want, name)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), name


def test_pose_graph_step_allocates_no_pose_by_disparity_matrix():
    # 120 nodes and 10,000 loop-source disparities: a dense (pose vars,
    # disparities) coupling alone would take 720 x 10,000 x 8 B
    rng = np.random.default_rng(42)
    g = vision_loop_graph(rng, 120, {i: (500, [i + 100]) for i in range(20)})
    problem = _PoseGraphProblem(g)
    assert problem.layout.n_pose_vars == 720 and problem.layout.n_disp == 10_000
    problem.evaluate()
    tracemalloc.start()
    try:
        problem.linearize()
        dx = problem.step(1e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(dx))
    assert peak < 16e6


def bare_tracker(k):
    """A tracker past initialization with an empty window, built directly."""
    graph = FrameGraph([], [], [], GravityModel(), k)
    return TrackerState(provider=None, policy=None, init_cfg=InitConfig(),
                        noise=ImuNoiseModel(), graph=graph, phase=PHASE_FULL)


def push_keyframe(tracker, kid, frame, pose, chain_edge=None):
    """Make kid, at pose, the tracker's one window keyframe. The keyframe
    before it moves to the archive with chain_edge (a unit edge by
    default), as the tracker's eviction does for a one-keyframe window."""
    graph = tracker.graph
    if graph.keyframes:
        old = graph.keyframes.pop()
        tracker.archive.append(ArchivedKeyframe(
            old.kid, tracker.frame_of.pop(old.kid), old.state.timestamp,
            old.state.pose, chain_edge or unit_rel(old.kid, kid)))
    graph.keyframes.append(Keyframe(kid, PoseState(pose, np.zeros(3), BiasState(),
                                                   float(frame))))
    tracker.frame_of[kid] = frame


@pytest.fixture(scope="module")
def worker_run():
    """Full worker pass over a revisiting trajectory with injected drift,
    read from a tracker's archive and window through its KeyframeView."""
    model = TrajectoryModel(family="figure8", amplitude=1.5, period=12.0,
                            duration=12.8, yaw_policy="tangent")
    ds = make_dataset(model, sigma_px=0.0, frame_rate=10.0)
    prov = SyntheticProvider(ds, stride=40)
    grid = prov.grid_pixels()
    n = ds.n_frames()
    gt = [ds.frame_pose(f) for f in range(n)]
    drifted = []
    for f in range(n):
        a = f / (n - 1)
        D = Pose(Rotation.exp(a * np.array([0.0, 0.0, 0.05])),
                 a * np.array([0.25, -0.20, 0.10]))
        drifted.append(D * gt[f])
    chain = chain_from(drifted)

    tracker = bare_tracker(prov.intrinsics())
    view = KeyframeView(tracker)
    worker = LoopWorker(prov.intrinsics(), prov.edge,
                        LoopPolicy(solve_iterations=20))
    admitted, ingested = [], {}
    for f in range(n):
        push_keyframe(tracker, f, f, drifted[f], chain[f - 1] if f else None)
        ingested[f] = 1.0 / prov.depth_hint(f, grid)
        pair = worker.ingest_summary(view, ingested[f].copy())
        if pair is not None:
            admitted.append(pair)
    report, corr = worker.solve(view)
    return {
        "n": n, "gt": gt, "drifted": drifted, "tracker": tracker,
        "worker": worker, "ingested": ingested, "admitted": admitted,
        "report": report, "correction": corr,
    }


class TestLoopWorker:
    def test_loops_admitted_respect_gap(self, worker_run):
        admitted = worker_run["admitted"]
        assert len(admitted) > 0
        assert all(j - i >= 55 for i, j in admitted)
        assert worker_run["worker"].loops_closed == len(admitted)

    def test_period_revisit_is_found(self, worker_run):
        # the trajectory repeats after 120 frames, so keyframe 120 must
        # close against keyframe 0
        assert (0, 120) in worker_run["admitted"]

    def test_solve_collapses_energy(self, worker_run):
        report = worker_run["report"]
        assert report.final_cost < 1e-3 * report.initial_cost

    def test_revisit_drift_removed(self, worker_run):
        n, gt = worker_run["n"], worker_run["gt"]
        drifted, entries = worker_run["drifted"], worker_run["correction"].entries
        err0 = np.array([np.linalg.norm(drifted[f].translation
                                        - gt[f].translation)
                         for f in range(n)])
        err1 = np.array([np.linalg.norm(entries[f].new_pose.translation
                                        - gt[f].translation)
                         for f in range(n)])
        revisit = slice(113, n)
        rms0 = np.sqrt(np.mean(err0[revisit] ** 2))
        rms1 = np.sqrt(np.mean(err1[revisit] ** 2))
        assert rms1 < rms0 / 10.0
        assert err1[120] < 1e-2
        assert np.sqrt(np.mean(err1 ** 2)) < np.sqrt(np.mean(err0 ** 2))

    def test_correction_covers_all_keyframes(self, worker_run):
        corr = worker_run["correction"]
        assert set(corr.entries) == set(range(worker_run["n"]))
        gauge = corr.entries[0]
        assert np.array_equal(gauge.old_pose.rotation.q,
                              gauge.new_pose.rotation.q)
        assert np.array_equal(gauge.old_pose.translation,
                              gauge.new_pose.translation)
        assert all(e.scale_change == 1.0 for e in corr.entries.values())

    def test_archived_nodes_enter_at_unit_scale(self, worker_run):
        # a node is the tracker's pose, which has no scale; the solve does
        # not write it back, since the correction is the tracker's to
        # apply. The worker keeps only the disparities, and the solve moves
        # those of the loop sources
        worker, corr = worker_run["worker"], worker_run["correction"]
        rows = KeyframeView(worker_run["tracker"]).rows()
        assert len(worker_run["tracker"].archive) == len(rows) - 1
        for row in rows:
            assert isinstance(row.pose, Pose)
            assert row.pose is worker_run["drifted"][row.kid]
            assert corr.entries[row.kid].old_pose is row.pose
        moved = {kid for kid, d in worker.disparities.items()
                 if not np.array_equal(d, worker_run["ingested"][kid])}
        assert moved == {loop.i for loop in worker.loops}

    def test_duplicate_summary_rejected(self, worker_run):
        worker = worker_run["worker"]
        with pytest.raises(ValueError, match="already"):
            worker.ingest_summary(KeyframeView(worker_run["tracker"]), np.ones(1))

    def test_solve_without_loops_returns_none(self, synth):
        _, prov, _, k = synth
        worker = LoopWorker(k, prov.edge, LoopPolicy())
        assert worker.solve(KeyframeView(bare_tracker(k))) is None
        assert worker.pending is False

    def test_each_pair_is_synthesized_once_per_summary(self, synth):
        ds, prov, grid, k = synth
        calls = []

        def counting_edge(fi, fj):
            calls.append((fi, fj))
            return prov.edge(fi, fj)

        tracker = bare_tracker(k)
        worker = LoopWorker(k, counting_edge, LoopPolicy())
        for kid, frame in ((0, 0), (1, 1), (2, 2), (60, 3)):
            push_keyframe(tracker, kid, frame, ds.frame_pose(frame))
            pair = worker.ingest_summary(KeyframeView(tracker),
                                         1.0 / prov.depth_hint(frame, grid))
        assert pair is not None and worker.loops_closed == 1
        assert sorted(calls) == [(0, 3), (1, 3), (2, 3)]

    @pytest.mark.parametrize("inserted_deg, corrected_deg, closes",
                             [(0.0, 150.0, False), (150.0, 0.0, True)])
    def test_orientation_gate_reads_the_corrected_pose(self, synth, inserted_deg,
                                                       corrected_deg, closes):
        # a correction turns keyframe 0 across ANG_GATE_DEG, relative to
        # keyframe 60, from the rotation it was inserted with: the gate
        # decides by the pose the tracker holds after the correction
        ds, prov, grid, k = synth
        calls = []

        def counting_edge(fi, fj):
            calls.append((fi, fj))
            return prov.edge(fi, fj)

        def turned(deg):
            P = ds.frame_pose(0)
            return Pose(Rotation.exp(np.array([0.0, 0.0, math.radians(deg)]))
                        * P.rotation, P.translation)

        tracker = bare_tracker(k)
        view = KeyframeView(tracker)
        worker = LoopWorker(k, counting_edge, LoopPolicy())
        push_keyframe(tracker, 0, 0, turned(inserted_deg))
        worker.ingest_summary(view, 1.0 / prov.depth_hint(0, grid))
        inserted = tracker.graph.keyframes[0].state.pose
        apply_correction(tracker, LoopCorrection(
            {0: CorrectionEntry(0, inserted, turned(corrected_deg))}))
        push_keyframe(tracker, 60, 3, ds.frame_pose(3))
        pair = worker.ingest_summary(view, 1.0 / prov.depth_hint(3, grid))
        assert (pair == (0, 60)) is closes
        assert calls == ([(0, 3)] if closes else [])


def make_static_delta(duration=0.1):
    gravity = GravityModel()
    ts = np.arange(0.0, duration + 1e-9, 0.005)
    samples = ImuSamples(ts, np.zeros((len(ts), 3)),
                         np.tile(-gravity.vector(), (len(ts), 1)))
    return preintegrate(samples, BiasState(), ImuNoiseModel())


def tiny_tracker():
    """Three-keyframe window on frames 10-12 plus one archived pose, built
    directly."""
    rng = np.random.default_rng(2)
    pix = np.stack([rng.uniform(50, 590, 5), rng.uniform(50, 430, 5)], axis=1)
    kfs = []
    for n in range(3):
        pose = Pose(Rotation.exp(np.array([0.0, 0.0, 0.1 * n])),
                    np.array([0.5 * n, 0.1, 0.0]))
        state = PoseState(pose, np.array([0.2, 0.0, 0.1]), BiasState(),
                          timestamp=1.0 + n)
        kfs.append(Keyframe(n, state, rng.uniform(0.3, 0.8, 5)))
    delta = make_static_delta()
    edges = [VisionEdge(0, 1, pix, pix, np.ones((5, 2))),
             VisionEdge(1, 2, pix, pix, np.ones((5, 2)))]
    graph = FrameGraph(kfs, edges, [(0, 1, delta), (1, 2, delta)],
                       GravityModel(), PINHOLE)
    tracker = TrackerState(provider=None, policy=None, init_cfg=InitConfig(),
                           noise=ImuNoiseModel(), graph=graph,
                           phase=PHASE_FULL, frame_of={0: 10, 1: 11, 2: 12})
    archived = PoseState(Pose(Rotation.identity(), np.array([9.0, 0.0, 0.0])),
                         np.zeros(3), BiasState(), timestamp=0.5)
    tracker.archive.append(ArchivedKeyframe(
        kid=100, frame_index=0, timestamp=0.5, pose=archived.pose,
        chain_edge=eviction_edge(100, 0, archived, kfs[0].state, delta)))
    return tracker


def assert_same_pose(pose, want):
    """Bit-equal rotation and translation."""
    assert np.array_equal(pose.rotation.q, want.rotation.q)
    assert np.array_equal(pose.translation, want.translation)


class TestTrackerSeam:
    def test_view_lists_archive_then_window_at_current_poses(self):
        tracker = tiny_tracker()
        rows = KeyframeView(tracker).rows()
        kf = tracker.graph.keyframes
        assert [r.kid for r in rows] == [100, 0, 1, 2]
        assert [r.frame_index for r in rows] == [0, 10, 11, 12]
        assert rows[0] is tracker.archive[0]
        assert all(r.pose is k.state.pose and r.timestamp == k.state.timestamp
                   for r, k in zip(rows[1:], kf))

    def test_view_chain_is_archive_edges_then_fresh_window_edges(self):
        tracker = tiny_tracker()
        chain = KeyframeView(tracker).chain()
        kf = tracker.graph.keyframes
        assert chain[0] is tracker.archive[0].chain_edge
        assert [(e.i, e.j) for e in chain[1:]] == [(0, 1), (1, 2)]
        expect = kf[0].state.pose.inverse() * kf[1].state.pose
        got = chain[1].measurement
        assert np.allclose(got.translation, expect.translation)
        assert np.allclose(got.rotation.q, expect.rotation.q)

    def test_view_rows_are_read_only(self):
        tracker = tiny_tracker()
        rows = KeyframeView(tracker).rows()
        with pytest.raises(ValueError, match="read-only"):
            rows[1].pose.translation[:] = 99.0
        assert np.array_equal(tracker.graph.keyframes[0].state.pose.translation,
                              [0.0, 0.1, 0.0])

    def test_ingest_builds_no_chain_edge(self, monkeypatch):
        # eviction_edge costs an eigendecomposition and a Cholesky per
        # window pair: only a solve's chain() may build them
        tracker = tiny_tracker()
        built = []
        real = eviction_edge

        def counting(*args):
            built.append(args[:2])
            return real(*args)

        monkeypatch.setattr("vislam.frontend.eviction_edge", counting)
        worker = LoopWorker(PINHOLE, None, LoopPolicy())
        assert worker.ingest_summary(KeyframeView(tracker), np.ones(5)) is None
        assert built == []
        KeyframeView(tracker).chain()
        assert built == [(0, 1), (1, 2)]

    def test_apply_correction_warps_window_and_archive(self):
        tracker = tiny_tracker()
        kf1 = tracker.graph.keyframes[1]
        old_pose = kf1.state.pose
        old_vel = kf1.state.velocity.copy()
        old_disp = kf1.disparities.copy()
        delta = Pose(Rotation.exp(np.array([0.0, 0.0, 0.2])),
                     np.array([0.3, -0.1, 0.05]))
        arch = tracker.archive[0]
        arch_old = arch.pose

        untouched = tracker.graph.keyframes[0].state.pose
        corr = LoopCorrection({
            0: CorrectionEntry(0, untouched, untouched),
            1: CorrectionEntry(1, old_pose, delta * old_pose),
            100: CorrectionEntry(100, arch_old, delta * arch_old),
        })
        n = apply_correction(tracker, corr)
        assert n == 2
        # keyframe 0: unchanged entry leaves the object untouched
        assert tracker.graph.keyframes[0].state.pose is untouched
        # keyframe 1: the solved pose handed over bit for bit, velocity
        # rotated, disparities as they were
        assert_same_pose(kf1.state.pose, corr.entries[1].new_pose)
        assert np.allclose(kf1.state.velocity, delta.rotation.apply(old_vel),
                           atol=1e-12)
        assert np.array_equal(kf1.disparities, old_disp)
        # keyframe 2: no entry, untouched
        assert tracker.graph.keyframes[2].state.pose.translation[0] == 1.0
        # archived pose rewarped
        assert_same_pose(arch.pose, corr.entries[100].new_pose)

    def test_apply_correction_rejects_a_scale_change(self):
        tracker = tiny_tracker()
        kf1 = tracker.graph.keyframes[1]
        before = kf1.state
        moved = Pose(kf1.state.pose.rotation, kf1.state.pose.translation + 0.1)
        corr = LoopCorrection({
            1: CorrectionEntry(1, kf1.state.pose, moved),
            2: CorrectionEntry(2, tracker.graph.keyframes[2].state.pose, moved, 1.5),
        })
        with pytest.raises(ValueError, match="rigid"):
            apply_correction(tracker, corr)
        assert kf1.state is before

    def test_apply_correction_roundtrip_with_solver_output(self):
        # push the window through a real pose-graph solve and apply the
        # correction back: tracker poses must land on the solved states
        tracker = tiny_tracker()
        tracker.archive.clear()
        view = KeyframeView(tracker)
        kf0, kf2 = tracker.graph.keyframes[0], tracker.graph.keyframes[2]
        src = tracker.graph.vision_edges[0]
        rng = np.random.default_rng(5)
        vis = VisionEdge(0, 2, src.pixels, src.pixels + rng.normal(0, 3.0, src.pixels.shape),
                         np.ones_like(src.pixels))
        big_nodes = [Keyframe(r.kid, r.pose, kf0.disparities if r.kid == 0 else ())
                     for r in view.rows()]
        g = PoseGraph(big_nodes, view.chain(),
                      [LoopEdge(0, 2, unit_rel(0, 2, kf0.state.pose.inverse()
                                               * kf2.state.pose), vis)],
                      PINHOLE)
        _, corr = solve_pgba(g, SolveOptions(max_iterations=10))
        assert any(e.moved() for e in corr.entries.values())
        apply_correction(tracker, corr)
        for node, kf in zip(g.nodes, tracker.graph.keyframes):
            assert_same_pose(kf.state.pose, node.state)
