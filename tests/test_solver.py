"""Solver contracts: energy accounting, step equivalence, recovery, gauge."""

import copy
import math
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import oracles
from vislam import solver
from vislam.geometry import Pose, Rotation
from vislam.residuals import (
    GRAVITY_TANGENT_BASIS,
    GravityModel,
    InertialResidualResult,
    VisionEdge,
    VisionResidualResult,
)
from vislam.solver import (
    POSE_DOF,
    FrameGraph,
    Keyframe,
    SolveOptions,
    lm_solve,
    solve_vi_ba,
    total_energy,
)
from windows import ate_rmse, build_window, perturb_graph, stacked


def _clone(graph):
    return copy.deepcopy(graph)


def _angle(a, b) -> float:
    """Geodesic angle in radians between two rotations."""
    return float(np.linalg.norm((a.inverse() * b).log()))


def test_total_energy_zero_at_ground_truth():
    rng = np.random.default_rng(20)
    graph, _ = build_window(rng, n_kf=4, n_px=10)
    assert total_energy(graph) < 1e-12


def test_total_energy_matches_manual_dense_sum():
    rng = np.random.default_rng(21)
    graph, _ = build_window(rng, n_kf=4, n_px=12)
    perturb_graph(graph, rng, skip_frozen=())

    from vislam.residuals import inertial_residual, vision_residual

    manual = 0.0
    for e in graph.vision_edges:
        out = stacked(vision_residual, [e], [graph.kf(e.i).state.pose], [graph.kf(e.j).state.pose],
                      [graph.kf(e.i).disparities], graph.intrinsics)
        manual += float((out.residual[0] ** 2).sum())
    for i, j, delta in graph.inertial_edges:
        out = stacked(inertial_residual, [delta], [graph.kf(i).state], [graph.kf(j).state],
                      graph.gravity)
        manual += float((out.residual[0] ** 2).sum())
    got = total_energy(graph)
    assert abs(got - manual) <= 1e-10 * max(manual, 1.0)


def test_total_energy_weight_doubling_doubles_vision_term():
    rng = np.random.default_rng(22)
    graph, _ = build_window(rng, n_kf=3, n_px=10)
    graph.inertial_edges = []
    graph = FrameGraph(graph.keyframes, graph.vision_edges, [], graph.gravity,
                       graph.intrinsics)
    perturb_graph(graph, rng, skip_frozen=())
    e1 = total_energy(graph)
    for edge in graph.vision_edges:
        edge.weights = edge.weights * 2.0
    e2 = total_energy(graph)
    assert e1 > 0
    assert abs(e2 - 2.0 * e1) <= 1e-12 * e2


def test_zero_iterations_echoes_initial_cost():
    rng = np.random.default_rng(23)
    graph, _ = build_window(rng, n_kf=3, n_px=8)
    perturb_graph(graph, rng)
    before = [kf.state.pose.translation.copy() for kf in graph.keyframes]
    c0 = total_energy(graph)
    report = solve_vi_ba(graph, SolveOptions(max_iterations=0))
    assert report.iterations == 0
    assert report.initial_cost == report.final_cost == c0
    for kf, p in zip(graph.keyframes, before):
        assert np.all(kf.state.pose.translation == p)


def test_recovers_perturbed_window():
    rng = np.random.default_rng(24)
    graph, truth = build_window(rng, n_kf=8, n_px=30)
    perturb_graph(graph, rng, rot_deg=2.0, trans_m=0.05)
    report = solve_vi_ba(graph, SolveOptions(max_iterations=15))
    assert report.iterations <= 15
    assert ate_rmse([kf.state for kf in graph.keyframes], truth) <= 1e-5


def test_cost_trajectory_strictly_decreasing():
    rng = np.random.default_rng(25)
    graph, _ = build_window(rng, n_kf=5, n_px=15)
    perturb_graph(graph, rng, rot_deg=3.0, trans_m=0.08)
    report = solve_vi_ba(graph, SolveOptions(max_iterations=8))
    c = report.cost_trajectory
    assert all(c[k + 1] < c[k] for k in range(len(c) - 1))
    assert abs(report.final_cost - total_energy(graph)) <= 1e-10 * max(report.final_cost, 1.0)


def test_zero_weight_vision_drives_inertial_to_zero():
    rng = np.random.default_rng(26)
    graph, _ = build_window(rng, n_kf=5, n_px=10, vision_weight=0.0)
    perturb_graph(graph, rng, rot_deg=1.0, trans_m=0.03, vel=0.05)
    solve_vi_ba(graph, SolveOptions(max_iterations=25))

    from vislam.residuals import inertial_residual

    e_iner = 0.0
    for i, j, delta in graph.inertial_edges:
        out = stacked(inertial_residual, [delta], [graph.kf(i).state], [graph.kf(j).state],
                      graph.gravity)
        e_iner += float((out.residual[0] ** 2).sum())
    assert e_iner <= 1e-10


@pytest.mark.parametrize("n_kf,n_px", [(3, 20), (5, 50), (4, 7)])
def test_schur_step_matches_dense_step(n_kf, n_px):
    rng = np.random.default_rng(100 + n_kf * 10 + n_px)
    graph, _ = build_window(rng, n_kf=n_kf, n_px=n_px)
    perturb_graph(graph, rng, rot_deg=2.0, trans_m=0.05)

    g_schur = _clone(graph)
    g_dense = _clone(graph)
    solve_vi_ba(g_schur, SolveOptions(max_iterations=3))
    oracles.solve_vi_ba_dense(g_dense, SolveOptions(max_iterations=3))

    for a, b in zip(g_schur.keyframes, g_dense.keyframes):
        assert np.abs(a.state.pose.translation - b.state.pose.translation).max() <= 1e-8
        assert _angle(a.state.pose.rotation, b.state.pose.rotation) <= 1e-8
        assert np.abs(a.state.velocity - b.state.velocity).max() <= 1e-8
        assert np.abs(a.disparities - b.disparities).max() <= 1e-8


def test_frozen_blocks_bit_identical():
    rng = np.random.default_rng(27)
    graph, _ = build_window(rng, n_kf=5, n_px=12)
    perturb_graph(graph, rng)
    frozen = graph.kf(0).state
    q0 = frozen.pose.rotation.q.tobytes()
    p0 = frozen.pose.translation.tobytes()
    v0 = frozen.velocity.tobytes()
    b0 = frozen.bias.vector().tobytes()
    solve_vi_ba(graph, SolveOptions(max_iterations=5))
    after = graph.kf(0).state
    assert after.pose.rotation.q.tobytes() == q0
    assert after.pose.translation.tobytes() == p0
    assert after.velocity.tobytes() == v0
    assert after.bias.vector().tobytes() == b0


@pytest.mark.parametrize("inertial", [True, False])
def test_gauge_rotation_is_never_renormalized(inertial):
    # a gauge rotation whose quaternion changes bits under q * Exp(0): a
    # retraction that moved the gauge by its zero segment would change it
    rng = np.random.default_rng(28)
    graph, _ = build_window(rng, n_kf=5, n_px=12)
    perturb_graph(graph, rng)
    gauge = graph.kf(0)
    for _ in range(1000):
        R = gauge.state.pose.rotation * Rotation.exp(rng.normal(0.0, 1e-3, 3))
        if (R * Rotation.exp(np.zeros(3))).q.tobytes() != R.q.tobytes():
            break
    else:
        pytest.fail("no rotation that renormalization changes")
    gauge.state = replace(gauge.state, pose=Pose(R, gauge.state.pose.translation))
    solve_vi_ba(graph if inertial else graph.vision_only(), SolveOptions(max_iterations=5))
    assert gauge.state.pose.rotation.q.tobytes() == R.q.tobytes()


def _value_bytes(gravity, states, disparities):
    """Every solved array of a window, as bytes."""
    out = [gravity.R_wg.q.tobytes()]
    for st, d in zip(states, disparities):
        out += [st.pose.rotation.q.tobytes(), st.pose.translation.tobytes(),
                st.velocity.tobytes(), st.bias.gyro_bias.tobytes(),
                st.bias.accel_bias.tobytes(), d.tobytes()]
    return out


def _state_bytes(graph):
    return _value_bytes(graph.gravity, [kf.state for kf in graph.keyframes],
                        [kf.disparities for kf in graph.keyframes])


def _problem_bytes(problem):
    return _value_bytes(problem.gravity, problem.states, problem.disparities)


def test_rejected_trial_restores_bit_for_bit():
    rng = np.random.default_rng(32)
    graph, _ = build_window(rng, n_kf=5, n_px=8)
    perturb_graph(graph, rng)

    def renormalized_by_a_copy():
        # a rotation whose q changes when Rotation(q.copy()) divides it by
        # its norm again (about 2% of random rotations)
        while True:
            r = Rotation.exp(rng.normal(size=3))
            if not np.array_equal(Rotation(r.q.copy()).q, r.q):
                return r

    for kf in graph.keyframes:
        kf.state = replace(kf.state, pose=Pose(renormalized_by_a_copy(),
                                               kf.state.pose.translation))
    graph.gravity = GravityModel(renormalized_by_a_copy(), graph.gravity.magnitude)
    problem = solver._WindowProblem(graph, SolveOptions(optimize_gravity=True))
    in_graph = _state_bytes(graph)
    saved = _problem_bytes(problem)
    assert saved == in_graph
    snap = problem.snapshot()
    n_vars = problem.layout.n_pose_vars + problem.layout.n_disp
    problem.retract(1e-3 * rng.normal(size=n_vars))
    assert _problem_bytes(problem) != saved
    assert _state_bytes(graph) == in_graph      # a trial never writes the graph
    problem.restore(snap)
    assert _problem_bytes(problem) == saved

    # the nodes are written once, with the problem's values
    problem.retract(1e-3 * rng.normal(size=n_vars))
    assert _state_bytes(graph) == in_graph
    problem.commit()
    assert _state_bytes(graph) == _problem_bytes(problem) != in_graph

    # a kept snapshot does not hold the old system beside the next one
    problem.evaluate()
    problem.linearize()
    snap = problem.snapshot()
    old_system = weakref.ref(problem.system)
    problem.evaluate()
    problem.linearize()
    assert old_system() is None


def test_solver_is_deterministic():
    rng = np.random.default_rng(28)
    graph, _ = build_window(rng, n_kf=4, n_px=10)
    perturb_graph(graph, rng)
    g1 = _clone(graph)
    g2 = _clone(graph)
    r1 = solve_vi_ba(g1, SolveOptions(max_iterations=6))
    r2 = solve_vi_ba(g2, SolveOptions(max_iterations=6))
    assert r1.cost_trajectory == r2.cost_trajectory
    for a, b in zip(g1.keyframes, g2.keyframes):
        assert a.state.pose.rotation.q.tobytes() == b.state.pose.rotation.q.tobytes()
        assert a.state.pose.translation.tobytes() == b.state.pose.translation.tobytes()
        assert a.disparities.tobytes() == b.disparities.tobytes()


# A window is its lists: each score or solve checks them when it is built.
def test_inertial_edges_must_cover_consecutive_pairs():
    rng = np.random.default_rng(29)
    graph, _ = build_window(rng, n_kf=4, n_px=6)
    graph.inertial_edges = graph.inertial_edges[:-1]
    for call in (total_energy, solve_vi_ba):
        with pytest.raises(ValueError):
            call(graph)


def test_repeated_inertial_edge_rejected():
    # scored twice if it were let through
    rng = np.random.default_rng(29)
    graph, _ = build_window(rng, n_kf=3, n_px=6)
    graph.inertial_edges = graph.inertial_edges + graph.inertial_edges[:1]
    for call in (total_energy, solve_vi_ba):
        with pytest.raises(ValueError, match="each once"):
            call(graph)


def test_window_rules_are_checked_against_the_current_lists():
    # edited in place, as the tracker does, with nothing to rebuild
    rng = np.random.default_rng(29)
    graph, _ = build_window(rng, n_kf=3, n_px=6)
    graph.keyframes.append(graph.keyframes[0])
    with pytest.raises(ValueError, match="duplicate"):
        total_energy(graph)
    graph.keyframes.pop()
    graph.vision_edges.append(VisionEdge(0, 99, np.zeros((6, 2)), np.zeros((6, 2)),
                                         np.ones((6, 2))))
    with pytest.raises(ValueError, match="unknown"):
        solve_vi_ba(graph)
    graph.vision_edges.pop()
    assert math.isfinite(total_energy(graph))


def test_gravity_gauge_optimization_reduces_energy():
    rng = np.random.default_rng(30)
    graph, _ = build_window(rng, n_kf=5, n_px=15)
    # tilt the assumed gravity a little and let the solver take it back
    graph.gravity = GravityModel(graph.gravity.R_wg * Rotation.exp(np.array([0.01, -0.02, 0.0])))
    e0 = total_energy(graph)
    solve_vi_ba(graph, SolveOptions(max_iterations=10, optimize_gravity=True))
    e1 = total_energy(graph)
    assert e1 < e0 * 1e-3


def _two_pixel_counts(graph, drop=3):
    """The graph with every second keyframe, and the edges it sources,
    tracking `drop` fewer pixels."""
    short = {kf.kid for n, kf in enumerate(graph.keyframes) if n % 2}
    keyframes = [Keyframe(kf.kid, kf.state, kf.disparities[:-drop])
                 if kf.kid in short else kf for kf in graph.keyframes]
    edges = [VisionEdge(e.i, e.j, e.pixels[:-drop], e.targets[:-drop], e.weights[:-drop])
             if e.i in short else e for e in graph.vision_edges]
    return FrameGraph(keyframes, edges, graph.inertial_edges, graph.gravity,
                      graph.intrinsics)


def test_two_pixel_count_window_matches_per_edge_scatter():
    rng = np.random.default_rng(33)
    graph, _ = build_window(rng, n_kf=5, n_px=12)
    graph = _two_pixel_counts(graph)
    perturb_graph(graph, rng, skip_frozen=())
    opts = SolveOptions(optimize_gravity=True)
    problem = solver._WindowProblem(graph, opts)
    assert sorted(len(edges[0].pixels) for edges, *_ in problem.groups) == [9, 12]
    energy = problem.evaluate()
    problem.linearize()

    # the inertial rows alone over the same layout, plus the per-edge
    # oracle's vision rows
    ref = solver._WindowProblem(FrameGraph(graph.keyframes, [], graph.inertial_edges,
                                           graph.gravity, graph.intrinsics), opts)
    want_energy = ref.evaluate()
    ref.linearize()
    lay = problem.layout
    H_pd = np.zeros((lay.n_pose_vars, lay.n_disp))
    for e in graph.vision_edges:
        out = oracles.vision_residual(e, graph.kf(e.i).state.pose,
                                      graph.kf(e.j).state.pose,
                                      graph.kf(e.i).disparities, graph.intrinsics)
        want_energy += float((out.residual ** 2).sum())
        oracles.add_pixels(ref.system, H_pd, lay.cols(e.i, POSE_DOF), lay.cols(e.j, POSE_DOF),
                           np.r_[lay.disp_slice(e.i)], out.J_i, out.J_j,
                           out.J_disparity, out.residual)
    assert abs(energy - want_energy) <= 1e-12 * want_energy
    for name in ("H_pp", "H_dd", "g_p", "g_d"):
        got, want = getattr(problem.system, name), getattr(ref.system, name)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name
    got = oracles.dense_coupling(problem.system)
    assert np.abs(got - H_pd).max() <= 1e-12 * np.abs(H_pd).max(), "H_pd"


def test_one_pixel_count_window_is_one_kernel_call(monkeypatch):
    # the benchmark times the window's vision layer at this very name
    rng = np.random.default_rng(35)
    graph, _ = build_window(rng, n_kf=4, n_px=10)
    calls = []
    kernel = solver.vision_residual

    def counted(edges, *args, **kwargs):
        calls.append(len(edges.pixels))
        return kernel(edges, *args, **kwargs)

    monkeypatch.setattr(solver, "vision_residual", counted)
    total_energy(graph)
    assert calls == [len(graph.vision_edges)]


def test_one_window_is_one_inertial_call(monkeypatch):
    # the benchmark times the window's inertial layer at this very name
    rng = np.random.default_rng(36)
    graph, _ = build_window(rng, n_kf=5, n_px=8)
    calls = []
    kernel = solver.inertial_residual

    def counted(deltas, *args, **kwargs):
        calls.append(len(deltas.span))
        return kernel(deltas, *args, **kwargs)

    monkeypatch.setattr(solver, "inertial_residual", counted)
    total_energy(graph)
    assert calls == [len(graph.inertial_edges)]


def _count_builds(monkeypatch) -> Counter:
    """Counts of vision and inertial Jacobian builds, linearizations and
    window evaluations from here on."""
    counts = Counter()

    def counting(owner, attr, key):
        original = getattr(owner, attr)

        def counted(self, *args):
            counts[key] += 1
            return original(self, *args)
        monkeypatch.setattr(owner, attr, counted)

    counting(VisionResidualResult, "_jacobians", "vision")
    counting(InertialResidualResult, "_jacobians", "inertial")
    counting(solver.GraphProblem, "linearize", "linearize")
    counting(solver._WindowProblem, "evaluate", "evaluate")
    return counts


def test_solve_builds_jacobians_once_per_linearize(monkeypatch):
    # one pixel group: one vision and one inertial build per linearize, and
    # none for the final score
    rng = np.random.default_rng(38)
    graph, _ = build_window(rng, n_kf=5, n_px=12)
    perturb_graph(graph, rng, rot_deg=3.0, trans_m=0.08)
    counts = _count_builds(monkeypatch)
    report = solve_vi_ba(graph, SolveOptions(max_iterations=6))
    assert report.iterations > 0
    assert counts["vision"] == counts["inertial"] == counts["linearize"] > 0
    assert counts["evaluate"] > counts["linearize"]


def test_rejected_trial_and_total_energy_build_no_jacobian(monkeypatch):
    rng = np.random.default_rng(39)
    graph, _ = build_window(rng, n_kf=4, n_px=10)
    perturb_graph(graph, rng, rot_deg=2.0, trans_m=0.05)
    counts = _count_builds(monkeypatch)
    total_energy(graph)
    assert counts["vision"] == counts["inertial"] == 0

    # lm_solve's trial: snapshot, move uphill, score, restore
    problem = solver._WindowProblem(graph, SolveOptions())
    cost = problem.evaluate()
    problem.linearize()
    assert counts["vision"] == counts["inertial"] == 1
    snap = problem.snapshot()
    problem.retract(-problem.step(1e-4))
    assert problem.evaluate() > cost
    problem.restore(snap)
    assert counts["vision"] == counts["inertial"] == 1


def test_inertial_rows_match_per_edge_scatter():
    # the window's stacked inertial and gravity rows against the per-edge
    # kernel and block-by-block scatter
    rng = np.random.default_rng(37)
    graph, _ = build_window(rng, n_kf=5, n_px=6, vision_weight=0.0)
    perturb_graph(graph, rng, skip_frozen=())
    graph = FrameGraph(graph.keyframes, [], graph.inertial_edges, graph.gravity,
                       graph.intrinsics)
    problem = solver._WindowProblem(graph, SolveOptions(optimize_gravity=True))
    energy = problem.evaluate()
    problem.linearize()

    lay = problem.layout
    want = solver.NormalEquations(lay)
    want_energy = 0.0
    grav_cols = np.arange(lay.n_state, lay.n_pose_vars)
    for i, j, delta in graph.inertial_edges:
        out = oracles.inertial_residual(delta, graph.kf(i).state, graph.kf(j).state,
                                        graph.gravity)
        want_energy += float(out.residual @ out.residual)
        oracles.add_rows(want, [(lay.cols(i, lay.dof), out.J_i), (lay.cols(j, lay.dof), out.J_j),
                                (grav_cols, out.J_gravity @ GRAVITY_TANGENT_BASIS)],
                         out.residual)
    assert abs(energy - want_energy) <= 1e-12 * want_energy
    for name in ("H_pp", "g_p"):
        got, ref = getattr(problem.system, name), getattr(want, name)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), name


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0],
                         ids=["nan", "inf", "zero", "negative"])
def test_keyframe_rejects_non_finite_or_non_positive_disparity(bad):
    rng = np.random.default_rng(34)
    graph, _ = build_window(rng, n_kf=2, n_px=6)
    kf = graph.keyframes[1]
    d = kf.disparities.copy()
    d[2] = bad
    with pytest.raises(ValueError, match="finite and positive"):
        Keyframe(kf.kid, kf.state, d)


class _Rosenbrock:
    """Toy lm_solve problem: residuals (1 - x0, 10 (x1 - x0^2)).

    Records every point it is evaluated at.
    """

    def __init__(self, x=(-1.2, 1.0)):
        self.x = np.array(x, dtype=float)
        self.evaluated = []
        self.trials = 0

    def evaluate(self):
        self.evaluated.append(self.x.copy())
        x0, x1 = self.x
        self.r = np.array([1.0 - x0, 10.0 * (x1 - x0 * x0)])
        self.J = np.array([[-1.0, 0.0], [-20.0 * x0, 10.0]])
        return float(self.r @ self.r)

    def linearize(self):
        self.H = self.J.T @ self.J
        self.g = self.J.T @ self.r

    def step(self, lam):
        self.trials += 1
        return np.linalg.solve(self.H + lam * np.diag(np.diag(self.H)), -self.g)

    def retract(self, dx):
        self.x = self.x + dx

    def snapshot(self):
        return self.x, self.r, self.J

    def restore(self, snap):
        self.x, self.r, self.J = snap


def _assert_each_point_scored_once(problem):
    points = [p.tobytes() for p in problem.evaluated]
    assert len(points) == len(set(points))
    assert len(points) == 1 + problem.trials


def test_lm_solve_converges_and_scores_each_point_once():
    problem = _Rosenbrock()
    report = lm_solve(problem, SolveOptions(max_iterations=200, damping=1e-3))
    assert report.termination == "converged"
    assert np.allclose(problem.x, [1.0, 1.0], atol=1e-6)
    assert report.final_cost == report.cost_trajectory[-1] < report.initial_cost
    _assert_each_point_scored_once(problem)


def test_lm_solve_stops_at_max_iterations():
    problem = _Rosenbrock()
    report = lm_solve(problem, SolveOptions(max_iterations=2, damping=1e-3))
    assert report.termination == "max_iterations"
    assert report.iterations == 2
    assert len(report.cost_trajectory) == 3
    _assert_each_point_scored_once(problem)


def test_lm_solve_rejects_uphill_steps_until_max_damping():
    class Uphill(_Rosenbrock):
        def step(self, lam):
            return -super().step(lam)

    problem = Uphill()
    start = problem.x.copy()
    report = lm_solve(problem, SolveOptions(max_iterations=5))
    assert report.termination == "no_decrease_at_max_damping"
    assert report.iterations == 0
    assert report.final_cost == report.initial_cost
    assert np.array_equal(problem.x, start)
    _assert_each_point_scored_once(problem)


def test_lm_solve_reports_a_singular_system():
    class Singular(_Rosenbrock):
        def step(self, lam):
            raise RuntimeError("singular toy system")

    problem = Singular()
    report = lm_solve(problem, SolveOptions(max_iterations=5))
    assert report.termination == "singular: singular toy system"
    assert report.iterations == 0
    assert len(problem.evaluated) == 1


def test_lm_solve_rejects_a_trial_that_cannot_be_formed():
    class Fragile(_Rosenbrock):
        def retract(self, dx):
            super().retract(dx)
            if self.trials == 1:
                raise ValueError("unrepresentable state")

    problem = Fragile()
    report = lm_solve(problem, SolveOptions(max_iterations=200, damping=1e-3))
    assert report.termination == "converged"
    assert np.allclose(problem.x, [1.0, 1.0], atol=1e-6)
    assert len(problem.evaluated) == problem.trials


def test_lm_solve_refuses_a_non_finite_start():
    problem = _Rosenbrock(x=(np.nan, 1.0))
    with pytest.raises(RuntimeError, match="finite"):
        lm_solve(problem, SolveOptions())
