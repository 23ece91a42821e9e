"""Staged estimator bootstrap: vision-only geometry, then gravity, scale,
velocities, and bias from the preintegrated inertial terms, then one joint
refinement.

Stage 1 solves a vision-only bundle adjustment of the accumulated window, so
its geometry is known only up to a global similarity. Stage 2 freezes those
poses and fits the metric unknowns: a log-scale applied to all positions,
the 2-dof gravity orientation, one shared bias, and per-keyframe velocities.
It starts from log-scale 0 and from the velocities and gravity of one linear
least-squares fit of the same inertial rows (linear_alignment). Stage 3 runs
the full visual-inertial solve on the window that stage 2 committed, with
the gravity direction left free.

The stages take no config: each solves for a fixed iteration budget below
with SolveOptions' default damping. The window sizes at which the tracker
runs them are frontend.InitConfig.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import Pose, Rotation
from .imu import BiasState
from .residuals import (
    GRAVITY_TANGENT_BASIS,
    DeltaStack,
    GravityModel,
    StateStack,
    inertial_residual,
)
from .solver import (FrameGraph, GraphProblem, Layout, SolveOptions, SolveReport,
                     lm_solve, solve_vi_ba)

MAX_ITERATIONS_VISION = 30
MAX_ITERATIONS_INERTIAL = 60
MAX_ITERATIONS_JOINT = 15
# Stage 2 treats the stage-1 positions as data. Their error (a few mm) is
# ten times the preintegration's position sigma, and a fit that holds them
# exact prefers a small scale, since shrinking the scale shrinks that error.
# So each delta's position block gets this sigma (m) added in stage 2; the
# recovered scale is flat from 1 mm to 3 cm.
POSITION_SIGMA = 0.01


@dataclass
class InitResult:
    """The stage-2 log-scale and each stage's report; the estimate is the window's."""

    log_scale: float
    reports: dict = field(default_factory=dict)


def init_vision(graph: FrameGraph) -> SolveReport:
    """Stage 1: vision-only bundle adjustment of the window.

    Solves poses and disparities with inertial terms excluded and the first
    keyframe frozen, leaving the usual global-similarity gauge freedom.
    """
    if not graph.keyframes:
        raise ValueError("cannot initialize an empty window")
    return solve_vi_ba(graph.vision_only(),
                       SolveOptions(max_iterations=MAX_ITERATIONS_VISION))


def linear_alignment(graph: FrameGraph) -> tuple:
    """Stage 2's seed: metric velocities and gravity from one linear fit.

    np.linalg.lstsq fits each keyframe's velocity v, the gravity vector g
    and a free scale s to each inertial edge's Delta p and Delta v rows, as
    stage 2 scores them but unwhitened, at the bias linearization point and
    turned into the world by the stage-1 rotation R_i (VINS-Mono's linear
    alignment; Qin, Li & Shen, T-RO 2018), over the stage-1 positions p:

        s (p_j - p_i) - dt v_i - dt^2 g / 2 = R_i Delta p
        v_j - v_i - dt g = R_i Delta v

    s is a nuisance unknown: stage 2 starts from log-scale 0. Gravity keeps
    the window's magnitude, turned from the inertial axis onto the fitted
    direction with no yaw component.
    """
    n = len(graph.keyframes)
    pairs = [(i, j) for i, j, _ in graph.inertial_edges]
    i, j = Layout([kf.kid for kf in graph.keyframes], 0, [0] * n, 0, pairs).ends(pairs).T
    nodes = StateStack.of([kf.state for kf in graph.keyframes])
    deltas = DeltaStack.of([d for _, _, d in graph.inertial_edges])
    dt, e = deltas.span, np.arange(len(pairs))
    # each edge's (Delta p, Delta v) coefficients on v_0 .. v_n-1 and g, then on s
    C = np.zeros((len(pairs), 2, n + 1))
    C[e, 0, i], C[e, 1, i], C[e, 1, j] = -dt, -1.0, 1.0
    C[:, :, n] = np.stack([-0.5 * dt * dt, -dt], axis=1)
    on_s = np.stack([nodes.p[j] - nodes.p[i], np.zeros((len(pairs), 3))], axis=1)
    A = np.concatenate([np.kron(C, np.eye(3)), on_s.reshape(-1, 6, 1)], axis=2)
    b = nodes.R[i] @ np.stack([deltas.p, deltas.v], axis=2)
    x = np.linalg.lstsq(A.reshape(-1, 3 * n + 4), b.transpose(0, 2, 1).ravel(),
                        rcond=None)[0]
    g = x[3 * n:3 * n + 3]
    norm = np.linalg.norm(g)
    if norm < 1e-8:
        raise ValueError("gravity direction unobservable from these windows")
    direction = g / norm
    e3 = np.array([0.0, 0.0, 1.0])
    c = float(np.clip(direction @ e3, -1.0, 1.0))
    axis = np.cross(e3, direction)
    s = np.linalg.norm(axis)
    if s < 1e-12:
        # parallel or anti-parallel; the anti-parallel branch needs any
        # horizontal axis, picked deterministically
        rotvec = np.zeros(3) if c > 0.0 else np.array([np.pi, 0.0, 0.0])
    else:
        rotvec = axis / s * np.arctan2(s, c)
    return x[:3 * n].reshape(n, 3), GravityModel(Rotation.exp(rotvec),
                                                 graph.gravity.magnitude)


class _InertialOnly(GraphProblem):
    """Stage-2 problem for lm_solve, vision poses fixed. Its Layout holds
    the keyframes as nodes of no column, so no gauge; its columns are
    [log-scale, gravity (2), shared bias (6), velocities (3 per keyframe)].
    Its one family is dense: each inertial edge a row block on 15 columns.
    Its unknowns are values (s, gravity, bias, velocities), which commit()
    writes into the window. Each delta's position covariance is widened by
    POSITION_SIGMA^2 I."""

    def __init__(self, graph: FrameGraph):
        n = len(graph.keyframes)
        layout = Layout([kf.kid for kf in graph.keyframes], 0, [0] * n, 9 + 3 * n,
                        [(i, j) for i, j, _ in graph.inertial_edges])
        super().__init__([], layout)
        self.graph = graph
        self.s = 0.0
        self.gravity = graph.gravity
        self.bias = graph.keyframes[0].state.bias
        self.velocities = np.stack([kf.state.velocity for kf in graph.keyframes])
        self.ends = layout.ends((i, j) for i, j, _ in graph.inertial_edges)
        vel_cols = 9 + 3 * np.repeat(self.ends, 3, axis=1) + np.tile(np.arange(3), 2)
        self.row_cols = np.hstack([np.tile(np.arange(9), (len(self.ends), 1)), vel_cols])
        widen = np.zeros((15, 15))
        widen[3:6, 3:6] = POSITION_SIGMA ** 2 * np.eye(3)
        self.deltas = DeltaStack.of([replace(d, covariance=d.covariance + widen)
                                     for _, _, d in graph.inertial_edges])
        self.vision_states = StateStack.of([kf.state for kf in graph.keyframes])
        positions = self.vision_states.p
        self.p_i, self.p_j = positions[self.ends[:, 0]], positions[self.ends[:, 1]]

    def dense(self, nodes):
        """The inertial kernel at the scale-adjusted states."""
        es = float(np.exp(self.s))
        vis = self.vision_states
        states = vis._replace(p=es * vis.p, v=self.velocities,
                              b=np.tile(self.bias.vector(), (len(vis.p), 1)))
        return inertial_residual(self.deltas, states.take(self.ends[:, 0]),
                                 states.take(self.ends[:, 1]), self.gravity)

    def dense_rows(self, out):
        es = float(np.exp(self.s))
        J_s = (out.J_i[:, :, 3:6] @ (es * self.p_i)[:, :, None]
               + out.J_j[:, :, 3:6] @ (es * self.p_j)[:, :, None])
        return (np.concatenate([J_s, out.J_gravity @ GRAVITY_TANGENT_BASIS,
                                out.J_i[:, :, 9:15] + out.J_j[:, :, 9:15],
                                out.J_i[:, :, 6:9], out.J_j[:, :, 6:9]], axis=2),
                out.residual)

    def retract(self, dx: np.ndarray) -> None:
        self.s = self.s + float(dx[0])
        self.gravity = self.gravity.retract(GRAVITY_TANGENT_BASIS @ dx[1:3])
        self.bias = BiasState(self.bias.gyro_bias + dx[3:6],
                              self.bias.accel_bias + dx[6:9])
        self.velocities = self.velocities + dx[9:].reshape(-1, 3)

    def commit(self) -> None:
        """Positions scale by exp(s) and disparities by exp(-s), which keeps
        every vision residual; velocities, bias and gravity are replaced."""
        es = float(np.exp(self.s))
        for kf, v in zip(self.graph.keyframes, self.velocities):
            st = kf.state
            kf.state = replace(st, pose=Pose(st.pose.rotation, es * st.pose.translation),
                               velocity=v, bias=self.bias)
            kf.disparities = kf.disparities / es
        self.graph.gravity = self.gravity


def init_inertial_only(graph: FrameGraph) -> InitResult:
    """Stage 2: metric unknowns with the vision poses frozen, then commit().

    Gauss-Newton with Levenberg damping from log-scale 0 and the window's
    gravity, first bias and velocities (_InertialOnly gives the columns).
    Positions enter as exp(s) * p_vision; rotations and the vision geometry
    stay fixed. The solve stops on relative decrease alone: step_tol is the
    smallest positive float, which no accepted step goes below.
    """
    if len(graph.keyframes) < 2 or not graph.inertial_edges:
        raise ValueError("need at least two keyframes with inertial edges")
    problem = _InertialOnly(graph)
    report = lm_solve(problem, SolveOptions(
        max_iterations=MAX_ITERATIONS_INERTIAL, rel_decrease_tol=1e-10,
        step_tol=np.finfo(float).tiny))
    problem.commit()
    return InitResult(log_scale=problem.s, reports={"inertial": report})


def init_joint(graph: FrameGraph) -> SolveReport:
    """Stage 3: full visual-inertial solve with free gravity direction."""
    if not graph.keyframes:
        raise ValueError("cannot initialize an empty window")
    return solve_vi_ba(graph, SolveOptions(max_iterations=MAX_ITERATIONS_JOINT,
                                           optimize_gravity=True))


def run_full_initialization(graph: FrameGraph) -> InitResult:
    """All three stages in sequence, each writing the window as it ends."""
    vision_report = init_vision(graph)

    velocities, graph.gravity = linear_alignment(graph)
    for kf, v in zip(graph.keyframes, velocities):
        kf.state = replace(kf.state, velocity=v)

    result = init_inertial_only(graph)
    result.reports["vision"] = vision_report
    result.reports["joint"] = init_joint(graph)
    return result
