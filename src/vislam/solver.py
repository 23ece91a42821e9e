"""Damped Gauss-Newton over a local frame graph with disparity elimination.

The decision variables are per-keyframe 15-dof states (rotation, translation,
velocity, gyro bias, accel bias), optionally a 2-dof gravity direction, and
one disparity per tracked pixel of each source keyframe. Disparities only
couple through their own keyframe's vision edges, so their normal-equation
block is diagonal and is folded into the pose system by a per-pixel Schur
complement, then recovered by back-substitution. The pose-disparity coupling
is kept as one block per source keyframe over the pose columns of the edges
it sources, so the step never forms a (pose variables x disparities) matrix
(Triggs et al., "Bundle Adjustment - A Modern Synthesis", 2000).

lm_solve is the package's one Levenberg-Marquardt loop, and every solve is a
GraphProblem for it: each reads its graph once, building a Layout that
checks it and lays out its columns. GraphProblem evaluates and linearizes
every solve: its vision edges one pixel-count group (Layout.pixel_groups)
per kernel call and add_pixels, and the one dense family that a subclass
gives as dense(nodes) and dense_rows in one add_rows. It steps by
NormalEquations.solve. A problem stacks its edges once when it is built
(PixelGroup.stack, the window's DeltaStack) and its nodes' states once per
evaluation (StateStack), taking each edge end's rows from them. A trial
moves only values held by the problem; commit() after lm_solve writes the
graph once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .geometry import Pose
from .residuals import (
    GRAVITY_TANGENT_BASIS,
    DeltaStack,
    EdgeStack,
    GravityModel,
    Intrinsics,
    PoseState,
    StateStack,
    inertial_residual,
    vision_residual,
)

DISPARITY_FLOOR = 1e-4
STATE_DOF = 15
POSE_DOF = 6

# Levenberg-Marquardt damping schedule, and the absolute ridge every damped
# system adds to its diagonal so flat blocks stay solvable.
DAMPING_UP = 10.0
DAMPING_DOWN = 0.5
MAX_DAMPING = 1e8
RIDGE = 1e-10


@dataclass
class Keyframe:
    """A GraphProblem node: its state (a PoseState in the window, a Pose in
    the pose graph) and one disparity per pixel of the vision edges it
    sources, which own the pixels."""

    kid: int
    state: PoseState | Pose
    disparities: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        self.disparities = np.asarray(self.disparities, dtype=float).reshape(-1)
        if not np.all(np.isfinite(self.disparities) & (self.disparities > 0.0)):
            raise ValueError("disparities must be finite and positive")


@dataclass
class FrameGraph:
    """The tracking window, which is its lists: the tracker edits them in
    place, and each solve or score checks them when it builds its Layout."""

    keyframes: list            # ordered Keyframe list
    vision_edges: list         # VisionEdge, endpoints are keyframe ids
    inertial_edges: list       # (i, j, PreintegratedDelta) for consecutive pairs
    gravity: GravityModel
    intrinsics: Intrinsics

    def kf(self, kid: int) -> Keyframe | None:
        """The keyframe with this id, or None, by a scan of the window."""
        return next((kf for kf in self.keyframes if kf.kid == kid), None)

    def vision_only(self) -> FrameGraph:
        """The same keyframes and vision edges with the inertial terms left out."""
        return FrameGraph(self.keyframes, self.vision_edges, [], self.gravity,
                          self.intrinsics)


@dataclass
class SolveOptions:
    max_iterations: int = 10
    damping: float = 1e-4
    rel_decrease_tol: float = 1e-8
    step_tol: float = 1e-10
    optimize_gravity: bool = False

    def __post_init__(self):
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        for name in ("damping", "rel_decrease_tol", "step_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class SolveReport:
    iterations: int
    initial_cost: float
    final_cost: float
    cost_trajectory: list
    termination: str


def lm_solve(problem, opts: SolveOptions) -> SolveReport:
    """Levenberg-Marquardt over a problem that scores, solves and moves itself.

    The problem provides:

    * evaluate() -> float: the cost at the current state, keeping what
      linearize() needs, so an accepted point is never scored twice;
    * linearize(): the normal equations from the last evaluation, which is
      always the current (accepted) state's;
    * step(lam) -> dx: the damped solve, raising RuntimeError when the
      system is singular. A GraphProblem steps by NormalEquations.solve;
    * retract(dx), snapshot() and restore(snap): move, save and reinstate
      the problem's own values and their evaluation, never the graph's.

    A step is accepted only if it strictly lowers the cost. A rejected trial,
    or one whose state or residuals cannot be formed (ValueError), restores
    the saved state and retries the same linearization with more damping.
    Termination follows opts: an accepted step below step_tol or a relative
    decrease below rel_decrease_tol converges; damping past MAX_DAMPING ends
    the solve as no_decrease_at_max_damping, or as singular when the damped
    system itself could not be solved.
    """
    cost = problem.evaluate()
    if not math.isfinite(cost):
        raise RuntimeError("initial energy is not finite")
    trajectory = [cost]
    lam = opts.damping
    termination = "max_iterations"
    iterations = 0

    for it in range(opts.max_iterations):
        problem.linearize()
        while True:
            try:
                dx = problem.step(lam)
            except RuntimeError as exc:
                lam *= DAMPING_UP
                if lam > MAX_DAMPING:
                    return SolveReport(iterations, trajectory[0], cost, trajectory,
                                       f"singular: {exc}")
                continue
            snap = problem.snapshot()
            try:
                problem.retract(dx)
                new_cost = problem.evaluate()
            except ValueError:
                new_cost = math.inf
            if new_cost < cost:
                cost = new_cost
                trajectory.append(cost)
                lam = max(lam * DAMPING_DOWN, 1e-12)
                iterations = it + 1
                if np.max(np.abs(dx), initial=0.0) < opts.step_tol:
                    termination = "converged"
                break
            problem.restore(snap)
            lam *= DAMPING_UP
            if lam > MAX_DAMPING:
                termination = "no_decrease_at_max_damping"
                break
        if termination != "max_iterations":
            break
        prev = trajectory[-2]
        if prev > 0 and (prev - cost) / prev < opts.rel_decrease_tol:
            termination = "converged"
            break

    return SolveReport(iterations, trajectory[0], cost, trajectory, termination)


def solve_dense(H: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """np.linalg.solve that reports a singular system the way lm_solve expects."""
    try:
        return np.linalg.solve(H, rhs)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"singular {what}") from exc


class Layout:
    """Column bookkeeping for one solve: a tangent block per node, extra
    columns after them, then one disparity per tracked pixel. The first node
    is the gauge: its block is frozen, so the free pose variables are the
    slice after it and select views, not copies. With no node, or nodes of
    dof 0, there is no gauge, and every column is free. `index` maps node
    ids to positions. Building it checks that the ids are unique, that both
    ends (.i, .j) of every edge are nodes, and that a non-empty chain of
    (i, j) pairs holds exactly the consecutive pairs, each once."""

    def __init__(self, kids: list, dof: int, disp_counts, n_extra: int = 0,
                 chain=(), edges=()):
        self.index = {kid: n for n, kid in enumerate(kids)}
        if len(self.index) != len(kids):
            raise ValueError("duplicate keyframe ids")
        for e in edges:
            if e.i not in self.index or e.j not in self.index:
                raise ValueError(f"edge ({e.i},{e.j}) references unknown keyframe")
        if chain and sorted(chain) != sorted(zip(kids, kids[1:])):
            raise ValueError("chain edges must cover exactly the consecutive "
                             "keyframe pairs, each once")
        self.dof = dof
        self.n_state = len(disp_counts) * dof
        self.n_pose_vars = self.n_state + n_extra
        self.free = slice(dof, None)
        self.d_offsets = np.concatenate([[0], np.cumsum(disp_counts)]).astype(int)
        self.n_disp = int(self.d_offsets[-1])

    def cols(self, kid: int, width: int) -> np.ndarray:
        """Columns of the first `width` tangent entries of a node."""
        base = self.index[kid] * self.dof
        return np.arange(base, base + width)

    def disp_slice(self, kid: int) -> slice:
        n = self.index[kid]
        return slice(self.d_offsets[n], self.d_offsets[n + 1])

    def ends(self, pairs) -> np.ndarray:
        """(E, 2) positions of the nodes of each (i, j) id pair."""
        return np.array([(self.index[i], self.index[j]) for i, j in pairs])

    def pixel_groups(self, edges, width: int) -> list:
        """One PixelGroup per pixel count, in order of appearance."""
        by_count = {}
        for e in edges:
            by_count.setdefault(len(e.pixels), []).append(e)
        groups = []
        for n, group in by_count.items():
            ends = self.ends((e.i, e.j) for e in group)
            c = (ends[:, :, None] * self.dof + np.arange(width)).reshape(len(group), -1)
            rows = {}
            for r, e in enumerate(group):
                rows.setdefault(e.i, []).append(r)
            groups.append(PixelGroup(
                group, EdgeStack.of(group), ends, c,
                self.d_offsets[ends[:, :1]] + np.arange(n),
                [(np.array(r), c[r].ravel(), self.disp_slice(kid))
                 for kid, r in rows.items()]))
        return groups


class PixelGroup(NamedTuple):
    """E vision edges of n pixels each, stacked once for every kernel call.

    stack holds their pixels, targets and weights, and ends (E, 2) the
    positions of each edge's source and target nodes. c (E, 2k) holds each
    edge's pose columns, source end then target end, and cd (E, n) its
    source's disparity columns. An edge covers all of its source's
    disparities in one order, so the coupling of one source is one block:
    sources holds, per source keyframe, its rows in the group, their pose
    columns c[rows] flattened, and its disparity slice.
    """

    edges: list
    stack: EdgeStack
    ends: np.ndarray
    c: np.ndarray
    cd: np.ndarray
    sources: list


class NormalEquations:
    """H, g over [node tangents | extra | disparities] in normal form.

    The disparity block H_dd is diagonal. The pose-disparity block H_pd is
    never formed: coupling holds one (c, d, M) per source keyframe, where M
    stacks the per-pixel J^T J_d of every edge that the source sources, on
    those edges' pose columns c (a column repeats when two edges share it)
    and the source's disparity slice d. Gradients are J^T r with the residual
    defined as (target - prediction), so a Gauss-Newton step solves
    H dx = -g.
    """

    def __init__(self, layout: Layout):
        npv, ndp = layout.n_pose_vars, layout.n_disp
        self.layout = layout
        self.H_pp = np.zeros((npv, npv))
        self.coupling = []
        self.H_dd = np.zeros(ndp)
        self.g_p = np.zeros(npv)
        self.g_d = np.zeros(ndp)

    def add_rows(self, c: np.ndarray, J: np.ndarray, r: np.ndarray) -> None:
        """Dense residual rows of E edges scattered at once: r (E, m) holds
        each edge's residuals and J (E, m, k) their Jacobian on the columns
        c (E, k). Shared columns add up."""
        J_T = J.transpose(0, 2, 1)
        np.add.at(self.H_pp, (c[:, :, None], c[:, None, :]), J_T @ J)
        np.add.at(self.g_p, c, (J_T @ r[..., None])[..., 0])

    def add_pixels(self, group: PixelGroup, J, Jd, r) -> None:
        """Vision rows of a group's E edges of n pixels each, scattered at once.

        J (E, n, 2, 2k) holds pose blocks on the columns of group.c, source
        end then target end; Jd (E, n, 2) is each pixel's column on its own
        disparity, group.cd; r (E, n, 2) the residuals. Sums run along the
        pixel axis, the contiguous one in what the kernel returns. Shared
        columns add up.
        """
        c, cd = group.c, group.cd
        J = np.moveaxis(J, 1, -1)                                 # (E, 2, 2k, n)
        Jd, r = np.moveaxis(Jd, 1, -1), np.moveaxis(r, 1, -1)     # (E, 2, n)
        k = J.shape[2] // 2
        Ji, Jj = J[:, :, :k], J[:, :, k:]

        def gram(a, b):
            return (a @ b.swapaxes(2, 3)).sum(axis=1)

        Hij = gram(Ji, Jj)
        np.add.at(self.H_pp, (c[:, :, None], c[:, None, :]),
                  np.block([[gram(Ji, Ji), Hij], [Hij.swapaxes(1, 2), gram(Jj, Jj)]]))

        npv, n_disp = self.layout.n_pose_vars, self.layout.n_disp
        n = J.shape[-1]
        for end, Je in ((slice(None, k), Ji), (slice(k, None), Jj)):
            self.g_p += np.bincount(c[:, end].ravel(), (Je @ r[..., None]).sum(axis=1).ravel(),
                                    minlength=npv)
        W = J[:, 0] * Jd[:, 0, None]                # per-pixel coupling on c
        W += J[:, 1] * Jd[:, 1, None]
        for rows, cs, d in group.sources:
            self.coupling.append((cs, d, W[rows].reshape(len(cs), n)))
        self.H_dd += np.bincount(cd.ravel(), (Jd * Jd).sum(axis=1).ravel(), minlength=n_disp)
        self.g_d += np.bincount(cd.ravel(), (Jd * r).sum(axis=1).ravel(), minlength=n_disp)

    def solve(self, lam: float) -> np.ndarray:
        """One damped step [pose vars | disparities], zero on frozen columns.

        The damping is multiplicative on the diagonal plus a tiny absolute
        ridge for flat blocks. Disparities are eliminated source by source:
        the reduced pose system is H - sum_s M_s D_s^-1 M_s^T, which keeps
        the cross terms of two edges from one source, and each source's
        disparities are recovered from its own block.
        """
        lay = self.layout
        npv = lay.n_pose_vars
        inv_dd = 1.0 / (self.H_dd * (1.0 + lam) + RIDGE)
        H = self.H_pp.copy()
        idx = np.arange(npv)
        H[idx, idx] = np.diag(self.H_pp) * (1.0 + lam) + RIDGE
        g = self.g_p.copy()
        w = inv_dd * self.g_d
        for c, d, M in self.coupling:
            np.subtract.at(H, (c[:, None], c[None, :]), (M * inv_dd[d]) @ M.T)
            g -= np.bincount(c, M @ w[d], minlength=npv)

        free = lay.free
        dx = np.zeros(npv)
        dx[free] = solve_dense(H[free, free], -g[free], "normal system")
        b = -self.g_d
        for c, d, M in self.coupling:
            b[d] -= M.T @ dx[c]
        return np.concatenate([dx, inv_dd * b])


class GraphProblem:
    """LM problem state of the window, pose-graph, inertial-only and loop
    alignment solves.

    A problem's nodes are Keyframes. Every unknown is an immutable value on
    the problem (for a problem over nodes, `states` and `disparities` in
    node order), so a trial never writes the graph: retract() binds new
    values, snapshot() copies the attributes but the system, restore()
    rebinds them, and commit() writes the graph (here, its nodes) once.
    A subclass states only its one dense family and its row columns.
    retract() moves every node but the gauge (the first) and the
    disparities; the window also moves its gravity, and stage 2 and the
    loop alignment, which have no node, move their own values. evaluate()
    runs the vision kernel once per pixel group and the subclass's
    dense(nodes) (None for a family with no edge) and stores (vision
    results per pixel group, dense result) in self.outs; linearize()
    scatters them into a new self.system, dropping the old system first
    and the results after, so neither is held beside its successor. Every
    residual family builds its Jacobians at linearize time only, so a
    rejected trial never pays for them: the kernels on the first read of a
    result's Jacobians, and a subclass's dense_rows(result), which builds
    its rows' Jacobian and residuals on the columns self.row_cols (E, k),
    when linearize() calls it.
    """

    def __init__(self, nodes: list, layout: Layout, vision_edges=(),
                 intrinsics: Intrinsics | None = None):
        self.nodes = nodes
        self.layout = layout
        self.intrinsics = intrinsics
        self.states = [n.state for n in nodes]
        self.disparities = [n.disparities for n in nodes]
        self.groups = layout.pixel_groups(vision_edges, POSE_DOF)
        self.outs = None
        self.system = None

    def evaluate(self) -> float:
        """Sum of whitened squared residuals: the vision groups, then the dense family."""
        nodes = StateStack.of(self.states) if self.states else None
        vision = [vision_residual(g.stack, nodes.take(g.ends[:, 0]), nodes.take(g.ends[:, 1]),
                                  np.stack([self.disparities[n] for n in g.ends[:, 0]]),
                                  self.intrinsics)
                  for g in self.groups]
        dense = self.dense(nodes)
        self.outs = (vision, dense)
        e = 0.0
        for out in vision if dense is None else vision + [dense]:
            e += float((out.residual ** 2).sum())
        return e

    def linearize(self) -> None:
        self.system = None
        system = NormalEquations(self.layout)
        vision, dense = self.outs
        for group, out in zip(self.groups, vision):
            system.add_pixels(group, out.J, out.J_disparity, out.residual)
        if len(self.row_cols):
            system.add_rows(self.row_cols, *self.dense_rows(dense))
        self.system, self.outs = system, None

    def step(self, lam: float) -> np.ndarray:
        return self.system.solve(lam)

    def snapshot(self) -> dict:
        """The attributes, shallowly, but the system: no trial changes it,
        and a kept snapshot would hold it beside its successor."""
        return {k: v for k, v in vars(self).items() if k != "system"}

    def restore(self, snap: dict) -> None:
        vars(self).update(snap)

    def retract(self, dx: np.ndarray) -> None:
        """Move every node but the gauge by its layout.dof segment of dx (a
        PoseState's 15 entries, or the 6 of its pose or of a Pose), then each
        node's disparities by their columns, floored."""
        lay = self.layout
        segs = dx[lay.dof:lay.n_state].reshape(-1, lay.dof)
        self.states = self.states[:1] + [
            s.retract(seg) if lay.dof == STATE_DOF
            else s.retract(seg[:3], seg[3:]) if isinstance(s, Pose)
            else replace(s, pose=s.pose.retract(seg[:3], seg[3:]))
            for s, seg in zip(self.states[1:], segs)]
        ends = lay.n_pose_vars + lay.d_offsets
        self.disparities = [d if a == b else np.maximum(d + dx[a:b], DISPARITY_FLOOR)
                            for d, a, b in zip(self.disparities, ends, ends[1:])]

    def commit(self) -> None:
        """Write the problem's values into its nodes."""
        for node, s, d in zip(self.nodes, self.states, self.disparities):
            node.state = s
            node.disparities = d


class _WindowProblem(GraphProblem):
    """Joint vision + inertial energy of a frame graph.

    Its dense family is the inertial edges, stacked once (DeltaStack), each
    a row block on both ends' state columns and gravity's. The earliest
    keyframe is the gauge: GraphProblem.retract leaves its pose, velocity
    and bias as they are. A graph without inertial edges solves poses only;
    otherwise each keyframe solves its velocity and bias as well. retract()
    adds the gravity direction, when it is free.
    """

    def __init__(self, graph: FrameGraph, opts: SolveOptions):
        layout = Layout([kf.kid for kf in graph.keyframes],
                        STATE_DOF if graph.inertial_edges else POSE_DOF,
                        [len(kf.disparities) for kf in graph.keyframes],
                        2 if opts.optimize_gravity else 0,
                        [(i, j) for i, j, _ in graph.inertial_edges], graph.vision_edges)
        super().__init__(graph.keyframes, layout, graph.vision_edges, graph.intrinsics)
        self.graph = graph
        self.gravity = graph.gravity
        self.inertial_ends = layout.ends((i, j) for i, j, _ in graph.inertial_edges)
        self.deltas = (DeltaStack.of([d for _, _, d in graph.inertial_edges])
                       if graph.inertial_edges else None)
        # each inertial edge's state columns at both ends, then gravity's
        grav_cols = np.arange(layout.n_state, layout.n_pose_vars)
        self.row_cols = np.array([np.concatenate([layout.cols(i, layout.dof),
                                                  layout.cols(j, layout.dof), grav_cols])
                                  for i, j, _ in graph.inertial_edges])

    def dense(self, nodes: StateStack):
        """The inertial kernel over every inertial edge, or None without one."""
        if self.deltas is None:
            return None
        ends = self.inertial_ends
        return inertial_residual(self.deltas, nodes.take(ends[:, 0]),
                                 nodes.take(ends[:, 1]), self.gravity)

    def dense_rows(self, inertial):
        lay = self.layout
        J = [inertial.J_i, inertial.J_j]
        if lay.n_pose_vars > lay.n_state:
            J.append(inertial.J_gravity @ GRAVITY_TANGENT_BASIS)
        return np.concatenate(J, axis=2), inertial.residual

    def retract(self, dx: np.ndarray) -> None:
        super().retract(dx)
        dg = dx[self.layout.n_state:self.layout.n_pose_vars]
        if len(dg):
            self.gravity = self.gravity.retract(GRAVITY_TANGENT_BASIS @ dg)

    def commit(self) -> None:
        super().commit()
        self.graph.gravity = self.gravity


def total_energy(graph: FrameGraph) -> float:
    """Sum of whitened squared residuals over every edge of the graph."""
    return _WindowProblem(graph, SolveOptions()).evaluate()


def solve_vi_ba(graph: FrameGraph, opts: SolveOptions | None = None) -> SolveReport:
    """Minimize the joint vision + inertial energy over the graph in place.

    Disparities are Schur-eliminated per pixel.
    """
    if opts is None:
        opts = SolveOptions()
    problem = _WindowProblem(graph, opts)
    report = lm_solve(problem, opts)
    problem.commit()
    return report
