"""Loop detection and rigid pose-graph refinement.

Loop candidates are keyframe pairs gated on keyframe-count gap, relative
orientation at the current poses and provider flow. The pose graph is built
at each solve from the tracking frontend's one record of every keyframe,
read through a KeyframeView (current poses and the sequential relative-pose
chain), and from loop edges that carry dense pixel correspondences, scored
by the window's reprojection kernel. Metric scale is observable in a
visual-inertial system, so the graph solves no scale (Qin, Li & Shen,
VINS-Mono, T-RO 2018).
solve_pgba refines all poses (and loop-source disparities) by damped
Gauss-Newton with the earliest keyframe frozen as gauge, then reports
per-keyframe pose changes for trajectory and map updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frontend import flow_magnitude
from .geometry import Pose, Rotation, SimTransform
from .residuals import (
    EdgeStack,
    Intrinsics,
    RelativePoseEdge,
    RelativeStack,
    StateStack,
    VisionEdge,
    map_eigenvalues,
    relative_pose_residual,
    sim3_vision_residual,
)
from .solver import (
    POSE_DOF,
    GraphProblem,
    Keyframe,
    Layout,
    SolveOptions,
    lm_solve,
)

FLOW_GATE = 22.0             # coarse pixels, strictly below
ANG_GATE_DEG = 120.0         # relative orientation angle, strictly below
ALIGN_ITERATIONS = 15        # two-view alignment, per admitted loop


@dataclass
class LoopPolicy:
    """The loop-closure settings: the keyframe gap gate and the solve cadence.

    Each field is the config key loop.<field> with this default. A (new
    keyframe, old keyframe) pair becomes a candidate when it passes the gap
    gate and the FLOW_GATE and ANG_GATE_DEG gates. The pose graph is solved
    for solve_iterations once solve_every admitted loops wait.
    """

    min_gap: int = 55            # keyframes apart, at least
    solve_iterations: int = 12   # pose-graph solve
    solve_every: int = 4         # admitted loops per pose-graph solve

    def __post_init__(self):
        for name in ("min_gap", "solve_iterations", "solve_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


def detect_loops(new_kf, history, flow, policy: LoopPolicy | None = None) -> list:
    """Candidate loop pairs (old kid, new kid), ordered by ascending flow.

    new_kf and each history entry have a kid and a pose (a KeyframeRow).

    The gates run cheapest first: the keyframes are at least min_gap apart,
    their relative orientation angle is below ANG_GATE_DEG, and flow(old),
    the provider's mean flow magnitude between old and new_kf in coarse
    pixels (infinite when there is none), is below FLOW_GATE. flow is asked
    only for pairs that pass the first two gates.
    """
    if policy is None:
        policy = LoopPolicy()
    passing = []
    for old in history:
        if new_kf.kid - old.kid < policy.min_gap:
            continue
        rel = old.pose.rotation.inverse() * new_kf.pose.rotation
        if not math.degrees(np.linalg.norm(rel.log())) < ANG_GATE_DEG:
            continue
        f = flow(old)
        if not f < FLOW_GATE:
            continue
        passing.append((f, old.kid))
    passing.sort()
    return [(i, new_kf.kid) for _, i in passing]


@dataclass
class LoopEdge:
    """One detected loop between keyframes i < j.

    The dense correspondence edge supplies the solve's vision rows. The
    relative part is the two-view alignment of the pair (measurement plus
    information), kept as the alignment record: no solve reads it.
    """

    i: int
    j: int
    relative: RelativePoseEdge
    vision: VisionEdge

    def __post_init__(self):
        if not self.i < self.j:
            raise ValueError("loop endpoints must satisfy i < j")
        if (self.relative.i, self.relative.j) != (self.i, self.j):
            raise ValueError("relative edge endpoints must match the loop pair")
        if (self.vision.i, self.vision.j) != (self.i, self.j):
            raise ValueError("vision edge endpoints must match the loop pair")


@dataclass
class PoseGraph:
    """Keyframe poses, the sequential chain, and the loop edge set, built
    once per solve; the solve's Layout checks its ids and edge ends."""

    nodes: list                      # Keyframe with a Pose state
    chain: list                      # RelativePoseEdge over consecutive kids
    loops: list                      # LoopEdge
    intrinsics: Intrinsics | None = None

    def __post_init__(self):
        self.nodes = sorted(self.nodes, key=lambda n: n.kid)
        for loop in self.loops:
            if self.intrinsics is None:
                raise ValueError("vision loop edges need intrinsics")
            source = self.node(loop.i)
            if source is not None and len(source.disparities) != len(loop.vision.pixels):
                raise ValueError("loop vision rows must align with the source "
                                 "disparity snapshot")

    def node(self, kid: int) -> Keyframe | None:
        """The node with this id, or None, by a scan."""
        return next((n for n in self.nodes if n.kid == kid), None)


@dataclass
class CorrectionEntry:
    """Pose change of one keyframe across a pose-graph solve. The scale
    change is 1 from the rigid pose graph; the map warp also takes others."""

    kid: int
    old_pose: Pose
    new_pose: Pose
    scale_change: float = 1.0

    def __post_init__(self):
        self.scale_change = float(self.scale_change)
        if not 0.0 < self.scale_change < np.inf:
            raise ValueError("scale change must be positive and finite")

    def moved(self) -> bool:
        """False when pose and scale came out of the solve bit-identical."""
        return not (self.scale_change == 1.0
                    and np.array_equal(self.old_pose.rotation.q,
                                       self.new_pose.rotation.q)
                    and np.array_equal(self.old_pose.translation,
                                       self.new_pose.translation))


@dataclass
class LoopCorrection:
    entries: dict                    # kid -> CorrectionEntry

    def __post_init__(self):
        for kid, e in self.entries.items():
            if e.kid != kid:
                raise ValueError("correction entry keyed under the wrong keyframe id")


class _PairAlignment(GraphProblem):
    """Two-view problem with no node, in the similarity kernel at unit scale:
    S_j's rotation and translation are its six free columns, S_i and the
    source disparities stay fixed.

    S_j's log-scale is not a column. The kernel's camera is the body, so
    scaling S_j scales the camera-j point about the camera centre, which a
    pinhole projection cannot see: the column is zero and only damping would
    hold it. Damped in proportion to the diagonal, one of the 11 alignments
    on the bench `loop` config (seed 1) drifted to log-scale -2.2. So the
    gauge freedom is taken out of the parameters (Triggs et al., 2000) and
    S_j's scale comes back unchanged. Its one unknown is the value S, which
    align_loop_pair reads after the solve. No pipeline solve reads the
    alignment's measurement: every loop also has a vision edge.
    """

    def __init__(self, edge, d_i, S_i, S_j, k):
        super().__init__([], Layout([], 0, [], POSE_DOF))
        self.edge, self.k = EdgeStack.of([edge]), k
        self.d_i = np.asarray(d_i, dtype=float).reshape(1, -1)
        self.S_i = StateStack.of([S_i])
        self.S = S_j
        self.row_cols = np.arange(POSE_DOF)[None]

    def dense(self, nodes):
        return sim3_vision_residual(self.edge, self.S_i, StateStack.of([self.S]),
                                    self.d_i, self.k)

    def dense_rows(self, out):
        return (out.J_j[..., :POSE_DOF].reshape(1, -1, POSE_DOF),
                out.residual.reshape(1, -1))

    def retract(self, dx: np.ndarray) -> None:
        self.S = self.S * SimTransform(Rotation.exp(dx[:3]), dx[3:])


def align_loop_pair(edge: VisionEdge, d_i: np.ndarray, T_i: Pose, T_j: Pose,
                    k: Intrinsics) -> RelativePoseEdge:
    """Two-view alignment of a loop pair from its correspondences.

    Holds T_i and the source disparities fixed, refines T_j by
    ALIGN_ITERATIONS of damped Gauss-Newton on the reprojection residual,
    and returns the relative-pose measurement T_i^-1 T_j with information
    from the Gauss-Newton Hessian at the optimum. That Hessian is over T_j's
    body-frame translation; the relative residual's position is in frame i,
    R_i^T dp = dR v, so the Hessian is mapped by blockdiag(I, dR), and its
    eigenvalues are clamped so whitening stays well posed.
    """
    problem = _PairAlignment(edge, d_i, SimTransform.from_pose(T_i),
                             SimTransform.from_pose(T_j), k)
    lm_solve(problem, SolveOptions(max_iterations=ALIGN_ITERATIONS, damping=1e-6,
                                   step_tol=1e-12))
    problem.evaluate()
    problem.linearize()
    relative = T_i.inverse() * problem.S.pose()
    A = np.eye(POSE_DOF)
    A[3:, 3:] = relative.rotation.matrix()
    info = map_eigenvalues(A @ problem.system.H_pp @ A.T,
                           lambda vals: np.clip(vals, 1e-3, 1e8))
    return RelativePoseEdge(edge.i, edge.j, relative, info)


class _PoseGraphProblem(GraphProblem):
    """Loop vision plus chain energy over a pose graph's poses.

    Each node has a pose's six columns; only keyframes that source a loop
    vision edge carry disparity variables. The loop edges are the vision
    groups, and the chain is the dense family: one stacked relative-pose
    call per evaluation. The earliest keyframe is the gauge: its pose is
    never moved. GraphProblem.retract moves the other poses and the
    disparities, and the problem has no unknown beside them.
    """

    def __init__(self, graph: PoseGraph):
        sources = {loop.vision.i for loop in graph.loops}
        layout = Layout([n.kid for n in graph.nodes], POSE_DOF,
                        [len(n.disparities) if n.kid in sources else 0
                         for n in graph.nodes], 0,
                        [(e.i, e.j) for e in graph.chain], graph.loops)
        super().__init__(graph.nodes, layout, [loop.vision for loop in graph.loops],
                         graph.intrinsics)
        self.chain = RelativeStack.of(graph.chain)
        self.chain_ends = layout.ends((e.i, e.j) for e in graph.chain)
        self.row_cols = (self.chain_ends[:, :, None] * POSE_DOF
                         + np.arange(POSE_DOF)).reshape(len(graph.chain), -1)

    def dense(self, nodes: StateStack):
        ends = self.chain_ends
        return relative_pose_residual(self.chain, nodes.take(ends[:, 0]),
                                      nodes.take(ends[:, 1]))

    def dense_rows(self, chain):
        return np.concatenate([chain.J_i, chain.J_j], axis=2), chain.residual


def solve_pgba(graph: PoseGraph, opts: SolveOptions | None = None):
    """Minimize loop plus chain energy over the graph's poses in place.

    Vision rows of loop edges are assembled with their source disparities as
    variables (eliminated per pixel); every chain edge contributes a
    whitened relative-pose residual. The earliest keyframe is the gauge and
    is never touched. Returns (SolveReport, LoopCorrection); the correction
    covers every node with its pose change across the solve.
    """
    if not graph.loops:
        raise ValueError("pose graph has no loop edges")
    if len(graph.nodes) > 1 and not graph.chain:
        raise ValueError("pose graph chain is disconnected")
    if opts is None:
        opts = SolveOptions()
    problem = _PoseGraphProblem(graph)
    report = lm_solve(problem, opts)
    correction = LoopCorrection({n.kid: CorrectionEntry(n.kid, n.state, T)
                                 for n, T in zip(graph.nodes, problem.states)})
    problem.commit()
    return report, correction


class LoopWorker:
    """Owns loop closure: candidacy, alignment, solve cadence, pose graph.

    The tracker's KeyframeView is the one record of every keyframe's pose,
    provider frame and chain edge, read at each ingest and each solve. The
    worker keeps what the tracker does not: its loops, the count of loops
    waiting for a solve, and one disparity array per keyframe, set at
    ingest and written back by every solve. Each new keyframe is gated
    against the older ones at their current poses by detect_loops, with a
    pair's flow taken from edge_source (a provider error reads as
    infinite), and the lowest-flow candidate is aligned and admitted. due()
    turns true once policy.solve_every loops wait; solve() then returns the
    correction for the tracker and map.
    """

    def __init__(self, intrinsics: Intrinsics, edge_source, policy: LoopPolicy):
        self.intrinsics = intrinsics
        self.edge_source = edge_source            # (frame_i, frame_j) -> VisionEdge
        self.policy = policy
        self.disparities = {}       # kid -> disparities, as last solved
        self.loops = []
        self.waiting = 0            # loops admitted since the last solve

    @property
    def loops_closed(self) -> int:
        return len(self.loops)

    @property
    def pending(self) -> bool:
        return self.waiting > 0

    def due(self) -> bool:
        """Enough loops wait that the pose graph should be solved now."""
        return self.waiting >= self.policy.solve_every

    def _flow(self, old, new, edges: dict) -> float:
        try:
            edges[old.kid] = self.edge_source(old.frame_index, new.frame_index)
        except ValueError:
            return math.inf
        return flow_magnitude(edges[old.kid])

    def ingest_summary(self, view, disparities: np.ndarray):
        """Register the view's newest keyframe with its disparity snapshot;
        returns the admitted loop pair, if any, admitted with the edge that
        its flow was measured on."""
        *history, new = view.rows()
        if new.kid in self.disparities:
            raise ValueError(f"keyframe {new.kid} was already summarized")
        edges = {}                  # old kid -> edge_source(old, new)
        candidates = detect_loops(new, history,
                                  lambda old: self._flow(old, new, edges),
                                  self.policy)
        self.disparities[new.kid] = disparities
        if not candidates:
            return None
        pair = i, j = candidates[0]
        raw = edges[i]
        vision = VisionEdge(i, j, raw.pixels, raw.targets, raw.weights)
        old = next(row for row in history if row.kid == i)
        relative = align_loop_pair(vision, self.disparities[i], old.pose, new.pose,
                                   self.intrinsics)
        self.loops.append(LoopEdge(i, j, relative, vision))
        self.waiting += 1
        return pair

    def solve(self, view):
        """Solve the pose graph over the view's keyframes and chain.

        The nodes are the tracker's current poses with the worker's
        disparities, which the solve updates; the poses are the tracker's
        to update, from the returned correction. Returns (report,
        correction) or None when the graph has no loops yet.
        """
        if not self.loops:
            return None
        nodes = [Keyframe(row.kid, row.pose, self.disparities[row.kid])
                 for row in view.rows()]
        graph = PoseGraph(nodes, view.chain(), list(self.loops), self.intrinsics)
        report, correction = solve_pgba(graph, SolveOptions(
            max_iterations=self.policy.solve_iterations))
        self.disparities.update((node.kid, node.disparities) for node in graph.nodes)
        self.waiting = 0
        return report, correction
