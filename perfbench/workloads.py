"""The benchmark's workloads: inputs made from a seed, one timed operation,
and the checks that the operation's outputs are correct.

Every workload uses the figure8 family (amplitude 1.5 m, period 30 s).

- vio: a 34 s figure8 sequence with loop closure off. Tracking window
  solves dominate; pose-graph BA and the map warp do no work, so it is the
  "no change" workload for loop-closure and warp changes.
- loop: the same sequence and seed with the default loop policy. The second
  lap admits loops and runs pose-graph solves, so the difference from vio
  is the cost of loop closure.
- map: the Gaussian map alone. Spawn from ground-truth keyframe rasters,
  warp by seeded Sim(3) corrections and back, render a held-out view and
  score it, then write and read the map file. Only this workload renders.

The pipeline workloads shrink the tracking window (8 keyframes, 2 covisible
neighbours, 3 solver iterations) and the sequence (34 s, 67-68
keyframes) from the figure8 preset, so that one sequence replays in about
half a minute on two cores.
"""

import json
import math
import os
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from vislam import cli, gsmap
from vislam.evaluation import read_tum
from vislam.frontend import PHASE_FULL
from vislam.geometry import Pose, Rotation
from vislam.loopclosure import CorrectionEntry, LoopCorrection

WORKLOADS = ("vio", "loop", "map")
NO_LOOPS = 100000          # loop.min_gap above any keyframe count


@dataclass(frozen=True)
class Sizes:
    """How much work one operation of each workload does."""

    pipeline: dict = field(default_factory=lambda: {
        "dataset.duration": 34.0,
        "tracker.window_size": 8,
        "tracker.covis_radius": 2,
        "tracker.solve_iterations": 3,
    })
    loop_min_gap: int = 55             # the default loop policy
    map_duration: float = 30.0         # one lap
    map_keyframes: int = 24
    map_views: int = 1
    map_corrections: int = 2           # each applied, then undone


FULL = Sizes()
# A few-second version of every workload, for the benchmark's own tests:
# initialization and loop closure still fire, on a handful of keyframes.
TINY = Sizes(pipeline={"dataset.duration": 4.0, "tracker.window_size": 5,
                       "tracker.covis_radius": 1, "init.n_vis_init": 3,
                       "init.n_iner_init": 5, "loop.solve_every": 2},
             loop_min_gap=3, map_duration=4.0, map_keyframes=4,
             map_views=1, map_corrections=1)


@dataclass
class OpResult:
    """One operation: its timings and whatever check it failed."""

    setup_s: float
    wall_s: float | None = None
    rss_mb: float = 0.0                # process peak after the timed phase
    frames: int = 0
    kf_latency_s: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    shape: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pipeline_config(workload: str, seed: int, sizes: Sizes) -> dict:
    overrides = dict(sizes.pipeline)
    overrides["loop.min_gap"] = NO_LOOPS if workload == "vio" \
        else sizes.loop_min_gap
    overrides["run.seed"] = seed
    return cli.build_config("figure8", None, overrides)


# ---------------------------------------------------------------- checks

def _map_arrays(gmap) -> dict:
    gs = gmap.gaussians
    return {
        "mean": np.array([g.mean for g in gs], dtype=np.float32),
        "scales": np.array([g.scales for g in gs], dtype=np.float32),
        "q": np.array([g.orientation.q for g in gs], dtype=np.float32),
        "color": np.array([g.color for g in gs], dtype=np.float32),
        "opacity": np.array([g.opacity for g in gs], dtype=np.float32),
        "anchor": np.array([g.anchor for g in gs], dtype=np.int64),
    }


def check_read_back(read_back, gmap) -> list:
    """The map read_vgsm gave back must be the in-memory map at float32."""
    back = _map_arrays(read_back)
    mine = _map_arrays(gmap)
    failures = []
    if len(back["mean"]) != len(mine["mean"]):
        return [f"map file holds {len(back['mean'])} Gaussians, "
                f"memory {len(mine['mean'])}"]
    for key in ("mean", "scales", "color", "opacity", "anchor"):
        if not np.array_equal(back[key], mine[key]):
            failures.append(f"map file field {key} differs from memory")
    # read_vgsm renormalizes the float32 quaternion
    if not np.allclose(back["q"], mine["q"], rtol=0.0, atol=1e-6):
        failures.append("map file orientations differ from memory")
    return failures


def check_quality(quality: dict, ceilings: dict) -> list:
    """Each quality figure must be finite and not above its ceiling."""
    failures = []
    for name, ceiling in ceilings.items():
        value = quality.get(name)
        if value is None or not math.isfinite(value):
            failures.append(f"{name} is missing or not finite: {value}")
        elif value > ceiling:
            failures.append(f"{name} = {value:.4f} is above the "
                            f"reference ceiling {ceiling}")
    return failures


def _trajectory_failures(art, out_dir: Path) -> list:
    failures = []
    for p in art.est.poses:
        if not (np.all(np.isfinite(p.translation))
                and np.all(np.isfinite(p.rotation.q))):
            return ["estimated trajectory is not finite"]
    with open(out_dir / "metrics.json") as f:
        written = json.load(f)
    if written != json.loads(json.dumps(art.metrics)):
        failures.append("metrics.json does not match the run's metrics")
    for name, traj in (("trajectory_est.txt", art.est),
                       ("trajectory_gt.txt", art.gt)):
        back = read_tum(out_dir / name)
        if len(back) != len(traj) \
                or not np.array_equal(back.timestamps, traj.timestamps) \
                or not np.allclose(back.positions(), traj.positions(),
                                   rtol=0.0, atol=1e-12):
            failures.append(f"{name} does not round-trip")
    return failures


# ---------------------------------------------------------------- pipeline

def pipeline_op(workload: str, plan, res: OpResult, scratch: Path,
                ceilings: dict, execute) -> OpResult:
    """Replay the sequence, write the outputs and check them.

    Keyframe latency is sampled once tracking is initialized: before that,
    the few initialization keyframes cost several times a tracking one and
    all fall within the run's first seconds, so they would make a tail
    percentile time a single short phase of the run.
    """
    process_frame = cli.process_frame

    def timed_process_frame(tracker, *args, **kwargs):
        tracking = tracker.phase == PHASE_FULL
        start = time.perf_counter()
        keyframed = process_frame(tracker, *args, **kwargs)
        if keyframed and tracking:
            res.kf_latency_s.append(time.perf_counter() - start)
        return keyframed

    cli.process_frame = timed_process_frame
    try:
        start = time.perf_counter()
        art = execute(plan)
        res.wall_s = time.perf_counter() - start
        res.rss_mb = peak_rss_mb()
    except (RuntimeError, ValueError) as exc:
        # the exit code `vislam run` would have returned
        res.failures.append(f"exit code {cli.EXIT_DIVERGED}: {exc}")
        return res
    finally:
        cli.process_frame = process_frame
    res.frames = len(range(0, plan.dataset.n_frames(), plan.frame_stride))
    res.quality["ate_rmse_cm"] = art.metrics["ate_rmse_cm"]
    res.shape = {"keyframes": art.metrics["keyframes"],
                 "loops_closed": art.metrics["loops_closed"],
                 "degraded": len(art.tracker.degraded),
                 "gaussians": len(art.gmap)}

    out_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    try:
        cli.write_outputs(out_dir, art)
        res.failures += _trajectory_failures(art, out_dir)
        res.failures += check_read_back(
            gsmap.read_vgsm(out_dir / "map.vgsm"), art.gmap)
    finally:
        shutil.rmtree(out_dir)
    res.failures += check_quality(res.quality, ceilings)
    loops = art.metrics["loops_closed"]
    if (workload == "loop") != (loops > 0):
        res.failures.append(f"{workload} closed {loops} loops")
    return res


# ---------------------------------------------------------------- map

@dataclass
class MapInputs:
    intrinsics: object
    stride: int
    keyframes: list          # (pose, color, depth) at ground truth
    views: list              # held-out (pose, color, depth)
    corrections: list        # LoopCorrection, each followed by its inverse


def _perturbed(pose: Pose, rng) -> Pose:
    rot = Rotation.exp(rng.normal(0.0, 0.01, 3)) * pose.rotation
    return Pose(rot, pose.translation + rng.normal(0.0, 0.02, 3))


def make_map_inputs(seed: int, sizes: Sizes) -> MapInputs:
    """Keyframe and held-out rasters at ground-truth poses, and the
    corrections, all drawn from the seed."""
    cfg = cli.build_config("figure8", None, {
        "dataset.duration": sizes.map_duration, "run.seed": seed})
    plan = cli.materialize(cfg)
    ds, provider = plan.dataset, plan.provider
    rng = np.random.default_rng(seed)

    spacing = (ds.n_frames() - 1) / sizes.map_keyframes
    offset = rng.uniform(0.0, spacing / 2)
    kf_frames = [int(offset + i * spacing) for i in range(sizes.map_keyframes)]
    # held-out views sit halfway between two neighbouring keyframes
    pairs = rng.choice(sizes.map_keyframes - 1, size=sizes.map_views,
                       replace=False)
    view_frames = [(kf_frames[i] + kf_frames[i + 1]) // 2 for i in pairs]

    def at(frame):
        color, depth = provider.keyframe_image(frame)
        return ds.frame_pose(frame).copy(), color, depth

    keyframes = [at(f) for f in kf_frames]
    views = [at(f) for f in view_frames]
    h, w = keyframes[0][2].shape

    corrections = []
    for _ in range(sizes.map_corrections):
        forward, back = {}, {}
        for kid, (pose, _, _) in enumerate(keyframes):
            moved = _perturbed(pose, rng)
            scale = float(np.exp(rng.normal(0.0, 0.01)))
            forward[kid] = CorrectionEntry(kid, pose, moved, scale)
            back[kid] = CorrectionEntry(kid, moved, pose, 1.0 / scale)
        corrections += [LoopCorrection(forward), LoopCorrection(back)]
    return MapInputs(provider.intrinsics().scaled(w, h), cfg["map.stride"],
                     keyframes, views, corrections)


def map_op(inputs: MapInputs, res: OpResult, scratch: Path,
           ceilings: dict) -> OpResult:
    """Spawn, warp there and back, render held-out views, write and read."""
    k = inputs.intrinsics

    gmap = gsmap.GaussianMap()
    start = time.perf_counter()
    for kid, (pose, color, depth) in enumerate(inputs.keyframes):
        t = time.perf_counter()
        spawned, _ = gsmap.spawn_from_keyframe(color, depth, pose, k,
                                               inputs.stride, kid)
        gmap.insert(spawned)
        res.kf_latency_s.append(time.perf_counter() - t)
    wall = time.perf_counter() - start

    spawned_means = np.array([g.mean for g in gmap.gaussians])
    start = time.perf_counter()
    for correction in inputs.corrections:
        gsmap.apply_loop_correction(gmap, correction)
    losses = []
    for pose, color, depth in inputs.views:
        out = gsmap.render(gmap, pose, k)
        losses.append(gsmap.mapping_losses(out, color, depth, gmap.gaussians))
    path = scratch / f"map-{os.getpid()}.vgsm"
    try:
        gsmap.write_vgsm(path, gmap)
        read_back = gsmap.read_vgsm(path)
    finally:
        path.unlink(missing_ok=True)
    wall += time.perf_counter() - start

    res.wall_s = wall
    res.rss_mb = peak_rss_mb()
    res.frames = len(inputs.keyframes) + len(inputs.views)
    res.quality = {"map_color_l1": float(np.mean([l.color for l in losses])),
                   "map_depth_l1_m": float(np.mean([l.depth for l in losses]))}
    res.shape = {"keyframes": len(inputs.keyframes), "gaussians": len(gmap)}
    res.failures += check_read_back(read_back, gmap)
    warped = np.array([g.mean for g in gmap.gaussians])
    drift = float(np.max(np.abs(warped - spawned_means), initial=0.0))
    if not drift < 1e-9:
        res.failures.append(f"warp and inverse warp moved a Gaussian by "
                            f"{drift:.3g} m")
    res.failures += check_quality(res.quality, ceilings)
    return res


def prepare(workload: str, seed: int, sizes: Sizes):
    """The set-up of one operation: config and dataset, or the map inputs."""
    if workload == "map":
        return make_map_inputs(seed, sizes)
    return cli.materialize(pipeline_config(workload, seed, sizes))


def run_op(workload: str, seed: int, sizes: Sizes, scratch: Path,
           ceilings: dict, execute=None) -> OpResult:
    """Set up and run one operation. `execute` stands in for cli.execute,
    so that the traced run can put a span around it."""
    start = time.perf_counter()
    inputs = prepare(workload, seed, sizes)
    res = OpResult(setup_s=time.perf_counter() - start)
    if workload == "map":
        return map_op(inputs, res, scratch, ceilings)
    return pipeline_op(workload, inputs, res, scratch, ceilings,
                       execute or cli.execute)
