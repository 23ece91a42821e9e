"""Batch entry point: run synthetic sequences, evaluate trajectories.

The `run` command drives the full pipeline (tracking frontend, staged
initialization, loop closure, Gaussian map) over a synthetic dataset, feeding
each frame with the IMU slice since the previous one, then writes
trajectories, the map export, and a metrics report. The `evaluate`
command scores a trajectory file against a ground-truth file. Everything is
configured through a flat dotted-key config so experiment records stay
diff-able.

The policy dataclasses define their own keys: every field of ImuNoiseModel,
KeyframePolicy, InitConfig and LoopPolicy is the key `<prefix>.<field>` of
POLICIES, with the field's default and no override. A field added there is a
key here. A value that nothing needs to change is not a key but a module
constant beside its one reader, such as frontend.FLOW_SCALE,
synth.RASTER_SCALE, the loop gates or the initializer's iteration budgets.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .evaluation import Trajectory, ate_rmse, read_tum, recall_at, umeyama, write_tum
from .frontend import (PHASE_FULL, InitConfig, KeyframePolicy, KeyframeView,
                       apply_correction, estimated_trajectory, make_tracker,
                       process_frame)
from .gsmap import (GaussianMap, apply_loop_correction, spawn_from_keyframe,
                    write_vgsm)
from .imu import ImuNoiseModel
from .loopclosure import LoopPolicy, LoopWorker
from .solver import total_energy
from .synth import (SceneModel, SyntheticDataset, SyntheticProvider,
                    TrajectoryModel, make_dataset)

RECALL_THRESHOLDS_CM = (5.0, 10.0)

EXIT_OK = 0
EXIT_DIVERGED = 2
EXIT_CONFIG = 3


class ConfigError(ValueError):
    """Anything wrong with flags, config keys, or input files."""


# Config key prefix -> the policy dataclass whose fields are its keys.
POLICIES = {"noise": ImuNoiseModel, "tracker": KeyframePolicy,
            "init": InitConfig, "loop": LoopPolicy}


def default_config() -> dict:
    """Every tunable of the pipeline with its default, flat dotted keys."""
    cfg = {
        "dataset.family": "figure8",
        "dataset.amplitude": 1.5,
        "dataset.period": 30.0,
        "dataset.duration": 60.0,
        "dataset.yaw_policy": "tangent",
        "dataset.frame_rate": 25.0,
        "dataset.imu_rate": 200.0,
        "dataset.sigma_px": 0.5,
        "dataset.outlier_rate": 0.0,
        "dataset.imu_noise": True,
        "dataset.scene_half_extent": 5.0,
        "provider.stride": 32,
        "map.stride": 4,
        "run.seed": 0,
        "run.frame_stride": 1,
        "run.align": "se3",
        "run.out": "out",
    }
    for prefix, cls in POLICIES.items():
        cfg.update({f"{prefix}.{f.name}": f.default for f in fields(cls)})
    return cfg


# Canonical fixtures. Values not listed fall back to the defaults above.
PRESETS = {
    "figure8": {},
    "circle": {
        "dataset.family": "circle",
        "dataset.amplitude": 2.0,
        "dataset.period": 20.0,
        "dataset.duration": 40.0,
    },
    "static": {
        "dataset.family": "circle",
        "dataset.amplitude": 0.0,
        "dataset.yaw_policy": "fixed",
        "dataset.duration": 8.0,
        "run.align": "none",
    },
}


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def dump_config(cfg: dict) -> str:
    return "\n".join(f"{k} = {_format_value(cfg[k])}" for k in sorted(cfg))


def _coerce(key: str, text: str, default):
    """Parse a config value using the default's type."""
    if isinstance(default, bool):
        low = text.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"config key {key!r} expects a boolean, got {text!r}")
    try:
        if isinstance(default, int):
            return int(text)
        if isinstance(default, float):
            return float(text)
    except ValueError:
        kind = "an integer" if isinstance(default, int) else "a number"
        raise ConfigError(f"config key {key!r} expects {kind}, got {text!r}") from None
    return text


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Flat `key = value` lines into a raw string mapping, '#' comments."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, val = line.partition("=")
        if not eq or not key.strip():
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        out[key.strip()] = val.strip()
    return out


def merge_config(cfg: dict, overrides: dict, coerce: bool = True) -> dict:
    """Apply overrides onto cfg, rejecting keys that are not known."""
    for key, val in overrides.items():
        if key not in cfg:
            raise ConfigError(f"unknown config key {key!r}")
        cfg[key] = _coerce(key, val, cfg[key]) if coerce else val
    return cfg


def build_config(preset: str | None = None, config_path=None,
                 flag_overrides: dict | None = None) -> dict:
    """Defaults, then preset, then config file, then CLI flags."""
    cfg = default_config()
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; "
                              f"choose from {sorted(PRESETS)}")
        merge_config(cfg, PRESETS[preset], coerce=False)
    if config_path is not None:
        try:
            text = Path(config_path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        merge_config(cfg, parse_config_text(text, str(config_path)))
    if flag_overrides:
        merge_config(cfg, flag_overrides, coerce=False)
    return cfg


def _out_dir(path) -> Path:
    """An output directory path, rejected when a non-directory holds it."""
    out = Path(path)
    if out.exists() and not out.is_dir():
        raise ConfigError(f"output path {str(out)!r} is not a directory")
    return out


@dataclass
class RunPlan:
    """A validated configuration turned into live pipeline objects."""

    dataset: SyntheticDataset
    provider: SyntheticProvider
    policy: KeyframePolicy
    init_cfg: InitConfig
    noise: ImuNoiseModel
    loop_policy: LoopPolicy
    out_dir: Path
    frame_stride: int
    align: str
    map_stride: int


def materialize(cfg: dict) -> RunPlan:
    """Validate the config and construct the dataset and policies.

    Raises ConfigError on any bad value; nothing is written to disk, so a
    rejected config leaves no partial outputs behind.
    """
    try:
        noise, policy, init_cfg, loop_policy = (
            cls(**{f.name: cfg[f"{prefix}.{f.name}"] for f in fields(cls)})
            for prefix, cls in POLICIES.items())

        for key in ("provider.stride", "map.stride", "run.frame_stride"):
            if cfg[key] < 1:
                raise ConfigError(f"config key {key!r} must be >= 1")
        if cfg["run.seed"] < 0:
            raise ConfigError("config key 'run.seed' must be >= 0")
        align = cfg["run.align"]
        if align not in ("se3", "sim3", "none"):
            raise ConfigError(f"config key 'run.align' must be se3, sim3, "
                              f"or none, got {align!r}")
        out_dir = _out_dir(cfg["run.out"])

        model = TrajectoryModel(family=cfg["dataset.family"],
                                amplitude=cfg["dataset.amplitude"],
                                period=cfg["dataset.period"],
                                duration=cfg["dataset.duration"],
                                yaw_policy=cfg["dataset.yaw_policy"])
        scene = SceneModel(half_extent=cfg["dataset.scene_half_extent"])
        imu_noise = noise if cfg["dataset.imu_noise"] else None
        dataset = make_dataset(model, scene=scene, imu_noise=imu_noise,
                               sigma_px=cfg["dataset.sigma_px"],
                               outlier_rate=cfg["dataset.outlier_rate"],
                               seed=cfg["run.seed"],
                               frame_rate=cfg["dataset.frame_rate"],
                               imu_rate=cfg["dataset.imu_rate"])
        provider = SyntheticProvider(dataset, stride=cfg["provider.stride"])
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from None

    return RunPlan(dataset=dataset, provider=provider, policy=policy,
                   init_cfg=init_cfg, noise=noise, loop_policy=loop_policy,
                   out_dir=out_dir, frame_stride=cfg["run.frame_stride"],
                   align=align, map_stride=cfg["map.stride"])


@dataclass
class RunArtifacts:
    """Everything a finished run produced, before any file is written."""

    metrics: dict
    est: Trajectory
    gt: Trajectory
    gmap: GaussianMap
    tracker: object


def _gravity_error_deg(g_est: np.ndarray, g_true: np.ndarray) -> float:
    c = float(g_est @ g_true / (np.linalg.norm(g_est) * np.linalg.norm(g_true)))
    return math.degrees(math.acos(min(1.0, max(-1.0, c))))


def _init_diagnostics(tracker, dataset) -> dict | None:
    """Estimate-vs-truth gravity and scale error at the moment of init.

    Read right after the initializing insertion, the view's rows, archive
    then window, are exactly the keyframes the initializer solved. The
    estimator frame is the body frame of keyframe 0, the view's row 0, so
    true gravity is rotated into it before the angle is taken.
    """
    rows = KeyframeView(tracker).rows()
    est = np.stack([r.pose.translation for r in rows])
    gt = np.stack([dataset.frame_pose(r.frame_index).translation for r in rows])
    try:
        S = umeyama(est, gt, with_scale=True)
    except ValueError:
        return None
    R0 = dataset.frame_pose(rows[0].frame_index).rotation
    g_true = R0.inverse().apply(dataset.gravity.vector())
    return {
        "gravity_err_deg": _gravity_error_deg(tracker.graph.gravity.vector(), g_true),
        "scale_err_pct": abs(S.scale - 1.0) * 100.0,
    }


def _spawn_keyframe_gaussians(gmap: GaussianMap, provider, row, stride: int) -> None:
    """Spawn a KeyframeRow's Gaussians at its pose, anchored to its kid."""
    color, depth = provider.keyframe_image(row.frame_index)
    h, w = depth.shape
    ks = provider.intrinsics().scaled(w, h)
    gmap.insert(spawn_from_keyframe(color, depth, row.pose, ks, stride, row.kid)[0])


def _metric_block(est: Trajectory, gt: Trajectory, mode: str) -> dict:
    """ATE and the recall table; ATE is null when alignment is impossible."""
    try:
        ate = ate_rmse(est, gt, mode)
    except ValueError:
        ate = None
    recall = {}
    for thr in RECALL_THRESHOLDS_CM:
        key = str(int(thr)) if float(thr).is_integer() else repr(float(thr))
        recall[key] = recall_at(est, gt, thr, mode)
    return {"ate_rmse_cm": ate, "recall": recall}


def execute(plan: RunPlan) -> RunArtifacts:
    """Drive the pipeline over every frame and assemble the metrics.

    The workers run synchronously in a fixed order per frame: tracking,
    Gaussian spawning for the keyframes the window evicted, loop ingestion
    of a new keyframe, then at most one pose-graph solve, when the loop
    worker says one is due, whose correction is folded into the tracker and
    the map before the next frame. The loop worker reads every keyframe's
    pose, frame and chain edge from the tracker through one KeyframeView,
    so the tracker holds the only copy and a correction lands in it once.
    Shutdown drains any pending correction before the remaining window
    keyframes are flushed into the map, so every output reflects the last
    solve. A run with no vision, every keyframe after the first degraded,
    raises RuntimeError.
    """
    ds = plan.dataset
    provider = plan.provider
    tracker = make_tracker(provider, plan.policy, plan.init_cfg, plan.noise,
                           imu_period=1.0 / ds.imu_rate)
    view = KeyframeView(tracker)
    worker = LoopWorker(provider.intrinsics(), provider.edge, plan.loop_policy)
    gmap = GaussianMap()

    tracking_trace = []
    pgba_trace = []
    init_diag = None
    archive_cursor = 0
    prev_time = None

    def run_pose_graph_solve():
        report, correction = worker.solve(view)
        apply_correction(tracker, correction)
        apply_loop_correction(gmap, correction)
        pgba_trace.append({"initial": report.initial_cost,
                           "final": report.final_cost,
                           "iterations": report.iterations,
                           "termination": report.termination})

    for f in range(0, ds.n_frames(), plan.frame_stride):
        t = ds.frame_time(f)
        samples = None if prev_time is None else ds.imu.between(prev_time, t)
        keyframed = process_frame(tracker, f, t, samples)
        prev_time = t

        if init_diag is None and tracker.phase == PHASE_FULL:
            init_diag = _init_diagnostics(tracker, ds)

        for row in tracker.archive[archive_cursor:]:
            _spawn_keyframe_gaussians(gmap, provider, row, plan.map_stride)
        archive_cursor = len(tracker.archive)

        if keyframed:
            worker.ingest_summary(view, tracker.graph.keyframes[-1].disparities.copy())

        # solve in batches so the pose graph is not re-optimized for every
        # single admitted loop while the trajectory barely moved
        if worker.due():
            run_pose_graph_solve()

        # before initialization the inertial terms are scored against an
        # unestimated gravity, so only initialized windows are traced
        if keyframed and tracker.phase == PHASE_FULL:
            tracking_trace.append(total_energy(tracker.graph))

    if tracker.next_kid > 1 and len(tracker.degraded) == tracker.next_kid - 1:
        raise RuntimeError("no vision: every keyframe after the first is degraded")

    # shutdown: drain, then flush the live window into the map
    if worker.pending:
        run_pose_graph_solve()
    for row in view.rows()[len(tracker.archive):]:
        _spawn_keyframe_gaussians(gmap, provider, row, plan.map_stride)

    est = estimated_trajectory(tracker)
    gt = Trajectory(est.timestamps.copy(),
                    [ds.frame_pose(row.frame_index) for row in view.rows()])

    if not all(np.all(np.isfinite(p.translation)) for p in est.poses):
        raise RuntimeError("estimated trajectory is not finite")

    metrics = _metric_block(est, gt, plan.align)
    metrics["keyframes"] = tracker.next_kid
    metrics["loops_closed"] = worker.loops_closed
    metrics["init"] = init_diag
    metrics["energy"] = {"tracking": tracking_trace, "pgba": pgba_trace}
    return RunArtifacts(metrics=metrics, est=est, gt=gt, gmap=gmap,
                        tracker=tracker)


def write_outputs(out_dir: Path, art: RunArtifacts) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_tum(out_dir / "trajectory_est.txt", art.est,
              comment="estimated keyframe trajectory")
    write_tum(out_dir / "trajectory_gt.txt", art.gt,
              comment="ground truth at keyframe timestamps")
    write_vgsm(out_dir / "map.vgsm", art.gmap)
    with open(out_dir / "metrics.json", "w") as f:
        json.dump(art.metrics, f, indent=2, sort_keys=True)
        f.write("\n")


def _print_metrics(metrics: dict) -> None:
    ate = metrics.get("ate_rmse_cm")
    print("ate_rmse_cm:", "unavailable" if ate is None else f"{ate:.4f}")
    for key in sorted(metrics.get("recall", {}), key=float):
        print(f"recall@{key}cm: {metrics['recall'][key]:.2f}%")
    if "keyframes" in metrics:
        print(f"keyframes: {metrics['keyframes']}")
        print(f"loops_closed: {metrics['loops_closed']}")


def _error_json(kind: str, message: str) -> None:
    json.dump({"error": kind, "message": message}, sys.stderr)
    sys.stderr.write("\n")


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as config errors, not exits."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="vislam", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the pipeline on a dataset")
    run.add_argument("--config", metavar="PATH", default=None,
                     help="flat key = value config file")
    run.add_argument("--preset", metavar="NAME", default=None,
                     help="named fixture: " + ", ".join(sorted(PRESETS)))
    run.add_argument("--seed", type=int, default=None, metavar="N")
    run.add_argument("--frame-stride", type=int, default=None, metavar="N",
                     help="consume every Nth frame, keeping the full IMU stream")
    run.add_argument("--out", metavar="DIR", default=None)
    run.add_argument("--align", choices=("se3", "sim3"), default=None,
                     help="trajectory alignment used for the metrics report")
    run.add_argument("--dump-defaults", action="store_true",
                     help="print the effective config and exit")

    ev = sub.add_parser("evaluate", help="score an estimated trajectory")
    ev.add_argument("est", metavar="EST_PATH")
    ev.add_argument("gt", metavar="GT_PATH")
    ev.add_argument("--align", choices=("se3", "sim3"), default="se3")
    ev.add_argument("--out", metavar="DIR", default=".")
    return parser


def _cmd_run(args) -> int:
    flags = {"run.seed": args.seed, "run.frame_stride": args.frame_stride,
             "run.out": args.out, "run.align": args.align}
    cfg = build_config(args.preset, args.config,
                       {k: v for k, v in flags.items() if v is not None})
    if args.dump_defaults:
        print(dump_config(cfg))
        return EXIT_OK
    plan = materialize(cfg)
    try:
        art = execute(plan)
    except (RuntimeError, ValueError) as exc:
        _error_json("divergence", str(exc))
        return EXIT_DIVERGED
    write_outputs(plan.out_dir, art)
    _print_metrics(art.metrics)
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    out = _out_dir(args.out)
    try:
        est = read_tum(args.est)
        gt = read_tum(args.gt)
    except OSError as exc:
        raise ConfigError(f"cannot read trajectory file: {exc}") from None
    metrics = _metric_block(est, gt, args.align)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "metrics.json", "w") as f:
        json.dump(metrics, f, indent=2, sort_keys=True)
        f.write("\n")
    _print_metrics(metrics)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_evaluate(args)
    except (ConfigError, ValueError, OSError) as exc:
        # an OSError here is an output path that cannot be written
        _error_json("config", str(exc))
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
