"""End-to-end runs through the command-line entry point."""

import hashlib
import json
import math

import numpy as np
import pytest

from vislam.cli import (EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, build_config,
                        default_config, execute, main, materialize,
                        merge_config, parse_config_text)
from vislam.evaluation import read_tum
from vislam.gsmap import read_vgsm

# A 6 s figure8 with a small window and early initialization and loops, so
# every stage of the pipeline runs in a few seconds. Existing keys only.
SHORT_RUN = """\
dataset.duration = 6.0
tracker.window_size = 5
tracker.covis_radius = 1
init.n_vis_init = 3
init.n_iner_init = 5
loop.min_gap = 3
loop.solve_every = 2
"""

# Measured 21.28 cm on seed 3; the bound leaves a 40% margin.
ATE_BOUND_CM = 30.0
GRAVITY_BOUND_DEG = 2.0
# The short run initializes from 5 keyframes (init.n_iner_init, default
# 20), and its scale error read 106.4% on seed 3; a 10 s figure8 at the
# default reads 5.5% (test_initializer_recovers_metric_scale). The
# bound leaves a small margin, so a worse initializer fails here too.
INIT_SCALE_BOUND_PCT = 115.0
# lm_solve's terminations, besides "singular: <reason>"
TERMINATIONS = ("converged", "max_iterations", "no_decrease_at_max_damping")
OUTPUTS = ("metrics.json", "map.vgsm", "trajectory_est.txt", "trajectory_gt.txt")
# SHA-256 of each short-run output. A refactor must leave them alone; a
# change that moves a number updates them and says why in CHANGES.md.
# metrics.json, map.vgsm and trajectory_est.txt last moved when stage 2
# of the initializer took its velocity and gravity seed from one linear
# least-squares fit (linear_alignment) and the window stopped retracting
# its gauge keyframe by a zero step, which re-normalized its quaternion:
# ATE went from 21.2846 to 21.2845 cm and the initializer's scale error
# from 106.3932% to 106.3923%.
SHORT_RUN_SHA256 = {
    "metrics.json":
        "e4783d9bab559ce00f078b0863b48d2fd33d9026f9c24327bbfa387f27155730",
    "map.vgsm":
        "67a29237f196ac20e2cb7d1b8f25d1bf0b15c58516b345d450b42b117ac17bfa",
    "trajectory_est.txt":
        "5da501692668b9459e5274bcf68e35c48b6b5393f18c24b0cc0788dd84774dba",
    "trajectory_gt.txt":
        "e41e3136c4b37913b5b8da5c8ff781409d434431a2d43f8400e1a9a7f262d0fe",
}


def _run(tmp_path, name, config_text, seed=3):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(config_text)
    out = tmp_path / name
    code = main(["run", "--preset", "figure8", "--config", str(cfg),
                 "--seed", str(seed), "--out", str(out)])
    return code, out


@pytest.fixture(scope="module")
def short_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    code, out = _run(tmp, "first", SHORT_RUN)
    return tmp, code, out


def test_short_run_exits_ok_and_writes_parseable_outputs(short_run):
    _, code, out = short_run
    assert code == EXIT_OK
    metrics = json.loads((out / "metrics.json").read_text())
    est = read_tum(out / "trajectory_est.txt")
    gt = read_tum(out / "trajectory_gt.txt")
    assert len(est.poses) == len(gt.poses) == metrics["keyframes"]
    assert np.array_equal(est.timestamps, gt.timestamps)

    gmap = read_vgsm(out / "map.vgsm")
    assert len(gmap) > 0
    # every keyframe, archived or still in the window at shutdown, is mapped
    assert np.unique(gmap.gaussians.anchor).tolist() == list(range(metrics["keyframes"]))
    assert metrics["loops_closed"] > 0


def test_short_run_accuracy(short_run):
    _, _, out = short_run
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["ate_rmse_cm"] < ATE_BOUND_CM
    assert metrics["init"]["gravity_err_deg"] < GRAVITY_BOUND_DEG
    assert metrics["init"]["scale_err_pct"] < INIT_SCALE_BOUND_PCT


def test_tracking_energy_is_traced_only_once_initialized(short_run):
    _, _, out = short_run
    metrics = json.loads((out / "metrics.json").read_text())
    tracking = metrics["energy"]["tracking"]
    n_iner_init = int(parse_config_text(SHORT_RUN)["init.n_iner_init"])
    # the keyframe that completes initialization is the first one traced
    assert len(tracking) == metrics["keyframes"] - (n_iner_init - 1)
    # before initialization the window scored 7.6e7-1.2e8 on this run
    assert all(math.isfinite(e) and e < 1e6 for e in tracking)


def test_one_pose_graph_solve_per_solve_every_loops(short_run):
    _, _, out = short_run
    metrics = json.loads((out / "metrics.json").read_text())
    solve_every = int(parse_config_text(SHORT_RUN)["loop.solve_every"])
    # a solve every solve_every admitted loops, plus one at shutdown for
    # any remainder
    assert len(metrics["energy"]["pgba"]) \
        == math.ceil(metrics["loops_closed"] / solve_every)
    # each solve records how lm_solve ended it
    for solve in metrics["energy"]["pgba"]:
        assert solve["termination"] in TERMINATIONS \
            or solve["termination"].startswith("singular: ")


def test_short_run_outputs_match_pinned_digests(short_run):
    _, _, out = short_run
    assert sorted(SHORT_RUN_SHA256) == sorted(OUTPUTS)
    for name, digest in SHORT_RUN_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() \
            == digest, name


def test_same_seed_gives_byte_identical_outputs(short_run):
    tmp, _, first = short_run
    code, second = _run(tmp, "second", SHORT_RUN)
    assert code == EXIT_OK
    for name in OUTPUTS:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def _evaluate(run_out, out, align):
    return main(["evaluate", str(run_out / "trajectory_est.txt"),
                 str(run_out / "trajectory_gt.txt"), "--align", align,
                 "--out", str(out)])


def test_evaluate_scores_the_run_outputs_as_the_run_did(short_run):
    tmp, _, out = short_run
    run_metrics = json.loads((out / "metrics.json").read_text())
    scored = {}
    for align in ("se3", "sim3"):
        assert _evaluate(out, tmp / f"eval_{align}", align) == EXIT_OK
        scored[align] = json.loads(
            (tmp / f"eval_{align}" / "metrics.json").read_text())
    assert scored["se3"]["ate_rmse_cm"] == run_metrics["ate_rmse_cm"]
    assert scored["se3"]["recall"] == run_metrics["recall"]
    # a free scale can only lower the aligned error
    assert scored["sim3"]["ate_rmse_cm"] <= scored["se3"]["ate_rmse_cm"]


def test_evaluate_missing_input_is_a_config_error(tmp_path, capsys):
    code = main(["evaluate", str(tmp_path / "missing.txt"),
                 str(tmp_path / "gt.txt"), "--out", str(tmp_path / "ev")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert '"error": "config"' in err and "missing.txt" in err
    assert not (tmp_path / "ev").exists()


def test_evaluate_non_finite_input_is_a_config_error(tmp_path, capsys):
    est = tmp_path / "est.txt"
    est.write_text("0.0 1 2 3 0 0 0 1\n0.1 nan 2 3 0 0 0 1\n")
    code = main(["evaluate", str(est), str(est), "--out",
                 str(tmp_path / "ev")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert '"error": "config"' in err and "est.txt:2" in err
    assert not (tmp_path / "ev").exists()


def test_run_out_path_that_is_a_file_is_rejected_before_the_run(
        tmp_path, capsys, monkeypatch):
    def never(plan):
        raise AssertionError("the pipeline ran")

    monkeypatch.setattr("vislam.cli.execute", never)
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    code, out = _run(tmp_path, "taken", SHORT_RUN)
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert '"error": "config"' in err and str(taken) in err
    assert taken.read_text() == "keep\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken", "taken.cfg"]


@pytest.mark.parametrize("below", [
    pytest.param(False, id="file"),
    pytest.param(True, id="below_file"),
])
def test_evaluate_out_path_blocked_by_a_file_is_a_config_error(
        short_run, tmp_path, capsys, below):
    _, _, run_out = short_run
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    out = taken / "ev" if below else taken
    assert _evaluate(run_out, out, "se3") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert '"error": "config"' in err and str(taken) in err
    assert taken.read_text() == "keep\n"


def test_zero_window_solve_iterations_is_a_config_error(tmp_path, capsys):
    code, out = _run(tmp_path, "bad",
                     SHORT_RUN + "tracker.solve_iterations = 0\n")
    assert code == EXIT_CONFIG
    assert "solve_iterations" in capsys.readouterr().err
    assert not out.exists()


# Every float key whose range check a NaN used to pass, and the gravity
# magnitude, which was not checked at all: its zero made the run diverge, and
# so did an infinite one. tracker.flow_threshold still accepts inf: "never".
NAN_PASSED = ("dataset.sigma_px", "noise.gravity_magnitude",
              "tracker.flow_threshold")
INF_PASSED = ("noise.gravity_magnitude",)


@pytest.mark.parametrize("key, value", [
    *(pytest.param(key, "nan", id=f"{key}=nan") for key in NAN_PASSED),
    *(pytest.param(key, "inf", id=f"{key}=inf") for key in INF_PASSED),
    pytest.param("noise.gravity_magnitude", "0.0",
                 id="noise.gravity_magnitude=0"),
])
def test_out_of_range_float_is_a_config_error(tmp_path, capsys, key, value):
    code, out = _run(tmp_path, "bad", SHORT_RUN + f"{key} = {value}\n")
    assert code == EXIT_CONFIG
    assert '"error": "config"' in capsys.readouterr().err
    assert not out.exists()


# Non-finite dataset values: an infinite duration or IMU rate used to end in
# an OverflowError traceback, and a NaN amplitude or IMU rate was stopped only
# later, by an error that did not name the key. An infinite scene made every
# depth infinite and ran as a valid run with no vision and an empty map; an
# infinite pixel noise was reported as a divergence. A provider stride of 960
# left no grid pixel (another valid-looking run with no vision).
@pytest.mark.parametrize("key, value", [
    ("dataset.duration", "inf"),
    ("dataset.imu_rate", "inf"),
    ("dataset.amplitude", "nan"),
    ("dataset.imu_rate", "nan"),
    ("dataset.scene_half_extent", "inf"),
    ("dataset.sigma_px", "inf"),
    ("provider.stride", "960"),
], ids=lambda v: v)
def test_non_finite_dataset_value_is_a_config_error(tmp_path, capsys, key,
                                                    value):
    code, out = _run(tmp_path, "bad", SHORT_RUN + f"{key} = {value}\n")
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert '"error": "config"' in err and key.split(".")[1] in err
    assert not out.exists()


# The whole config surface: every key and default, as `vislam run
# --dump-defaults` prints it with no preset. Changing a line here changes
# what every config file and preset means.
DUMPED_DEFAULTS = """\
dataset.amplitude = 1.5
dataset.duration = 60.0
dataset.family = figure8
dataset.frame_rate = 25.0
dataset.imu_noise = true
dataset.imu_rate = 200.0
dataset.outlier_rate = 0.0
dataset.period = 30.0
dataset.scene_half_extent = 5.0
dataset.sigma_px = 0.5
dataset.yaw_policy = tangent
init.n_iner_init = 20
init.n_vis_init = 10
loop.min_gap = 55
loop.solve_every = 4
loop.solve_iterations = 12
map.stride = 4
noise.accel_bias_random_walk = 0.0001
noise.accel_noise_density = 0.002
noise.gravity_magnitude = 9.81
noise.gyro_bias_random_walk = 1e-05
noise.gyro_noise_density = 0.00017
provider.stride = 32
run.align = se3
run.frame_stride = 1
run.out = out
run.seed = 0
tracker.covis_radius = 3
tracker.flow_threshold = 7.0
tracker.solve_iterations = 4
tracker.window_size = 12
"""

# The values in that dump that each preset changes, as printed.
PRESET_DUMP_CHANGES = {
    "figure8": {},
    "circle": {"dataset.amplitude": "2.0", "dataset.duration": "40.0",
               "dataset.family": "circle", "dataset.period": "20.0"},
    "static": {"dataset.amplitude": "0.0", "dataset.duration": "8.0",
               "dataset.family": "circle", "dataset.yaw_policy": "fixed",
               "run.align": "none"},
}


@pytest.mark.parametrize("preset", [None, *PRESET_DUMP_CHANGES])
def test_dump_defaults_prints_the_config_surface(capsys, preset):
    changes = PRESET_DUMP_CHANGES.get(preset, {})
    want = "".join(f"{key} = {changes.get(key, value)}\n" for key, value in
                   (line.split(" = ") for line in DUMPED_DEFAULTS.splitlines()))
    argv = ["run", "--dump-defaults"]
    if preset is not None:
        argv += ["--preset", preset]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == want


class _ReadRecorder(dict):
    """A config that remembers which keys the pipeline looked up."""

    def __init__(self, items):
        super().__init__(items)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def test_every_config_key_is_read():
    cfg = merge_config(build_config("figure8"), parse_config_text(SHORT_RUN))
    cfg["run.seed"] = 3
    cfg = _ReadRecorder(cfg)
    execute(materialize(cfg))
    assert sorted(set(default_config()) - cfg.read) == []


# Keys that were single-valued settings and are now module constants, each
# with the default it had: a file that sets one ran with it before.
CONSTANT_KEYS = {
    "tracker.max_interval": "3.0",
    "tracker.cov_trace_threshold": "0.0001",
    "tracker.flow_scale": "8.0",
    "init.max_iterations_vision": "30",
    "init.max_iterations_inertial": "60",
    "init.max_iterations_joint": "15",
    "init.damping": "0.0001",
    "loop.flow_gate": "22.0",
    "loop.ang_gate_deg": "120.0",
    "loop.align_iterations": "15",
    "provider.raster_scale": "5",
}


@pytest.mark.parametrize("key, value", [
    pytest.param("map.lambda_c", "0.8", id="map.lambda_c"),
    pytest.param("dataset.mode", "recorded", id="dataset.mode"),
    pytest.param("dataset.dir", "out/dataset", id="dataset.dir"),
    pytest.param("run.save_dataset", "true", id="run.save_dataset"),
    *(pytest.param(key, value, id=key) for key, value in CONSTANT_KEYS.items()),
])
def test_deleted_config_key_is_a_config_error(tmp_path, capsys, key, value):
    code, out = _run(tmp_path, "bad", SHORT_RUN + f"{key} = {value}\n")
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert '"error": "config"' in err and f"unknown config key {key!r}" in err
    assert not out.exists()


def test_removed_trajectory_family_is_a_config_error(tmp_path, capsys):
    # the spline family is gone; circle and figure8 are the families
    code, out = _run(tmp_path, "bad", SHORT_RUN + "dataset.family = spline\n")
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert '"error": "config"' in err and "unknown trajectory family 'spline'" in err
    assert not out.exists()


@pytest.mark.parametrize("error", [RuntimeError, ValueError])
def test_error_inside_the_pipeline_is_a_divergence(tmp_path, capsys,
                                                   monkeypatch, error):
    def diverge(*args, **kwargs):
        raise error("window state is not finite")

    monkeypatch.setattr("vislam.cli.process_frame", diverge)
    code, out = _run(tmp_path, "diverged", SHORT_RUN)
    assert code == EXIT_DIVERGED
    assert '"error": "divergence"' in capsys.readouterr().err
    assert not out.exists()


# A negative seed stopped in numpy's generator with a message that did not
# name the key, and with no IMU noise drawn it ran as a valid run.
@pytest.mark.parametrize("imu_noise", ["true", "false"])
def test_negative_seed_is_a_config_error(tmp_path, capsys, imu_noise):
    code, out = _run(tmp_path, "bad", SHORT_RUN + f"dataset.imu_noise = {imu_noise}\n",
                     seed=-1)
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert '"error": "config"' in err and "run.seed" in err
    assert not out.exists()


def test_run_without_vision_is_a_divergence(tmp_path, capsys):
    # stride 959 leaves one grid pixel, with no live row in any edge: this
    # ran as a valid run, every keyframe after the first degraded
    code, out = _run(tmp_path, "blind", SHORT_RUN + "provider.stride = 959\n")
    assert code == EXIT_DIVERGED
    err = capsys.readouterr().err
    assert '"error": "divergence"' in err and "degraded" in err
    assert not out.exists()


# The benchmark's tracker sizes (window 8, 2 covisible neighbours, 3 solver
# iterations) on a short figure8.
BENCH_TRACKER = {"tracker.window_size": 8, "tracker.covis_radius": 2,
                 "tracker.solve_iterations": 3}
NO_LOOPS = 100000          # loop.min_gap above any keyframe count


def _execute(seed, hint=None, **overrides):
    """Run the figure8 preset at bench tracker sizes; hint, if given, maps
    each true depth hint to the one the tracker gets."""
    cfg = build_config("figure8", None, {**BENCH_TRACKER, **overrides,
                                         "run.seed": seed})
    plan = materialize(cfg)
    if hint is not None:
        true_hint = plan.provider.depth_hint
        plan.provider.depth_hint = lambda frame, px: hint(true_hint(frame, px))
    return execute(plan).metrics


# depth hints the initializer must not lean on: the 1/depth disparities
# they seed are a gauge of stage 1, and stage 2 recovers the metric scale
DEPTH_HINTS = {"true": None, "double": lambda d: 2.0 * d,
               "flat_3m": lambda d: np.full_like(d, 3.0)}


@pytest.fixture(scope="module")
def init_scale_err():
    """init.scale_err_pct of a 10 s figure8, loops off, seed 1, per hint."""
    return {name: _execute(1, hint, **{"dataset.duration": 10.0,
                                       "loop.min_gap": NO_LOOPS})["init"]["scale_err_pct"]
            for name, hint in DEPTH_HINTS.items()}


def test_initializer_recovers_metric_scale(init_scale_err):
    # stage 2 read the scale 35.2% off here while it held the stage-1
    # positions as exact, scored over the 8 keyframes left in the window;
    # with their sigma it reads 5.5% over all 20 keyframes it solved
    assert init_scale_err["true"] < 15.0


@pytest.mark.parametrize("name", ["double", "flat_3m"])
def test_initializer_scale_ignores_the_depth_hint(init_scale_err, name):
    # read 5.4941% with the true hint, 5.4944% doubled and 5.4928% flat
    assert abs(init_scale_err[name] - init_scale_err["true"]) <= 0.05


def test_loop_closure_lowers_ate():
    # an 8 s figure8 lap and its revisit, 20 keyframes on: loops-on read
    # 0.62 cm against 1.68 cm loops-off; with a similarity pose graph, and
    # stage 2 holding the stage-1 positions exact, they read 9.79 against
    # 8.32 cm
    short = {"dataset.period": 8.0, "dataset.duration": 9.5}
    on = _execute(1, **short, **{"loop.min_gap": 20})
    off = _execute(1, **short, **{"loop.min_gap": NO_LOOPS})
    assert on["loops_closed"] > 0 and off["loops_closed"] == 0
    assert on["ate_rmse_cm"] < off["ate_rmse_cm"]
