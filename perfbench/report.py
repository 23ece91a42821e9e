"""Run a workload for a time budget and turn its operations into metrics.

End-to-end metrics come only from untraced operations. Per-layer metrics
come from traced copies of the same operations, divided by the number of
traced operations, so they read per operation. Each layer is predicted busy
or idle on each workload; the traced run checks that prediction, which
also catches a wrapper installed where no caller looks the name up.
"""

import ctypes
import dataclasses
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import spans
from vislam import cli
from workloads import run_op

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
SETUP_SAMPLES = 3

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("frames_per_s", "1/s"),
    ("kf_latency_p50_ms", "ms"),
    ("kf_latency_p75_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _timed(prefix, *fields):
    """calls and busy_s, plus any of self_s, of one span name."""
    out = [(f"{prefix}.calls", "count"), (f"{prefix}.busy_s", "s")]
    return out + [(f"{prefix}.{f}", "s") for f in fields]


PER_LAYER = (
    _timed("synth.edge")
    + [("synth.make_dataset.busy_s", "s")]
    + _timed("frontend.process_frame")
    + [("frontend.keyframes", "count"), ("frontend.degraded", "count"),
       ("frontend.apply_correction.busy_s", "s")]
    + _timed("imu.preintegrate")
    + _timed("solver.solve_vi_ba", "self_s")
    + [("solver.solve_vi_ba.iterations", "count"),
       ("solver.solve_vi_ba.failed", "count"),
       ("solver.total_energy.busy_s", "s")]
    + _timed("residuals.vision_residual")
    + _timed("residuals.inertial_residual")
    + _timed("residuals.relative_pose_residual")
    + [("initialization.init_vision.busy_s", "s"),
       ("initialization.init_inertial_only.busy_s", "s"),
       ("initialization.init_joint.busy_s", "s")]
    + _timed("loopclosure.ingest_summary")
    + [("loopclosure.admitted", "count"), ("loopclosure.admit_ratio", "ratio")]
    + _timed("loopclosure.align_loop_pair")
    + _timed("loopclosure.sim3_vision_residual")
    + _timed("loopclosure.solve_pgba", "self_s")
    + [("loopclosure.solve_pgba.iterations", "count"),
       ("loopclosure.solve_pgba.failed", "count"),
       ("loopclosure.solve_pgba.nodes_mean", "count"),
       ("loopclosure.solve_pgba.disp_vars_mean", "count")]
    + _timed("gsmap.spawn_from_keyframe")
    + [("gsmap.spawn_from_keyframe.gaussians", "count")]
    + _timed("gsmap.apply_loop_correction")
    + [("gsmap.apply_loop_correction.gaussians_per_s", "1/s")]
    + _timed("gsmap.render")
    + [("gsmap.render.gaussians_per_s", "1/s"),
       ("gsmap.write_vgsm.busy_s", "s"), ("gsmap.write_vgsm.bytes", "B"),
       ("gsmap.read_vgsm.busy_s", "s"),
       ("geometry.Rotation.constructions", "count"),
       ("cli.execute.busy_s", "s"), ("cli.execute.self_s", "s"),
       ("trace.overhead_ratio", "ratio"),
       ("ate_rmse_cm", "cm"), ("map_color_l1", "intensity"),
       ("map_depth_l1_m", "m")]
)

# Layers that must record calls on each workload; every other traced layer
# must record none there.
_PIPELINE_BUSY = {
    "synth.make_dataset", "synth.edge", "frontend.process_frame",
    "imu.preintegrate", "solver.solve_vi_ba", "solver.total_energy",
    "residuals.vision_residual", "residuals.inertial_residual",
    "initialization.init_vision", "initialization.init_inertial_only",
    "initialization.init_joint", "loopclosure.ingest_summary",
    "gsmap.spawn_from_keyframe", "gsmap.write_vgsm", "gsmap.read_vgsm",
    spans.ROOT_SPAN, "geometry.Rotation.constructions",
}
BUSY = {
    "vio": _PIPELINE_BUSY,
    "loop": _PIPELINE_BUSY | {
        "frontend.apply_correction", "residuals.relative_pose_residual",
        "loopclosure.align_loop_pair", "loopclosure.sim3_vision_residual",
        "loopclosure.solve_pgba", "gsmap.apply_loop_correction"},
    "map": {"synth.make_dataset", "gsmap.spawn_from_keyframe",
            "gsmap.apply_loop_correction", "gsmap.render", "gsmap.write_vgsm",
            "gsmap.read_vgsm", "geometry.Rotation.constructions"},
}
TRACED = {name for _, _, name, _ in spans.SITES} \
    | {name for _, _, name in spans.COUNTED} | {spans.ROOT_SPAN}


def load_ceilings(workload: str) -> dict:
    with open(BENCH_DIR / "reference.json") as f:
        return json.load(f)["ceilings"][workload]


def coverage(workload: str, calls: dict) -> list:
    """Layers whose call count contradicts the workload's prediction."""
    wrong = []
    for name in sorted(TRACED):
        busy = name in BUSY[workload]
        if busy != (calls.get(name, 0) > 0):
            wrong.append(f"{name}: {calls.get(name, 0)} calls, predicted "
                         f"{'busy' if busy else 'idle'}")
    return wrong


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, n_ops: int, degraded: float, quality: dict,
                  overhead: float) -> dict:
    totals = tracer.layer_totals()
    c = tracer.counters
    values = {}
    for name, row in totals.items():
        for key, v in row.items():
            values[f"{name}.{key}"] = v / n_ops
    values.update({k: v / n_ops for k, v in c.items()})
    values["frontend.degraded"] = degraded
    values["loopclosure.admit_ratio"] = _ratio(
        c["loopclosure.admitted"], totals["loopclosure.ingest_summary"]["calls"])
    pgba_calls = totals["loopclosure.solve_pgba"]["calls"]
    values["loopclosure.solve_pgba.nodes_mean"] = _ratio(
        c["loopclosure.solve_pgba.nodes"], pgba_calls)
    values["loopclosure.solve_pgba.disp_vars_mean"] = _ratio(
        c["loopclosure.solve_pgba.disp_vars"], pgba_calls)
    for name in ("gsmap.apply_loop_correction", "gsmap.render"):
        values[f"{name}.gaussians_per_s"] = _ratio(
            c[f"{name}.gaussians"], totals[name]["busy_s"])
    values["trace.overhead_ratio"] = overhead
    values.update(quality)
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER}


# A whole set-up in a fresh interpreter: imports, then config and inputs.
_SETUP_CHILD = """
import json, sys, time
sys.path[:0] = {paths!r}
start = time.perf_counter()
import workloads
workloads.prepare({workload!r}, {seed!r},
                  workloads.Sizes(**json.loads({sizes!r})))
print(time.perf_counter() - start)
"""


def child_setup_s(workload: str, seed: int, sizes) -> float:
    """Time one set-up in a child process; imports happen once per process,
    so repeating them needs a fresh interpreter."""
    code = _SETUP_CHILD.format(paths=[str(BENCH_DIR), str(SRC)],
                               workload=workload, seed=seed,
                               sizes=json.dumps(dataclasses.asdict(sizes)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout.split()[-1])


def end_to_end_metrics(ops, setup_samples: list) -> dict:
    latency = [s for op in ops for s in op.kf_latency_s]
    values = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(op.wall_s for op in ops),
        "frames_per_s": statistics.median(op.frames / op.wall_s for op in ops),
        "kf_latency_p50_ms": 1e3 * statistics.median(latency),
        # the highest quartile with at least ten keyframes above it
        "kf_latency_p75_ms": 1e3 * statistics.quantiles(
            latency, n=4, method="inclusive")[2],
        "peak_rss_mb": ops[0].rss_mb,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def _openblas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, read back after import."""
    found = {}
    for pkg in (np, scipy):
        libs = os.path.join(os.path.dirname(pkg.__file__), os.pardir,
                            pkg.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    fn = getattr(lib, sym)
                    fn.restype = ctypes.c_int
                    found[os.path.basename(path)] = fn()
                    break
    return found


def _git_commit(root: Path):
    """HEAD of the checkout when it is a git work tree, else None."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
        "openblas_threads": _openblas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(BENCH_DIR.parent),
    }


def _op_record(op, traced: bool) -> dict:
    return {"traced": traced, "setup_s": op.setup_s, "wall_s": op.wall_s,
            "frames": op.frames, "keyframe_samples": len(op.kf_latency_s),
            "rss_mb": op.rss_mb, "quality": op.quality, "shape": op.shape,
            "failures": op.failures}


def run(workload: str, seed: int, seconds: float, trace: bool, sizes,
        import_s: float, out_dir, ceilings=None):
    """Run operations for about `seconds`; (summary, result).

    Operations write their files, and a traced run its spans, to out_dir.
    """
    if ceilings is None:
        ceilings = load_ceilings(workload)
    scratch = Path(out_dir)
    scratch.mkdir(parents=True, exist_ok=True)
    summary = {"workload": workload, "seconds": seconds, "trace": int(trace),
               "env": environment(seed)}

    plain, traced, records = [], [], []
    tracer = spans.Tracer() if trace else None
    deadline = time.perf_counter() + seconds
    spent = []
    while True:
        start = time.perf_counter()
        op = run_op(workload, seed, sizes, scratch, ceilings)
        plain.append(op)
        records.append(_op_record(op, False))
        if trace:
            with tracer.installed():
                op = run_op(workload, seed, sizes, scratch, ceilings,
                            execute=tracer.wrap(spans.ROOT_SPAN, cli.execute))
            traced.append(op)
            records.append(_op_record(op, True))
        # start another only if it is expected to end within the budget
        spent.append(time.perf_counter() - start)
        if time.perf_counter() + statistics.fmean(spent) > deadline:
            break

    ops = plain + traced
    failed = sum(1 for op in ops if op.failures)
    timed = [op for op in plain if op.wall_s is not None]
    summary["ops"] = records
    summary["keyframe_samples"] = sum(len(op.kf_latency_s) for op in timed)
    correct = failed == 0
    if trace:
        calls = {name: row["calls"]
                 for name, row in tracer.layer_totals().items()}
        calls.update(tracer.counters)
        summary["coverage_failures"] = coverage(workload, calls)
        correct = correct and not summary["coverage_failures"]
        ratio = _ratio(sum(op.wall_s or 0.0 for op in traced),
                       sum(op.wall_s or 0.0 for op in plain))
        summary["trace_overhead_ratio"] = ratio
        quality = traced[-1].quality
        degraded = statistics.mean(op.shape.get("degraded", 0)
                                   for op in traced)
        metrics = layer_metrics(tracer, len(traced), degraded, quality, ratio)
        tracer.write(scratch / f"spans-{workload}-seed{seed}.json")
    else:
        # several whole set-ups per run, so that setup_s is a median
        setup_samples = [import_s + plain[0].setup_s] + [
            child_setup_s(workload, seed, sizes)
            for _ in range(SETUP_SAMPLES - 1)]
        metrics = end_to_end_metrics(timed, setup_samples) if timed else {}
    result = {"correct": correct, "attempted": len(ops), "failed": failed,
              "metrics": metrics}
    return summary, result
