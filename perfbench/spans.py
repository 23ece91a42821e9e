"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded from the benchmark's side: each public `vislam` function
listed in SITES is replaced, at the name its caller looks it up under, by a
wrapper that records (name, start, end, parent). `cli` and `frontend` bind
their callees with `from .x import y`, so a wrapper installed only on the
defining module would record nothing; the sites below name the caller's
module wherever that is the lookup. Counts are taken at the same boundaries
from arguments and return values. Nothing here runs unless a Tracer is
installed, so untraced runs pay nothing.
"""

import functools
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

import vislam.cli
import vislam.frontend
import vislam.geometry
import vislam.gsmap
import vislam.initialization
import vislam.loopclosure
import vislam.solver
import vislam.synth


def _solve_failed(report) -> bool:
    return report.termination.startswith("singular") \
        or report.termination == "no_decrease_at_max_damping"


def _observe_vi_ba(counters, report, args):
    counters["solver.solve_vi_ba.iterations"] += report.iterations
    counters["solver.solve_vi_ba.failed"] += _solve_failed(report)


def _observe_pgba(counters, out, args):
    report, graph = out[0], args[0]
    sources = {loop.vision.i for loop in graph.loops if loop.vision is not None}
    counters["loopclosure.solve_pgba.iterations"] += report.iterations
    counters["loopclosure.solve_pgba.failed"] += _solve_failed(report)
    counters["loopclosure.solve_pgba.nodes"] += len(graph.nodes)
    counters["loopclosure.solve_pgba.disp_vars"] += sum(
        len(n.disparities) for n in graph.nodes if n.kid in sources)


def _observe_process_frame(counters, keyframed, args):
    counters["frontend.keyframes"] += bool(keyframed)


def _observe_ingest(counters, pair, args):
    counters["loopclosure.admitted"] += pair is not None


def _observe_spawn(counters, out, args):
    counters["gsmap.spawn_from_keyframe.gaussians"] += len(out[0])


def _observe_map_size(name):
    def observe(counters, out, args):
        counters[name] += len(args[0])
    return observe


def _observe_write(counters, out, args):
    counters["gsmap.write_vgsm.bytes"] += os.path.getsize(args[0])


# (owner, attribute, span name, observer). The owner is where the caller
# looks the name up, not necessarily where it is defined.
SITES = (
    (vislam.cli, "make_dataset", "synth.make_dataset", None),
    (vislam.synth.SyntheticProvider, "edge", "synth.edge", None),
    (vislam.cli, "process_frame", "frontend.process_frame",
     _observe_process_frame),
    (vislam.cli, "apply_correction", "frontend.apply_correction", None),
    (vislam.frontend, "preintegrate", "imu.preintegrate", None),
    (vislam.frontend, "solve_vi_ba", "solver.solve_vi_ba", _observe_vi_ba),
    (vislam.cli, "total_energy", "solver.total_energy", None),
    (vislam.solver, "vision_residual", "residuals.vision_residual", None),
    (vislam.solver, "inertial_residual", "residuals.inertial_residual", None),
    (vislam.initialization, "inertial_residual", "residuals.inertial_residual",
     None),
    (vislam.loopclosure, "relative_pose_residual",
     "residuals.relative_pose_residual", None),
    (vislam.frontend, "init_vision", "initialization.init_vision", None),
    (vislam.initialization, "init_inertial_only",
     "initialization.init_inertial_only", None),
    (vislam.initialization, "init_joint", "initialization.init_joint", None),
    (vislam.loopclosure.LoopWorker, "ingest_summary",
     "loopclosure.ingest_summary", _observe_ingest),
    (vislam.loopclosure, "align_loop_pair", "loopclosure.align_loop_pair", None),
    (vislam.loopclosure, "sim3_vision_residual",
     "loopclosure.sim3_vision_residual", None),
    (vislam.loopclosure, "solve_pgba", "loopclosure.solve_pgba", _observe_pgba),
    (vislam.cli, "spawn_from_keyframe", "gsmap.spawn_from_keyframe",
     _observe_spawn),
    (vislam.gsmap, "spawn_from_keyframe", "gsmap.spawn_from_keyframe",
     _observe_spawn),
    (vislam.cli, "apply_loop_correction", "gsmap.apply_loop_correction",
     _observe_map_size("gsmap.apply_loop_correction.gaussians")),
    (vislam.gsmap, "apply_loop_correction", "gsmap.apply_loop_correction",
     _observe_map_size("gsmap.apply_loop_correction.gaussians")),
    (vislam.gsmap, "render", "gsmap.render",
     _observe_map_size("gsmap.render.gaussians")),
    (vislam.cli, "write_vgsm", "gsmap.write_vgsm", _observe_write),
    (vislam.gsmap, "write_vgsm", "gsmap.write_vgsm", _observe_write),
    (vislam.gsmap, "read_vgsm", "gsmap.read_vgsm", None),
)

# Counted, not timed: a span per construction would cost more than the
# construction itself.
COUNTED = ((vislam.geometry.Rotation, "__init__",
            "geometry.Rotation.constructions"),)

ROOT_SPAN = "cli.execute"


class Tracer:
    """Collects spans and counters while installed; restores on exit."""

    def __init__(self):
        self.spans = []               # [name, start, end, parent index or -1]
        self.counters = defaultdict(float)
        self._open = []

    def wrap(self, name, fn, observe=None):
        spans, stack, counters = self.spans, self._open, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(counters, out, args)
            return out
        return traced

    def _count(self, name, fn):
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)
        return counted

    @contextmanager
    def installed(self):
        """Patch every site for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, observe in SITES:
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, self.wrap(name, getattr(owner, attr),
                                               observe))
            for owner, attr, name in COUNTED:
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, self._count(name, getattr(owner, attr)))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_totals(self) -> dict:
        """Per span name: calls, busy (inclusive) and self seconds."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for (name, start, end, _), child in zip(self.spans, covered):
            row = totals[name]
            row["calls"] += 1
            row["busy_s"] += end - start
            # synchronous pipeline: child spans never overlap, so the time
            # they cover is the plain sum of their durations
            row["self_s"] += end - start - child
        return totals

    def write(self, path) -> None:
        """Dump the spans, with times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": [[n, s - t0, e - t0, p]
                                 for n, s, e, p in self.spans]}, f)
