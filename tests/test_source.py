"""Static checks over the package source."""

import ast
import importlib
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import vislam
from vislam.cli import POLICIES, default_config

MODULES = sorted(Path(vislam.__file__).parent.glob("*.py"))


def _unused_imports(tree: ast.Module) -> list:
    """Names bound by a module-level import that the module never reads."""
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # a quoted annotation reads the names inside its string
    for n in ast.walk(tree):
        notes = []
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes.append(n.returns)
        elif isinstance(n, ast.arg):
            notes.append(n.annotation)
        elif isinstance(n, ast.AnnAssign):
            notes.append(n.annotation)
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                read |= {m.id for m in ast.walk(ast.parse(note.value,
                                                          mode="eval"))
                         if isinstance(m, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_imports(tree) == []


def _names(tree: ast.Module) -> set:
    """Every name a module binds, reads or imports, and every attribute."""
    names = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name)
    return names


# A damped solve outside NormalEquations is its own normal-equation path:
# every solve assembles and steps through the one in solver.py.
PRIVATE_SOLVE = {"solve_dense": {"solver.py"},
                 "RIDGE": {"solver.py"}}


@pytest.mark.parametrize("name", sorted(PRIVATE_SOLVE))
def test_damped_solve_named_only_where_allowed(name):
    users = {p.name for p in MODULES
             if name in _names(ast.parse(p.read_text(), filename=str(p)))}
    assert users <= PRIVATE_SOLVE[name]


# A problem outside solver.py states its dense family and its rows, and
# lets GraphProblem evaluate them with its vision groups, linearize them
# into NormalEquations and step by its solve.
@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "solver.py"],
                         ids=lambda p: p.name)
def test_only_solver_linearizes_or_steps(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    defined = {(c.name, f.name) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
               for f in c.body if isinstance(f, ast.FunctionDef)
               and f.name in ("evaluate", "linearize", "step")}
    assert defined == set()


# GraphProblem.evaluate is the one caller of the reprojection kernel: no
# module but solver.py reads or imports the name that residuals.py defines.
def test_only_solver_calls_the_vision_kernel():
    users = {p.name for p in MODULES
             if "vision_residual" in _names(ast.parse(p.read_text(), filename=str(p)))}
    assert users == {"solver.py"}


# A trial saves and restores through one snapshot: every problem keeps its
# unknowns as values on its own attributes, which GraphProblem copies.
def test_only_graph_problem_snapshots_or_restores():
    defined = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        defined |= {(path.name, c.name) for c in ast.walk(tree)
                    if isinstance(c, ast.ClassDef)
                    for f in c.body if isinstance(f, ast.FunctionDef)
                    and f.name in ("snapshot", "restore")}
    assert defined == {("solver.py", "GraphProblem")}


# The camera is the body and an edge owns its pixels: no module names a
# camera-body extrinsic, and no record but VisionEdge keeps a pixel copy,
# save the EdgeStack that a problem stacks from its edges once, which only
# EdgeStack.of(edges) builds.
def test_one_camera_and_one_pixel_owner():
    extrinsic = {"T_cb", "T_bc", "R_bc", "p_bc"}
    pixel_fields = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        args = {a.arg for a in ast.walk(tree) if isinstance(a, ast.arg)}
        assert not extrinsic & (_names(tree) | args), path.name
        assert not any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "EdgeStack"
                       for n in ast.walk(tree)), path.name
        pixel_fields |= {
            (path.name, c.name) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
            for n in ast.walk(c)
            if isinstance(n, ast.AnnAssign) and getattr(n.target, "id", None) == "pixels"
            or isinstance(n, ast.Attribute) and n.attr == "pixels"
            and isinstance(n.ctx, ast.Store)}
    assert pixel_fields == {("residuals.py", "VisionEdge"), ("residuals.py", "EdgeStack")}


def _check_calls(node) -> int:
    return sum(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
               and n.func.attr == "check" for n in ast.walk(node))


# The map is its checked columns: a batch is checked once, when it is built,
# and the anchor runs are read from the anchor column, not from an index.
def test_one_check_per_batch_and_no_anchor_index():
    calls = 0
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        assert "anchor_ranges" not in _names(tree), path.name
        calls += _check_calls(tree)
        if path.name == "gsmap.py":
            init, = (f for c in tree.body if isinstance(c, ast.ClassDef) and c.name == "Gaussians"
                     for f in c.body if isinstance(f, ast.FunctionDef) and f.name == "__init__")
    assert calls == _check_calls(init) == 1


# A problem reads its graph when it is built and writes it in commit(): no
# graph keeps a keyframe index beside its lists, and stage 2 of the
# initializer writes the window through its own commit.
def test_no_keyframe_index_beside_a_graph_and_stage_two_commits():
    gone = {"KeyframeIndex", "reindex", "_index_keyframes", "apply_initialization"}
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        defined = {n.name for n in ast.walk(tree)
                   if isinstance(n, (ast.ClassDef, ast.FunctionDef))}
        assert not gone & (_names(tree) | defined), path.name
        if path.name == "initialization.py":
            methods = {f.name for c in tree.body
                       if isinstance(c, ast.ClassDef) and c.name == "_InertialOnly"
                       for f in c.body if isinstance(f, ast.FunctionDef)}
    assert "commit" in methods


# Stage 2 has one seed, linear_alignment's least-squares fit, and a node
# moves in one place: GraphProblem.retract, which leaves the gauge as it is.
def test_one_stage_two_seed_and_one_node_retraction():
    root = Path(vislam.__file__).parent
    tree = ast.parse((root / "initialization.py").read_text())
    defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert "linear_alignment" in defined
    assert not {"align_gravity", "_fd_velocities"} & defined
    tree = ast.parse((root / "loopclosure.py").read_text())
    methods = {f.name for c in tree.body
               if isinstance(c, ast.ClassDef) and c.name == "_PoseGraphProblem"
               for f in c.body if isinstance(f, ast.FunctionDef)}
    assert "dense" in methods and "retract" not in methods


# The tracker's archive and window are the one record of each keyframe's
# pose, frame and chain edge: the loop worker takes no eviction message and
# stores no pose, only its config, its loops, its waiting count and the
# disparities it solves.
def test_loop_worker_keeps_no_keyframe_record():
    path = Path(vislam.__file__).parent / "loopclosure.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    defined = {n.name for n in ast.walk(tree)
               if isinstance(n, (ast.ClassDef, ast.FunctionDef))}
    assert not {"ingest_eviction", "_state_of", "KeyframeSummary"} & defined
    worker, = (c for c in tree.body if isinstance(c, ast.ClassDef) and c.name == "LoopWorker")
    stored = {n.attr for n in ast.walk(worker) if isinstance(n, ast.Attribute)
              and isinstance(n.ctx, ast.Store) and getattr(n.value, "id", None) == "self"}
    assert stored == {"intrinsics", "edge_source", "policy", "loops", "waiting",
                      "disparities"}


# A policy key is its dataclass field at the field's default, with no
# override, and a value nothing sets is a constant beside its one reader:
# no policy field is named after a key that became a constant, and no
# function carries the flow grid's scale as a parameter.
CONSTANT_FIELDS = {"max_interval", "cov_trace_threshold", "flow_scale",
                   "max_iterations_vision", "max_iterations_inertial",
                   "max_iterations_joint", "damping", "flow_gate", "ang_gate_deg",
                   "align_iterations"}


def test_policy_keys_are_policy_fields_at_their_defaults():
    policy_keys = {key: value for key, value in default_config().items()
                   if key.split(".")[0] in POLICIES}
    assert policy_keys == {f"{prefix}.{f.name}": f.default
                           for prefix, cls in POLICIES.items() for f in fields(cls)}
    assert not CONSTANT_FIELDS & {f.name for cls in POLICIES.values() for f in fields(cls)}
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        assert "flow_scale" not in {a.arg for a in ast.walk(tree)
                                    if isinstance(a, ast.arg)}, path.name


# The benchmark's traced runs patch the names that perfbench/spans.py lists
# (SITES, and COUNTED), where the pipeline looks them up; tier-1 never runs
# them, so a kernel or caller renamed here would break `--trace 1` unseen.
# The list is read as source, without importing the benchmark.
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _span_sites() -> list:
    """(owner, attribute) of every SITES and COUNTED entry of spans.py."""
    sites = []
    for node in ast.parse(SPANS.read_text(), filename=str(SPANS)).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in (
                "SITES", "COUNTED"):
            sites += [(ast.unparse(e.elts[0]), e.elts[1].value) for e in node.value.elts]
    return sites


def test_bench_span_sites_exist():
    sites = _span_sites()
    assert len(sites) > 20
    missing = []
    for owner, attr in sites:
        package, module, *rest = owner.split(".")
        obj = importlib.import_module(f"{package}.{module}")
        for name in rest:
            obj = getattr(obj, name)
        if attr not in vars(obj):
            missing.append(f"{owner}.{attr}")
    assert missing == []


# Importing the CLI loads scipy.linalg and nothing else of scipy: any other
# scipy subpackage (scipy.interpolate pulled in seven) is set-up time that
# every run and every benchmark operation pays. Checked in a fresh
# interpreter, since this one has imported whatever the other tests use.
def test_cli_import_loads_only_scipy_linalg():
    src = str(Path(vislam.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, vislam.cli; print(sorted({n.split('.')[1] "
             "for n in sys.modules if n.startswith('scipy.')}))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    loaded = {name for name in ast.literal_eval(out) if not name.startswith("_")}
    assert loaded <= {"linalg", "version"}
