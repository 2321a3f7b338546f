import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import phdesc
import phdesc.cli

# Runs the analysis commands in a fresh interpreter, records which scipy
# modules they loaded, then simulates the stabilized loop.
_SCRIPT = """
import json, sys
import numpy as np
from phdesc.cli import main
from phdesc.fileio import load_feedback, load_system
from phdesc.simulate import simulate_closed_loop

d = sys.argv[1]
codes = [
    main(["gen", "--n", "6", "--m", "2", "--seed", "4", "--output", d + "/sys.json"]),
    main(["analyze", "--input", d + "/sys.json", "--report", d + "/analysis.json"]),
    main(["stabilize", "--input", d + "/sys.json", "--output", d + "/F.json",
          "--report", d + "/synthesis.json"]),
]
scipy_after_analysis = sorted(k for k in sys.modules if k.split(".")[0] == "scipy")
traj = simulate_closed_loop(load_system(d + "/sys.json"), load_feedback(d + "/F.json"),
                            np.ones(6), T=0.05, dt=1e-3)
print(json.dumps({"codes": codes, "scipy_after_analysis": scipy_after_analysis,
                  "samples": int(traj.t.shape[0]),
                  "finite": bool(np.isfinite(traj.x).all())}))
"""


def test_analysis_commands_do_not_load_scipy(tmp_path):
    src = str(Path(phdesc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["codes"] == [0, 0, 0]
    assert out["scipy_after_analysis"] == []
    assert out["samples"] == 51 and out["finite"]


# Runs only the stabilize command in a fresh interpreter, so the synthesis
# takes its own open-loop report, and records which scipy modules it loaded.
_STABILIZE_SCRIPT = """
import json, sys
from phdesc.cli import main

d = sys.argv[1]
codes = [main(["gen", "--n", "8", "--m", "2", "--seed", "5", "--output", d + "/sys.json"])]
codes.append(main(["stabilize", "--input", d + "/sys.json", "--report", d + "/syn.json"]))
print(json.dumps({"codes": codes,
                  "scipy": sorted(k for k in sys.modules if k.split(".")[0] == "scipy")}))
"""


def test_stabilize_alone_does_not_load_scipy(tmp_path):
    src = str(Path(phdesc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _STABILIZE_SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["codes"] == [0, 0]
    assert out["scipy"] == []
    doc = json.loads((tmp_path / "syn.json").read_text(encoding="utf-8"))
    assert doc["conditions_met"] and doc["certification"]["overall"]


# Stabilizes a generated system, then runs the simulate command on the loop
# in the same fresh interpreter and records which scipy modules it loaded.
_SIMULATE_SCRIPT = """
import json, sys
from phdesc.cli import main

d = sys.argv[1]
codes = [
    main(["gen", "--n", "6", "--m", "2", "--seed", "4", "--output", d + "/sys.json"]),
    main(["stabilize", "--input", d + "/sys.json", "--output", d + "/F.json"]),
]
scipy_before = sorted(k for k in sys.modules if k.split(".")[0] == "scipy")
codes.append(main(["simulate", "--input", d + "/sys.json", "--feedback", d + "/F.json",
                   "--x0=1,1,1,1,1,1", "--u=0.5,-0.5", "--T", "0.05", "--dt", "1e-3",
                   "--output", d + "/traj.csv", "--report", d + "/sim.json"]))
scipy_after = sorted(k for k in sys.modules if k.split(".")[0] == "scipy")
print(json.dumps({"codes": codes, "scipy_before": scipy_before, "scipy_after": scipy_after}))
"""


def test_simulate_command_does_not_load_scipy(tmp_path):
    src = str(Path(phdesc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _SIMULATE_SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["codes"] == [0, 0, 0]
    assert out["scipy_before"] == [] and out["scipy_after"] == []
    sim = json.loads((tmp_path / "sim.json").read_text(encoding="utf-8"))
    assert sim["steps"] == 50 and sim["dissipation_inequality"]
    assert len((tmp_path / "traj.csv").read_text(encoding="utf-8").splitlines()) == 52


_REPO = Path(__file__).resolve().parents[1]
_WORKLOADS = ast.parse((_REPO / "bench" / "workloads.py").read_text(encoding="utf-8"))


def test_benchmark_imports_from_phdesc_exist():
    imported = [(node.module, alias.name) for node in ast.walk(_WORKLOADS)
                if isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "phdesc"
                for alias in node.names]
    assert imported
    missing = [f"{mod}.{name}" for mod, name in imported
               if not hasattr(importlib.import_module(mod), name)]
    assert missing == []


def test_traced_cli_attributes_exist():
    # bench/run.py --trace 1 wraps these phdesc.cli attributes by name
    instrument = next(node for node in ast.walk(_WORKLOADS)
                      if isinstance(node, ast.FunctionDef) and node.name == "instrument_cli")
    wraps = next(node.value for node in ast.walk(instrument)
                 if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict))
    attrs = [ast.literal_eval(key) for key in wraps.keys]
    assert attrs
    assert [a for a in attrs if not hasattr(phdesc.cli, a)] == []


def test_benchmark_instruments_the_cli(monkeypatch):
    # Traced benchmark runs wrap phdesc.cli's imports by name; run that
    # wrapping itself so a dropped import fails here, not at bench time.
    monkeypatch.syspath_prepend(str(_REPO / "bench"))
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads")
    tracer = spans.Tracer()
    before = dict(vars(phdesc.cli))
    workloads.instrument_cli(tracer)
    try:
        assert phdesc.cli.pencil_report is not before["pencil_report"]
    finally:
        tracer.uninstall()
    assert dict(vars(phdesc.cli)) == before


def test_demo_script_runs(tmp_path):
    env = dict(os.environ)
    src = str(Path(phdesc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(_REPO / "scripts" / "demo_closed_loop.py"),
                           "--out", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


_PACKAGE = Path(phdesc.__file__).resolve().parent


def test_no_private_names_across_modules():
    # a name another module needs is part of its owner's interface
    crossing = []
    for path in sorted(_PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "phdesc"):
                crossing += [f"{path.name}: {alias.name}" for alias in node.names
                             if alias.name.startswith("_")]
    assert crossing == []


def test_every_public_definition_is_used():
    # Library code serves the package, the benchmark or the scripts; a
    # statement that only tests call belongs in tests/conftest.py as an
    # oracle.  A re-export from __init__.py is not a use.  The same holds
    # for the public methods, properties and dataclass fields of a class.
    def used(path):
        names = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            # A name being assigned, such as a field's own declaration, is
            # not a use; a keyword argument that builds a record is.
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.keyword) and node.arg:
                names.add(node.arg)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
                names.update(alias.name for alias in node.names)
        return names

    def definitions(path):
        # (shown name, bare name) of each top-level function and class, and
        # of each method, property and annotated field of a class
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef):
                        yield f"{node.name}.{member.name}", member.name
                    elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                        yield f"{node.name}.{member.target.id}", member.target.id

    sources = [p for p in sorted(_PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    users = [*sources, *sorted((_REPO / "bench").glob("*.py")),
             *sorted((_REPO / "scripts").glob("*.py"))]
    referenced = set().union(*(used(p) for p in users))
    unused = [f"{path.name}: {shown}" for path in sources for shown, name in definitions(path)
              if not name.startswith("_") and name not in referenced]
    assert unused == []


def test_memo_slots_live_in_pencil_only():
    # pencil.py is the one owner of remembered values (E's SVD, the last
    # report, the last analysis); every other module, linalg included,
    # keeps no state that a function rebinds.
    slots = {}
    for path in sorted(_PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = sorted(name for node in ast.walk(tree) if isinstance(node, ast.Global)
                       for name in node.names)
        if names:
            slots[path.name] = names
    assert slots == {"pencil.py": ["_ANALYSIS", "_E_SVD", "_REPORT"]}
