"""What each entry point imports, checked in fresh interpreters.

Package ``__init__`` modules resolve their exports on first use, so a
process loads only the code its work runs: ``import repro`` loads no
subpackage, the serve coordinator and the CLI's argument parsing load
no NumPy, model or experiment, and the report loads every experiment at
import, never inside ``generate_report()``.  The in-process test suite
imports everything early, so these checks run in their own interpreter.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.experiments import EXPERIMENT_MODULES

SRC = Path(repro.__file__).resolve().parent.parent

#: Subpackages whose code the serve coordinator and the CLI's parsing
#: never run.
HEAVY = ("repro.accelerators", "repro.sim", "repro.dataflow", "repro.dse")

ARTIFACTS = tuple(f"repro.experiments.{name}" for name in EXPERIMENT_MODULES.values())

PACKAGES = (
    "repro", "repro.accelerators", "repro.arch", "repro.cache",
    "repro.compiler", "repro.dataflow", "repro.dse", "repro.experiments",
    "repro.faults", "repro.kernels", "repro.metrics", "repro.nn",
    "repro.obs", "repro.serve", "repro.sim",
)


def fresh_modules(code: str, env=None) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON line last."""
    run_env = dict(os.environ if env is None else env)
    run_env["PYTHONPATH"] = str(SRC) + os.pathsep + run_env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=run_env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def loaded_after(statement: str) -> list:
    return fresh_modules(f"""
        import json, sys
        {statement}
        print(json.dumps(sorted(sys.modules)))
    """)


def test_import_repro_loads_no_subpackage():
    modules = loaded_after("import repro")
    ours = [name for name in modules if name.startswith("repro.")]
    # Only plain modules directly under ``repro`` (no package, nothing
    # nested in one), and no NumPy.
    assert all(name.count(".") == 1 for name in ours), ours
    assert not any(name.startswith(PACKAGES[1:]) for name in ours), ours
    assert "numpy" not in modules


@pytest.mark.parametrize("module", ["repro.serve.app", "repro.cli"])
def test_coordinator_and_cli_load_no_model_or_numpy(module):
    modules = loaded_after(f"import {module}")
    assert "numpy" not in modules
    heavy = [
        name for name in modules
        if name in ARTIFACTS or name.startswith(HEAVY)
    ]
    assert heavy == []


def test_report_import_loads_every_experiment_and_model():
    result = fresh_modules("""
        import json, pkgutil, sys
        import repro.experiments.report
        loaded = set(sys.modules)
        import repro.accelerators
        models = [
            f"repro.accelerators.{info.name}"
            for info in pkgutil.iter_modules(repro.accelerators.__path__)
        ]
        print(json.dumps({"loaded": sorted(loaded), "models": models}))
    """)
    loaded = set(result["loaded"])
    assert len(ARTIFACTS) == 26
    assert [name for name in ARTIFACTS if name not in loaded] == []
    assert result["models"]
    assert [name for name in result["models"] if name not in loaded] == []


def test_cold_report_imports_no_repro_module(tmp_path):
    """Set up as ``perfbench/worker.py`` does (the report module and the
    kernels), then a cold report against an empty store imports no
    ``repro`` module: all of its imports land in set-up.  Nor does the
    process ever load ``numpy.random``: the synthetic operands are a
    counter-based hash."""
    env = dict(os.environ, REPRO_CACHE="on", REPRO_CACHE_DIR=str(tmp_path))
    result = fresh_modules("""
        import json, sys
        import repro.experiments.report
        import repro.kernels

        repro.kernels.active_kernels()
        before = set(sys.modules)
        repro.experiments.report.generate_report()
        print(json.dumps({
            "added": sorted(set(sys.modules) - before),
            "loaded": sorted(sys.modules),
        }))
    """, env=env)
    assert [name for name in result["added"] if name.startswith("repro")] == []
    assert [
        name for name in result["loaded"] if name.startswith("numpy.random")
    ] == []
    assert len(list((tmp_path / "experiment").iterdir())) == 26


@pytest.mark.parametrize("package_name", PACKAGES)
def test_exports_resolve_to_the_defining_modules_objects(package_name):
    package = importlib.import_module(package_name)
    for info in pkgutil.walk_packages(package.__path__, package_name + "."):
        if not info.name.endswith("__main__"):  # runs the CLI
            importlib.import_module(info.name)
    modules = [
        module for name, module in list(sys.modules.items())
        if name == package_name or name.startswith(package_name + ".")
    ]
    listed = dir(package)
    for name in package.__all__:
        value = getattr(package, name)
        assert name in listed, name
        assert any(vars(module).get(name) is value for module in modules), name
        owner = getattr(value, "__module__", None)
        if owner and getattr(value, "__name__", None) == name:
            assert getattr(sys.modules[owner], name) is value, name
