import ast
import importlib
import inspect
import os
import pathlib
import subprocess
import sys

import homoclinic_lab


def test_exports_resolve_and_match_the_imports():
    # a name deleted from a module must leave __all__ and the imports of
    # __init__ together, so no export dangles
    tree = ast.parse(inspect.getsource(homoclinic_lab))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    exported = homoclinic_lab.__all__
    assert len(exported) == len(set(exported))
    assert set(exported) == imported | {"__version__"}
    for name in exported:
        assert hasattr(homoclinic_lab, name), name


def test_import_leaves_scipy_stats_out():
    # scipy.stats costs most of the import time; the package needs only
    # scipy.special
    src = pathlib.Path(homoclinic_lab.__file__).resolve().parent.parent
    probe = ("import sys, homoclinic_lab, homoclinic_lab.cli; "
             "print('scipy.stats' in sys.modules, 'scipy.special' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert out.split() == ["False", "True"]



PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_targets_and_workloads_resolve(monkeypatch):
    # the benchmark patches its trace targets by name and builds its
    # workloads from public calls, so a deletion in the package must not
    # break perfbench/run.py or its --trace 1 mode; nothing here is timed
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run, tracing, workloads = (importlib.import_module(name)
                               for name in ("run", "tracing", "workloads"))
    for mod_name, path, _ in tracing.TARGETS:
        owner = importlib.import_module(f"homoclinic_lab.{mod_name}")
        *cls, attr = path.split(".")
        if cls:
            assert callable(vars(getattr(owner, cls[0]))[attr]), path
        else:
            assert callable(getattr(owner, attr)), path
    tracing.Tracer()
    for name, build in workloads.WORKLOADS.items():
        workload = build(run.DEFAULT_SEED)
        assert workload.name == name and workload.calls
