import ast
import importlib
import inspect
import os
import pathlib
import subprocess
import sys

import homoclinic_lab
from homoclinic_lab import groups


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


def test_only_rng_reads_the_draw_block():
    # the draw's block layout is rng's own: no other module names _BLOCK,
    # as an attribute, a name or an import
    package = pathlib.Path(homoclinic_lab.__file__).resolve().parent
    modules = sorted(package.glob("*.py"))
    assert package / "montecarlo.py" in modules
    for path in modules:
        if path.name == "rng.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = [getattr(node, "attr", None), getattr(node, "id", None)]
            if isinstance(node, ast.ImportFrom):
                names += [alias.name for alias in node.names]
            assert "_BLOCK" not in names, (path.name, node.lineno)


def test_only_boundaries_validate_group_elements():
    # an element is checked once, where it enters; groups' helpers trust
    # their callers, so in groups only these functions call the checks
    checks = {"check_element", "check_group"}
    tree = ast.parse(pathlib.Path(groups.__file__).read_text())
    callers = {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Call)
               and getattr(node.func, "id", None) in checks}
    assert callers == {"check_element", "ball", "parse_element"}


def test_only_the_f2_walk_reads_the_kept_levels():
    # the kept-levels memo's policy is _Cone.walk's own: in the package only
    # its definition, _Cone.walk and _kept_bytes name _KEPT
    package = pathlib.Path(homoclinic_lab.__file__).resolve().parent
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + "." + node.name
        names = [getattr(node, "attr", None), getattr(node, "id", None)]
        if isinstance(node, ast.ImportFrom):
            names += [alias.name for alias in node.names]
        if "_KEPT" in names:
            found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert found == {"montecarlo", "montecarlo._Cone.walk",
                     "montecarlo._kept_bytes"}


def test_documents_do_not_depend_on_the_hash_seed():
    # the determinism contract, tested: each command prints the same bytes
    # under two hash seeds, so no set or hash order reaches a document
    src = pathlib.Path(homoclinic_lab.__file__).resolve().parent.parent
    commands = [
        ["kernel", "--group", "z2"],
        ["cover", "--group", "z2"],
        ["haar-test", "--group", "z2", "--samples", "300", "--radius", "9",
         "--bins", "5"],
        ["collisions", "--group", "z2", "--samples", "50"],
        ["fourier", "--group", "z2", "--M", "4", "--g", "2 - a*b"],
        ["percolation", "--ones"],
    ]
    probe = ("import contextlib, hashlib, io\n"
             "from homoclinic_lab import cli\n"
             "for argv in %r:\n"
             "    out = io.StringIO()\n"
             "    with contextlib.redirect_stdout(out):\n"
             "        assert cli.main(argv) == 0, argv\n"
             "    print(hashlib.sha256(out.getvalue().encode()).hexdigest())\n"
             % (commands,))
    hashes = [subprocess.run([sys.executable, "-c", probe], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src),
                                  "PYTHONHASHSEED": seed}).stdout.split()
              for seed in ("0", "1")]
    assert len(hashes[0]) == len(commands)
    assert hashes[0] == hashes[1]


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
