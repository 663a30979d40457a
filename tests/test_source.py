import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import empathica


def test_no_runtime_asserts_in_the_package():
    # `python -O` strips assert statements, so an invariant the library
    # relies on must be a check that raises or a test, never an assert.
    offenders = []
    for path in sorted(Path(empathica.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert offenders == []


def _imported_modules(path):
    """(line, module) of each absolute import in the source file ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_package_imports_only_the_standard_library():
    # The package is runtime-dependency-free: every absolute import must be
    # a standard-library module (``__future__`` is one); package modules are
    # imported relatively.
    offenders = [
        f"{path.name}:{line}:{name}"
        for path in sorted(Path(empathica.__file__).parent.glob("*.py"))
        for line, name in _imported_modules(path)
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert offenders == []


def test_package_does_not_import_dataclasses():
    # ``dataclasses`` loads ``inspect`` (and with it ``ast``, ``dis`` and
    # ``tokenize``), which cost every command's start-up more than all the
    # package's classes; records derive from ``games._Record`` instead.
    offenders = [
        f"{path.name}:{line}:{name}"
        for path in sorted(Path(empathica.__file__).parent.glob("*.py"))
        for line, name in _imported_modules(path)
        if name.split(".")[0] == "dataclasses"
    ]
    assert offenders == []


# The public namespace: every name the package exports, and nothing else.
PUBLIC_NAMES = set("""
    BestResponseSet Classification Constraint ConstraintType ConsistencyVerdict
    DiagonalReduction Diagnostics DominatedAction EmpathyMatrix EquilibriumSet EssKind
    EssPoint EssResult Game2x2 GameKind HierarchyAnalysis InequalityReport
    InequalityVerdict LearningSchedule LimitKind MixedNashResult MixedProfile
    PopulationState PureEquilibrium RegionMap RevisionProtocol SpectralRecord
    StabilizationReport SymmetricEquilibria SymmetryReport Trajectory VectorField
    analyze_hierarchy anti_coordination_game berge_solutions check_consistency classify
    consistent_family constrained_best_response constrained_ess coordination_game
    default_battery deviation_gain diagonal_reduction dominated_actions
    equilibrium_signature homogeneous_payoff inequality_report infinitely_consistent
    level_game matching_pennies mixed_nash outcome_label pareto_front prisoners_dilemma
    pure_nash region_map simulate spectral_limit stabilization_check step
    structural_epsilons switch_rates symmetric_equilibria symmetry_report transform
    two_population_equilibria vector_field
""".split())
LAYERS = ("dynamics", "equilibria", "ess", "games", "hierarchy")


def test_all_lists_the_public_names_once():
    assert len(PUBLIC_NAMES) == 68
    assert sorted(empathica.__all__) == sorted(PUBLIC_NAMES)


def test_each_public_name_is_its_layers_object():
    for name in PUBLIC_NAMES:
        obj = getattr(empathica, name)
        layer = obj.__module__
        assert layer in {f"empathica.{m}" for m in LAYERS}, (name, layer)
        assert getattr(importlib.import_module(layer), name) is obj, name


def test_layers_are_package_attributes():
    from empathica import dynamics

    assert dynamics is sys.modules["empathica.dynamics"]
    for layer in LAYERS:
        assert getattr(empathica, layer) is importlib.import_module(f"empathica.{layer}")


def test_dir_lists_every_public_name():
    assert PUBLIC_NAMES <= set(dir(empathica))


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from empathica import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'empathica' has no attribute 'nope'$"):
        empathica.nope
    with pytest.raises(ImportError, match="cannot import name 'nope'"):
        exec("from empathica import nope", {})


def _loaded_modules(code, cwd):
    """The modules in ``sys.modules`` when a fresh interpreter that ran
    ``code`` exits.  (``-X importtime`` cannot tell: it does not list a
    submodule imported by ``from . import``.)"""
    report = "print(*sorted(sys.modules), file=sys.stderr)"
    proc = subprocess.run(
        [sys.executable, "-c", f"import atexit, sys\natexit.register(lambda: {report})\n{code}"],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(Path(empathica.__file__).parents[1])},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.splitlines()[-1].split())


def _loaded_package_modules(code, cwd):
    """The package modules among ``_loaded_modules(code, cwd)``."""
    return {m for m in _loaded_modules(code, cwd) if m.partition(".")[0] == "empathica"}


def test_importing_the_package_loads_no_layer(tmp_path):
    assert _loaded_package_modules("import empathica", tmp_path) == {"empathica"}


@pytest.mark.parametrize(
    "argv, layers",
    [
        (["transform", "--input", "pd"], set()),
        (["classify", "--input", "pd"], set()),
        (["solve", "--input", "pd"], {"equilibria"}),
        (["sweep", "--input", "pd", "--grid", "3", "--out", "r.csv"], {"equilibria"}),
        # ess and hierarchy read per-player keys and the interior root from
        # equilibria.
        (["ess", "--input", "pd", "--sigma", "1", "--mu", "0"], {"ess", "equilibria"}),
        (["hierarchy", "--input", "pd", "--kmax", "3", "--out", "h.csv"], {"hierarchy", "equilibria"}),
        (["simulate", "--input", "pd", "--steps", "5", "--out", "t.csv"], {"dynamics"}),
        (["field", "--input", "pd", "--grid", "3", "--out", "f.csv"], {"dynamics"}),
    ],
)
def test_each_command_loads_only_its_layer(tmp_path, argv, layers):
    # What python -m empathica.cli does: the CLI runs as __main__, so
    # empathica.cli itself is not loaded.
    code = f"sys.argv[1:] = {argv!r}\nimport runpy\nrunpy.run_module('empathica.cli', run_name='__main__', alter_sys=True)"
    loaded = _loaded_package_modules(code, tmp_path)
    assert loaded == {"empathica", "empathica.io", "empathica.games"} | {
        f"empathica.{layer}" for layer in layers
    }


def test_start_up_loads_neither_dataclasses_nor_inspect(tmp_path):
    # Every layer imported and a command run: no module of the package may
    # pull in ``dataclasses``, nor ``inspect`` unless the bare interpreter
    # already loads it (a site hook may).
    code = (
        "import empathica.dynamics, empathica.equilibria, empathica.ess, empathica.hierarchy\n"
        "from empathica.cli import main\n"
        "assert main(['solve', '--input', 'pd', '--out', 'r.json']) == 0"
    )
    loaded = _loaded_modules(code, tmp_path)
    assert {f"empathica.{layer}" for layer in LAYERS} | {"empathica.cli"} <= loaded
    bare = _loaded_modules("pass", tmp_path)
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded - bare


def test_every_public_class_has_its_own_docstring():
    from empathica.hierarchy import LevelRecord

    classes = [getattr(empathica, name) for name in sorted(PUBLIC_NAMES)]
    classes = [obj for obj in classes if isinstance(obj, type)] + [LevelRecord]
    # A docstring that is only the constructor's signature, as
    # ``dataclasses`` writes for a class without one, does not count.
    missing = [
        cls.__name__
        for cls in classes
        if not (cls.__dict__.get("__doc__") or "").strip()
        or cls.__dict__["__doc__"].startswith(f"{cls.__name__}(")
    ]
    assert missing == []
