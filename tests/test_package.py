import ast
import importlib.util
import os
import subprocess
import sys
import types

import pytest

import entbounds
from entbounds import cli

from reference import ROOT

SOURCES = sorted(p for d in ("src", "tests", "scripts")
                 for p in (ROOT / d).rglob("*.py"))
CHECKED = [p for p in SOURCES
           if p.name != "__init__.py"]  # __init__ imports re-export
# Names that stay module-level only: the package API leaves them out.
MODULE_ONLY = [("optimizer", "optimize"), ("optimizer", "OptimizationResult"),
               ("optimizer", "ordered_set_partitions"),
               ("linalg", "partial_trace"), ("linalg", "partial_transpose"),
               ("linalg", "trace_norm"), ("measures", "cut_measures"),
               ("measures", "reduced_density")]
# The package API: what the CLI, the figures and the paper's claims need.
API = {
    "AcinParams", "Bipartition", "BoundReport", "FocusParams",
    "InfeasibleParamsError", "LemmaCoefficients", "MAX_DIM", "PureState",
    "SandwichBounds", "StateSpecError", "SubsystemShape", "TAU_NUM",
    "WClass4Params", "acin_state", "chain_values", "cren_crenoa_two_qubit",
    "default_labels", "emit_state_spec", "haar_random_pure", "lemma_rhs",
    "monogamy_lower_AB", "multi_partition_polygamy", "negativity",
    "negativity_bounds_AB", "pair_measures_sq", "parse_state_spec",
    "polygamy_bound_coa", "polygamy_upper_AB", "pure_concurrence",
    "qubit_shape", "schmidt_rank", "theta", "tripartite_bounds",
    "wclass4_state",
}
# Names retired from every module.
RETIRED = ("linear_entropy", "TAU_HERM", "TAU_PSD")


def test_all_names_resolve():
    for name in entbounds.__all__:
        assert hasattr(entbounds, name), name
    assert len(set(entbounds.__all__)) == len(entbounds.__all__)


def test_all_is_the_decided_api():
    assert set(entbounds.__all__) == API and len(API) == 34


def test_retired_names_are_gone():
    modules = [entbounds] + [
        importlib.import_module(f"entbounds.{path.stem}")
        for path in (ROOT / "src" / "entbounds").glob("*.py")
        if path.stem not in ("__init__", "__main__")]
    assert len(modules) == 8
    assert [(module.__name__, name) for module in modules
            for name in RETIRED if hasattr(module, name)] == []


def test_all_lists_every_public_name():
    public = {name for name, value in vars(entbounds).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert set(entbounds.__all__) == public


@pytest.mark.parametrize("module, name", MODULE_ONLY,
                         ids=[name for _, name in MODULE_ONLY])
def test_module_only_names_stay_out_of_the_package(module, name):
    assert not hasattr(entbounds, name)
    assert name not in entbounds.__all__
    assert getattr(importlib.import_module(f"entbounds.{module}"), name)


def test_import_does_not_load_the_optimizer():
    code = ("import sys, entbounds; "
            "print('entbounds.optimizer' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.stdout == "False\n"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read in the module."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(set(bound) - read)


def test_unused_import_scan():
    assert unused_imports("import os\nimport numpy.linalg as la\n"
                          "from a import b, c as d\nprint(os, d)\n") == [
        "b", "la"]
    assert unused_imports("from __future__ import annotations\n") == []


def module_level_names(source: str) -> set[str]:
    """Names that a module's own statements bind by def, class or
    assignment."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names.update(n.id for target in targets for n in ast.walk(target)
                         if isinstance(n, ast.Name))
    return names


def test_each_test_name_has_one_home():
    """No two files under tests/ define the same module-level function,
    class or constant: what several test files share, the second routes
    above all, is defined once in tests/reference.py."""
    assert module_level_names("A, (b, c) = 1, (2, 3)\nD: int = 4\n"
                              "def f(): x = 5\nclass C: y = 6\n") == {
        "A", "b", "c", "D", "f", "C"}
    homes = {}
    for path in sorted((ROOT / "tests").glob("*.py")):
        for name in module_level_names(path.read_text(encoding="utf-8")):
            homes.setdefault(name, []).append(path.name)
    assert {name: files for name, files in homes.items()
            if len(files) > 1} == {}


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_with_the_oldest_supported_grammar(path):
    """pyproject allows Python 3.10, so every file must parse with its
    grammar (on 3.11 this rejects ``except*``).  Runtime APIs newer than
    3.10 stay unchecked."""
    ast.parse(path.read_text(encoding="utf-8"), feature_version=(3, 10))


def test_bounds_reads_states_only_through_measures():
    """``measures`` is the one module that reads a state's amplitudes:
    ``bounds`` imports from it only these names and calls no
    ``np.linalg``, so it only combines the numbers they return."""
    tree = ast.parse((ROOT / "src" / "entbounds" / "bounds.py").read_text(
        encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module == "measures" for alias in node.names}
    assert imported == {"Bipartition", "_cut_concurrence", "_pow",
                        "cut_measures", "pair_measures_sq", "pure_concurrence"}
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "linalg"]


def test_bounds_adds_only_through_its_sum():
    """Every sum of ``bounds`` is ``bounds._sum``, left to right: the
    built-in ``sum`` compensates from Python 3.12, numpy's is pairwise
    from 8 terms, ``math.fsum`` is exact and a reduction's order is its
    own, so any of them could split a stack row from its one-state value.
    Checked: the built-in ``sum``, any ``.sum``, ``.cumsum`` or ``fsum``,
    any ``.reduce``, ``.accumulate`` or ``.reduceat`` (``np.add``'s
    included) and ``functools.reduce``, by attribute or imported name."""
    tree = ast.parse((ROOT / "src" / "entbounds" / "bounds.py").read_text(
        encoding="utf-8"))
    calls = [node.func for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    assert not [f for f in calls if isinstance(f, ast.Name) and f.id == "sum"]
    assert not [node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and node.attr in ("sum", "cumsum", "fsum", "reduce",
                                  "accumulate", "reduceat")]
    assert not [alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names
                if alias.name in ("fsum", "reduce", "functools")]


def test_one_home_for_the_exponent_rule():
    """The exponent range [0, 2] of the bound curves has one rule: its
    message occurs once in ``src/``, and ``bounds._check_exponents`` is
    the one function that raises it, so no second check can drift."""
    text = "exponent must be in [0, 2]"
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in SOURCES if path.is_relative_to(ROOT / "src")}
    assert sum(source.count(text) for source in sources.values()) == 1
    raisers = [(name, function.name)
               for name, source in sources.items()
               for function in ast.walk(ast.parse(source))
               if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
               for node in ast.walk(function)
               if isinstance(node, ast.Raise) and text in ast.unparse(node)]
    assert raisers == [("bounds.py", "_check_exponents")]


def test_bounds_powers_only_through_pow():
    """Every power of ``bounds`` is ``measures._pow``, Python's float power,
    except the lemma grid's one numpy power: numpy's array power differs
    from ``**`` on floats in the last bit for some bases, so a bare ``**``
    would split an exponent stack from its one-exponent values."""
    tree = ast.parse((ROOT / "src" / "entbounds" / "bounds.py").read_text(
        encoding="utf-8"))
    assert not [node for node in ast.walk(tree)
                if isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.Pow)]
    assert "pow" not in {node.id for node in ast.walk(tree)
                         if isinstance(node, ast.Name)}   # the built-in
    [grid] = [node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name == "lemma_chain_grid"]
    powers, grid_powers = ([ast.unparse(node) for node in ast.walk(root)
                            if isinstance(node, ast.Attribute)
                            and "pow" in node.attr] for root in (tree, grid))
    assert powers == grid_powers == ["np.power"]


def test_benchmark_tracer_names_resolve():
    """Every name the benchmark tracer wraps must exist, so that deleting
    one cannot break a traced benchmark run unnoticed."""
    spec = importlib.util.spec_from_file_location(
        "entbench_tracer", ROOT / "benchmark" / "entbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [(mod, fn) for mod, fns in tracer.WRAPPED.items() for fn in fns]
    names += [("bounds", fn) for fn in tracer.REPORT_FUNCTIONS]
    names.append(("optimizer", "ordered_set_partitions"))
    for mod, fn in names:
        module = importlib.import_module(f"entbounds.{mod}")
        assert callable(getattr(module, fn, None)), f"{mod}.{fn}"
    original = cli.figure_rows
    with tracer.Tracer() as t:
        cli.figure_rows(1, samples=3)
    assert cli.figure_rows is original
    metrics = t.metrics()
    assert metrics["cli.figure_rows.calls"] == 1
    assert metrics["bounds.pair_measures_sq.calls"] > 0
