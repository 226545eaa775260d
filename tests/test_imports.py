import ast
import importlib
import inspect
from pathlib import Path
from types import SimpleNamespace

from pathlab import paths

ROOT = Path(__file__).parent.parent
PACKAGE = sorted((ROOT / "src" / "pathlab").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
# The modules whose generators build objects correct by construction and so
# may call an unchecked ``_of`` constructor; public construction and CLI
# parsing keep every check, and so do the tableau maps, whose tuples and
# tableaux are what criterion 6 tests.
TRUSTED = {"enumeration", "swaps", "tuples", "applications", "polynomials", "matroids"}
CHECKED = {"cli", "tableaux"}
# What runs the library outside the tests: the CLI, which holds every sweep
# through ``verify.SUITES``, and the benchmark.
ENTRY_POINTS = [ROOT / "src" / "pathlab" / "cli.py"] + sorted(
    path for path in (ROOT / "perfbench").glob("*.py") if not path.name.startswith("test_")
)
# The paper's constructive maps: no verb, sweep or workload calls them yet,
# but they are what the paper defines, so they stay in the library.
PAPER_MAPS = {"swap", "swap_inv", "transpose_h", "apply_perm_h"}
BENCHMARK = ROOT / "perfbench"


def test_no_import_inside_a_function():
    """Every module, the tests included, imports at its top, so the import
    graph can be read off the module headers."""
    assert SOURCES
    nested = [
        f"{source.name}:{node.lineno} in {func.name}"
        for source in SOURCES
        for func in ast.walk(ast.parse(source.read_text(), str(source)))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not nested, nested


def calls_unchecked(tree: ast.AST) -> bool:
    return any(
        isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "_of"
        for node in ast.walk(tree)
    )


def test_only_trusted_generators_skip_the_checks():
    trees = {source.stem: ast.parse(source.read_text(), str(source)) for source in PACKAGE}
    assert CHECKED <= trees.keys() and not CHECKED & TRUSTED
    callers = {name for name, tree in trees.items() if calls_unchecked(tree)}
    assert callers <= TRUSTED, callers - TRUSTED
    parsers = [
        f"{name}.{func.name}"
        for name, tree in trees.items()
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        and func.name.startswith(("parse", "_parse"))
        and calls_unchecked(func)
    ]
    assert not parsers, parsers


def referenced(node: ast.AST) -> set[str]:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_every_library_function_runs_outside_the_tests():
    """Every module-level function and class of the library is reached from
    the entry points, following the names each definition refers to; an
    oracle only the tests use belongs in the tests.  Names are matched
    without their module, which can only over-count what is reached."""
    defined = {}
    refers_to = {}
    for source in PACKAGE:
        for stmt in ast.parse(source.read_text(), str(source)).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
                defined.setdefault(stmt.name, []).append(f"{source.stem}.{stmt.name}")
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                refers_to.setdefault(name, set()).update(referenced(stmt))
    assert ENTRY_POINTS[1:] and PAPER_MAPS <= defined.keys()
    reached = set()
    todo = set().union(*(referenced(ast.parse(path.read_text(), str(path))) for path in ENTRY_POINTS))
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo |= refers_to.get(name, set())
    unreached = sorted(
        where for name, places in defined.items() if name not in reached | PAPER_MAPS for where in places
    )
    assert not unreached, "not reached from the entry points: " + ", ".join(unreached)


def unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports and never reads; ``__future__`` imports set
    compiler flags and bind nothing that is read."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_no_unused_import():
    """Every imported name is used, except in the package's ``__init__``,
    whose imports are its public names."""
    unused = {
        str(source.relative_to(ROOT)): names
        for source in SOURCES
        if source.name != "__init__.py"
        for names in [unused_imports(ast.parse(source.read_text(), str(source)))]
        if names
    }
    assert not unused, unused


def undeclared_attributes(tree: ast.Module) -> tuple[set[str], list[str]]:
    """The classes that call ``object.__setattr__``, and each such call
    whose attribute is not a string naming one of the class's annotated
    fields."""
    setters, undeclared = set(), []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        fields = {
            stmt.target.id
            for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        }
        for node in ast.walk(cls):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__":
                setters.add(cls.name)
                name = node.args[1]
                if not (isinstance(name, ast.Constant) and name.value in fields):
                    undeclared.append(f"{cls.name} (line {node.lineno}) sets {ast.unparse(name)}")
    return setters, undeclared


def test_no_state_outside_the_declared_fields():
    """A frozen class sets its fields through ``object.__setattr__``; every
    such call names one of the class's annotated fields, so no attribute
    hides from its repr, equality and hash."""
    setters, undeclared = set(), {}
    for source in PACKAGE:
        found, names = undeclared_attributes(ast.parse(source.read_text(), str(source)))
        setters |= found
        if names:
            undeclared[source.stem] = names
    assert {"Path", "Region", "PathTuple", "YoungShape", "Tableau", "MultiPoly"} <= setters
    assert not undeclared, undeclared


def instrumented() -> list[tuple[str, str, str, bool]]:
    """``perfbench/spans.py``'s ``INSTRUMENTED`` list, read without
    importing the benchmark."""
    tree = ast.parse((BENCHMARK / "spans.py").read_text())
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and ast.unparse(stmt.targets[0]) == "INSTRUMENTED":
            return ast.literal_eval(stmt.value)
    raise AssertionError("spans.py assigns no INSTRUMENTED list")


def cleared_caches() -> list[str]:
    """The ``paths`` attributes whose ``cache_clear()`` the benchmark's
    ``clear_caches`` calls."""
    tree = ast.parse((BENCHMARK / "workloads.py").read_text())
    (func,) = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "clear_caches"]
    return [
        node.func.value.attr
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "cache_clear"
        and isinstance(node.func.value, ast.Attribute)
        and ast.unparse(node.func.value.value) == "paths"
    ]


def uncleared(module, names: list[str]) -> list[str]:
    return [name for name in names if not hasattr(getattr(module, name, None), "cache_clear")]


def test_benchmark_instruments_library_functions():
    """Every function the traced benchmark wraps exists in pathlab, is
    callable, and is a generator function exactly when its flag says so;
    a renamed or removed one would make every traced run fail."""
    listed = instrumented()
    assert listed
    wrong = []
    for module, attribute, _, is_generator in listed:
        func = getattr(importlib.import_module(f"pathlab.{module}"), attribute, None)
        if not callable(func) or inspect.isgeneratorfunction(func) != is_generator:
            wrong.append(f"{module}.{attribute}")
    assert not wrong, wrong


def test_benchmark_clears_caches_that_exist():
    """Every ``paths.<name>.cache_clear()`` in the benchmark's
    ``clear_caches`` names a cached function of ``paths``; without one,
    every benchmark run fails before its first pass."""
    names = cleared_caches()
    assert "vertices" in names
    assert not uncleared(paths, names)
    without_vertices = SimpleNamespace(**{k: v for k, v in vars(paths).items() if k != "vertices"})
    assert uncleared(without_vertices, names) == ["vertices"]
