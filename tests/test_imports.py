import ast
from pathlib import Path

ROOT = Path(__file__).parent.parent
PACKAGE = sorted((ROOT / "src" / "pathlab").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
# The modules whose generators build objects correct by construction and so
# may call an unchecked ``_of`` constructor; public construction and CLI
# parsing keep every check.
TRUSTED = {"enumeration", "swaps", "tuples", "applications"}


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
    assert "cli" in trees and "cli" not in TRUSTED
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
