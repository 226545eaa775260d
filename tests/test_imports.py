import ast
from pathlib import Path

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "pathlab").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


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
