"""The library holds only code that the CLI, the experiments or the benchmark
call: no name in `src/wavesnap` is there for the tests alone."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _trees(pattern):
    return [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(ROOT.glob(pattern))]


def test_every_library_name_has_a_caller():
    # each top-level function or class, and each public method or property,
    # is named by an ast.Name, an ast.Attribute or an import in src/ or bench/
    library = _trees("src/wavesnap/*.py")
    defined = set()
    for tree in library:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                defined.update(
                    item.name
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_")
                )
    named = set()
    for tree in library + _trees("bench/*.py"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    allowed = set()  # names kept without a caller: none
    assert len(defined) > 100
    assert sorted(defined - named - allowed) == []
