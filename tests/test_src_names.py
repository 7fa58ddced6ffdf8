"""src/ keeps only code the library runs: every public definition is exported or used there."""

import ast
from pathlib import Path

import clarkekin

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def test_every_public_definition_is_exported_or_loaded_in_src():
    # A public top-level def or class that clarkekin.__all__ does not export
    # and no code in src/ loads by name is code that only the tests call.
    modules = sorted(Path(clarkekin.__file__).parent.glob("*.py"))
    assert len(modules) >= 8
    trees = {module.name: ast.parse(module.read_text(), str(module)) for module in modules}
    loaded = {
        node.id
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    unused = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, DEFINITIONS) and not node.name.startswith("_")
        if node.name not in clarkekin.__all__ and node.name not in loaded
    ]
    assert not unused, f"neither exported nor used in src/: {unused}"
