"""Checks that hold for every module of the package."""

import ast
from pathlib import Path

import modp


def _unread_imports(tree):
    """The names a module binds by import (``__future__`` aside) and never
    reads."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bound - read


def test_no_module_imports_a_name_it_never_reads():
    modules = sorted(Path(modp.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    unread = {path.name: sorted(_unread_imports(ast.parse(path.read_text())))
              for path in modules}
    assert {name: names for name, names in unread.items() if names} == {}
