"""Every module of the package uses each name it imports."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kneserlab"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in source and never read as a name in it.

    An attribute chain such as np.zeros starts from the name np, so a module
    used only through its attributes counts as used.
    """
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_a_dead_name():
    source = "from os import path, sep\nimport numpy as np\nprint(np.e, sep)\n"
    assert unused_imports(source) == ["path"]


@pytest.mark.parametrize("module", sorted(
    p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_module_uses_its_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
