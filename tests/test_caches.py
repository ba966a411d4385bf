"""Every cache in the package is bounded: an lru_cache names an integer
maxsize, and functools.cache keeps only functions that take no parameters."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kneserlab"


def _constants(tree: ast.Module) -> dict[str, object]:
    """Module-level NAME = <literal> assignments."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    out[target.id] = node.value.value
    return out


def _functools_names(tree: ast.Module) -> tuple[set[str], dict[str, str]]:
    """The names bound to the functools module, and those bound to its
    lru_cache and cache."""
    modules, functions = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "functools")
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            functions.update((a.asname or a.name, a.name) for a in node.names
                             if a.name in ("lru_cache", "cache"))
    return modules, functions


def unbounded_caches(source: str) -> list[str]:
    """Each lru_cache without an integer maxsize, and each functools.cache that
    is not the decorator of a function without parameters, by line."""
    tree = ast.parse(source)
    constants = _constants(tree)
    modules, functions = _functools_names(tree)

    def kind(node: ast.expr) -> str | None:
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules and node.attr in ("lru_cache", "cache"):
            return node.attr
        return functions.get(node.id) if isinstance(node, ast.Name) else None

    bounded = set()  # ids of the nodes that name a bounded cache
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and kind(node.func) == "lru_cache":
            size = next((kw.value for kw in node.keywords if kw.arg == "maxsize"),
                        node.args[0] if node.args else None)
            if isinstance(size, ast.Name):
                size = ast.Constant(constants.get(size.id))
            if isinstance(size, ast.Constant) and type(size.value) is int:
                bounded.add(id(node.func))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                node.args.posonlyargs or node.args.args or node.args.kwonlyargs
                or node.args.vararg or node.args.kwarg):
            bounded.update(id(d) for d in node.decorator_list if kind(d) == "cache")
    faults = sorted((node.lineno, kind(node)) for node in ast.walk(tree)
                    if isinstance(node, (ast.Name, ast.Attribute)) and kind(node)
                    and id(node) not in bounded)
    return [f"line {line}: unbounded {name}" for line, name in faults]


def test_unbounded_caches_finds_each_fault():
    source = "\n".join([
        "import functools",
        "from functools import lru_cache",
        "SIZE = 4",
        "@functools.lru_cache(maxsize=SIZE)",
        "def ok(a): pass",
        "@functools.lru_cache(maxsize=2)",
        "def ok2(a): pass",
        "@functools.cache",
        "def ok3(): pass",
        "@functools.lru_cache(maxsize=None)",
        "def bad(a): pass",
        "@lru_cache",
        "def bad2(a): pass",
        "@functools.cache",
        "def bad3(a): pass",
        "bad4 = functools.lru_cache(maxsize=None)(len)",
        "bad5 = functools.lru_cache(None)(len)",
        "@functools.lru_cache(maxsize=BIG)",
        "def bad6(a): pass",
        "cache = {}",  # not functools.cache
        "x = functools.lru_cache(maxsize=True)",
    ])
    assert unbounded_caches(source) == [
        f"line {i}: unbounded {kind}" for i, kind in
        [(10, "lru_cache"), (12, "lru_cache"), (14, "cache"), (16, "lru_cache"),
         (17, "lru_cache"), (18, "lru_cache"), (21, "lru_cache")]]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_caches_are_bounded(module):
    assert unbounded_caches((PACKAGE / module).read_text()) == []
