"""Every cache in the package is bounded: an lru_cache names an integer
maxsize, and functools.cache keeps only functions that take no parameters.
And the package caches exactly the two functions it is known to cache."""

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


def _cache_kind(tree: ast.Module):
    """kind(node): the functools cache that node names, "lru_cache" or
    "cache", or None."""
    modules, functions = _functools_names(tree)

    def kind(node: ast.expr) -> str | None:
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules and node.attr in ("lru_cache", "cache"):
            return node.attr
        return functions.get(node.id) if isinstance(node, ast.Name) else None
    return kind


def unbounded_caches(source: str) -> list[str]:
    """Each lru_cache without an integer maxsize, and each functools.cache that
    is not the decorator of a function without parameters, by line."""
    tree = ast.parse(source)
    constants = _constants(tree)
    kind = _cache_kind(tree)

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


def cached_functions(source: str) -> list[tuple[str, str]]:
    """(name, cache as written) for each function the source caches with
    functools: a decorated def, or NAME = lru_cache(...)(f); any other use of
    lru_cache or cache is listed by line."""
    tree = ast.parse(source)
    kind = _cache_kind(tree)
    found, placed = [], set()  # placed: ids of the cache nodes named
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                head = dec.func if isinstance(dec, ast.Call) else dec
                if kind(head):
                    found.append((node.name, ast.unparse(dec)))
                    placed.add(id(head))
        elif isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) and isinstance(node.value, ast.Call):
            cache = node.value.func
            head = cache.func if isinstance(cache, ast.Call) else cache
            if kind(head):
                found.append((node.targets[0].id, ast.unparse(cache)))
                placed.add(id(head))
    found += [(f"line {node.lineno}", ast.unparse(node)) for node in ast.walk(tree)
              if isinstance(node, (ast.Name, ast.Attribute)) and kind(node)
              and id(node) not in placed]
    return sorted(found)


def test_cached_functions_finds_each_cache():
    source = "\n".join([
        "import functools",
        "from functools import lru_cache as lru, wraps",
        "@functools.cache",
        "def a(): pass",
        "@lru(maxsize=2)",
        "def b(x): pass",
        "c = functools.lru_cache(maxsize=4)(len)",
        "d = functools.cache(len)",
        "@wraps(len)",  # not a cache
        "def e(x): pass",
        "f = [functools.lru_cache]",
        "class G:",
        "    @functools.cached_property",  # per instance, not a functools cache
        "    def h(self): pass",
    ])
    assert cached_functions(source) == [
        ("a", "functools.cache"), ("b", "lru(maxsize=2)"),
        ("c", "functools.lru_cache(maxsize=4)"), ("d", "functools.cache"),
        ("line 11", "functools.lru_cache")]


def test_the_package_caches_only_the_parser_and_the_centre_table():
    # a cache holds its results for the life of the process, so each new one
    # is a decision, recorded here
    found = {(module.name, *cache) for module in PACKAGE.glob("*.py")
             for cache in cached_functions(module.read_text())}
    assert found == {("cli.py", "build_parser", "functools.cache"),
                     ("removal.py", "_centre_table", "functools.lru_cache(maxsize=32)")}
