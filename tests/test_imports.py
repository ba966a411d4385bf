"""Every module of the package uses each name it imports, imports from the
package only the modules pinned for it, and every public definition and
constant of the package is read by some code other than its own; threshold's
per-trial functions call none of numpy's wrapped reductions, no module but
families constructs a numpy Generator, and no module but families words a
range fault or, but for threshold's p, reads the numbers module."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import kneserlab

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kneserlab"


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


# the calls that convert a vertex mask between ints, bytes and bits; its
# format (bit v = vertex v, little-endian bytes) has one home, graphs, whose
# packed_rows reads packed bytes as masks
MASK_CODEC_CALLS = {"packbits", "unpackbits", "from_bytes", "to_bytes", "packed_rows"}


def called_names(source: str) -> set[str]:
    """The names that source calls, as a function or a method."""
    calls = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            calls.add(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", ""))
    return calls


def mask_codec_calls(source: str) -> set[str]:
    """The MASK_CODEC_CALLS that source makes, as a function or a method."""
    return called_names(source) & MASK_CODEC_CALLS


def test_mask_codec_calls_finds_every_form():
    source = ("import numpy as np\nfrom numpy import packbits\n"
              "a = np.unpackbits(x, count=3)\nb = packbits(y)\n"
              "c = int.from_bytes(z, 'little')\nd = (5).to_bytes(2, 'little')\n"
              "e = np.frombuffer(w, np.uint8).tobytes()\nf = graphs.packed_rows(p)\n")
    assert mask_codec_calls(source) == MASK_CODEC_CALLS
    # a reference that is not a call, and calls of other names
    assert mask_codec_calls("f = np.packbits\ng = x.packbits_helper(y)\nh = bytes(4)\n") == set()


def test_only_graphs_converts_vertex_masks():
    assert {p.stem for p in PACKAGE.glob("*.py")
            if mask_codec_calls(p.read_text())} == {"graphs"}


def test_only_families_walks_the_slice_by_ints():
    # C([n],k) has one producer, families.slice_masks, which the other modules
    # read as an array; enumerate_masks, its ints, is for readers outside
    assert "enumerate_masks" in called_names("m = list(families.enumerate_masks(5, 2))\n")
    assert {p.stem for p in PACKAGE.glob("*.py")
            if "enumerate_masks" in called_names(p.read_text())} <= {"families"}


# a trial's draws are the raw words of its Philox, a stream numpy keeps fixed
# across releases, and not a Generator method's, which it may change: only
# families constructs a Generator, for random_family's shuffle
GENERATOR_CALLS = {"Generator", "default_rng"}


def generator_calls(source: str) -> set[str]:
    """The GENERATOR_CALLS that source makes, as a function or a method."""
    return called_names(source) & GENERATOR_CALLS


def test_generator_calls_finds_every_form():
    source = ("import numpy as np\nfrom numpy.random import Generator\n"
              "a = np.random.Generator(np.random.Philox(3))\nb = Generator(bits)\n"
              "c = np.random.default_rng(7)\n")
    assert generator_calls(source) == GENERATOR_CALLS
    # a bare bit generator, its raw words, and a Generator named but not made
    assert generator_calls("p = np.random.Philox(0)\nw = p.random_raw(4)\n"
                           "g: np.random.Generator = None\nh = isinstance(g, Generator)\n") == set()


def test_only_families_constructs_a_generator():
    assert {p.stem for p in PACKAGE.glob("*.py")
            if generator_calls(p.read_text())} == {"families"}


# the per-trial functions of threshold reduce through the ufuncs and
# np.count_nonzero: ndarray.any, all and sum, and np.sum, run numpy's Python
# wrappers (numpy/_core/_methods.py, fromnumeric) on every call
PER_TRIAL_FUNCTIONS = {"trial_uniforms", "sample_subgraph", "count_superstars",
                       "star_survives", "ekr_holds"}
WRAPPED_REDUCTIONS = {"any", "all", "sum"}


def wrapped_reductions(source: str, functions: set[str]) -> dict[str, set[str]]:
    """Per top-level function of source named in functions, the
    WRAPPED_REDUCTIONS it calls as a method or module attribute, if any."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name in functions:
            calls = {call.func.attr for call in ast.walk(node) if isinstance(call, ast.Call)
                     and isinstance(call.func, ast.Attribute)} & WRAPPED_REDUCTIONS
            if calls:
                found[node.name] = calls
    return found


def test_wrapped_reductions_finds_every_form():
    source = ("def count_superstars(s):\n    return int(np.bitwise_count(s.u).sum())\n"
              "def star_survives(s, c):\n    return not (s.u & c).any() and s.keep.all()\n"
              "def ekr_holds(s):\n    return np.sum(s.u)\n"
              "def sample_subgraph(s):\n    return np.count_nonzero(s.u) or any(s.keep)\n"
              "def other(s):\n    return s.u.any()\n")
    assert wrapped_reductions(source, PER_TRIAL_FUNCTIONS) == {
        "count_superstars": {"sum"}, "star_survives": {"any", "all"}, "ekr_holds": {"sum"}}


def test_per_trial_path_calls_no_wrapped_reduction():
    source = (PACKAGE / "threshold.py").read_text()
    assert PER_TRIAL_FUNCTIONS <= {node.name for node in ast.parse(source).body
                                   if isinstance(node, ast.FunctionDef)}
    assert wrapped_reductions(source, PER_TRIAL_FUNCTIONS) == {}


# which values a field takes, and how a fault is worded, has one home,
# families: its integer and real check every range and name the field, and
# no other module words a range fault or, but for threshold's p, reads numbers
RANGE_PHRASES = {"out of range", "must be at least"}


def input_checks(source: str) -> set[str]:
    """The RANGE_PHRASES in the literal text of a DomainError that source
    builds, as a function or an attribute, and "numbers" if it imports that."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and "DomainError" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            text = [c.value for arg in node.args for c in ast.walk(arg)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)]
            found |= {phrase for phrase in RANGE_PHRASES if any(phrase in t for t in text)}
        elif isinstance(node, ast.Import):
            found |= {"numbers"} & {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module == "numbers":
            found.add("numbers")
    return found


def test_input_checks_finds_every_form():
    source = ("import numbers\n"
              "def f(v):\n    if v < 0:\n        raise DomainError(f'v {v} out of range 0..3')\n"
              "    raise errors.DomainError(f'ell must ' f'be at least 1, got {v}')\n")
    assert input_checks(source) == RANGE_PHRASES | {"numbers"}
    assert input_checks("from numbers import Real\n") == {"numbers"}
    # another error, another wording, a phrase outside an error, other modules
    assert input_checks("raise ValueError('x out of range')\n"
                        "raise DomainError(f'need at least {CI_MIN_TRIALS} trials')\n"
                        "m = 'must be at least'\nimport numpy as np\n"
                        "from .families import numbers_of\n") == set()


def test_only_families_checks_a_range():
    checks = {p.stem: input_checks(p.read_text()) for p in PACKAGE.glob("*.py")}
    assert {stem for stem, found in checks.items() if found & RANGE_PHRASES} == {"families"}
    assert {stem for stem, found in checks.items() if "numbers" in found} <= {
        "families", "threshold"}


# a family's storage, its sorted uint64 array, has one home, families: no
# other module reads the array attribute or holds an array as a family unchecked
FAMILY_STORAGE_NAMES = {"_array", "_from_sorted"}


def family_storage_names(source: str) -> set[str]:
    """The FAMILY_STORAGE_NAMES that source names as an attribute."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)} & FAMILY_STORAGE_NAMES


def test_family_storage_names_finds_every_form():
    source = ("a = fam._array\nb = SetFamily._from_sorted(p, m)\n"
              "c = len(family._array)\n")
    assert family_storage_names(source) == FAMILY_STORAGE_NAMES
    # the public reader, other names, and a string that is not an attribute
    assert family_storage_names("d = fam.array()\ne = x._array_copy\nf = '_array'\n") == set()


def test_only_families_holds_family_storage():
    assert {p.stem for p in PACKAGE.glob("*.py")
            if family_storage_names(p.read_text())} == {"families"}


# each package module's imports from the package, by file stem; a new edge,
# such as graphs -> mis, is made by editing this table
PACKAGE_IMPORTS = {
    "__init__": {"errors", "families"},
    "cli": {"__init__", "errors", "families", "graphs", "removal", "spectral", "threshold"},
    "errors": set(),
    "families": {"errors"},
    "graphs": {"errors", "families", "spectral"},
    "mis": {"errors"},
    "removal": {"errors", "families", "spectral"},
    "spectral": {"errors", "families"},
    "threshold": {"errors", "families", "graphs", "mis"},
}


def package_imports(source: str) -> set[str]:
    """The package modules that source imports, relatively or by the
    package's name, as file stems; the package itself is __init__."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append(("kneserlab." if node.level else "") + (node.module or ""))
    return {name.removeprefix("kneserlab").strip(".") or "__init__" for name in names
            if name.split(".")[0] == "kneserlab"}


def test_package_imports_finds_every_form():
    source = ("from . import SCHEMA_VERSION\nfrom .mis import a\nimport kneserlab.graphs\n"
              "from kneserlab.spectral import b\nimport numpy as np\nfrom os import path\n"
              "def f():\n    from .removal import c\n")
    assert package_imports(source) == {"__init__", "mis", "graphs", "spectral", "removal"}


def test_package_import_graph_is_pinned():
    assert {p.stem: package_imports(p.read_text())
            for p in sorted(PACKAGE.glob("*.py"))} == PACKAGE_IMPORTS


def _reads(tree: ast.AST) -> Counter:
    """Each name read in tree: loaded names and attributes, and the names
    imported from a module."""
    reads: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            reads.update(a.name for a in node.names)
    return reads


def _module_reads(tree: ast.AST, module: str) -> Counter:
    """Each name that tree reads from the module of that file stem: imported
    from it, or loaded as an attribute of its name."""
    reads: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module:
            reads.update(a.name for a in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and isinstance(node.value, ast.Name) and node.value.id == module):
            reads[node.attr] += 1
    return reads


def _constants(tree: ast.Module) -> list[str]:
    """The public UPPER_CASE names assigned at the top level of tree."""
    out = []
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        out += [t.id for t in targets if isinstance(t, ast.Name)
                and t.id.isupper() and not t.id.startswith("_")]
    return out


def unread_definitions(package: dict[str, str], readers: list[str],
                       exported: set[str]) -> list[str]:
    """The public top-level functions, classes and UPPER_CASE constants, and
    the public methods, of the package sources (file name -> source) whose
    name nothing reads: not the package outside the definition itself, not
    the reader sources and not exported.  Function, class and method names
    are matched as written, with no type resolved, so a method counts as read
    wherever an attribute of its name is.  A constant counts as read only
    where its own module loads its name, or where a source imports it from
    that module or loads it as an attribute of the module's name, so one left
    behind when its readers moved to another module's namesake is found."""
    trees = {name: ast.parse(source) for name, source in package.items()}
    reader_trees = [ast.parse(source) for source in readers]
    inside = sum((_reads(tree) for tree in trees.values()), Counter())
    outside = sum((_reads(tree) for tree in reader_trees), Counter())
    unread = []
    for module, tree in trees.items():
        defs = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{item.name}", item) for item in node.body
                         if isinstance(item, ast.FunctionDef)]
        for qualname, defn in defs:
            name = defn.name
            if name.startswith("_") or name in exported or outside[name]:
                continue
            if inside[name] == _reads(defn)[name]:  # read only by itself
                unread.append(f"{module}:{qualname}")
        stem = module.removesuffix(".py")
        own = Counter(node.id for node in ast.walk(tree)
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
        elsewhere = sum((_module_reads(other, stem) for other in
                         [*trees.values(), *reader_trees] if other is not tree), Counter())
        unread += [f"{module}:{name}" for name in _constants(tree)
                   if not (name in exported or own[name] or elsewhere[name])]
    return sorted(unread)


def test_unread_definitions_finds_dead_names():
    package = {"m.py": (
        "def used():\n    return helper()\n\n"
        "def helper():\n    return 1\n\n"
        "def dead(x):\n    return dead(x - 1) if x else 0\n\n"
        "class C:\n"
        "    def live(self):\n        return 0\n\n"
        "    def gone(self):\n        return self.gone()\n\n"
        "    def _private(self):\n        return 1\n")}
    readers = ["from m import used\nobj.live()\n"]
    assert unread_definitions(package, readers, {"C"}) == ["m.py:C.gone", "m.py:dead"]
    assert unread_definitions(package, readers, set()) == ["m.py:C", "m.py:C.gone", "m.py:dead"]


def test_unread_definitions_finds_dead_constants():
    # nothing reads m's CAP: the CAP that n reads is n's own; LIMIT, SHARED,
    # BOUND and TOTAL are each read once
    package = {
        "m.py": "LIMIT = 3\nCAP = 4\nSHARED: int = 5\nBOUND = 6\nTOTAL = 7\n"
                "_PRIVATE = 8\n\ndef size():\n    return LIMIT\n",
        "n.py": "from . import m\nfrom .m import SHARED, size\nCAP = 9\n"
                "print(m.BOUND, CAP, SHARED, size())\n",
    }
    readers = ["from kneserlab.m import TOTAL\nprint(TOTAL)\n"]
    assert unread_definitions(package, readers, set()) == ["m.py:CAP"]
    assert unread_definitions(package, [], set()) == ["m.py:CAP", "m.py:TOTAL"]
    assert unread_definitions(package, [], {"CAP", "TOTAL"}) == []


def test_every_public_definition_is_read():
    package = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    readers = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    readers.append((ROOT / "tests" / "test_acceptance.py").read_text())
    assert unread_definitions(package, readers, set(kneserlab.__all__)) == []


# the package's own errors; a handler that names one either re-raises or is
# where the error ends by design
PACKAGE_ERRORS = {"DomainError", "GuardError", "SearchBudgetExceeded"}
# cli.main turns the errors into exit codes; verify_ekr certifies alpha alone
# when the maximum sets exceed the solution cap
ERROR_SINKS = {"cli.main", "graphs.verify_ekr"}


def swallowed_errors(source: str) -> list[str]:
    """The functions of source, by dotted name within it, with an except
    clause that names one of PACKAGE_ERRORS and does not end by raising."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.ExceptHandler) and child.type is not None:
                named = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(child.type)
                         if isinstance(n, (ast.Name, ast.Attribute))}
                if named & PACKAGE_ERRORS and not isinstance(child.body[-1], ast.Raise):
                    found.append(scope)
            visit(child, scope)

    visit(ast.parse(source), "")
    return sorted(found)


def test_swallowed_errors_finds_every_form():
    source = (
        "def reraise():\n    try:\n        f()\n"
        "    except DomainError as exc:\n        raise GuardError('x') from exc\n"
        "    except GuardError:\n        log()\n        raise\n"
        "def swallow():\n    try:\n        f()\n"
        "    except (GuardError, DomainError):\n        label = None\n"
        "class C:\n    def method(self):\n        try:\n            f()\n"
        "        except errors.SearchBudgetExceeded:\n            return 0\n"
        "def outer():\n    def inner():\n        try:\n            f()\n"
        "        except GuardError:\n            if x:\n                raise\n"
        "            return None\n"
        "def other():\n    try:\n        f()\n    except ValueError:\n        pass\n"
        "    except:\n        pass\n")
    assert swallowed_errors(source) == ["C.method", "outer.inner", "swallow"]


def test_package_errors_end_only_in_their_sinks():
    assert {f"{p.stem}.{name}" for p in sorted(PACKAGE.glob("*.py"))
            for name in swallowed_errors(p.read_text())} == ERROR_SINKS
