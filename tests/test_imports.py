"""Every module of the package uses each name it imports, every private
module-level name is read somewhere in the package, and every public name is
read by another module or named in README.

Plain `ast` scans.  A name bound by an import counts as used when some
expression in the module reads it (`os.path.join` reads `os`) or when the
module lists it in `__all__`.  `__future__` imports and the re-exports of
`__init__.py` are exempt.  A private name (`_name`, not a dunder) that a
module binds at its top level by `def`, `class` or assignment counts as
read when some module of the package loads it as a name or as an attribute
(`rings._printable`).  A name in a module's `__all__` counts as read when
some other module of the package loads it in the same way, or when README
names it in an inline code span (`quiddity.rings.Qi`); an import alone, such
as a re-export in `__init__.py`, does not read it.  No function nested in
a function loads its own name: such a closure holds itself through its
cell, a reference cycle that only the cycle collector frees.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "quiddity"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def public_names(source: str) -> list:
    """The names in the module's top-level `__all__`."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set(public_names(source))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exported)


def test_the_scan_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys\nfrom json import dumps, loads\n"
              "__all__ = ['loads']\nprint(os.path.sep)\n")
    assert unused_imports(source) == [(3, "sys"), (4, "dumps")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _top_level(body: list):
    """The statements of a module body, with those nested in its top-level
    `if` and `try` blocks."""
    for node in body:
        yield node
        if isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, node.orelse, getattr(node, "finalbody", [])):
                yield from _top_level(block)
            for handler in getattr(node, "handlers", []):
                yield from _top_level(handler.body)


def private_definitions(source: str) -> list:
    """(line, name) for each private name bound at the module's top level."""
    out = []
    for node in _top_level(ast.parse(source).body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        out += [(node.lineno, name) for name in names
                if name.startswith("_") and not name.startswith("__")]
    return out


def names_read(source: str) -> set:
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def test_the_scan_sees_an_unread_private_name():
    source = ("_USED = 1\n_UNUSED, __dunder__ = 2, 3\n"
              "def _helper():\n    return _USED\n"
              "def _orphan():\n    _local = 4\n"
              "class _Gone:\n    pass\n"
              "try:\n    from json import dumps as _dump\nexcept ImportError:\n    _dump = None\n"
              "print(_helper(), _dump)\n")
    read = names_read(source)
    assert [(line, name) for line, name in private_definitions(source)
            if name not in read] == [(2, "_UNUSED"), (5, "_orphan"), (7, "_Gone")]


PACKAGE_READS = set().union(*(names_read(p.read_text()) for p in PACKAGE.rglob("*.py")))


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.name)
def test_no_unread_private_names(path):
    assert [(line, name) for line, name in private_definitions(path.read_text())
            if name not in PACKAGE_READS] == []


def code_span_names(markdown: str) -> set:
    """The identifiers inside the inline code spans of a Markdown text,
    fenced blocks left out."""
    text = re.sub(r"^```.*?^```", "", markdown, flags=re.S | re.M)
    return {name for span in re.findall(r"`([^`\n]+)`", text)
            for name in re.findall(r"\w+", span)}


def unread_public_names(sources: dict, named: set) -> dict:
    """For each module, the names in its `__all__` that no other module
    reads and that are not in `named`."""
    reads = {module: names_read(source) for module, source in sources.items()}
    out = {}
    for module, source in sources.items():
        others = set().union(*(r for m, r in reads.items() if m != module))
        out[module] = [name for name in public_names(source)
                       if name not in others and name not in named]
    return out


def test_the_scan_sees_an_unread_public_name():
    sources = {
        "a.py": ("__all__ = ['used', 'documented', 'orphan']\n"
                 "def used(): pass\ndef documented(): pass\ndef orphan(): pass\n"
                 "orphan()\n"),
        "b.py": "import a\n__all__ = []\nprint(a.used())\n",
        "c.py": "from a import orphan\n",
    }
    # a.py's own call, c.py's import and README's fenced block read nothing
    readme = "Call `a.documented()`.\n\n```python\n>>> a.orphan()\n```\n"
    assert unread_public_names(sources, code_span_names(readme)) == {
        "a.py": ["orphan"], "b.py": [], "c.py": []}


UNREAD_PUBLIC = unread_public_names(
    {p.relative_to(PACKAGE).as_posix(): p.read_text() for p in PACKAGE.rglob("*.py")},
    code_span_names((ROOT / "README.md").read_text()))


@pytest.mark.parametrize("module", sorted(UNREAD_PUBLIC))
def test_no_unread_public_names(module):
    assert UNREAD_PUBLIC[module] == []


def _functions_in_functions(node, path: str, nested: bool):
    """(dotted path, node) of each function defined inside a function at or
    below `node`; `nested` tells whether `node` is inside one."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if nested:
                yield f"{path}.{child.name}", child
            yield from _functions_in_functions(child, f"{path}.{child.name}", True)
        elif isinstance(child, ast.ClassDef):
            yield from _functions_in_functions(child, f"{path}.{child.name}", nested)
        else:
            yield from _functions_in_functions(child, path, nested)


def self_referencing_closures(source: str, module: str) -> list:
    """The dotted path of each nested function that loads its own name."""
    return [path for path, fn in _functions_in_functions(ast.parse(source), module, False)
            if any(isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id == fn.name
                   for n in ast.walk(fn))]


def test_the_scan_sees_a_self_referencing_closure():
    source = ("def outer():\n"
              "    def walk(k):\n        return walk(k - 1) if k else 0\n"
              "    def leaf():\n        return outer()\n"
              "    return walk(3) + leaf()\n"
              "def top(k):\n    return top(k - 1) if k else 0\n"
              "class C:\n    def method(self):\n"
              "        if self:\n            def inner():\n                return inner\n"
              "            return inner\n")
    # `top` calls itself at module level and `leaf` calls its enclosing
    # function, neither through its own cell
    assert self_referencing_closures(source, "m") == ["m.outer.walk", "m.C.method.inner"]


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.name)
def test_no_self_referencing_closures(path):
    module = path.relative_to(PACKAGE).with_suffix("").as_posix().replace("/", ".")
    assert self_referencing_closures(path.read_text(), module) == []
