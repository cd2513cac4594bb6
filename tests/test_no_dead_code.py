"""The library keeps no private name that nothing uses.

An AST scan collects the module-level private names of every module under
src/enriques_invariants (functions, classes, assignment targets and
`import ... as _x` aliases, dunders excepted) and fails on each one that is
referenced nowhere in the package: not loaded as a name, not read as an
attribute and not imported by another module.  The definition itself does
not count as a use, so a helper whose last caller was deleted is caught.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "enriques_invariants"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined(tree: ast.Module) -> dict[str, int]:
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [(node.name, node.lineno)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [
                (t.id, node.lineno)
                for target in targets
                for t in ast.walk(target)
                if isinstance(t, ast.Name)
            ]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [(a.asname, node.lineno) for a in node.names if a.asname]
        else:
            names = []
        out.update((n, line) for n, line in names if _private(n))
    return out


def _used(tree: ast.Module) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(a.name for a in node.names)
    return out


def dead_names(sources: dict[str, str]) -> list[str]:
    """Private module-level names of sources (module name -> text) that no
    module of sources uses."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = set().union(*(_used(t) for t in trees.values()))
    return [
        f"{name}:{line}: {n}"
        for name, tree in sorted(trees.items())
        for n, line in sorted(_defined(tree).items(), key=lambda x: x[1])
        if n not in used
    ]


def test_package_has_no_dead_private_names():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert {"moduli.py", "cli.py", "surface.py"} <= set(sources)
    assert dead_names(sources) == []


def test_scan_flags_an_unused_helper():
    src = "def _helper():\n    return 1\n\n\ndef public():\n    return 2\n"
    assert dead_names({"m.py": src}) == ["m.py:1: _helper"]


def test_scan_flags_unused_constants_and_aliases():
    src = "from os import path as _path\n_TABLE = (1, 2)\n_a, _b = 1, 2\nx = _a\n"
    assert dead_names({"m.py": src}) == [
        "m.py:1: _path",
        "m.py:2: _TABLE",
        "m.py:3: _b",
    ]


def test_scan_accepts_names_used_anywhere_in_the_package():
    sources = {
        "a.py": "def _inner():\n    return 1\n\n\ndef _other():\n    return 2\n"
        "\n\nclass _Row:\n    pass\n\n\ndef f():\n    return _inner()\n",
        "b.py": "from .a import _other\nfrom . import a\n\ny = a._Row\n",
    }
    assert dead_names(sources) == []
