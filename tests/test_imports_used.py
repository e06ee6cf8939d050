"""The guard that every name a module of the package imports is used in that
module, and its negative controls."""

from __future__ import annotations

import ast
import pathlib

import itersc


def _imported(tree: ast.Module) -> set:
    """The names a module's import statements bind, ``from __future__`` aside."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    return bound


def unused_imports(sources: dict) -> list:
    """What the guard reports over ``sources`` (file name -> module text): each
    name a module imports and never reads, as ``file: name``.  The
    re-exports of ``__init__.py`` are its use."""
    unused = []
    for name, text in sorted(sources.items()):
        if name == "__init__.py":
            continue
        tree = ast.parse(text)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{name}: {bound}" for bound in sorted(_imported(tree) - read)]
    return unused


def _package_sources() -> dict:
    root = pathlib.Path(itersc.__file__).parent
    return {path.name: path.read_text() for path in sorted(root.glob("*.py"))}


def test_every_imported_name_is_used():
    assert unused_imports(_package_sources()) == []


def test_guard_reports_an_import_nothing_reads():
    planted = ("from __future__ import annotations\n\nimport os.path\nimport random as rnd\n"
               "from .model import WOR, WRO\n\n\ndef f():\n    from .model import OWR\n"
               "    return WRO\n")
    sources = dict(_package_sources(), **{"planted.py": planted})
    assert unused_imports(sources) == ["planted.py: OWR", "planted.py: WOR",
                                       "planted.py: os", "planted.py: rnd"]


def test_guard_counts_attribute_reads_and_exempts_re_exports():
    sources = _package_sources()
    sources["planted.py"] = "import os.path\n\nSEP = os.path.sep\n"
    sources["__init__.py"] += "from .model import WOR  # noqa: F401\n"
    assert unused_imports(sources) == []
