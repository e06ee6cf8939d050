"""The guards that every name a module of the package imports is used in that
module and that no function imports again a module its file imports at the
top, with their negative controls."""

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


def _modules_of(node) -> list:
    """The modules an import statement loads, relative ones with their dots."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    return ["." * node.level + (node.module or "")]


def repeated_local_imports(sources: dict) -> list:
    """What the second guard reports over ``sources``: each import below the
    top level of a module that the same file already imports at the top, as
    ``file:line: module``.  A top-level import loads the module anyway, so
    no cycle or load cost keeps the local one."""
    repeated = []
    for name, text in sorted(sources.items()):
        tree = ast.parse(text)
        top = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
        loaded = {module for node in top for module in _modules_of(node)}
        hits = sorted((node.lineno, module) for node in ast.walk(tree)
                      if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in top
                      for module in _modules_of(node) if module in loaded)
        repeated += [f"{name}:{line}: {module}" for line, module in hits]
    return repeated


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


def test_no_function_imports_again_what_its_file_imports_at_the_top():
    assert repeated_local_imports(_package_sources()) == []


def test_local_import_guard_reports_a_repeat_and_spares_a_lazy_import():
    planted = ("import json, os\nfrom .model import WOR\n\n\ndef f():\n"
               "    from .model import WRO\n    import multiprocessing, os\n\n\n"
               "class C:\n    def g(self):\n        import json as j\n"
               "        return j, WOR, WRO\n")
    sources = dict(_package_sources(), **{"planted.py": planted})
    assert repeated_local_imports(sources) == ["planted.py:6: .model", "planted.py:7: os",
                                               "planted.py:12: json"]
