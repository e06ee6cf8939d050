"""The guard that every public name of the package is reached from the
package itself, and its negative controls."""

from __future__ import annotations

import ast
import pathlib

import itersc


class _NamesUsed(ast.NodeVisitor):
    """Every name and attribute a module mentions, except a definition's
    mentions of itself."""

    def __init__(self):
        self.used: set = set()
        self.inside: list = []

    def _see(self, name):
        if name not in self.inside:
            self.used.add(name)

    def _visit_def(self, node):
        self.inside.append(node.name)
        self.generic_visit(node)
        self.inside.pop()

    visit_FunctionDef = visit_ClassDef = _visit_def

    def visit_Name(self, node):
        self._see(node.id)

    def visit_Attribute(self, node):
        self._see(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node):
        self._see(node.name)


def _public_defs(tree: ast.Module) -> set:
    """Public functions and classes of a module, and the public methods of its
    public classes."""
    public = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            public.add(node.name)
            if isinstance(node, ast.ClassDef):
                public |= {m.name for m in node.body
                           if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")}
    return public


def unreached_public_names(sources: dict, allowed: dict) -> list:
    """What the guard reports over ``sources`` (file name -> module text):
    each public name that no module mentions and ``allowed`` does not list,
    and each ``allowed`` entry that is reached or not defined at all.
    A re-export in ``__init__.py`` is not a use."""
    public = set()
    names = _NamesUsed()
    for name, text in sources.items():
        tree = ast.parse(text)
        public |= _public_defs(tree)
        if name != "__init__.py":
            names.visit(tree)
    unreached = public - names.used
    return ([f"unreached: {name}" for name in sorted(unreached - set(allowed))]
            + [f"stale allow-list entry: {name}" for name in sorted(set(allowed) - unreached)])


def _package_sources() -> dict:
    root = pathlib.Path(itersc.__file__).parent
    return {path.name: path.read_text() for path in sorted(root.glob("*.py"))}


# public names that no code of the package reaches, each kept on purpose
UNREACHED_ON_PURPOSE = {
    "successor_boxes": "the probing reference that the memo tests and "
                       "perfbench's tracer test check the memo's boxes against",
    "resolve_safe_consensus": "the differential oracle the round engine's "
                              "instances are checked against",
    "replay_execution": "criterion 7 replays recorded runs through it",
    "check_consensus": "the single-execution consensus check the tests pin; "
                       "the sweeps share _check_decisions",
    "check_2cc": "the single-execution 2coalitions check the tests pin; "
                 "the sweeps share _check_decisions",
}


def test_every_public_name_is_reached():
    assert unreached_public_names(_package_sources(), UNREACHED_ON_PURPOSE) == []


def test_guard_reports_a_public_def_nothing_references():
    sources = dict(_package_sources(), **{"planted.py": "def planted():\n    return 1\n"})
    assert unreached_public_names(sources, UNREACHED_ON_PURPOSE) == ["unreached: planted"]


def test_guard_does_not_count_a_re_export_as_a_use():
    sources = _package_sources()
    sources["planted.py"] = "class Planted:\n    def helper(self):\n        return 1\n"
    sources["__init__.py"] += "from .planted import Planted  # noqa: F401\n"
    assert unreached_public_names(sources, UNREACHED_ON_PURPOSE) == [
        "unreached: Planted", "unreached: helper"]


def test_guard_fails_on_a_stale_allow_list_entry():
    sources = _package_sources()
    allowed = dict(UNREACHED_ON_PURPOSE, apply_round="reached by every sweep",
                   no_such_name="defined nowhere")
    assert unreached_public_names(sources, allowed) == [
        "stale allow-list entry: apply_round", "stale allow-list entry: no_such_name"]
