"""The guard that the package raises every error class it declares, with its
negative control."""

from __future__ import annotations

import ast
import pathlib

import itersc


def _raised_name(node: ast.Raise):
    """The class name a ``raise`` statement names, or None for a bare raise."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    if isinstance(exc, ast.Attribute):
        return exc.attr
    if isinstance(exc, ast.Name):
        return exc.id
    return None


def unraised_errors(sources: dict) -> list:
    """What the guard reports over ``sources`` (file name -> module text):
    each class of ``errors.py`` but the base ``IterscError`` that no
    ``raise`` of any module names."""
    declared = {node.name for node in ast.parse(sources["errors.py"]).body
                if isinstance(node, ast.ClassDef)} - {"IterscError"}
    raised = {_raised_name(node) for text in sources.values()
              for node in ast.walk(ast.parse(text))
              if isinstance(node, ast.Raise) and node.exc is not None}
    return sorted(declared - raised)


def _package_sources() -> dict:
    root = pathlib.Path(itersc.__file__).parent
    return {path.name: path.read_text() for path in sorted(root.glob("*.py"))}


def test_every_error_class_is_raised():
    assert unraised_errors(_package_sources()) == []


def test_guard_reports_an_error_class_nothing_raises():
    sources = _package_sources()
    sources["errors.py"] += '\n\nclass PlantedError(IterscError):\n    """Never raised."""\n'
    sources["planted.py"] = ("from . import errors\nfrom .errors import PlantedError\n\n\n"
                             "def f():\n    raise errors.DomainError('x')\n")
    assert unraised_errors(sources) == ["PlantedError"]
