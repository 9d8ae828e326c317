"""The package is numpy-only: every import in ``src/anglereloc`` is from the
standard library, numpy or the package itself, and no module imports
another's ``_``-prefixed name. Every name the package exports resolves."""

import ast
import sys
from pathlib import Path

import pytest

import anglereloc

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "anglereloc"}
SOURCES = sorted(Path(anglereloc.__file__).parent.glob("*.py"))


def imported_packages(source):
    """Top-level package of every import statement in ``source``; a relative
    import counts as the package itself."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "anglereloc" if node.level else node.module.split(".")[0]


def private_imports(source):
    """Every ``_``-prefixed name that ``source`` imports from the package."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            node.level or node.module.split(".")[0] == "anglereloc"
        ):
            yield from (alias.name for alias in node.names if alias.name.startswith("_"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_no_private_name_of_another_module(path):
    private = sorted(set(private_imports(path.read_text())))
    assert not private, f"{path.name} imports {private}"


def test_the_private_name_guard_sees_package_imports_only():
    source = (
        "from __future__ import annotations\n"
        "from os import _exit\n"
        "from anglereloc.losses import ConfigError, _is_real\n"
        "from .losses import _row_norms\n"
    )
    assert list(private_imports(source)) == ["_is_real", "_row_norms"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_the_standard_library_numpy_and_the_package(path):
    outside = sorted(set(imported_packages(path.read_text())) - ALLOWED)
    assert not outside, f"{path.name} imports {outside}"


def test_the_guard_sees_every_module_and_every_import_form():
    assert {"losses.py", "regressor.py", "scenegen.py"} <= {p.name for p in SOURCES}
    source = (
        "import os.path, scipy.optimize as so\n"
        "from __future__ import annotations\n"
        "from .losses import LossReport\n"
        "def f():\n"
        "    from matplotlib import pyplot\n"
    )
    found = set(imported_packages(source))
    assert found == {"os", "scipy", "__future__", "anglereloc", "matplotlib"}
    assert found - ALLOWED == {"scipy", "matplotlib"}


def test_every_exported_name_resolves():
    assert anglereloc.__all__ and len(set(anglereloc.__all__)) == len(anglereloc.__all__)
    missing = [name for name in anglereloc.__all__ if not hasattr(anglereloc, name)]
    assert not missing, f"anglereloc.__all__ names {missing}, which the package lacks"
