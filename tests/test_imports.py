"""The package is numpy-only: every import in ``src/anglereloc`` is from the
standard library, numpy or the package itself. Every name the package
exports resolves."""

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
