"""The modules of ``divfilt`` form layers: none imports a module above it.

Imports are read from the source with ``ast``, at every depth, so an
import inside a function or an ``if TYPE_CHECKING:`` block counts too.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "divfilt"

# lowest first; ``__init__`` re-exports the package and sits above them all
LAYERS = (
    "errors",
    "frozen",
    "qfield",
    "intervals",
    "filt_examples",
    "surfaces",
    "model",
    "envelope",
    "multiplicity",
    "verify",
    "cli",
)


def package_imports(source):
    """``(line, module)`` for every import of a ``divfilt`` module in
    ``source``, relative or absolute, in order of line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "divfilt" and len(parts) > 1:
                    found.append((node.lineno, parts[1]))
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] == "divfilt":
                parts = parts[1:]
            elif node.level != 1:
                continue
            if parts and parts[0]:
                found.append((node.lineno, parts[0]))
            else:  # ``from . import a, b``
                found += [(node.lineno, alias.name) for alias in node.names]
    return sorted(found)


def test_package_imports_reads_imports_at_every_depth():
    source = (
        "from typing import TYPE_CHECKING\n"
        "from .errors import InputError\n"
        "if TYPE_CHECKING:\n"
        "    from .envelope import GammaEnvelope\n"
        "def f():\n"
        "    from . import envelope, verify\n"
        "    import divfilt.cli\n"
        "    from divfilt import qfield\n"
        "    from divfilt.surfaces import dot\n"
        "    import json\n"
    )
    assert package_imports(source) == [
        (2, "errors"),
        (4, "envelope"),
        (6, "envelope"),
        (6, "verify"),
        (7, "cli"),
        (8, "qfield"),
        (9, "surfaces"),
    ]


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("name", LAYERS)
def test_no_module_imports_a_layer_above_it(name):
    imports = package_imports((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    assert {module for _, module in imports} <= set(LAYERS)
    level = LAYERS.index(name)
    above = [(line, module) for line, module in imports if LAYERS.index(module) > level]
    assert above == [], f"{name} imports a layer above it"
