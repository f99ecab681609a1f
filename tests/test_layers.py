"""The modules of ``divfilt`` form layers: none imports a module above it.

Imports are read from the source with ``ast``, at every depth, so an
import inside a function or an ``if TYPE_CHECKING:`` block counts too.

The package namespace loads each layer on first use of one of its names,
and reads the name from the layer at every use; ``divfilt.cli`` loads
every layer, as the benchmark's tracer expects.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import divfilt
from divfilt import envelope

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "divfilt"

# lowest first; ``__init__`` names the public objects of them all
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


def test_init_imports_no_layer():
    source = (PACKAGE / "__init__.py").read_text(encoding="utf-8")
    assert package_imports(source) == []


def loaded_after(code):
    """The ``divfilt`` modules that a fresh interpreter holds after ``code``."""
    code += (
        "\nimport sys\n"
        "print(*(name for name in sys.modules if name.split('.')[0] == 'divfilt'))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def test_builtin_model_loads_only_the_model_layers():
    loaded = loaded_after("import divfilt\ndivfilt.builtin_model()")
    below = ("errors", "frozen", "qfield", "surfaces", "model")
    assert loaded == {"divfilt", *(f"divfilt.{name}" for name in below)}


def test_every_layer_but_cli_is_an_attribute_on_first_use():
    """As when ``__init__`` imported them: ``divfilt.envelope.gamma`` works
    after a bare ``import divfilt``, and ``divfilt.cli`` still needs an
    import of its own."""
    below_cli = [name for name in LAYERS if name != "cli"]
    loaded = loaded_after(
        "import divfilt, sys\n"
        f"for name in {below_cli!r}:\n"
        "    assert getattr(divfilt, name) is sys.modules['divfilt.' + name], name\n"
        "assert not hasattr(divfilt, 'cli')\n"
        "assert set(dir(divfilt)) >= {*divfilt.__all__, 'envelope', 'intervals'}"
    )
    assert loaded == {"divfilt", *(f"divfilt.{name}" for name in below_cli)}


def traced_layers():
    """``LAYERS`` of the benchmark's tracer, read from its source."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
    (value,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(target, "id", None) for target in node.targets] == ["LAYERS"]
    ]
    return ast.literal_eval(value)


def test_cli_loads_every_traced_layer():
    """The tracer wraps each layer of ``LAYERS`` after ``from divfilt import
    cli`` and looks it up in ``sys.modules``."""
    layers = traced_layers()
    assert "envelope" in layers and "cli" in layers
    assert {f"divfilt.{name}" for name in layers} <= loaded_after("import divfilt.cli")


def test_every_public_name_is_its_defining_modules_object():
    assert len(divfilt.__all__) == 52
    assert divfilt.__all__ == sorted(set(divfilt.__all__))
    for name in divfilt.__all__:
        value = getattr(divfilt, name)
        module = sys.modules[divfilt._MODULE_OF[name]]
        assert value is vars(module)[name], name
        if callable(value):
            assert value.__module__ == module.__name__, name
    assert set(divfilt.__all__) <= set(dir(divfilt))


def test_unknown_names_raise_and_star_import_works():
    with pytest.raises(AttributeError, match="'divfilt' has no attribute 'nope'"):
        divfilt.nope  # noqa: B018
    namespace = {}
    exec("from divfilt import *", namespace)
    del namespace["__builtins__"]
    assert namespace == {name: getattr(divfilt, name) for name in divfilt.__all__}


def test_a_replaced_function_is_what_the_package_returns(monkeypatch):
    """The package reads ``gamma`` from ``envelope`` at each use, so a
    patch, as the tracer makes, shows through it and so does its undo."""
    real = divfilt.gamma
    assert real is envelope.gamma

    def replacement(*args):
        return real(*args)

    with monkeypatch.context() as patch:
        patch.setattr(envelope, "gamma", replacement)
        assert divfilt.gamma is replacement
    assert divfilt.gamma is real
