"""Every package export resolves.

Package ``__init__``s re-export lazily from one table each
(``repro._lazy.exports``), so a typo in a table would otherwise surface
only at the first use of that name.  These checks walk every
``__init__.py`` under ``src/repro``.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).parent
INITS = sorted(ROOT.rglob("__init__.py"))
PACKAGES = [
    ".".join(("repro",) + path.parent.relative_to(ROOT).parts) for path in INITS
]


@pytest.fixture(params=PACKAGES)
def package(request):
    return importlib.import_module(request.param)


def export_table(package) -> dict[str, str]:
    """The ``{name: module}`` table the package's ``__init__`` passes to
    ``exports``, read from its source; ``{}`` for a package with none."""
    tree = ast.parse(Path(package.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "exports":
            return ast.literal_eval(node.args[1])
    return {}


def test_every_export_resolves_to_its_defining_object(package):
    table = export_table(package)
    assert list(table) == getattr(package, "__all__", [])
    for name, module_name in table.items():
        module = importlib.import_module(module_name, package.__name__)
        value = vars(module)[name]
        assert getattr(package, name) is value, name
        if isinstance(value, type) or inspect.isfunction(value):
            assert value.__module__ == module.__name__, f"{name} is not defined there"


def test_dir_lists_every_export(package):
    assert set(getattr(package, "__all__", [])) <= set(dir(package))


def test_star_import_binds_every_export(package):
    namespace = {}
    exec(f"from {package.__name__} import *", namespace)
    assert set(getattr(package, "__all__", [])) <= set(namespace)


def test_unknown_name_raises_attribute_error_naming_the_package(package):
    with pytest.raises(AttributeError, match=repr(package.__name__)):
        package.no_such_export


def test_no_export_is_shadowed_by_a_submodule(package):
    # Importing a submodule binds its name on the package, which would
    # replace an export of the same name.
    children = {info.name for info in pkgutil.iter_modules(package.__path__)}
    assert children.isdisjoint(getattr(package, "__all__", []))


@pytest.mark.parametrize("path", INITS, ids=PACKAGES)
def test_no_package_init_imports_repro_at_module_level(path):
    tree = ast.parse(path.read_text())
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    own = [m for m in imported if m.startswith(("repro", ".")) and m != "repro._lazy"]
    assert own == []


def test_telemetry_lists_what_it_exports():
    import repro.telemetry

    for name in (
        "FlightRecorder",
        "PromFormatError",
        "render_registry",
        "stitch_chrome_traces",
        "validate_text",
        "HttpServerThread",
        "ObservabilityHTTP",
    ):
        assert name in repro.telemetry.__all__
