"""Static hygiene of the package source: no module imports a name it never
uses, every import sits at module level, the package ships no function,
class or method that only tests use, the checker's modules import nothing
from ``models``, ``real`` imports only the standard library and the
checker's modules nothing from it and call no ``sign``, ``cm`` imports no
K(eps) name, ``scalars`` defines no frame form, ``engine`` and ``models``
define no point-mapping helper, and every module under ``src/`` and
``tests/`` is written in the grammar of Python 3.10, the oldest version
``pyproject.toml`` admits.
``private_references`` counts the private package names that test code
reaches into; CI prints the count for ``tests/``."""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

import rigidity_forge

PACKAGE = Path(rigidity_forge.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parent.parent
OLDEST_PYTHON = (3, 10)


def newer_grammar(source: str, name: str) -> str | None:
    """The first syntax error of ``source`` under the ``OLDEST_PYTHON``
    grammar, or None.  The grammar alone: names a newer standard library
    adds are not checked."""
    try:
        ast.parse(source, name, feature_version=OLDEST_PYTHON)
    except SyntaxError as err:
        return f"{name}:{err.lineno}: {err.msg}"
    return None


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no other expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def local_imports(source: str) -> list[str]:
    """Import statements inside a function body."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    found.append(f"{node.name} (line {inner.lineno})")
    return found


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_imports_only_at_module_level(module):
    assert local_imports(module.read_text(encoding="utf-8")) == []


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level functions and classes that no code outside their own
    body references by name or attribute, and non-dunder methods that none
    references by attribute (``x.name``; a bare name is a variable, not the
    method), and that no ``__all__`` exports.  The codec's
    ``encode_*``/``decode_*`` functions are the file formats' API, read and
    written outside the package, so they count as exported."""
    defs, refs, exported = [], [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((f"{module}.{node.name}", node, (ast.Name, ast.Attribute)))
            if isinstance(node, ast.ClassDef):
                defs += [
                    (f"{module}.{node.name}.{item.name}", item, ast.Attribute)
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _is_dunder(item.name)
                ]
            if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                exported |= set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((node.id, node))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, node))
    found = []
    for qualname, node, kinds in defs:
        module, name = qualname.split(".")[0], qualname.rsplit(".", 1)[-1]
        if name in exported or module == "codec" and name.startswith(("encode_", "decode_")):
            continue
        inside = {id(n) for n in ast.walk(node)}
        if not any(ref == name and isinstance(n, kinds) and id(n) not in inside for ref, n in refs):
            found.append(qualname)
    return found


def test_package_ships_no_unreferenced_code():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_definitions(sources) == []


def test_unreferenced_code_check_catches_a_leftover():
    sources = {
        "__init__": "from .a import f\n__all__ = ['f']\n",
        "a": (
            "def f():\n    return g() + C().used()\n\n\n"
            "def g():\n    return 1\n\n\n"
            "def loop(n):\n    return loop(n - 1) if n else 0\n\n\n"
            "class C:\n    def used(self):\n        return 0\n\n    def unused(self):\n        return self.used()\n\n"
            "    def named(self):\n        return 0\n\n"
            "    def __repr__(self):\n        named = 1\n        return 'C' * named\n"
        ),
        "codec": "def encode_thing(x):\n    return x\n\n\ndef decode_thing(x):\n    return x\n\n\ndef helper(x):\n    return x\n",
    }
    # a local variable of the method's name does not reference the method
    assert unreferenced_definitions(sources) == ["a.loop", "a.C.unused", "a.C.named", "codec.helper"]


def test_unused_import_check_catches_a_leftover():
    source = "from fractions import Fraction\nimport json\nfrom typing import Any\n\n\ndef f(x: Any):\n    return json.dumps(x)\n"
    assert unused_imports(source) == ["Fraction (line 1)"]
    assert local_imports("def f():\n    import json\n    return json\n") == ["f (line 2)"]


def imported_modules(source: str) -> set[str]:
    """The package modules a module's source imports: ``from .x import``,
    ``from . import x`` and ``import rigidity_forge.x``, by the name x."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module.split(".")[0]} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rigidity_forge."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names if alias.name.startswith("rigidity_forge.")}
    return found


# the modules below ``models``: the checker takes an image table from any
# model that has one, so it reads no model class
BELOW_MODELS = ("scalars", "poly", "cm", "gadgets", "engine")


def test_the_checker_imports_nothing_from_models():
    for name in BELOW_MODELS:
        assert "models" not in imported_modules((PACKAGE / f"{name}.py").read_text(encoding="utf-8")), name


def test_import_direction_check_catches_an_engine_that_imports_models():
    engine = (PACKAGE / "engine.py").read_text(encoding="utf-8")
    assert imported_modules(engine) >= {"cm", "gadgets"}
    for line in ("from .models import ModelMap\n", "from . import models\n", "import rigidity_forge.models\n", "from rigidity_forge.models import ModelMap\n"):
        assert "models" in imported_modules(line + engine), line


def non_stdlib_imports(source: str) -> set[str]:
    """The modules a source imports from outside the standard library: a
    relative import by its dots and module (``.``, ``.scalars``), any other
    by its full name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = ["." * node.level + (node.module or "")]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found |= {name for name in names if name.startswith(".") or name.split(".")[0] not in sys.stdlib_module_names}
    return found


def test_real_imports_only_the_standard_library():
    assert non_stdlib_imports(_source("real")) == set()
    assert {"real"} <= imported_modules(_source("scalars")) & imported_modules(_source("gadgets"))


def test_standard_library_check_catches_a_package_import():
    real = _source("real")
    for line, name in (
        ("from . import scalars\n", "."),
        ("from .scalars import TowerElem\n", ".scalars"),
        ("import rigidity_forge.scalars\n", "rigidity_forge.scalars"),
        ("from rigidity_forge import cm\n", "rigidity_forge"),
        ("import numpy as np\n", "numpy"),
    ):
        assert non_stdlib_imports(line + real) == {name}, line


# the checker's modules and the programs that run them, which decide no
# order: the real embedding is for construction and the radicand checks
CHECKER = ("cm", "engine", "models", "poly", "suite", "cli")


def order_reach(source: str) -> list[str]:
    """How a module's source reaches the order: an import of ``real``, an
    import of a function ``real`` defines (through any module that passes
    it on), and each ``.sign()`` call, by line."""
    order = {node.name for node in ast.parse(_source("real")).body if isinstance(node, ast.FunctionDef)}
    found = ["imports real"] if "real" in imported_modules(source) else []
    found += sorted(f"imports {name}" for name in imported_names(source) & order)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "sign":
            found.append(f"sign() at line {node.lineno}")
    return found


def test_the_checker_reaches_no_order():
    for name in CHECKER:
        assert order_reach(_source(name)) == [], name
    assert order_reach(_source("gadgets")) != []


def test_order_check_catches_an_import_or_a_sign_call():
    engine = _source("engine")
    lines = len(engine.splitlines())
    for text, found in (
        ("from . import real\n", ["imports real"]),
        ("import rigidity_forge.real\n", ["imports real"]),
        ("from .real import sign\n", ["imports real", "imports sign"]),
        ("from .gadgets import cmp_with_sqrt\n", ["imports cmp_with_sqrt"]),
    ):
        assert order_reach(text + engine) == found, text
    assert order_reach(engine + "\n\ndef f(x):\n    return x.sign() < 0\n") == [f"sign() at line {lines + 4}"]


def imported_names(source: str) -> set[str]:
    """The names a module's import statements import: each name of a
    ``from ... import``, and each module of an ``import``, before any ``as``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found |= {alias.name for alias in node.names}
    return found


def defined_names(source: str) -> set[str]:
    """The names a module defines at module level: its functions, classes
    and assigned names."""
    found = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found |= {t.id for t in targets if isinstance(t, ast.Name)}
    return found


# the K(eps) carrier and its packing: ``models`` packs K(eps) images, ``cm``
# holds tower tables only
K_EPS_NAMES = {"FunElem", "fun_pack", "_funit", "IPoly"}
# the frame forms, defined next to the frames that read them
FRAME_FORMS = {"FrameRow", "frame_rows", "_row_form"}
# point-mapping helpers: ``cm.image_table`` and ``cm.mapped_table`` map every
# point, so no module above ``cm`` keeps a mapping loop of its own
MAPPING_HELPERS = {"_images", "_mapped_table", "_image_table"}


def _source(name: str) -> str:
    return (PACKAGE / f"{name}.py").read_text(encoding="utf-8")


def test_cm_imports_no_k_eps_name():
    assert imported_names(_source("cm")) & K_EPS_NAMES == set()
    assert {"_PackedTable", "_bits"} <= defined_names(_source("models")) and not {"_PackedTable", "_bits"} & defined_names(_source("cm"))


def test_k_eps_name_check_catches_an_import_into_cm():
    cm = _source("cm")
    for line, name in (
        ("from .scalars import FunElem\n", "FunElem"),
        ("from .scalars import QQ, fun_pack\n", "fun_pack"),
        ("from rigidity_forge.scalars import _funit as unit\n", "_funit"),
        ("from .scalars import (\n    IPoly,\n)\n", "IPoly"),
    ):
        assert imported_names(line + cm) & K_EPS_NAMES == {name}, line


def test_scalars_defines_no_frame_form():
    assert defined_names(_source("scalars")) & FRAME_FORMS == set()
    assert FRAME_FORMS <= defined_names(_source("models"))


def test_frame_form_check_catches_a_definition_in_scalars():
    scalars = _source("scalars")
    for text, name in (
        ("\n\ndef _row_form(row, xn, xd, yn, yd):\n    return (), 1\n", "_row_form"),
        ("\nFrameRow = tuple\n", "FrameRow"),
        ("\nframe_rows: object = None\n", "frame_rows"),
    ):
        assert defined_names(scalars + text) & FRAME_FORMS == {name}, text


def test_engine_and_models_define_no_point_mapping_helper():
    for name in ("engine", "models"):
        assert defined_names(_source(name)) & MAPPING_HELPERS == set(), name
    assert {"image_table", "mapped_table"} <= defined_names(_source("cm"))


def test_mapping_helper_check_catches_a_definition_in_engine_or_models():
    for module, text, name in (
        ("engine", "\n\ndef _images(model, points):\n    return {}\n", "_images"),
        ("models", "\n\ndef _mapped_table(apply, points):\n    return None\n", "_mapped_table"),
        ("models", "\n_image_table = None\n", "_image_table"),
    ):
        assert defined_names(_source(module) + text) & MAPPING_HELPERS == {name}, text


def private_references(sources: dict[str, str]) -> Counter:
    """Each reference of the sources to a private package name, as
    ``module._name``: an attribute ``module._name`` of a module imported by
    ``from rigidity_forge import module``, each ``_name`` of a ``from
    rigidity_forge.module import``, and a call that passes such a module and
    the string ``"_name"`` (``monkeypatch.setattr``, ``mock.patch.object``).
    A dunder name is not private."""
    modules, found = {p.stem for p in MODULES}, Counter()
    private = lambda name: name.startswith("_") and not _is_dunder(name)
    for source in sources.values():
        tree = ast.parse(source)
        bound = {
            alias.asname or alias.name: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "rigidity_forge"
            for alias in node.names
            if alias.name in modules
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound and private(node.attr):
                found[f"{bound[node.value.id]}.{node.attr}"] += 1
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rigidity_forge."):
                found.update(f"{node.module.split('.')[1]}.{alias.name}" for alias in node.names if private(alias.name))
            elif isinstance(node, ast.Call):
                passed = [arg.id for arg in node.args if isinstance(arg, ast.Name) and arg.id in bound]
                names = [arg.value for arg in node.args if isinstance(arg, ast.Constant) and isinstance(arg.value, str) and private(arg.value)]
                if passed and names:
                    found[f"{bound[passed[0]]}.{names[0]}"] += 1
    return found


def test_private_reference_count_catches_each_form():
    source = (
        "from rigidity_forge import cm, engine as e\nfrom rigidity_forge.scalars import QQ, _elem\n\n\n"
        "def test(monkeypatch):\n    monkeypatch.setattr(e, '_LEMMAS', {})\n    monkeypatch.setattr(e, 'replay', None)\n"
        "    return cm._KernelTable, cm._KernelTable, cm.__name__, cm.point_table, _elem, QQ\n"
    )
    assert private_references({"t": source}) == {"cm._KernelTable": 2, "engine._LEMMAS": 1, "scalars._elem": 1}


def test_sources_parse_with_the_oldest_supported_grammar():
    modules = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert len(modules) > len(MODULES)
    errors = [newer_grammar(m.read_text(encoding="utf-8"), str(m.relative_to(ROOT))) for m in modules]
    assert [e for e in errors if e is not None] == []


def test_grammar_check_catches_newer_syntax():
    assert "only supported in Python 3.11" in newer_grammar("try:\n    pass\nexcept* ValueError:\n    pass\n", "m.py")
    assert newer_grammar("match x:\n    case 1:\n        pass\n", "m.py") is None
