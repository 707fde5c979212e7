"""Import hygiene of the package: no unused imports, standard library only.

The package promises to run on a bare Python, so every import must come
from the standard library or from hicourant itself.  `__init__.py` is
exempt from the unused-name rule because its imports are the public
re-exports.  No module imports or reads another module's `_private`
name, so shared helpers such as the one case sweep `courant.cases`
stay public and cannot be bypassed by a private copy.

Only the chart checks raise ChartMismatchError: `scalar.same_chart`, which
compares chart dimensions, and `courant.Section._check_ctx`, which compares
whole contexts.  Every other chart comparison calls `same_chart`.

The benchmark under `bench/` drives the package by name, so every
hicourant name it imports or reads off a hicourant module must exist;
a rename would otherwise show only as failed benchmark operations.

The package supports Python 3.10, so every source of the package, the
tests and the benchmark must parse under the 3.10 grammar, also where
only a newer Python runs the tests.
"""

import ast
import importlib
import sys
from pathlib import Path
from types import ModuleType

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hicourant"


SOURCES = sorted(path for part in ("src", "tests", "bench") for path in (ROOT / part).rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_sources_parse_under_the_python_3_10_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_the_python_3_10_grammar_refuses_except_star():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source)
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))


def import_problems(source: str, check_unused: bool = True) -> list[str]:
    """Unused imported names and imports from outside the standard library and hicourant."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    problems = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root not in sys.stdlib_module_names and root != "hicourant":
                    problems.append(f"line {node.lineno}: imports non-stdlib {alias.name}")
                imported[alias.asname or root] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            if root == "__future__":
                continue
            if node.level == 0 and root not in sys.stdlib_module_names and root != "hicourant":
                problems.append(f"line {node.lineno}: imports non-stdlib {node.module}")
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    if check_unused:
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for name, lineno in sorted(imported.items(), key=lambda kv: kv[1]):
            if name not in used:
                problems.append(f"line {lineno}: {name} imported but unused")
    return problems


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_are_used_and_stdlib(path):
    source = path.read_text(encoding="utf-8")
    assert import_problems(source, check_unused=path.name != "__init__.py") == []


def test_import_checker_flags_unused_and_foreign_imports():
    source = (
        "import os\n"
        "import numpy as np\n"
        "from fractions import Fraction\n"
        "from .exterior import i_vec, wedge\n"
        "x = wedge(os.sep, np)\n"
    )
    assert import_problems(source) == [
        "line 2: imports non-stdlib numpy",
        "line 3: Fraction imported but unused",
        "line 4: i_vec imported but unused",
    ]


def private_imports(source: str) -> list[str]:
    """_private names that the source imports from, or reads off, a hicourant module."""
    tree = ast.parse(source)
    modules: set[str] = set()
    problems = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "hicourant" and alias.asname:
                    modules.add(alias.asname)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if not node.level and module.split(".")[0] != "hicourant":
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    problems.append(f"line {node.lineno}: imports {alias.name} from {module}")
                elif module.strip(".") in ("", "hicourant"):
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
        ):
            problems.append(f"line {node.lineno}: reads {node.value.id}.{node.attr}")
    return problems


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_modules_use_no_private_names_of_other_modules(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def test_private_import_checker_flags_private_names():
    source = (
        "from . import courant, nambu as nb\n"
        "from .courant import cases, _require_samples\n"
        "from hicourant.plectic import _graph_pairs as pairs\n"
        "from fractions import _gcd\n"
        "import hicourant.exterior as ext\n"
        "courant.cases(courant._axiom_case, nb._graph_section, ext._bilinear, self._x)\n"
    )
    assert private_imports(source) == [
        "line 2: imports _require_samples from .courant",
        "line 3: imports _graph_pairs from hicourant.plectic",
        "line 6: reads courant._axiom_case",
        "line 6: reads nb._graph_section",
        "line 6: reads ext._bilinear",
    ]


def chart_refusals(source: str) -> list[tuple[int, str]]:
    """(line, qualified name of the enclosing function or class) of each `raise ChartMismatchError`."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
                if name == "ChartMismatchError":
                    found.append((child.lineno, scope or "<module>"))
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_chart_mismatch_is_raised_only_by_the_chart_checks():
    raisers = [
        f"{path.stem}.{scope}"
        for path in sorted(PACKAGE.glob("*.py"))
        for _line, scope in chart_refusals(path.read_text(encoding="utf-8"))
    ]
    assert raisers == ["courant.Section._check_ctx", "scalar.same_chart"]


def test_chart_refusal_finder_names_each_raise_by_its_scope():
    source = (
        "def same_chart(a, b):\n"
        "    raise ChartMismatchError('chart')\n"
        "class Section:\n"
        "    def add(self, other):\n"
        "        if other.m:\n"
        "            raise scalar.ChartMismatchError\n"
        "raise ChartMismatchError\n"
        "raise ValueError('not a chart refusal')\n"
    )
    assert chart_refusals(source) == [(2, "same_chart"), (6, "Section.add"), (7, "<module>")]


def _hicourant_attr(owner: ModuleType, name: str):
    """owner.name as `from owner import name` resolves it, or None if it does not exist."""
    if hasattr(owner, name):
        return getattr(owner, name)
    try:
        return importlib.import_module(f"{owner.__name__}.{name}")
    except ModuleNotFoundError:
        return None


def missing_hicourant_names(source: str) -> list[str]:
    """hicourant names that the source imports, or reads off an imported hicourant module,
    and that do not exist."""
    tree = ast.parse(source)
    modules: dict[str, ModuleType] = {}
    missing: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "hicourant":
                    # `import hicourant.cli` binds hicourant; `import hicourant.cli as c` binds c
                    module = importlib.import_module(alias.name)
                    modules[alias.asname or "hicourant"] = (
                        module if alias.asname else sys.modules["hicourant"]
                    )
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hicourant":
            owner = importlib.import_module(node.module)
            for alias in node.names:
                value = _hicourant_attr(owner, alias.name)
                if value is None:
                    missing.add(f"{node.module}.{alias.name}")
                elif isinstance(value, ModuleType):
                    modules[alias.asname or alias.name] = value

    def resolve(expr):
        if isinstance(expr, ast.Name):
            return modules.get(expr.id)
        if isinstance(expr, ast.Attribute):
            owner = resolve(expr.value)
            if isinstance(owner, ModuleType):
                value = _hicourant_attr(owner, expr.attr)
                if value is None:
                    missing.add(f"{owner.__name__}.{expr.attr}")
                return value
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            resolve(node)
    return sorted(missing)


@pytest.mark.parametrize("path", sorted((ROOT / "bench").glob("*.py")), ids=lambda p: p.name)
def test_benchmark_hicourant_names_exist(path):
    assert missing_hicourant_names(path.read_text(encoding="utf-8")) == []


def test_benchmark_name_checker_flags_missing_names():
    source = (
        "import hicourant.cli\n"
        "from hicourant import courant, dsl\n"
        "from hicourant.exterior import wedge, gone_operator\n"
        "courant.dorfman_bracket(dsl.parse, courant.gone_bracket)\n"
        "hicourant.cli.main, hicourant.cli.gone_main\n"
    )
    assert missing_hicourant_names(source) == [
        "hicourant.cli.gone_main",
        "hicourant.courant.gone_bracket",
        "hicourant.exterior.gone_operator",
    ]
