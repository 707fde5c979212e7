"""Import hygiene of the package: no unused imports, standard library only.

The package promises to run on a bare Python, so every import must come
from the standard library or from hicourant itself.  `__init__.py` is
exempt from the unused-name rule because its imports are the public
re-exports.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hicourant"


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
