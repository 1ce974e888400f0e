"""numpy is the only runtime dependency: the package imports nothing else
outside the standard library, at module level or inside a function."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ecdkit"
ALLOWED = frozenset(sys.stdlib_module_names) | {"numpy"}


def absolute_imports(path: Path) -> list[tuple[int, str]]:
    """(line, top-level module name) of every absolute import in one source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.partition(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.partition(".")[0]))
    return found


def test_package_imports_only_the_standard_library_and_numpy():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no sources under {PACKAGE}"
    foreign = [f"{path.name}:{line}: {name}" for path in sources
               for line, name in absolute_imports(path) if name not in ALLOWED]
    assert foreign == []
