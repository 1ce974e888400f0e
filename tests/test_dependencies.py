"""numpy is the only runtime dependency: the package imports nothing else
outside the standard library, at module level or inside a function. YAML is
only read, by ``config`` from a user's definition; the package writes none."""

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


def package_imports(path: Path) -> set[str]:
    """Names of the package's own modules that one source file imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else [a.name for a in node.names])
    return found


def test_yaml_is_only_read_from_a_users_definition():
    from ecdkit import yamlish

    readers = [path.stem for path in sorted(PACKAGE.glob("*.py"))
               if "yamlish" in package_imports(path)]
    assert readers == ["config"]
    public = [name for name, value in vars(yamlish).items() if not name.startswith("_")
              and callable(value) and value.__module__ == yamlish.__name__]
    assert public == ["loads"]
