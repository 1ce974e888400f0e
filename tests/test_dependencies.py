"""numpy is the only runtime dependency: the package imports nothing else
outside the standard library, at module level or inside a function. YAML is
only read, by ``config`` from a user's definition; the package writes none.
Only ``cache`` imports ``hashlib``, so ``cache.digest64`` is the one digest.
Every module-level import is read in its module or listed in ``__all__``, so
a deletion leaves no import behind."""

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


def test_only_cache_hashes():
    hashers = [path.stem for path in sorted(PACKAGE.glob("*.py"))
               if "hashlib" in {name for _, name in absolute_imports(path)}]
    assert hashers == ["cache"]


def unused_imports(path: Path) -> list[str]:
    """Names bound by the module-level imports of one source file that the
    file never reads and does not list in ``__all__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line}: {name}" for name, line in bound.items() if name not in read]


def test_every_module_level_import_is_used():
    assert [entry for path in sorted(PACKAGE.glob("*.py"))
            for entry in unused_imports(path)] == []
