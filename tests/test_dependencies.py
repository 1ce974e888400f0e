"""numpy is the only runtime dependency: the package imports nothing else
outside the standard library, at module level or inside a function. YAML is
only read, by ``config`` from a user's definition; the package writes none.
Only ``cache`` imports ``hashlib``, so ``cache.digest64`` is the one digest.
Only ``data`` imports ``csv``, so it is the one CSV reader, and
``pipelines`` writes ``predictions.csv`` without it.
Every module-level import is read in its module or listed in ``__all__``, so
a deletion leaves no import behind. Outside the autodiff tape every value is
a plain array: only ``autodiff`` and ``tensor`` name ``Tensor``, the
box of a tape node's value, and the package does not export it. Only
``autodiff`` and ``optim`` assign a ``.value``, so a trained parameter's value
stays a view of its store's weight buffer. A numerical array holds raw
values: only ``features`` (its range check), ``encoders`` and ``decoders``
read ``normalize`` or ``denormalize``, and ``pipelines`` treats no feature
type as ``"numerical"``. Only the training loop and the inference block rule
read ``training.batch_size``, so no inference path cuts at the training
batch. Only ``registry`` reads the built-in ``ENCODERS`` and ``DECODERS``
tables, so a run's components and defaults come from the registries it was
given, and only ``decoders`` reads ``DEFAULT_LOSSES``."""

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


def test_only_data_reads_csv():
    readers = [path.stem for path in sorted(PACKAGE.glob("*.py"))
               if "csv" in {name for _, name in absolute_imports(path)}]
    assert readers == ["data"]


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


def names_tensor(path: Path) -> bool:
    """Whether one source file imports, defines, reads or looks up ``Tensor``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Name) and node.id == "Tensor" \
                or isinstance(node, ast.Attribute) and node.attr == "Tensor" \
                or isinstance(node, (ast.alias, ast.ClassDef)) and node.name == "Tensor":
            return True
    return False


def test_only_the_tape_names_tensor():
    import ecdkit

    namers = [path.stem for path in sorted(PACKAGE.glob("*.py")) if names_tensor(path)]
    assert namers == ["autodiff", "tensor"]
    assert "Tensor" not in ecdkit.__all__


def value_assignments(path: Path) -> list[int]:
    """Lines of one source file that assign to an attribute named ``value``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Attribute) and sub.attr == "value" \
                        and isinstance(sub.ctx, ast.Store):
                    found.append(node.lineno)
    return found


def test_only_the_store_and_the_optimizer_rebind_parameter_values():
    assigners = [path.stem for path in sorted(PACKAGE.glob("*.py")) if value_assignments(path)]
    assert set(assigners) <= {"autodiff", "optim"}


def reads_attribute(path: Path, names: set[str]) -> bool:
    """Whether one source file reads an attribute named one of ``names``."""
    return any(isinstance(node, ast.Attribute) and node.attr in names
               and isinstance(node.ctx, ast.Load)
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"),
                                              filename=str(path))))


def test_only_preprocessing_and_the_model_normalize_numbers():
    normalizers = [path.stem for path in sorted(PACKAGE.glob("*.py"))
                   if reads_attribute(path, {"normalize", "denormalize"})]
    assert normalizers == ["decoders", "encoders", "features"]
    path = PACKAGE / "pipelines.py"
    literals = [node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.Constant) and node.value == "numerical"]
    assert literals == []


def batch_size_readers(path: Path) -> set[str]:
    """``module.function`` (or the module, outside any function) of every
    attribute named ``batch_size`` in one source file."""
    readers = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{path.stem}.{node.name}"
        elif isinstance(node, ast.Attribute) and node.attr == "batch_size":
            readers.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path.stem)
    return readers


def test_only_training_and_the_block_rule_read_the_batch_size():
    readers = set().union(*(batch_size_readers(path) for path in sorted(PACKAGE.glob("*.py"))))
    assert readers == {"pipelines._run_training", "pipelines.inference_block_rows"}


def reads_name(path: Path, name: str) -> bool:
    """Whether one source file imports or reads the module-level ``name``."""
    return any(isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
               or isinstance(node, ast.alias) and node.name == name
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"),
                                              filename=str(path))))


def test_only_the_registries_read_the_component_tables():
    def readers(name):
        return [path.stem for path in sorted(PACKAGE.glob("*.py")) if reads_name(path, name)]

    assert readers("ENCODERS") == readers("DECODERS") == ["registry"]
    assert readers("DEFAULT_LOSSES") == ["decoders"]
