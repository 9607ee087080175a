import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pbna"

# pipebench/run.py calls kernels.warmup, a no-op, until ROADMAP item 2 removes the call
CALLED_FROM_OUTSIDE = {("kernels", "warmup")}


def _reads(tree: ast.AST) -> Counter:
    """How often a piece of code reads each name or looks it up as an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def _names_used(tree: ast.AST) -> set[str]:
    """Every name a piece of code reads, imports or looks up as an attribute."""
    return set(_reads(tree)) | {node.name for node in ast.walk(tree) if isinstance(node, ast.alias)}


def _defined_names(stmt: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a function or class, or the non-dunder
    names an assignment binds, such as a type alias or a constant."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return [t.id for t in targets if isinstance(t, ast.Name) and not t.id.startswith("__")]


def test_every_module_level_definition_has_a_caller_in_src():
    # code in src/ that only tests use belongs in the tests
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            names = _names_used(stmt)
            for name in _defined_names(stmt):
                defined.append((path.stem, name))
                names.discard(name)  # its own statement is no reader
            used |= names
    assert CALLED_FROM_OUTSIDE <= set(defined)
    unused = [f"{module}.{name}" for module, name in defined
              if name not in used and (module, name) not in CALLED_FROM_OUTSIDE]
    assert unused == []


def test_each_name_called_from_outside_is_called_by_the_benchmark_harness():
    # the allowlist retires itself: once pipebench/run.py stops calling a name, its entry must go
    tree = ast.parse((ROOT / "pipebench" / "run.py").read_text())
    called = {(node.func.value.id, node.func.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name)}
    assert CALLED_FROM_OUTSIDE <= called


def test_every_class_member_has_a_reader_in_src():
    # a method or property that only tests read belongs in the tests; dunders are called implicitly
    defined, reads = [], Counter()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        reads.update(_reads(tree))
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for stmt in cls.body:
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and not stmt.name.startswith("__"):
                        defined.append(f"{path.stem}.{cls.name}.{stmt.name}")
                        reads[stmt.name] -= _reads(stmt)[stmt.name]  # its own body is no reader
    assert [name for name in defined if reads[name.rpartition(".")[2]] <= 0] == []


def _attribute_loads(tree: ast.AST) -> Counter:
    """How often a piece of code reads each attribute name."""
    return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))


def test_every_attribute_set_in_post_init_has_a_reader_in_src():
    # a view built at construction that no pass reads is dead weight; reads inside the
    # __post_init__ that builds it do not count
    assigned, reads = [], Counter()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        reads.update(_attribute_loads(tree))
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for stmt in cls.body:
                    if isinstance(stmt, ast.FunctionDef) and stmt.name == "__post_init__":
                        assigned += [f"{path.stem}.{cls.name}.{node.attr}" for node in ast.walk(stmt)
                                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                                     and getattr(node.value, "id", None) == "self"]
                        reads.subtract(_attribute_loads(stmt))
    assert assigned
    assert [name for name in assigned if reads[name.rpartition(".")[2]] <= 0] == []


# result fields that only tests and pipebench/ read today: the tracer reads augmentations until
# ROADMAP item 1's --metrics does
UNREAD_FIELDS = {"sparsify.SparsificationResult.augmentations"}


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in cls.decorator_list)


def test_every_dataclass_field_has_a_reader_in_src():
    # a field only tests read belongs in the tests; only an attribute load x.field reads it, not a
    # constructor keyword or a local of the same name
    fields, reads = [], Counter()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        reads.update(_attribute_loads(tree))
        fields += [f"{path.stem}.{cls.name}.{stmt.target.id}"
                   for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
                   for stmt in cls.body if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    assert UNREAD_FIELDS <= set(fields)
    assert [name for name in fields if reads[name.rpartition(".")[2]] <= 0 and name not in UNREAD_FIELDS] == []


def test_each_unread_field_is_read_by_the_benchmark_tracer():
    # the allowlist retires itself: once pipebench/spans.py stops reading a field, its entry must go
    reads = _attribute_loads(ast.parse((ROOT / "pipebench" / "spans.py").read_text()))
    assert [name for name in UNREAD_FIELDS if reads[name.rpartition(".")[2]] <= 0] == []


def test_every_imported_name_is_read_by_its_module():
    # an import its module never reads is dead weight; the strings in __all__ count as reads
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported, read = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                read |= set(ast.literal_eval(node.value))
        unread += [f"{path.stem}.{name}" for name in sorted(imported - read)]
    assert unread == []


def _is_modular_inverse(node: ast.AST) -> bool:
    """A call pow(_, -1, _)."""
    return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "pow" and len(node.args) == 3
            and ast.unparse(node.args[1]) == "-1")


def test_one_modular_inverse_implementation():
    # every inverse in src/ goes through the batched product tree; its root is the one pow(_, -1, _)
    found = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            owner = getattr(stmt, "name", None)
            found += [(path.stem, owner) for node in ast.walk(stmt) if _is_modular_inverse(node)]
    assert found == [("kernels", "inverse")]
