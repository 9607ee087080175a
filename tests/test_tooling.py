import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pbna"

# pipebench/run.py and its SETUP_CODE call kernels.warmup until ROADMAP item 2 removes it
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
