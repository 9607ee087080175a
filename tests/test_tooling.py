import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pbna"

# pipebench/run.py and its SETUP_CODE call kernels.warmup until ROADMAP item 2b removes it
CALLED_FROM_OUTSIDE = {("kernels", "warmup")}


def _names_used(tree: ast.AST) -> set[str]:
    """Every name a piece of code reads, imports or looks up as an attribute."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_every_module_level_definition_has_a_caller_in_src():
    # code in src/ that only tests use belongs in the tests
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            names = _names_used(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path.stem, stmt.name))
                names.discard(stmt.name)  # its own body is no caller
            used |= names
    assert CALLED_FROM_OUTSIDE <= set(defined)
    unused = [f"{module}.{name}" for module, name in defined
              if name not in used and (module, name) not in CALLED_FROM_OUTSIDE]
    assert unused == []
