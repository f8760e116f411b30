"""Every public top-level function and class in src/susyqm has a reader in the package,
and every dataclass field a statement that reads it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "susyqm"

# the public names no module of the package reads, each kept for its one reason
UNREAD_BUT_KEPT = {
    "bound_states_of": "perfbench's set-up probe imports it",
    "partner_rt": "perfbench's transmission_sweep imports it",
    "hill_discriminant": "perfbench's transmission_sweep imports it",
    "sip_eigenfunction": "the paper's ladder-operator construction of psi_n (catalog docstring)",
}


def _names_read(node):
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_every_public_helper_has_a_reader():
    statements = [  # (top-level statement, the names it reads)
        (stmt, _names_read(stmt))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    unread = set()
    for stmt, _ in statements:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
            # a definition's own body does not count as its reader
            if not any(stmt.name in names for other, names in statements if other is not stmt):
                unread.add(stmt.name)
    assert unread == set(UNREAD_BUT_KEPT)


# dataclasses read whole rather than field by field
READ_WHOLE = {"CheckResult": "cli._cmd_check serializes each result with asdict"}


def test_every_dataclass_field_has_a_reader():
    modules = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for folder in (PACKAGE, ROOT / "tests", ROOT / "perfbench")
        for path in sorted(folder.glob("*.py"))
    }
    read = {
        node.attr
        for tree in modules.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = {
        f"{cls.name}.{stmt.target.id}"
        for path, tree in modules.items()
        if path.parent == PACKAGE
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name not in READ_WHOLE
        and any(ast.unparse(d).startswith("dataclass") for d in cls.decorator_list)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name) and stmt.target.id not in read
    }
    assert unread == set()
