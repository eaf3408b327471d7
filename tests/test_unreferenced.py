"""Every public module-level function and class in src/sumprodlab is used by
other code there, or is listed in ALLOWED as API kept for library callers.

A use is a name or attribute anywhere in the package's code outside the
definition itself; imports and __all__ entries do not count, so a name that
is only re-exported is still reported.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sumprodlab"

# Public names that no code in src/ uses, each with the reason it stays.
ALLOWED = {
    "gset_modp": "builds a mod-p set from residues; exported by the package",
    "write_gset": "writes the set files that --set and read_gset read",
    "generate_from_string": "builds a set from a family spec in one call; exported by the package",
    "registry": "the registered checks by id, for library callers",
}


def _scan() -> tuple[dict[str, str], set[str]]:
    """({qualified name: name} of public module-level defs, names used)."""
    defs: dict[str, str] = {}
    used: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        for stmt in ast.parse(path.read_text()).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = stmt.name
                if not own.startswith("_"):
                    defs[f"{module}.{own}"] = own
            names = {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)}
            names |= {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
            used |= names - {own}  # a recursive call is no use from outside
    return defs, used


def test_every_public_definition_is_used_or_allowed():
    defs, used = _scan()
    unused = sorted(q for q, name in defs.items() if name not in used and name not in ALLOWED)
    assert unused == [], f"public definitions nothing in src/ uses: {unused}"


def test_allow_list_names_only_unused_definitions():
    defs, used = _scan()
    names = set(defs.values())
    assert sorted(n for n in ALLOWED if n not in names) == []  # still defined
    assert sorted(n for n in ALLOWED if n in used) == []  # still needed on the list
