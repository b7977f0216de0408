"""Reach-or-delete guard: every module-level function and class in ``src/prooflab`` is
mentioned by some other top-level statement of the package or exported from
``prooflab/__init__.py`` (its ``__all__``), apart from a pinned list of names kept for a
stated reason."""

import ast
import pathlib

import prooflab

# name: why it stays although nothing in the package reaches it
KEPT_UNREACHED = {
    "range_condition_check": "the paper's bounded range condition, to be reached from the CLI",
    "uc_modulus_check": "the numerical side of the uniform-continuity axiom",
    "verify_resolvent_param_modulus": "instantiates the resolvent's parameter modulus",
    "uc_star_formula": "the symbolic side of the uniform-continuity axiom",
    "classify_quantifier_class": "the paper's quantifier classes of a formula",
    "parse_term": "test helper: terms from text",
    "argument_types": "test helper: the argument types of an arrow type",
    "real_from_canonical": "test helper: the real number a canonical code denotes",
    "leq_term": "test helper: the term for <= on naturals",
}


def _mentions(node: ast.AST) -> set[str]:
    """Identifiers a statement uses: names, attributes and imported names."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
    return out


def test_every_definition_is_reached_or_pinned():
    src = pathlib.Path(prooflab.__file__).parent
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(src.glob("*.py"))}
    del trees["__init__.py"]  # its public names are strings in a table, read through __all__
    exported = set(prooflab.__all__)
    statements = [stmt for tree in trees.values() for stmt in tree.body]
    mentioned = [_mentions(stmt) for stmt in statements]
    unreached = {
        stmt.name
        for i, stmt in enumerate(statements)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and stmt.name not in exported
        and not any(stmt.name in m for j, m in enumerate(mentioned) if j != i)
    }
    assert unreached == set(KEPT_UNREACHED)
