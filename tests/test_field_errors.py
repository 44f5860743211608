"""Every refusal of a config object names a key that a document holds.

The objects that a config document builds (``PowerProblemSpec`` with
its ``NoiseModel``, ``ExperimentConfig``, ``LambdaRule`` and
``IndexFunction``) own the rules on their values and raise
``FieldError(key, message)``; the command line reports it at the JSON
pointer of ``key`` under the object's own.  A key that no document can
hold, such as ``filter_id`` or ``d_override``, would point nowhere, so
an AST scan of the package checks every literal key against the schema
``Group`` that builds its class.
"""

import ast
from pathlib import Path

import scalereg
from scalereg.cli import COMMANDS, INDEX_FN, PROBLEM, RULE, Group

PACKAGE = Path(scalereg.__file__).resolve().parent

BUILT_BY = {"PowerProblemSpec": PROBLEM, "NoiseModel": PROBLEM,
            "ExperimentConfig": COMMANDS["rate"][0], "LambdaRule": RULE,
            "IndexFunction": INDEX_FN}


def _refusals() -> list:
    """(module, class or None, key or None) of every ``FieldError(...)``
    call in the package; the key is None unless it is a string
    literal."""
    found = []

    def visit(node, module, owner):
        if isinstance(node, ast.ClassDef) and owner is None:
            owner = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "FieldError"):
            arg = node.args[0] if node.args else None
            key = (arg.value if isinstance(arg, ast.Constant)
                   and isinstance(arg.value, str) else None)
            found.append((module, owner, key))
        for child in ast.iter_child_nodes(node):
            visit(child, module, owner)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, None)
    return found


def _holds(node, key: str) -> bool:
    """Whether ``key`` ("r", "params/value") names a field of the group
    ``node``, or of one of its variants, at every level."""
    part, _, rest = key.partition("/")
    return isinstance(node, Group) and any(
        part in fields and (not rest or _holds(fields[part].read, rest))
        for fields in (node.fields, *node.variants.values()))


def test_every_refusal_names_a_field_of_its_schema():
    refusals = _refusals()
    stray = [r for r in refusals if r[1] not in BUILT_BY or r[2] is None]
    assert stray == [], ("a FieldError outside the config objects, or "
                         f"with a computed key: {stray}")
    unheld = [r for r in refusals if not _holds(BUILT_BY[r[1]], r[2])]
    assert unheld == [], f"keys that no config document holds: {unheld}"
    # the scan sees every config object's refusals, and the walk
    # refuses the attribute names that a document does not spell
    assert {owner for _, owner, _ in refusals} == set(BUILT_BY)
    assert _holds(RULE, "params/value") and _holds(RULE, "params/case")
    assert not _holds(PROBLEM, "d_override")
    assert not _holds(COMMANDS["rate"][0], "filter_id")
