"""Every public name of ``scalereg`` has a user outside the tests.

A name in ``scalereg.__all__`` must be read by some module of the
package other than ``__init__`` (its own module counts, the line that
defines it does not), or be named by ``perfbench/`` or ``benchmarks/``.
The only exceptions are the functions that compute or check a quantity
the paper defines, listed below: they are the library's reason to exist
even where no command calls them.  A public function that only a test
calls is dropped instead.
"""

import ast
import re
import types
from pathlib import Path

import scalereg

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(scalereg.__file__).resolve().parent

PAPER_QUANTITIES = frozenset({
    "check_effdim_relation",
    "check_heinz_bound",
    "check_index_function",
    "check_interpolation",
    "check_lemma_envelope",
    "check_tail_condition",
    "compute_lambda_q",
    "compute_psi",
    "compute_tx_deviation",
    "compute_upsilon",
    "compute_xi",
    "distance_bound",
    "empirical_cov",
    "r_of_lambda",
})


def _names_read_by_package() -> set:
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _text_outside_package() -> str:
    return "\n".join(path.read_text(encoding="utf-8")
                     for folder in ("perfbench", "benchmarks")
                     for path in sorted((ROOT / folder).rglob("*.py")))


def _exports() -> list:
    return [name for name in scalereg.__all__
            if not isinstance(getattr(scalereg, name), types.ModuleType)]


def _has_user(name: str, read: set, outside: str) -> bool:
    return name in read or re.search(rf"\b{name}\b", outside) is not None


def test_every_export_has_a_user_or_is_a_paper_quantity():
    read, outside = _names_read_by_package(), _text_outside_package()
    unused = sorted(name for name in _exports()
                    if not _has_user(name, read, outside)
                    and name not in PAPER_QUANTITIES)
    assert unused == [], f"exported but used only by tests: {unused}"


def test_paper_quantity_list_holds_only_what_needs_it():
    # a listed name that is gone, or that the program uses anyway, is
    # dropped from the list so that the list stays the exception
    read, outside = _names_read_by_package(), _text_outside_package()
    exported = set(_exports())
    stale = sorted(name for name in PAPER_QUANTITIES
                   if name not in exported
                   or _has_user(name, read, outside))
    assert stale == []
