"""Rules every module in src/ keeps, checked on its syntax tree.

A docstring or comment that reads like code breaks no rule: only statements
and expressions are checked.
"""

import ast
from pathlib import Path

import pytest

from cubecodec import errors

_SRC = Path(__file__).resolve().parents[1] / "src"
_TREES = {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
          for path in sorted(_SRC.rglob("*.py"))}
#: what a raise may name: the CodecError classes, or ``error``, the class the
#: checks in errors.py are given to raise
_RAISABLE = {name for name, value in vars(errors).items()
             if isinstance(value, type) and issubclass(value, errors.CodecError)} | {"error"}


def _names(node) -> set[str]:
    """Every name and attribute name in ``node``."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))} if node else set()


def _unfrozen_dataclass(node) -> bool:
    return isinstance(node, ast.ClassDef) and any(
        "dataclass" in _names(d) and not (isinstance(d, ast.Call) and any(
            k.arg == "frozen" and isinstance(k.value, ast.Constant) and k.value.value is True
            for k in d.keywords))
        for d in node.decorator_list)


def _raises_other_class(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:  # a bare raise re-raises
        return False
    raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return not (isinstance(raised, ast.Name) and raised.id in _RAISABLE)


def _uses_numbers(node) -> bool:
    return (isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.module == "numbers"
            or isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "numbers")


#: rule -> (the test of one node, the module it does not apply to)
_RULES = {
    # python -O strips assert statements: every check in src/ raises a CodecError instead
    "no bare assert": (lambda node: isinstance(node, ast.Assert), None),
    # a record is built once, checked or not, and no code assigns to it after that
    "every dataclass is frozen": (_unfrozen_dataclass, None),
    # the contract: a public call returns a result or raises a CodecError, nothing else
    "every raise names a CodecError class": (_raises_other_class, None),
    # records raise ValidationError, and parse_stream alone reports it as a CorruptError
    "no CorruptError caught": (
        lambda node: isinstance(node, ast.ExceptHandler) and "CorruptError" in _names(node.type),
        None),
    # one check per kind of value: type and range tests go through the errors.py helpers
    "argument checks only in errors.py": (_uses_numbers, "errors.py"),
}


@pytest.mark.parametrize("rule", list(_RULES))
def test_src_keeps_the_rule(rule):
    breaks, exempt = _RULES[rule]
    found = [f"{path.relative_to(_SRC)}:{node.lineno}" for path, tree in _TREES.items()
             if path.name != exempt for node in ast.walk(tree) if breaks(node)]
    assert not found, f"{rule}: broken at {', '.join(found)}"
