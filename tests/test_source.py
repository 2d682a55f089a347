"""Source-level rules for the package itself."""

import ast
from pathlib import Path

import tracecc

PACKAGE = Path(tracecc.__file__).parent


def test_no_verification_rests_on_assert():
    # python -O strips assert statements, so a check must raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
