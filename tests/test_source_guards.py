import ast
from pathlib import Path

import walklab

PACKAGE = Path(walklab.__file__).resolve().parent


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so a check written as one
    # passes vacuously; every check in the package must raise explicitly
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert not found, f"assert statements in walklab: {found}"
