"""No code path in the library uses floating point: every module of the
package is parsed and searched for float literals and float(...) calls."""

import ast
from pathlib import Path

import eiscong


def test_library_has_no_floating_point():
    sources = sorted(Path(eiscong.__file__).parent.glob("*.py"))
    assert len(sources) >= 14
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            literal = isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
            call = (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "float")
            if literal or call:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"floating point in {found}"
