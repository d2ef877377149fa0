"""No code path in the library uses floating point: every module of the
package is parsed and searched for float literals and float(...) calls.  The
root-finding, scan and candidate-prime modules keep no process-wide cache."""

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


def _is_cache(node):
    """`cache`, `lru_cache`, `functools.cache`, ... or a call of one."""
    if isinstance(node, ast.Call):
        node = node.func
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name in ("cache", "lru_cache")


def test_no_process_wide_caches_in_ffield_and_scanner():
    """ffield.py, scanner.py and ideals.py define no module-level functools
    cache but `conway_style_modulus`.  A cache that outlives one scan helps
    only repeated identical scans, which is what a benchmark that repeats its
    scans rewards, and not the first scan in a fresh process; the same holds
    for the B2 norms behind the candidate primes of every scan."""
    package = Path(eiscong.__file__).parent
    found = []
    for name in ("ffield.py", "scanner.py", "ideals.py"):
        body = list(ast.parse((package / name).read_text(), filename=name).body)
        for node in body:
            if isinstance(node, ast.ClassDef):
                body += node.body
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if (any(map(_is_cache, node.decorator_list))
                        and (name, node.name) != ("ffield.py", "conway_style_modulus")):
                    found.append(f"{name}:{node.name}")
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                if node.value is not None and any(map(_is_cache, ast.walk(node.value))):
                    found.append(f"{name}:{node.lineno}")
    assert not found, f"process-wide caches in {found}"
