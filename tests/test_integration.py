"""Cross-module checks that don't belong to any single unit module."""

import ast
import importlib
import json
import random
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path
from types import ModuleType

import pytest
from helpers import fresh_env

import eiscong
from eiscong import cusps, ffield, newforms, scanner
from eiscong.arith import DomainError
from eiscong.characters import gauss_sum_inverse, quadratic_character
from eiscong.cusps import boundary_divisor
from eiscong.eisenstein import EisensteinParams
from eiscong.newforms import NetworkUnavailable
from eiscong.scanner import full_scan


def test_a_failing_hypothesis_test_is_reported(tmp_path, pytestconfig):
    """Under this suite's warning filters a failing @given test is reported
    as one failure (exit 1).  Reporting a falsifying example imports libcst,
    which warns on some installs; as an error, that warning stopped pytest
    with an INTERNALERROR, and the later tests never ran."""
    import subprocess

    filters = pytestconfig.getini("filterwarnings")
    assert "error" in filters
    (tmp_path / "pytest.ini").write_text(
        "[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters))
    (tmp_path / "test_falsified.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\ndef test_negative(x):\n    assert x < 0\n")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert proc.returncode == 1 and "1 failed" in proc.stdout, out


def test_full_scan_missing_data_is_actionable(tmp_path, monkeypatch):
    monkeypatch.setenv("EISCONG_CACHE", str(tmp_path))
    with pytest.raises(NetworkUnavailable, match="eiscong fetch"):
        full_scan(99, 3)


def test_full_scan_bound_exceeding_fixture(monkeypatch):
    with pytest.raises(DomainError, match="coefficients"):
        full_scan(121, 11, bound=1000)


def test_boundary_coefficient_at_one_over_p():
    """a_0 at the cusp [1; p] is beta / N' for p-good levels (the identity the
    order proof reads off)."""
    from eiscong.cusps import beta_constant, cusp_from_fraction

    phi = quadratic_character(5)
    P = EisensteinParams(phi, 725, 1, 29)
    D = boundary_divisor(P)
    c = cusp_from_fraction(725, 1, 5)
    assert c.ram_index() == 29
    assert D.coefficient(c) == beta_constant(P)


def _readme_python() -> str:
    """The README's python block, the worked example."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    return readme.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_worked_example():
    """The README's worked example runs as printed, and each value its
    comments give holds: both ends of the expansion, beta~ = 605 sqrt(-11)
    with sqrt(-11) the Gauss sum of phi, the order 605^10 11^5, the boundary
    check, the certified newform and prime, and the rendered descriptor."""
    block = _readme_python()
    ns = {}
    exec(compile(block, "README.md", "exec"), ns)
    comment = {}  # code line -> its comment, a comment-only line joining the line above
    for line in block.splitlines():
        code, _, note = (part.strip() for part in line.partition("#"))
        if code:
            comment[code], last = note, code
        else:
            comment[last] += note
    P, phi, res = ns["P"], ns["phi"], ns["res"]

    head, tail = comment["build_E(P, 12).pretty()"].strip("'").split("...")
    pretty = ns["build_E"](P, 12).pretty()
    assert pretty.startswith(head) and pretty.endswith(tail), pretty
    assert comment["beta_tilde(P)"].startswith("605 * sqrt(-11), exactly, in Q(zeta_22)")
    beta = ns["beta_tilde"](P)
    assert beta.field.m == 22
    root = beta * Fraction(1, 605)
    assert root * root == -11 and root * gauss_sum_inverse(phi) == 1
    assert comment["cuspidal_order(P)"] == "605**10 * 11**5"
    assert ns["cuspidal_order"](P) == 605 ** 10 * 11 ** 5
    assert comment["verify_boundary(P).ok"].startswith("True")
    assert ns["verify_boundary"](P).ok is True
    assert "121.2.a.d (mod 5)" in comment["res = full_scan(121, 11)"]
    assert (res.hits[0].report.newform, res.hits[0].report.prime) == ("121.2.a.d", 5)
    assert comment["res.hits[0].descriptor.render()"] == repr(res.hits[0].descriptor.render())


def _record_call_stacks(monkeypatch, targets):
    """Wrap each module attribute wherever a loaded eiscong module binds it,
    as a tracer from outside the library does.  Return the list that gains
    the stack of wrapped names at every wrapped call, and the dict that maps
    each wrapped name to the positional arguments of its calls."""
    stack, seen, positional = [], [], {}
    for module, name in targets:
        orig = getattr(module, name)

        def traced(*args, _orig=orig, _name=name, **kwargs):
            stack.append(_name)
            seen.append(tuple(stack))
            positional.setdefault(_name, []).append(args)
            try:
                return _orig(*args, **kwargs)
            finally:
                stack.pop()

        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] == "eiscong":
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        monkeypatch.setattr(mod, key, traced)
    return seen, positional


class _Session:
    """A stand-in HTTP session that is also its own 200 response."""

    status_code = 200

    def __init__(self, data):
        self.data = data

    def get(self, url, params=None, timeout=None):
        return self

    def json(self):
        return {"data": self.data}


def test_traced_call_chains(monkeypatch, tmp_path):
    """A tracer that wraps public functions through module globals reaches
    every layer of a scan and both parses of a cache round trip.  The
    benchmark's tracer reads the embedding key as the three positional
    arguments (k, field_poly, q) of reduction_embeddings, and the field as
    the second positional argument of roots_in_field."""
    seen, positional = _record_call_stacks(monkeypatch, [
        (scanner, "full_scan"), (scanner, "scan"), (scanner, "reduction_embeddings"),
        (ffield, "roots_in_field"), (newforms, "fetch_newforms"), (newforms, "parse_newforms")])
    scanner.full_scan(121, 11)
    assert ("full_scan", "scan", "reduction_embeddings", "roots_in_field") in seen
    keys = positional["reduction_embeddings"]
    assert keys and all(len(a) == 3 and isinstance(a[0], int) and isinstance(a[2], int)
                        and list(a[1]) == [int(c) for c in a[1]] for a in keys)
    roots = positional["roots_in_field"]
    assert roots and all(len(a) == 2 and isinstance(a[1], ffield.FiniteField) for a in roots)
    data = json.loads(resources.files("eiscong.data").joinpath("newforms_121.json").read_text())
    seen.clear()
    newforms.fetch_newforms(121, endpoint="http://stub/api", cache_dir=tmp_path,
                            session=_Session(data))
    assert seen == [("fetch_newforms",), ("fetch_newforms", "parse_newforms")]
    seen.clear()
    newforms.fetch_newforms(121, cache_dir=tmp_path, offline=True)
    assert seen == [("fetch_newforms",), ("fetch_newforms", "parse_newforms")]


BENCH = Path(__file__).parents[1] / "bench"


@pytest.mark.parametrize("small", [True, False], ids=["small", "full"])
def test_traced_counts_do_not_depend_on_passes(monkeypatch, tmp_path, small):
    """Every count the benchmark's traced run reports is per pass, so it must
    not depend on how many passes fit.  Trace the scan-levels workload, at
    the --small size and at full size, for one pass and for three, each with
    the process's cusp maps emptied as a fresh process starts: every
    count-unit metric reads the same.  A cache above a traced call would
    divide its count by the number of passes.  Only the full size searches
    roots in a field above ENUMERATION_CAP, so only it has split calls."""
    monkeypatch.syspath_prepend(str(BENCH))
    run = importlib.import_module("run")
    workloads = importlib.import_module("workloads")
    counts = []
    for passes in (1, 3):
        cusps._cusp_map.cache_clear()
        wl = workloads.ScanLevels(small, workloads.load_goldens())
        wl.setup()
        wl.prepare(random.Random(1))
        wl.cache_dir, wl.min_passes = tmp_path, passes
        tracer = run.Tracer()
        run.install(tracer)
        try:
            samples, done = run.run_passes(wl, random.Random(1), 0, tracer)
        finally:
            tracer.uninstall()
        assert done == passes and [s.error for s in samples if s.error] == []
        metrics = run.span_metrics(tracer, done)
        counts.append({k: v for k, v in metrics.items() if run.PER_LAYER.get(k) == "count"})
    assert "scanner.reduction_embeddings_calls" in counts[0]
    assert (counts[0]["ffield.split_calls"] > 0) == (not small)
    assert counts[0] == counts[1]


# tl_eigenvalue: the T_l eigenvalue of a series, kept for the eigenform-property
# check that ROADMAP item 3 plans.
UNCALLED_EXPORTS = {"tl_eigenvalue"}


def test_every_export_has_a_caller():
    """Every name `eiscong/__init__.py` imports, every public module-level
    function of `src/eiscong`, and every public method or property of its
    classes, is referenced in a library module, in bench/ or scripts/, or
    imported by the README's python block; what only tests call belongs
    under tests/.  Names are read off the AST, so a name in a string or
    comment, or a function's own definition, is no caller.  A function or an
    imported name counts as called by any reference to its name; a method
    only by an attribute read of its name, so a local variable of the same
    name does not hide a dead method.  The check stays conservative: it
    misses a dead method that shares its name with a live attribute."""
    root = BENCH.parent
    src = root / "src" / "eiscong"
    functions = {alias.asname or alias.name
                 for node in ast.parse((src / "__init__.py").read_text()).body
                 if isinstance(node, ast.ImportFrom) for alias in node.names}
    methods = set()
    for p in src.glob("*.py"):
        for node in ast.parse(p.read_text()).body:
            if isinstance(node, ast.ClassDef):
                methods |= {f.name for f in node.body
                            if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")}
            elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                functions.add(node.name)

    def referenced(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield "name", node.id
            elif isinstance(node, ast.Attribute):
                yield "attribute", node.attr
            elif isinstance(node, ast.ImportFrom):
                yield from (("name", alias.name) for alias in node.names)

    paths = [p for p in src.glob("*.py") if p.name != "__init__.py"]
    paths += sorted(BENCH.glob("*.py")) + sorted((root / "scripts").glob("*.py"))
    refs = {ref for p in paths for ref in referenced(ast.parse(p.read_text()))}
    refs |= {("name", alias.name) for node in ast.parse(_readme_python()).body
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    attributes = {name for kind, name in refs if kind == "attribute"}
    uncalled = (functions - {name for _, name in refs}) | (methods - attributes)
    assert not uncalled - UNCALLED_EXPORTS, f"only tests call {sorted(uncalled)}"
    assert not UNCALLED_EXPORTS - uncalled, "an exception now has a caller"


_BINARY = ("add", "sub", "mul", "matmul", "truediv", "floordiv", "mod", "divmod", "pow",
           "lshift", "rshift", "and", "xor", "or")
OPERATOR_DUNDERS = {f"__{side}{op}__" for op in _BINARY for side in ("", "r", "i")}
OPERATOR_DUNDERS |= {"__neg__", "__pos__", "__abs__", "__invert__", "__call__"}
# CycElement addition and subtraction: tl_eigenvalue adds, and it is kept for
# the eigenform-property check that ROADMAP item 3 plans.
UNRUN_OPERATORS = {("CycElement", name) for name in ("__add__", "__radd__", "__sub__", "__rsub__")}


# Runs the README's worked example (argv[1]) and `cli.main` on each later
# argument under a profile hook, and prints the exit codes and the methods and
# properties (by their getter) of the value types whose code ran.
_VALUE_TYPE_PROBE = """
import contextlib, io, json, sys
from eiscong.characters import DirichletCharacter
from eiscong.cli import main
from eiscong.cyclotomic import CycElement
from eiscong.eisenstein import QExpansion
from eiscong.newforms import NewformRecord

ran = set()
sys.setprofile(lambda frame, event, arg: ran.add(frame.f_code) if event == "call" else None)
with contextlib.redirect_stdout(io.StringIO()):
    exec(compile(sys.argv[1], "README.md", "exec"), {})
    codes = [main(argv.split()) for argv in sys.argv[2:]]
sys.setprofile(None)
print(json.dumps({"codes": codes, "ran": [
    [cls.__name__, name] for cls in (CycElement, DirichletCharacter, NewformRecord, QExpansion)
    for name, value in vars(cls).items()
    if getattr(getattr(value, "fget", value), "__code__", None) in ran]}))
"""


def test_value_type_operators_run(tmp_path):
    """Every arithmetic or call dunder that CycElement and DirichletCharacter
    define, and every public method and property of NewformRecord and
    QExpansion, runs in the README's worked example or in the CLI's `beta`,
    `order`, `qexp`, an offline `scan` and an offline `fetch` from a warm
    cache.  The name-based export check above cannot see an operator, nor a
    method that shares its name with a live one, so one that only tests use
    shows up here.  A dunder is matched by its code object, so an alias
    (`__radd__ = __add__`) runs when its target does.  The probe runs in a
    fresh interpreter, where no memoized field or record hides a call."""
    from eiscong.characters import DirichletCharacter
    from eiscong.cyclotomic import CycElement
    from eiscong.eisenstein import QExpansion
    from eiscong.newforms import NewformRecord

    data = resources.files("eiscong.data").joinpath("newforms_121.json").read_text()
    (tmp_path / "newforms_121.json").write_text(data)
    commands = ["beta --level 121 --char 11.2.1", "order --level 121 --char 11.2.1",
                "qexp --level 234 --char 3.2.1 --M 13 --L 2 --prec 16",
                "scan --level 121 --p 11 --offline",
                f"fetch --level 121 --offline --cache-dir {tmp_path}"]
    proc = subprocess.run([sys.executable, "-c", _VALUE_TYPE_PROBE, _readme_python(), *commands],
                          capture_output=True, text=True, env=fresh_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout)
    assert probe["codes"] == [0] * len(commands)
    ran = {tuple(pair) for pair in probe["ran"]}
    unrun = {(cls.__name__, name) for cls in (CycElement, DirichletCharacter)
             for name in OPERATOR_DUNDERS & set(vars(cls)) if (cls.__name__, name) not in ran}
    assert not unrun - UNRUN_OPERATORS, f"only tests run {sorted(unrun - UNRUN_OPERATORS)}"
    assert not UNRUN_OPERATORS - unrun, "an exception now runs"
    unrun = {(cls.__name__, name) for cls in (NewformRecord, QExpansion)
             for name, value in vars(cls).items() if not name.startswith("_")
             and hasattr(getattr(value, "fget", value), "__code__") and (cls.__name__, name) not in ran}
    assert not unrun, f"only tests run {sorted(unrun)}"


def test_benchmark_names_exist(monkeypatch):
    """The benchmark in bench/ is changed apart from the library, so a name it
    reads that the library drops breaks only its traced run.  Check every
    function `run.install` wraps, every eiscong name bench/ imports or reads
    off an imported module, and the attributes its workloads read off library
    objects."""
    monkeypatch.syspath_prepend(str(BENCH))
    run = importlib.import_module("run")

    class Recorder:
        def __init__(self):
            self.wrapped = []

        def install(self, module, attr, name, sizes=None):
            self.wrapped.append((module, attr))

    recorder = Recorder()
    run.install(recorder)
    assert recorder.wrapped
    for module, attr in recorder.wrapped:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"

    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {}  # local name -> eiscong module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "eiscong":
                base = importlib.import_module(node.module)
                for alias in node.names:
                    value = getattr(base, alias.name, None)
                    assert value is not None, f"{path.name}: {node.module}.{alias.name}"
                    if isinstance(value, ModuleType):
                        modules[alias.asname or alias.name] = value
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in modules:
                assert hasattr(modules[node.value.id], node.attr), \
                    f"{path.name}: {node.value.id}.{node.attr}"

    from eiscong.cusps import BoundaryReport
    from eiscong.cyclotomic import _CycField
    from eiscong.scanner import ScanHit
    read = {
        eiscong.QExpansion: ("machine_lines", "coefficient", "precision"),
        eiscong.FiniteField: ("size",),
        eiscong.IntegralIdeal: ("index",),
        eiscong.CycElement: ("is_integral", "norm_to_Q", "coeffs", "field"),
        _CycField: ("zeta", "degree", "m", "one"),
        eiscong.EisensteinParams: ("phi", "N", "M", "L", "field", "label"),
        eiscong.DirichletCharacter: ("label", "is_trivial"),
        eiscong.IdealDescriptor: ("render", "to_json", "residue_field"),
        eiscong.CongruenceReport: ("eisenstein", "newform", "prime", "embedding", "to_json"),
        eiscong.FullScanResult: ("level", "p", "bound", "candidate_primes", "hits", "reports",
                                 "skipped"),
        ScanHit: ("report", "params", "descriptor", "largest_M"),
        BoundaryReport: ("ok",),
    }
    for cls, names in read.items():
        have = set(cls._fields)
        for name in names:
            assert name in have or hasattr(cls, name), f"{cls.__name__}.{name}"
